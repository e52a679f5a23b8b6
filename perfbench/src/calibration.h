// Machine-speed calibration. On a 4-vCPU VM that shares its cores with
// other tenants, the machine's speed swings by up to 2x in waves of
// several seconds: a fixed compute loop took 0.21 s, then 0.40 s, with
// CPU time close to wall time. A run's jobs/s follows those waves, so it
// cannot tell a slower program from a slower minute.
//
// A pass therefore interleaves a fixed calibration kernel with its timed
// calls into the program and reports its throughput in jobs per
// calibration-kernel run: jobs ÷ Σ (work interval ÷ kernel wall), where
// each interval of work between two kernel runs is divided by the faster
// of those two. A slowdown of the machine lengthens both and cancels; a
// slower program lengthens only the work. The faster of the two, because
// a momentary stall can double one 10 ms kernel run while an interval of
// work, tenths of a second long, averages it out. The kernel is the
// benchmark's own code, built apart from the rlbf library's compile
// options (see CMakeLists.txt), so no change to the program moves it.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>

namespace perfbench {

/// Runs the calibration kernel (a sort of 64k integers and a chain of
/// small matrix-vector products, about 10 ms) once on each of `threads`
/// threads at the same time, and returns the wall seconds until all have
/// finished: a workload that runs on two threads waits for the slower
/// one, and so does its calibration.
double calibration_kernel_seconds(std::size_t threads);

/// Times one pass's calls into the program, with the calibration kernel
/// run before the first, after the last, between calls at least every
/// kKernelEvery seconds of work, and wherever calibrate_inside() asks.
class CalibratedTimer {
 public:
  static constexpr double kKernelEvery = 0.15;

  /// `threads`: how many threads the timed work runs on.
  explicit CalibratedTimer(std::size_t threads = 1);
  /// Runs `work`, adds its wall time, and runs the kernel when
  /// kKernelEvery seconds of work have passed since the last kernel run.
  void time(const std::function<void()>& work);
  /// Runs the kernel from inside a time() call, at a break in a long call
  /// into the program (a training epoch); its wall is not counted as work.
  void calibrate_inside();
  /// Runs the kernel once more; later calls to time() are not allowed.
  void finish();

  /// Wall seconds of the timed work (kernel runs excluded).
  double work_seconds() const { return work_s_; }
  /// jobs ÷ Σ (work interval ÷ the faster kernel run around it), after
  /// finish().
  double jobs_per_cal(double jobs) const;

 private:
  void add_work(double seconds);
  void run_kernel();

  std::size_t threads_;
  bool finished_ = false;
  double work_s_ = 0.0;
  double open_work_s_ = 0.0;  // work since the last kernel run
  double last_kernel_s_ = 0.0;
  double work_cal_ = 0.0;  // closed work intervals, in kernel runs
  std::chrono::steady_clock::time_point chunk_start_;
};

}  // namespace perfbench
