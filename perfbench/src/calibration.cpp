#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSortItems = 1 << 16;
constexpr std::size_t kDim = 64;
constexpr int kMatvecSteps = 800;

/// The kernel's fixed inputs, made once (xorshift64 from a fixed state).
const std::vector<std::uint32_t>& kernel_input() {
  static const std::vector<std::uint32_t> input = [] {
    std::vector<std::uint32_t> v(kSortItems);
    std::uint64_t x = 88172645463325252ull;
    for (auto& item : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      item = static_cast<std::uint32_t>(x);
    }
    return v;
  }();
  return input;
}

/// One run of the kernel's fixed work; returns a value that depends on all of it.
double kernel_body(const std::vector<std::uint32_t>& input) {
  std::vector<std::uint32_t> items = input;
  std::sort(items.begin(), items.end());
  std::vector<float> w(kDim * kDim), v(kDim, 1.0f), out(kDim);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(input[i] % 1000) * 1e-3f;
  }
  for (int step = 0; step < kMatvecSteps; ++step) {
    for (std::size_t r = 0; r < kDim; ++r) {
      float s = 0.0f;
      for (std::size_t c = 0; c < kDim; ++c) s += w[r * kDim + c] * v[c];
      out[r] = s > 0.0f ? s * 0.01f : 0.0f;
    }
    std::swap(v, out);
  }
  return static_cast<double>(items[kSortItems / 2]) + v[0];
}

volatile double g_sink = 0.0;  // keeps the kernel's result observable

}  // namespace

double calibration_kernel_seconds(std::size_t threads) {
  const std::vector<std::uint32_t>& input = kernel_input();
  std::vector<double> results(std::max<std::size_t>(threads, 1));
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> others;
    for (std::size_t t = 1; t < results.size(); ++t) {
      others.emplace_back([&input, &results, t] { results[t] = kernel_body(input); });
    }
    results[0] = kernel_body(input);
  }  // joins the other threads
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  double sum = 0.0;
  for (double r : results) sum += r;
  g_sink = sum;
  return seconds;
}

CalibratedTimer::CalibratedTimer(std::size_t threads) : threads_(threads) { run_kernel(); }

void CalibratedTimer::time(const std::function<void()>& work) {
  if (finished_) throw std::logic_error("CalibratedTimer::time after finish");
  chunk_start_ = Clock::now();
  work();
  add_work(std::chrono::duration<double>(Clock::now() - chunk_start_).count());
  if (open_work_s_ >= kKernelEvery) run_kernel();
}

void CalibratedTimer::calibrate_inside() {
  add_work(std::chrono::duration<double>(Clock::now() - chunk_start_).count());
  run_kernel();
  chunk_start_ = Clock::now();
}

void CalibratedTimer::finish() {
  if (finished_) return;
  if (open_work_s_ > 0.0) run_kernel();
  finished_ = true;
}

double CalibratedTimer::jobs_per_cal(double jobs) const {
  if (!finished_) throw std::logic_error("CalibratedTimer::jobs_per_cal before finish");
  return jobs / work_cal_;
}

void CalibratedTimer::add_work(double seconds) {
  work_s_ += seconds;
  open_work_s_ += seconds;
}

void CalibratedTimer::run_kernel() {
  const double kernel_s = calibration_kernel_seconds(threads_);
  if (open_work_s_ > 0.0) work_cal_ += open_work_s_ / std::min(last_kernel_s_, kernel_s);
  open_work_s_ = 0.0;
  last_kernel_s_ = kernel_s;
}

}  // namespace perfbench
