#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

// The paper's bounded-slowdown threshold (seconds), restated here so the
// oracle does not lean on the simulator's own constant.
constexpr double kBsldThresholdSeconds = 10.0;

std::string job_error(std::size_t i, const std::string& what) {
  return "job " + std::to_string(i) + ": " + what;
}

}  // namespace

std::string check_schedule(const rlbf::swf::Trace& trace,
                           const std::vector<rlbf::sim::JobResult>& results) {
  if (results.size() != trace.size()) {
    return "schedule has " + std::to_string(results.size()) + " results for " +
           std::to_string(trace.size()) + " jobs";
  }
  // (time, +procs at a start / -procs at an end); ends sort first at
  // equal times because -procs < +procs.
  std::vector<std::pair<std::int64_t, std::int64_t>> events;
  events.reserve(2 * results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& job = trace[i];
    if (r.job_index != i) return job_error(i, "result out of trace order");
    if (r.submit_time != job.submit_time) return job_error(i, "submit time changed");
    if (r.procs != job.procs() || r.procs <= 0) {
      return job_error(i, "processor count changed");
    }
    if (r.start_time < r.submit_time) return job_error(i, "starts before it is submitted");
    const std::int64_t run = r.end_time - r.start_time;
    const std::int64_t request =
        job.requested_time > 0 ? job.requested_time : job.run_time;
    if (r.killed) {
      if (job.run_time <= request) return job_error(i, "killed within its request time");
      if (run != request) return job_error(i, "killed job did not run its request time");
    } else if (run != job.run_time) {
      return job_error(i, "run time differs from the actual runtime");
    }
    const double wait = static_cast<double>(r.start_time - r.submit_time);
    const double bsld = std::max(
        1.0, (wait + static_cast<double>(run)) /
                 std::max(static_cast<double>(run), kBsldThresholdSeconds));
    const double reported = r.bounded_slowdown();
    if (!(reported >= 1.0)) return job_error(i, "bounded slowdown below 1");
    if (std::abs(reported - bsld) > 1e-9 * bsld) {
      return job_error(i, "bounded slowdown disagrees with its start and end");
    }
    events.emplace_back(r.start_time, r.procs);
    events.emplace_back(r.end_time, -r.procs);
  }
  std::sort(events.begin(), events.end());
  std::int64_t in_use = 0;
  for (const auto& [time, delta] : events) {
    in_use += delta;
    if (in_use > trace.machine_procs()) {
      return "time " + std::to_string(time) + ": " + std::to_string(in_use) +
             " processors in use on a " + std::to_string(trace.machine_procs()) +
             "-processor machine";
    }
  }
  return "";
}

std::string oracle_self_test() {
  using rlbf::sim::JobResult;
  using rlbf::swf::Job;
  const auto job = [](std::int64_t id, std::int64_t submit, std::int64_t run,
                      std::int64_t procs) {
    Job j;
    j.id = id;
    j.submit_time = submit;
    j.run_time = run;
    j.requested_time = run;
    j.requested_procs = procs;
    j.used_procs = procs;
    return j;
  };
  const auto result = [](std::size_t index, std::int64_t submit, std::int64_t start,
                         std::int64_t run, std::int64_t procs) {
    JobResult r;
    r.job_index = index;
    r.submit_time = submit;
    r.start_time = start;
    r.end_time = start + run;
    r.procs = procs;
    return r;
  };
  const rlbf::swf::Trace trace("oracle-self-test", 4,
                               {job(1, 0, 100, 3), job(2, 50, 100, 3)});

  // Valid: the second job waits for the first to release its processors.
  if (const std::string e =
          check_schedule(trace, {result(0, 0, 0, 100, 3), result(1, 50, 100, 100, 3)});
      !e.empty()) {
    return "oracle rejected a valid schedule: " + e;
  }
  // Over-allocated: both 3-processor jobs overlap on a 4-processor machine.
  if (check_schedule(trace, {result(0, 0, 0, 100, 3), result(1, 50, 50, 100, 3)})
          .empty()) {
    return "oracle accepted an over-allocated schedule";
  }
  // Start before submit: the second job starts at 10 but arrives at 50.
  const rlbf::swf::Trace wide("oracle-self-test", 8,
                              {job(1, 0, 100, 3), job(2, 50, 100, 3)});
  if (check_schedule(wide, {result(0, 0, 0, 100, 3), result(1, 50, 10, 100, 3)})
          .empty()) {
    return "oracle accepted a job that starts before it is submitted";
  }
  return "";
}

}  // namespace perfbench
