// Schedule pins for the conservative (CONS) and slack (SLACK) planners:
// an FNV-1a digest of every job's (start_time, backfilled) under each
// chooser x base policy, on a deep-queue HPC2N trace (queues of 90-160
// jobs) with request-time estimates and on an SDSC-SP2 trace with
// noisy (+20%) estimates. A change to the planners' algorithms must
// leave every digest unchanged.
//
// Planning is integer arithmetic, but the workload generators draw the
// traces through the host's libm; on a mismatch the test prints the
// libm fingerprint, as the golden suite does, so host drift can be told
// apart from a schedule change.
#include <gtest/gtest.h>

#include <string>

#include "model/training_spec.h"
#include "sched/scheduler.h"
#include "util/libm_fingerprint.h"
#include "workload/presets.h"

namespace rlbf::sched {
namespace {

/// "start,backfilled" per job, in trace order, digested.
std::string schedule_digest(const std::vector<sim::JobResult>& results) {
  std::string text;
  for (const sim::JobResult& r : results) {
    text += std::to_string(r.start_time) + "," + (r.backfilled ? "1" : "0") + "\n";
  }
  return model::fnv1a_hex(text);
}

struct Pin {
  const char* policy;
  BackfillKind backfill;
  const char* digest;
};

void expect_pins(const swf::Trace& trace, EstimateKind estimate,
                 const std::vector<Pin>& pins) {
  for (const Pin& pin : pins) {
    const SchedulerSpec spec(pin.policy, pin.backfill, estimate,
                             estimate == EstimateKind::Noisy ? 0.2 : 0.0,
                             /*noise_seed=*/7);
    const ConfiguredScheduler scheduler(spec);
    SCOPED_TRACE(std::string(pin.policy) + "+" + scheduler.chooser()->name());
    const ScheduleOutcome outcome = scheduler.run(trace);
    EXPECT_EQ(schedule_digest(outcome.results), pin.digest)
        << "schedule changed (bsld " << outcome.metrics.avg_bounded_slowdown
        << "); host libm fingerprint:\n"
        << util::libm_fingerprint();
  }
}

TEST(ConservativePin, DeepQueueHpc2nRequestTimeEstimates) {
  expect_pins(workload::hpc2n_like(1, 1500), EstimateKind::RequestTime,
              {{"FCFS", BackfillKind::Conservative, "aaffe1ae7b3fd04e"},
               {"SJF", BackfillKind::Conservative, "467d36690d2998a0"},
               {"FCFS", BackfillKind::Slack, "b1c4765363e1cf0c"},
               {"SJF", BackfillKind::Slack, "731489c9f8cb963a"}});
}

TEST(ConservativePin, SdscSp2NoisyEstimates) {
  expect_pins(workload::sdsc_sp2_like(2, 1500), EstimateKind::Noisy,
              {{"FCFS", BackfillKind::Conservative, "5c2c87963a8a90ea"},
               {"SJF", BackfillKind::Conservative, "e250c410c35b733d"},
               {"FCFS", BackfillKind::Slack, "e60594ee7a704718"},
               {"SJF", BackfillKind::Slack, "9d4f06c915bda601"}});
}

}  // namespace
}  // namespace rlbf::sched
