#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include "workload/presets.h"

namespace rlbf::sched {
namespace {

TEST(SchedulerSpec, LabelsMatchPaperNaming) {
  EXPECT_EQ((SchedulerSpec{"FCFS", BackfillKind::Easy, EstimateKind::RequestTime}).label(),
            "FCFS+EASY");
  EXPECT_EQ((SchedulerSpec{"SJF", BackfillKind::Easy, EstimateKind::ActualRuntime}).label(),
            "SJF+EASY-AR");
  EXPECT_EQ((SchedulerSpec{"FCFS", BackfillKind::None, EstimateKind::RequestTime}).label(),
            "FCFS+NOBF");
  EXPECT_EQ((SchedulerSpec{"WFP3", BackfillKind::Conservative, EstimateKind::RequestTime})
                .label(),
            "WFP3+CONS");
  EXPECT_EQ((SchedulerSpec{"FCFS", BackfillKind::Slack, EstimateKind::RequestTime})
                .label(),
            "FCFS+SLACK");
  SchedulerSpec noisy{"FCFS", BackfillKind::Easy, EstimateKind::Noisy};
  noisy.noise_fraction = 0.20;
  EXPECT_EQ(noisy.label(), "FCFS+EASY+20%");
}

TEST(SchedulerSpec, AgentLabelsCarryTheEstimateSuffix) {
  // An agent replaces the backfill part of the label; the estimate
  // suffix reads as it does for the heuristics.
  SchedulerSpec rl{"FCFS", BackfillKind::Easy, EstimateKind::RequestTime};
  rl.agent = "sdsc-tiny";
  EXPECT_EQ(rl.label(), "FCFS+RLBF");
  rl.estimate = EstimateKind::ActualRuntime;
  EXPECT_EQ(rl.label(), "FCFS+RLBF-AR");
  rl.estimate = EstimateKind::Noisy;
  rl.noise_fraction = 0.20;
  EXPECT_EQ(rl.label(), "FCFS+RLBF+20%");
}

TEST(ConfiguredScheduler, WiresPolicyAndEstimator) {
  SchedulerSpec spec{"SJF", BackfillKind::Easy, EstimateKind::ActualRuntime};
  const ConfiguredScheduler sched(spec);
  EXPECT_EQ(sched.policy().name(), "SJF");
  EXPECT_EQ(sched.estimator().name(), "ActualRuntime");
  ASSERT_NE(sched.chooser(), nullptr);
  EXPECT_EQ(sched.chooser()->name(), "EASY");
}

TEST(ConfiguredScheduler, NoneBackfillHasNullChooser) {
  SchedulerSpec spec{"FCFS", BackfillKind::None, EstimateKind::RequestTime};
  EXPECT_EQ(ConfiguredScheduler(spec).chooser(), nullptr);
}

TEST(ConfiguredScheduler, RejectsUnknownPolicy) {
  SchedulerSpec spec;
  spec.policy = "BOGUS";
  EXPECT_THROW(ConfiguredScheduler{spec}, std::invalid_argument);
}

TEST(ConfiguredScheduler, RunProducesMetrics) {
  const swf::Trace trace = workload::lublin_1(8, 400);
  SchedulerSpec spec{"FCFS", BackfillKind::Easy, EstimateKind::RequestTime};
  const auto out = ConfiguredScheduler(spec).run(trace);
  EXPECT_EQ(out.results.size(), trace.size());
  EXPECT_EQ(out.metrics.job_count, trace.size());
  EXPECT_GE(out.metrics.avg_bounded_slowdown, 1.0);
}

class SpecMatrixTest
    : public ::testing::TestWithParam<std::tuple<std::string, BackfillKind>> {};

TEST_P(SpecMatrixTest, EveryConfigurationSchedulesCompletely) {
  const auto& [policy, backfill] = GetParam();
  SchedulerSpec spec{policy, backfill, EstimateKind::RequestTime};
  const swf::Trace trace = workload::sdsc_sp2_like(12, 300);
  const auto out = ConfiguredScheduler(spec).run(trace);
  ASSERT_EQ(out.results.size(), trace.size());
  for (const auto& r : out.results) {
    EXPECT_GE(r.wait_time(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByBackfill, SpecMatrixTest,
    ::testing::Combine(::testing::Values("FCFS", "SJF", "WFP3", "F1"),
                       ::testing::Values(BackfillKind::None, BackfillKind::Easy,
                                         BackfillKind::EasySjf,
                                         BackfillKind::Conservative,
                                         BackfillKind::Slack)),
    [](const auto& info) {
      const std::string policy = std::get<0>(info.param);
      const BackfillKind backfill = std::get<1>(info.param);
      std::string b = backfill == BackfillKind::None         ? "NOBF"
                      : backfill == BackfillKind::Easy       ? "EASY"
                      : backfill == BackfillKind::EasySjf    ? "EASYSJF"
                      : backfill == BackfillKind::Conservative ? "CONS"
                                                             : "SLACK";
      return policy + "_" + b;
    });

TEST(ConfiguredScheduler, NoisyEstimatesAreSeeded) {
  SchedulerSpec a{"FCFS", BackfillKind::Easy, EstimateKind::Noisy};
  a.noise_fraction = 0.2;
  a.noise_seed = 5;
  SchedulerSpec b = a;
  const swf::Trace trace = workload::sdsc_sp2_like(13, 300);
  const auto ra = ConfiguredScheduler(a).run(trace);
  const auto rb = ConfiguredScheduler(b).run(trace);
  EXPECT_DOUBLE_EQ(ra.metrics.avg_bounded_slowdown, rb.metrics.avg_bounded_slowdown);
}

}  // namespace
}  // namespace rlbf::sched
