#include "core/backfill_env.h"

#include <gtest/gtest.h>

#include "context_fixture.h"
#include "sched/policies.h"
#include "sched/scheduler.h"
#include "workload/presets.h"

namespace rlbf::core {
namespace {

using testing::ContextFixture;
using testing::make_job;

AgentConfig small_config() {
  AgentConfig cfg;
  cfg.obs.max_obsv_size = 32;
  cfg.obs.value_obsv_size = 4;
  return cfg;
}

/// A fixture where the only candidate (200 s, 2 procs, extra 0) would
/// delay the rjob's reservation.
ContextFixture delaying_opportunity() {
  return ContextFixture({make_job(1, 0, 100, 6, 100), make_job(2, 10, 100, 10, 100),
                         make_job(3, 20, 200, 2, 200)},
                        10, {{0, 0}}, {1, 2}, 50);
}

TEST(TrainingEnv, RequiresBaselineBeforeEpisode) {
  Agent agent(small_config(), 1);
  TrainingEnv env(agent, EnvConfig{}, util::Rng(1));
  swf::Trace t("t", 4, {});
  EXPECT_THROW(env.episode_begin(t), std::logic_error);
}

TEST(TrainingEnv, RejectsNonPositiveBaseline) {
  Agent agent(small_config(), 1);
  TrainingEnv env(agent, EnvConfig{}, util::Rng(1));
  EXPECT_THROW(env.set_baseline_bsld(0.0), std::invalid_argument);
  EXPECT_THROW(env.set_baseline_bsld(-1.0), std::invalid_argument);
}

TEST(TrainingEnv, ChooseOutsideEpisodeThrows) {
  Agent agent(small_config(), 1);
  TrainingEnv env(agent, EnvConfig{}, util::Rng(1));
  const ContextFixture fx = delaying_opportunity();
  const auto ctx = fx.context();
  EXPECT_THROW(env.choose(ctx), std::logic_error);
}

TEST(TrainingEnv, RecordsStepsWithDelayPenalty) {
  Agent agent(small_config(), 1);
  EnvConfig cfg;
  cfg.delay_rule = DelayRule::EstimatePenalty;  // the paper's mechanism
  cfg.delay_penalty = 2.5;
  TrainingEnv env(agent, cfg, util::Rng(1));
  env.set_baseline_bsld(10.0);
  const ContextFixture fx = delaying_opportunity();
  swf::Trace dummy("d", 10, {});
  env.episode_begin(dummy);
  const auto ctx = fx.context();
  const auto pick = env.choose(ctx);
  ASSERT_TRUE(pick.has_value());
  // The only candidate delays the reservation: the step carries the
  // negative penalty immediately.
  env.episode_end({});
  const rl::Episode ep = env.take_episode();
  ASSERT_EQ(ep.steps.size(), 1u);
  EXPECT_DOUBLE_EQ(ep.steps[0].reward, -2.5);
  EXPECT_EQ(ep.steps[0].mask.size(), ep.steps[0].policy_obs.rows());
}

TEST(TrainingEnv, MaskDelayingHidesInadmissibleCandidates) {
  Agent agent(small_config(), 1);
  EnvConfig cfg;
  cfg.delay_rule = DelayRule::HardMask;
  TrainingEnv env(agent, cfg, util::Rng(1));
  env.set_baseline_bsld(10.0);
  swf::Trace dummy("d", 10, {});
  env.episode_begin(dummy);
  const ContextFixture fx = delaying_opportunity();
  const auto ctx = fx.context();
  // The only candidate is inadmissible, so the env must decline.
  EXPECT_FALSE(env.choose(ctx).has_value());
  env.episode_end({});
  EXPECT_TRUE(env.take_episode().steps.empty());
}

TEST(TrainingEnv, TerminalRewardIsRelativeImprovement) {
  Agent agent(small_config(), 2);
  EnvConfig cfg;
  cfg.delay_rule = DelayRule::EstimatePenalty;  // keep the candidate selectable
  TrainingEnv env(agent, cfg, util::Rng(2));
  env.set_baseline_bsld(20.0);
  swf::Trace dummy("d", 10, {});
  env.episode_begin(dummy);
  const ContextFixture fx = delaying_opportunity();
  const auto ctx = fx.context();
  (void)env.choose(ctx);

  // One finished job with known bsld: wait 90, run 10 -> (90+10)/10 = 10.
  sim::JobResult r;
  r.submit_time = 0;
  r.start_time = 90;
  r.end_time = 100;
  r.procs = 1;
  env.episode_end({r});
  EXPECT_DOUBLE_EQ(env.last_bsld(), 10.0);
  const rl::Episode ep = env.take_episode();
  // Terminal reward (20 - 10) / 20 = 0.5 added on top of the -delay
  // penalty of the same (only) step.
  EXPECT_DOUBLE_EQ(ep.steps.back().reward, -2.0 + 0.5);
}

TEST(TrainingEnv, BaselineMustBeResetEachEpisode) {
  Agent agent(small_config(), 1);
  TrainingEnv env(agent, EnvConfig{}, util::Rng(1));
  env.set_baseline_bsld(10.0);
  swf::Trace dummy("d", 10, {});
  env.episode_begin(dummy);
  env.episode_end({});
  (void)env.take_episode();
  // Second episode without a fresh baseline: rejected.
  EXPECT_THROW(env.episode_begin(dummy), std::logic_error);
}

TEST(TrainingEnv, TakeEpisodeOnlyAfterEnd) {
  Agent agent(small_config(), 1);
  TrainingEnv env(agent, EnvConfig{}, util::Rng(1));
  EXPECT_THROW(env.take_episode(), std::logic_error);
  env.set_baseline_bsld(5.0);
  swf::Trace dummy("d", 10, {});
  env.episode_begin(dummy);
  EXPECT_THROW(env.take_episode(), std::logic_error);
  env.episode_end({});
  EXPECT_NO_THROW(env.take_episode());
  EXPECT_THROW(env.take_episode(), std::logic_error);  // consumed
}

TEST(TrainingEnv, StopActionEndsOpportunityAndIsRecorded) {
  AgentConfig acfg = small_config();
  acfg.obs.stop_action = true;
  Agent agent(acfg, 4);
  EnvConfig cfg;
  cfg.delay_rule = DelayRule::EstimatePenalty;
  TrainingEnv env(agent, cfg, util::Rng(1));
  env.set_baseline_bsld(10.0);
  swf::Trace dummy("d", 10, {});
  env.episode_begin(dummy);
  const ContextFixture fx = delaying_opportunity();
  const auto ctx = fx.context();
  // Sample until the stop action fires at least once (2 valid actions,
  // near-uniform init: a handful of tries suffices).
  bool stopped = false;
  for (int i = 0; i < 64 && !stopped; ++i) stopped = !env.choose(ctx).has_value();
  EXPECT_TRUE(stopped);
  env.episode_end({});
  const rl::Episode ep = env.take_episode();
  EXPECT_GE(ep.steps.size(), 1u);
  // Stop steps carry no delay penalty.
  EXPECT_DOUBLE_EQ(ep.steps.back().reward, 0.0);
}

TEST(TrainingEnv, ActualDelayPenaltyChargesRetroactively) {
  Agent agent(small_config(), 5);
  EnvConfig cfg;
  cfg.delay_rule = DelayRule::ActualDelayPenalty;
  cfg.delay_penalty = 1.5;
  TrainingEnv env(agent, cfg, util::Rng(5));
  env.set_baseline_bsld(10.0);
  swf::Trace dummy("d", 10, {});
  env.episode_begin(dummy);
  const ContextFixture fx = delaying_opportunity();
  const auto ctx = fx.context();
  ASSERT_TRUE(env.choose(ctx).has_value());  // picks the only candidate

  // rjob is trace index 1; its reservation (shadow) was t=100. Report an
  // actual start after the shadow: the step must be charged.
  std::vector<sim::JobResult> results(3);
  results[1].submit_time = 10;
  results[1].start_time = 150;  // delayed past shadow 100
  results[1].end_time = 250;
  results[1].procs = 10;
  env.episode_end(results);
  rl::Episode ep = env.take_episode();
  ASSERT_EQ(ep.steps.size(), 1u);
  // bslds: 1, (140+100)/100 = 2.4, 1 -> mean 1.4667; terminal reward
  // (10 - 1.4667)/10 = 0.8533; total = -1.5 + 0.8533.
  EXPECT_NEAR(ep.steps[0].reward, -1.5 + 0.85333, 1e-3);

  // Same pick, but the rjob started on time: no charge.
  env.set_baseline_bsld(10.0);
  env.episode_begin(dummy);
  ASSERT_TRUE(env.choose(ctx).has_value());
  results[1].start_time = 90;
  results[1].end_time = 190;
  env.episode_end(results);
  ep = env.take_episode();
  // bslds: 1, 1.8, 1 -> mean 1.2667; terminal (10 - 1.2667)/10, no penalty.
  EXPECT_NEAR(ep.steps[0].reward, 0.87333, 1e-3);
}

TEST(TrainingEnv, FullSimulationCollectsCoherentEpisode) {
  const swf::Trace trace = workload::sdsc_sp2_like(5, 300);
  Agent agent(small_config(), 3);
  TrainingEnv env(agent, EnvConfig{}, util::Rng(3));
  env.set_baseline_bsld(50.0);
  sched::FcfsPolicy fcfs;
  sched::RequestTimeEstimator est;
  const auto results = sim::simulate(trace, fcfs, est, &env);
  EXPECT_EQ(results.size(), trace.size());
  const rl::Episode ep = env.take_episode();
  EXPECT_GT(ep.steps.size(), 0u);
  for (const auto& s : ep.steps) {
    EXPECT_EQ(s.mask.size(), s.policy_obs.rows());
    EXPECT_EQ(s.value_obs.cols(), small_config().obs.value_feature_dim());
    EXPECT_LE(s.log_prob, 0.0);
    EXPECT_EQ(s.mask[s.action], 1);
  }
  EXPECT_GT(env.last_bsld(), 0.0);
}

TEST(TrainingEnv, ObjectiveValueMatchesMetrics) {
  std::vector<sim::JobResult> results(2);
  results[0].submit_time = 0;
  results[0].start_time = 100;   // wait 100
  results[0].end_time = 200;     // run 100, turnaround 200, bsld 2
  results[0].procs = 1;
  results[1].submit_time = 0;
  results[1].start_time = 0;     // wait 0
  results[1].end_time = 50;      // run 50, turnaround 50, bsld 1
  results[1].procs = 1;
  EXPECT_DOUBLE_EQ(objective_value(RewardObjective::BoundedSlowdown, results), 1.5);
  EXPECT_DOUBLE_EQ(objective_value(RewardObjective::AvgWaitTime, results), 50.0);
  EXPECT_DOUBLE_EQ(objective_value(RewardObjective::AvgTurnaround, results), 125.0);
}

TEST(TrainingEnv, AlternativeObjectiveDrivesTerminalReward) {
  Agent agent(small_config(), 6);
  EnvConfig cfg;
  cfg.delay_rule = DelayRule::EstimatePenalty;
  cfg.delay_penalty = 0.0;  // isolate the terminal term
  cfg.objective = RewardObjective::AvgWaitTime;
  TrainingEnv env(agent, cfg, util::Rng(6));
  env.set_baseline_bsld(200.0);  // baseline average wait: 200 s
  swf::Trace dummy("d", 10, {});
  env.episode_begin(dummy);
  const ContextFixture fx = delaying_opportunity();
  const auto ctx = fx.context();
  ASSERT_TRUE(env.choose(ctx).has_value());
  sim::JobResult r;
  r.submit_time = 0;
  r.start_time = 100;  // wait 100 s -> improvement (200-100)/200 = 0.5
  r.end_time = 150;
  r.procs = 1;
  env.episode_end({r});
  EXPECT_DOUBLE_EQ(env.last_bsld(), 100.0);
  const rl::Episode ep = env.take_episode();
  EXPECT_DOUBLE_EQ(ep.steps.back().reward, 0.5);
}

TEST(TrainingEnv, GreedyModeIsDeterministic) {
  const swf::Trace trace = workload::sdsc_sp2_like(6, 300);
  EnvConfig cfg;
  cfg.selection = ActionSelection::Greedy;
  sched::FcfsPolicy fcfs;
  sched::RequestTimeEstimator est;
  double bslds[2];
  for (int rep = 0; rep < 2; ++rep) {
    Agent agent(small_config(), 9);
    TrainingEnv env(agent, cfg, util::Rng(static_cast<std::uint64_t>(rep) + 100));
    env.set_baseline_bsld(50.0);
    (void)sim::simulate(trace, fcfs, est, &env);
    bslds[rep] = env.last_bsld();
  }
  // Different rngs, same greedy decisions: identical schedules.
  EXPECT_DOUBLE_EQ(bslds[0], bslds[1]);
}

}  // namespace
}  // namespace rlbf::core
