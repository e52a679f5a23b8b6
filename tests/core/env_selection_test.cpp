// Action-selection modes of the TrainingEnv (EnvConfig::ActionSelection):
// softmax sampling (PPO/REINFORCE), epsilon-greedy (DQN), and pure greedy.
#include <gtest/gtest.h>

#include <map>

#include "context_fixture.h"
#include "core/backfill_env.h"
#include "rl/ppo.h"

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

/// An opportunity with three admissible candidates (short narrow jobs
/// behind a blocked wide head), so selection behavior is observable.
ContextFixture multi_candidate_opportunity() {
  return ContextFixture(
      {make_job(1, 0, 100, 6, 100), make_job(2, 10, 100, 10, 100),
       make_job(3, 20, 30, 1, 30), make_job(4, 21, 40, 2, 40),
       make_job(5, 22, 20, 1, 20)},
      10, {{0, 0}}, {1, 2, 3, 4}, 50);
}

/// Run `n` single-decision episodes and count which candidate was picked.
std::map<std::size_t, int> pick_histogram(const EnvConfig& cfg, std::uint64_t seed,
                                          int n) {
  Agent agent(small_config(), 7);
  const ContextFixture fx = multi_candidate_opportunity();
  std::map<std::size_t, int> counts;
  TrainingEnv env(agent, cfg, util::Rng(seed));
  swf::Trace dummy("d", 10, {});
  for (int i = 0; i < n; ++i) {
    env.set_baseline_bsld(10.0);
    env.episode_begin(dummy);
    const auto ctx = fx.context();
    const auto pick = env.choose(ctx);
    if (pick.has_value()) ++counts[*pick];
    env.episode_end({});
    (void)env.take_episode();
  }
  return counts;
}

TEST(ActionSelection, GreedyIsDeterministic) {
  EnvConfig cfg;
  cfg.selection = ActionSelection::Greedy;
  const auto counts = pick_histogram(cfg, 3, 50);
  ASSERT_EQ(counts.size(), 1u);  // always the same candidate
  EXPECT_EQ(counts.begin()->second, 50);
}

TEST(ActionSelection, SoftmaxSamplingExploresAllCandidates) {
  EnvConfig cfg;
  cfg.selection = ActionSelection::SampleSoftmax;
  const auto counts = pick_histogram(cfg, 5, 400);
  // A fresh agent's near-uniform softmax (policy_output_scale 0.01) must
  // visit every admissible candidate.
  EXPECT_EQ(counts.size(), 3u);
}

TEST(ActionSelection, EpsilonOneIsUniformOverValidRows) {
  EnvConfig cfg;
  cfg.selection = ActionSelection::EpsilonGreedy;
  cfg.epsilon = 1.0;
  const auto counts = pick_histogram(cfg, 11, 600);
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [candidate, count] : counts) {
    EXPECT_NEAR(count / 600.0, 1.0 / 3.0, 0.08) << "candidate " << candidate;
  }
}

TEST(ActionSelection, EpsilonZeroIsGreedy) {
  EnvConfig eps;
  eps.selection = ActionSelection::EpsilonGreedy;
  eps.epsilon = 0.0;
  EnvConfig greedy;
  greedy.selection = ActionSelection::Greedy;
  const auto a = pick_histogram(eps, 13, 50);
  const auto b = pick_histogram(greedy, 13, 50);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a.begin()->first, b.begin()->first);
}

TEST(ActionSelection, IntermediateEpsilonMixesGreedyAndUniform) {
  EnvConfig cfg;
  cfg.selection = ActionSelection::EpsilonGreedy;
  cfg.epsilon = 0.3;
  const auto counts = pick_histogram(cfg, 17, 900);
  // The greedy candidate gets (1 - eps) + eps/3 = 0.8 of the mass.
  int max_count = 0, total = 0;
  for (const auto& [candidate, count] : counts) {
    max_count = std::max(max_count, count);
    total += count;
  }
  EXPECT_EQ(total, 900);
  EXPECT_NEAR(max_count / 900.0, 0.8, 0.06);
}

TEST(ActionSelection, EpsilonGreedyStepsRecordNormalizedLogProbs) {
  // Whatever selection produced the action, the recorded log-prob is the
  // softmax log-probability of that action (finite and <= 0).
  Agent agent(small_config(), 7);
  EnvConfig cfg;
  cfg.selection = ActionSelection::EpsilonGreedy;
  cfg.epsilon = 1.0;
  TrainingEnv env(agent, cfg, util::Rng(23));
  const ContextFixture fx = multi_candidate_opportunity();
  swf::Trace dummy("d", 10, {});
  env.set_baseline_bsld(10.0);
  env.episode_begin(dummy);
  const auto ctx = fx.context();
  (void)env.choose(ctx);
  env.episode_end({});
  const rl::Episode ep = env.take_episode();
  ASSERT_EQ(ep.steps.size(), 1u);
  EXPECT_LE(ep.steps[0].log_prob, 0.0);
  EXPECT_GT(ep.steps[0].log_prob, -20.0);
}

}  // namespace
}  // namespace rlbf::core
