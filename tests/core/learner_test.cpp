// The DQN and REINFORCE arms of core::Trainer, and the learner table
// behind them (core/learner.h).
#include "core/learner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/networks.h"
#include "util/log.h"
#include "workload/presets.h"

namespace rlbf::core {
namespace {

TrainerConfig tiny_dqn_config() {
  TrainerConfig cfg;
  cfg.algorithm = "dqn";
  cfg.epochs = 2;
  cfg.trajectories_per_epoch = 8;
  cfg.jobs_per_trajectory = 96;
  cfg.dqn.updates_per_epoch = 5;
  cfg.dqn.batch_size = 32;
  cfg.dqn.min_replay = 32;
  cfg.agent.obs.value_obsv_size = 8;
  cfg.threads = 4;
  cfg.seed = 7;
  return cfg;
}

TrainerConfig tiny_reinforce_config() {
  TrainerConfig cfg;
  cfg.algorithm = "reinforce";
  cfg.epochs = 2;
  cfg.trajectories_per_epoch = 8;
  cfg.jobs_per_trajectory = 96;
  cfg.reinforce.value_iters = 5;
  cfg.agent.obs.value_obsv_size = 8;
  cfg.threads = 4;
  cfg.seed = 7;
  return cfg;
}

class AltTrainersTest : public ::testing::Test {
 protected:
  void SetUp() override { util::set_log_level(util::LogLevel::Warn); }
  void TearDown() override { util::set_log_level(util::LogLevel::Info); }
};

// ---------------------------------------------------------- Trainer --

TEST_F(AltTrainersTest, DqnRejectsDegenerateConfigs) {
  const swf::Trace trace = workload::lublin_1(1, 200);
  TrainerConfig cfg = tiny_dqn_config();
  cfg.jobs_per_trajectory = 500;
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
  cfg = tiny_dqn_config();
  cfg.trajectories_per_epoch = 0;
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
}

TEST_F(AltTrainersTest, DqnEpochProducesSaneStats) {
  const swf::Trace trace = workload::sdsc_sp2_like(2, 1500);
  Trainer trainer(trace, tiny_dqn_config());
  const EpochStats s = trainer.run_epoch();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_GT(s.steps, 0u);
  EXPECT_GT(s.mean_bsld, 0.0);
  EXPECT_GT(s.mean_baseline_bsld, 0.0);
  EXPECT_DOUBLE_EQ(s.epsilon, 1.0);  // first epoch of the decay
  EXPECT_TRUE(std::isfinite(s.dqn.loss));
}

TEST_F(AltTrainersTest, DqnEpsilonDecaysAcrossEpochs) {
  const swf::Trace trace = workload::lublin_1(3, 1200);
  TrainerConfig cfg = tiny_dqn_config();
  cfg.dqn.epsilon_decay_epochs = 4;
  Trainer trainer(trace, cfg);
  const double e1 = trainer.run_epoch().epsilon;
  const double e2 = trainer.run_epoch().epsilon;
  EXPECT_GT(e1, e2);
}

TEST_F(AltTrainersTest, DqnReplayPersistsAcrossEpochs) {
  const swf::Trace trace = workload::sdsc_sp2_like(4, 1500);
  Trainer trainer(trace, tiny_dqn_config());
  const std::size_t after_one = trainer.run_epoch().dqn.replay_size;
  EXPECT_GT(trainer.run_epoch().dqn.replay_size, after_one);
}

TEST_F(AltTrainersTest, DqnQParametersChangeAfterTraining) {
  const swf::Trace trace = workload::lublin_1(6, 1200);
  Trainer trainer(trace, tiny_dqn_config());
  const auto& model =
      dynamic_cast<const KernelActorCritic&>(trainer.agent().model());
  const nn::Tensor before = model.policy_net().parameters()[0]->value;
  trainer.run_epoch();
  EXPECT_GT(nn::Tensor::max_abs_diff(before,
                                     model.policy_net().parameters()[0]->value),
            0.0);
}

TEST_F(AltTrainersTest, DqnTrainRunsHistoryCallbacksAndEval) {
  const swf::Trace trace = workload::sdsc_sp2_like(8, 1500);
  TrainerConfig cfg = tiny_dqn_config();
  cfg.eval_every = 1;
  cfg.eval_samples = 2;
  cfg.eval_sample_jobs = 256;
  Trainer trainer(trace, cfg);
  std::size_t callbacks = 0;
  const auto history = trainer.train([&](const EpochStats&) { ++callbacks; });
  EXPECT_EQ(history.size(), 2u);
  EXPECT_EQ(callbacks, 2u);
  for (const auto& h : history) EXPECT_FALSE(std::isnan(h.eval_bsld));
}

TEST_F(AltTrainersTest, DqnDeterministicCollectionInSeed) {
  const swf::Trace trace = workload::sdsc_sp2_like(5, 1500);
  const TrainerConfig cfg = tiny_dqn_config();
  Trainer a(trace, cfg);
  Trainer b(trace, cfg);
  const EpochStats sa = a.run_epoch();
  const EpochStats sb = b.run_epoch();
  EXPECT_DOUBLE_EQ(sa.mean_baseline_bsld, sb.mean_baseline_bsld);
  EXPECT_DOUBLE_EQ(sa.mean_bsld, sb.mean_bsld);
  EXPECT_EQ(sa.steps, sb.steps);
}

TEST_F(AltTrainersTest, DqnWarmStartUsesInitialAgent) {
  const swf::Trace trace = workload::sdsc_sp2_like(9, 1500);
  const TrainerConfig cfg = tiny_dqn_config();
  Trainer source(trace, cfg);
  source.run_epoch();

  Trainer fine_tuned(trace, cfg, source.agent());
  const auto& src =
      dynamic_cast<const KernelActorCritic&>(source.agent().model());
  const auto& dst =
      dynamic_cast<const KernelActorCritic&>(fine_tuned.agent().model());
  EXPECT_EQ(nn::Tensor::max_abs_diff(src.policy_net().parameters()[0]->value,
                                     dst.policy_net().parameters()[0]->value),
            0.0);
}

// ---------------------------------------------------- Trainer --

TEST_F(AltTrainersTest, ReinforceRejectsDegenerateConfigs) {
  const swf::Trace trace = workload::lublin_1(1, 200);
  TrainerConfig cfg = tiny_reinforce_config();
  cfg.jobs_per_trajectory = 500;
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
  cfg = tiny_reinforce_config();
  cfg.base_policy = "BOGUS";
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
}

TEST_F(AltTrainersTest, ReinforceEpochProducesSaneStats) {
  const swf::Trace trace = workload::sdsc_sp2_like(2, 1500);
  Trainer trainer(trace, tiny_reinforce_config());
  const EpochStats s = trainer.run_epoch();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_GT(s.steps, 0u);
  EXPECT_GT(s.mean_bsld, 0.0);
  EXPECT_TRUE(std::isfinite(s.reinforce.policy_loss));
  EXPECT_TRUE(std::isnan(s.epsilon));  // no epsilon-greedy exploration
}

TEST_F(AltTrainersTest, ReinforcePolicyParametersChangeAfterEpoch) {
  const swf::Trace trace = workload::lublin_2(6, 1200);
  Trainer trainer(trace, tiny_reinforce_config());
  const auto& model =
      dynamic_cast<const KernelActorCritic&>(trainer.agent().model());
  const nn::Tensor before = model.policy_net().parameters()[0]->value;
  trainer.run_epoch();
  EXPECT_GT(nn::Tensor::max_abs_diff(before,
                                     model.policy_net().parameters()[0]->value),
            0.0);
}

TEST_F(AltTrainersTest, ReinforceTrainReturnsHistory) {
  const swf::Trace trace = workload::lublin_1(4, 1200);
  Trainer trainer(trace, tiny_reinforce_config());
  const auto history = trainer.train();
  EXPECT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].epoch, 2u);
}

TEST_F(AltTrainersTest, ReinforceDeterministicCollectionInSeed) {
  const swf::Trace trace = workload::sdsc_sp2_like(5, 1500);
  const TrainerConfig cfg = tiny_reinforce_config();
  Trainer a(trace, cfg);
  Trainer b(trace, cfg);
  EXPECT_DOUBLE_EQ(a.run_epoch().mean_bsld, b.run_epoch().mean_bsld);
}

TEST_F(AltTrainersTest, ReinforceSjfBasePolicySupported) {
  const swf::Trace trace = workload::sdsc_sp2_like(8, 1500);
  TrainerConfig cfg = tiny_reinforce_config();
  cfg.base_policy = "SJF";
  Trainer trainer(trace, cfg);
  EXPECT_GT(trainer.run_epoch().steps, 0u);
}

TEST_F(AltTrainersTest, GreedyEvaluationDeterministic) {
  const swf::Trace trace = workload::sdsc_sp2_like(10, 1500);
  TrainerConfig cfg = tiny_reinforce_config();
  cfg.eval_samples = 2;
  cfg.eval_sample_jobs = 256;
  Trainer trainer(trace, cfg);
  const double first = trainer.evaluate_greedy();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(trainer.evaluate_greedy(), first);
}

// Agents trained by any algorithm share the deployment path: a DQN
// agent's greedy chooser must schedule complete sequences like a PPO
// agent's does.
TEST_F(AltTrainersTest, DqnAgentDeploysThroughTheSameGreedyPath) {
  const swf::Trace trace = workload::sdsc_sp2_like(12, 1500);
  Trainer trainer(trace, tiny_dqn_config());
  trainer.run_epoch();
  const double bsld = trainer.evaluate_greedy();
  EXPECT_GT(bsld, 0.0);
  EXPECT_TRUE(std::isfinite(bsld));
}

// ---------------------------------------------------------- the table --

TEST_F(AltTrainersTest, UnknownAlgorithmThrows) {
  const swf::Trace trace = workload::lublin_1(1, 400);
  TrainerConfig cfg = tiny_dqn_config();
  cfg.algorithm = "sarsa";
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
  EXPECT_THROW(find_algorithm("sarsa"), std::invalid_argument);
}

// The per-algorithm constants are part of the byte contract: the salt
// seeds the trainer's RNG stream, the selection mode shapes collection.
TEST_F(AltTrainersTest, TableKeepsEachAlgorithmsSaltAndSelection) {
  EXPECT_EQ(find_algorithm("ppo").rng_salt, 0x7261696e65722dull);
  EXPECT_EQ(find_algorithm("dqn").rng_salt, 0x64716e2d74726eull);
  EXPECT_EQ(find_algorithm("reinforce").rng_salt, 0x7265696e66ull);
  EXPECT_FALSE(find_algorithm("ppo").selection.has_value());
  EXPECT_EQ(find_algorithm("dqn").selection, ActionSelection::EpsilonGreedy);
  EXPECT_EQ(find_algorithm("reinforce").selection, ActionSelection::SampleSoftmax);

  EnvConfig env;
  env.selection = ActionSelection::Greedy;
  env.epsilon = 0.25;
  const double nan = std::nan("");
  EXPECT_EQ(find_algorithm("ppo").collection_env(env, nan).selection,
            ActionSelection::Greedy);
  EXPECT_EQ(find_algorithm("ppo").collection_env(env, nan).epsilon, 0.25);
  EXPECT_EQ(find_algorithm("dqn").collection_env(env, 0.5).epsilon, 0.5);
  EXPECT_EQ(find_algorithm("reinforce").collection_env(env, nan).selection,
            ActionSelection::SampleSoftmax);
}

/// Passes collection through to the in-process transport, recording
/// each epoch's plan.
class PlanRecorder : public rl::Collector {
 public:
  explicit PlanRecorder(rl::Collector& inner) : inner_(inner) {}
  std::size_t slots(std::size_t n) const override { return inner_.slots(n); }
  std::vector<rl::SequenceResult> collect(const rl::CollectionPlan& plan,
                                          const rl::SequenceFn& fn) override {
    epsilons.push_back(plan.epsilon);
    return inner_.collect(plan, fn);
  }
  std::vector<double> epsilons;

 private:
  rl::Collector& inner_;
};

// Only DQN hands an exploration rate to the transport; a process
// worker reads a NaN plan epsilon as "none".
TEST_F(AltTrainersTest, PlanEpsilonIsNanOutsideDqn) {
  const swf::Trace trace = workload::lublin_1(2, 1200);
  for (const char* algorithm : {"ppo", "dqn", "reinforce"}) {
    SCOPED_TRACE(algorithm);
    TrainerConfig cfg = tiny_dqn_config();
    cfg.algorithm = algorithm;
    cfg.ppo.train_iters = 2;
    Trainer trainer(trace, cfg);
    util::ThreadPool pool(2);
    rl::ThreadCollector threads(pool);
    PlanRecorder recorder(threads);
    trainer.set_collector(&recorder);
    const EpochStats s = trainer.run_epoch();
    ASSERT_EQ(recorder.epsilons.size(), 1u);
    if (cfg.algorithm == "dqn") {
      EXPECT_EQ(recorder.epsilons[0], s.epsilon);
      EXPECT_DOUBLE_EQ(s.epsilon, 1.0);
    } else {
      EXPECT_TRUE(std::isnan(recorder.epsilons[0]));
      EXPECT_TRUE(std::isnan(s.epsilon));
    }
  }
}

// Each algorithm records the shared curves plus exactly its own.
TEST_F(AltTrainersTest, EachAlgorithmRecordsItsOwnSeries) {
  const swf::Trace trace = workload::lublin_1(3, 1200);
  const struct {
    const char* algorithm;
    std::string names;
  } cases[] = {
      {"ppo", "train.approx_kl train.baseline_bsld train.entropy "
              "train.eval_bsld train.grad_norm train.mean_bsld "
              "train.mean_reward train.policy_loss train.value_loss"},
      {"dqn", "train.baseline_bsld train.epsilon train.eval_bsld train.loss "
              "train.mean_bsld train.mean_reward"},
      {"reinforce", "train.baseline_bsld train.eval_bsld train.loss "
                    "train.mean_bsld train.mean_reward"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.algorithm);
    TrainerConfig cfg = tiny_dqn_config();
    cfg.algorithm = c.algorithm;
    cfg.epochs = 1;
    cfg.ppo.train_iters = 2;
    cfg.eval_every = 1;
    cfg.eval_samples = 1;
    cfg.eval_sample_jobs = 128;
    Trainer trainer(trace, cfg);
    obs::SeriesRecorder series;
    trainer.set_series(&series);
    trainer.train();
    std::string names;
    for (const obs::Series& one : series.snapshot()) {
      names += (names.empty() ? "" : " ") + one.name;
    }
    EXPECT_EQ(names, c.names);
  }
}

}  // namespace
}  // namespace rlbf::core
