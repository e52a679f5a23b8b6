#include "core/learner.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "rl/dqn.h"
#include "rl/ppo.h"
#include "rl/reinforce.h"

namespace rlbf::core {

double Learner::epsilon(std::size_t) const {
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

/// PPO and REINFORCE learn on-policy from the epoch's own rollouts,
/// which are discarded after the update.
class OnPolicyLearner : public Learner {
 public:
  void absorb(rl::Episode episode) override {
    buffer_.add_episode(std::move(episode));
  }

 protected:
  /// The epoch's rollouts, leaving the buffer empty for the next epoch.
  rl::RolloutBuffer take_buffer() { return std::exchange(buffer_, {}); }

 private:
  rl::RolloutBuffer buffer_;
};

class PpoLearner final : public OnPolicyLearner {
 public:
  PpoLearner(rl::ActorCritic& model, const TrainerConfig& config,
             util::ThreadPool& pool)
      : ppo_(model, config.ppo, &pool) {}

  void update(util::Rng& rng, EpochStats& stats) override {
    rl::RolloutBuffer buffer = take_buffer();
    if (buffer.episode_count() > 0) stats.ppo = ppo_.update(buffer, rng);
  }

  void record_series(obs::SeriesRecorder& series, std::int64_t step,
                     const EpochStats& s) const override {
    series.record("train.policy_loss", step, s.ppo.policy_loss);
    series.record("train.value_loss", step, s.ppo.value_loss);
    series.record("train.entropy", step, s.ppo.entropy);
    series.record("train.grad_norm", step, s.ppo.grad_norm);
    series.record("train.approx_kl", step, s.ppo.approx_kl);
  }

 private:
  rl::Ppo ppo_;
};

class ReinforceLearner final : public OnPolicyLearner {
 public:
  ReinforceLearner(rl::ActorCritic& model, const TrainerConfig& config,
                   util::ThreadPool&)
      : reinforce_(model, config.reinforce) {}

  void update(util::Rng& rng, EpochStats& stats) override {
    rl::RolloutBuffer buffer = take_buffer();
    if (buffer.episode_count() > 0) {
      stats.reinforce = reinforce_.update(buffer, rng);
    }
  }

  void record_series(obs::SeriesRecorder& series, std::int64_t step,
                     const EpochStats& s) const override {
    series.record("train.loss", step, s.reinforce.policy_loss);
  }

 private:
  rl::Reinforce reinforce_;
};

/// Replay persists across epochs, and the update runs every epoch (it
/// is a no-op while the replay is below min_replay).
class DqnLearner final : public Learner {
 public:
  DqnLearner(rl::ActorCritic& model, const TrainerConfig& config,
             util::ThreadPool&)
      : dqn_(model, config.dqn) {}

  double epsilon(std::size_t epoch) const override {
    return dqn_.epsilon(epoch - 1);
  }

  void absorb(rl::Episode episode) override { dqn_.absorb(episode); }

  void update(util::Rng& rng, EpochStats& stats) override {
    stats.dqn = dqn_.update(rng);
  }

  void record_series(obs::SeriesRecorder& series, std::int64_t step,
                     const EpochStats& s) const override {
    series.record("train.loss", step, s.dqn.loss);
    series.record("train.epsilon", step, s.epsilon);
  }

 private:
  rl::Dqn dqn_;
};

template <typename L>
std::unique_ptr<Learner> make(rl::ActorCritic& model, const TrainerConfig& config,
                              util::ThreadPool& pool) {
  return std::make_unique<L>(model, config, pool);
}

const Algorithm kAlgorithms[] = {
    {"ppo", 0x7261696e65722dull, std::nullopt, &make<PpoLearner>},
    {"dqn", 0x64716e2d74726eull, ActionSelection::EpsilonGreedy,
     &make<DqnLearner>},
    {"reinforce", 0x7265696e66ull, ActionSelection::SampleSoftmax,
     &make<ReinforceLearner>},
};

}  // namespace

EnvConfig Algorithm::collection_env(EnvConfig env, double epsilon) const {
  if (selection) env.selection = *selection;
  if (std::isfinite(epsilon)) env.epsilon = epsilon;
  return env;
}

const Algorithm& find_algorithm(const std::string& name) {
  std::string known;
  for (const Algorithm& algorithm : kAlgorithms) {
    if (name == algorithm.name) return algorithm;
    known += (known.empty() ? "" : ", ") + std::string(algorithm.name);
  }
  throw std::invalid_argument("unknown algorithm '" + name + "' (known: " +
                              known + ")");
}

}  // namespace rlbf::core
