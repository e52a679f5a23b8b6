// The algorithm seam of core::Trainer. The trainer's one epoch driver
// runs plan -> collect -> aggregate -> update -> evaluate for every
// algorithm; what differs per algorithm sits behind core::Learner, and
// a name-keyed table supplies each algorithm's RNG salt, its forced
// collection action selection, and its learner factory:
//
//   * "ppo" — the paper's algorithm (§4.1.1): the clipped
//     multi-iteration update over each epoch's rollouts, which are
//     discarded afterwards; selection as configured.
//   * "dqn" — Double-DQN, the A6 ablation arm for the paper's choice of
//     PPO over Deep-Q-Learning (§2.2.1): epsilon-greedy exploration
//     over Q-values with a linear epsilon decay, experience kept across
//     epochs in the replay buffer, an update every epoch.
//   * "reinforce" — PPO's collection with the clipped update replaced
//     by a single policy-gradient step; softmax sampling.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/trainer.h"

namespace rlbf::core {

class Learner {
 public:
  virtual ~Learner() = default;

  /// Exploration rate for the 1-based `epoch`; NaN when the algorithm
  /// does not explore epsilon-greedily.
  virtual double epsilon(std::size_t epoch) const;

  /// Take one non-empty episode of the epoch, in sequence order.
  virtual void absorb(rl::Episode episode) = 0;

  /// Run the epoch's update with the trainer's RNG and fill this
  /// algorithm's block of `stats`.
  virtual void update(util::Rng& rng, EpochStats& stats) = 0;

  /// Record the algorithm's own train.* points for `stats` at `step`.
  virtual void record_series(obs::SeriesRecorder& series, std::int64_t step,
                             const EpochStats& stats) const = 0;
};

struct Algorithm {
  const char* name;
  /// XORed into TrainerConfig::seed to seed the trainer's RNG stream.
  std::uint64_t rng_salt;
  /// Collection action selection the algorithm forces; nullopt keeps
  /// the configured EnvConfig::selection.
  std::optional<ActionSelection> selection;
  std::unique_ptr<Learner> (*make_learner)(rl::ActorCritic& model,
                                           const TrainerConfig& config,
                                           util::ThreadPool& pool);

  /// One epoch's collection environment: `env` with the forced
  /// selection and, when finite, the epoch's exploration rate.
  EnvConfig collection_env(EnvConfig env, double epsilon) const;
};

/// The table entry for `name`. Throws std::invalid_argument naming the
/// known algorithms.
const Algorithm& find_algorithm(const std::string& name);

}  // namespace rlbf::core
