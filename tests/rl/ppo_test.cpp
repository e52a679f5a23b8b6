#include "rl/ppo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>

#include "nn/layers.h"

#include "bandit_fixture.h"

namespace rlbf::rl {
namespace {

TEST(MaskedCategorical, SampleRespectsMask) {
  nn::Tensor logits(3, 1);
  logits.at(0, 0) = 100.0;  // masked out: must never be sampled
  logits.at(1, 0) = 0.0;
  logits.at(2, 0) = 0.0;
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto s = sample_masked(logits, {0, 1, 1}, rng);
    EXPECT_NE(s.action, 0u);
    EXPECT_NEAR(s.log_prob, std::log(0.5), 1e-9);
  }
}

TEST(MaskedCategorical, SampleFrequenciesFollowSoftmax) {
  nn::Tensor logits(2, 1);
  logits.at(0, 0) = std::log(3.0);
  logits.at(1, 0) = 0.0;  // p = [0.75, 0.25]
  util::Rng rng(2);
  int zero = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    zero += sample_masked(logits, {1, 1}, rng).action == 0 ? 1 : 0;
  }
  EXPECT_NEAR(zero / static_cast<double>(n), 0.75, 0.01);
}

TEST(MaskedCategorical, SampleThrowsWhenAllMasked) {
  nn::Tensor logits(2, 1);
  util::Rng rng(1);
  EXPECT_THROW(sample_masked(logits, {0, 0}, rng), std::invalid_argument);
}

TEST(MaskedCategorical, ArgmaxSkipsMasked) {
  nn::Tensor logits(3, 1);
  logits.at(0, 0) = 10.0;
  logits.at(1, 0) = 5.0;
  logits.at(2, 0) = 1.0;
  EXPECT_EQ(argmax_masked(logits, {1, 1, 1}), 0u);
  EXPECT_EQ(argmax_masked(logits, {0, 1, 1}), 1u);
  EXPECT_THROW(argmax_masked(logits, {0, 0, 0}), std::invalid_argument);
}

TEST(MaskedCategorical, ShapeMismatchThrows) {
  nn::Tensor logits(3, 1);
  util::Rng rng(1);
  EXPECT_THROW(sample_masked(logits, {1, 1}, rng), std::invalid_argument);
  EXPECT_THROW(argmax_masked(logits, {1, 1}), std::invalid_argument);
}

using rlbf::rl::testing::TestActorCritic;
using rlbf::rl::testing::bandit_accuracy;
using rlbf::rl::testing::collect_bandit;

TEST(Ppo, LearnsContextualBandit) {
  TestActorCritic model(7);
  PpoConfig cfg;
  cfg.train_iters = 20;
  cfg.minibatch_size = 0;  // full batch
  cfg.target_kl = 0.0;     // run all iterations
  Ppo ppo(model, cfg);
  util::Rng rng(11);

  const double before = bandit_accuracy(model, rng, 500);
  for (int epoch = 0; epoch < 10; ++epoch) {
    RolloutBuffer buf = collect_bandit(model, rng, 256);
    ppo.update(buf, rng);
  }
  const double after = bandit_accuracy(model, rng, 500);
  EXPECT_GT(after, 0.9) << "before=" << before;
}

TEST(Ppo, ParallelUpdateAlsoLearns) {
  TestActorCritic model(7);
  PpoConfig cfg;
  cfg.train_iters = 20;
  cfg.minibatch_size = 0;
  cfg.target_kl = 0.0;
  util::ThreadPool pool(4);
  Ppo ppo(model, cfg, &pool);
  util::Rng rng(13);
  for (int epoch = 0; epoch < 10; ++epoch) {
    RolloutBuffer buf = collect_bandit(model, rng, 256);
    ppo.update(buf, rng);
  }
  EXPECT_GT(bandit_accuracy(model, rng, 500), 0.9);
}

TEST(Ppo, UpdateReportsStats) {
  TestActorCritic model(3);
  PpoConfig cfg;
  cfg.train_iters = 5;
  cfg.target_kl = 0.0;
  Ppo ppo(model, cfg);
  util::Rng rng(5);
  RolloutBuffer buf = collect_bandit(model, rng, 64);
  const PpoStats stats = ppo.update(buf, rng);
  EXPECT_EQ(stats.policy_iters, 5u);
  EXPECT_EQ(stats.value_iters, 5u);
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
}

TEST(Ppo, KlEarlyStoppingLimitsPolicyIterations) {
  TestActorCritic model(3);
  PpoConfig cfg;
  cfg.train_iters = 80;
  cfg.target_kl = 1e-7;  // absurdly tight: stop almost immediately
  cfg.policy_lr = 0.05;  // move fast so KL blows through the target
  Ppo ppo(model, cfg);
  util::Rng rng(5);
  RolloutBuffer buf = collect_bandit(model, rng, 128);
  const PpoStats stats = ppo.update(buf, rng);
  EXPECT_LT(stats.policy_iters, 80u);
  EXPECT_EQ(stats.value_iters, 80u);  // value loop unaffected
}

TEST(Ppo, ValueLossDecreasesOnFixedTargets) {
  TestActorCritic model(9);
  PpoConfig cfg;
  cfg.train_iters = 40;
  cfg.target_kl = 0.0;
  Ppo ppo(model, cfg);
  util::Rng rng(21);
  RolloutBuffer first = collect_bandit(model, rng, 128);
  const double initial_loss = ppo.update(first, rng).value_loss;
  // Re-collect with the (slightly) trained critic: loss should be lower
  // after another pass over similar targets.
  RolloutBuffer second = collect_bandit(model, rng, 128);
  const double later_loss = ppo.update(second, rng).value_loss;
  EXPECT_LT(later_loss, initial_loss * 1.5);
}

TEST(Ppo, UpdateIsDeterministicAtFixedSeeds) {
  // Two identical models + identical buffers + identical rngs must end
  // with bitwise-identical parameters (serial path).
  PpoConfig cfg;
  cfg.train_iters = 8;
  cfg.minibatch_size = 64;
  cfg.target_kl = 0.0;

  std::vector<nn::Tensor> finals[2];
  for (int run = 0; run < 2; ++run) {
    TestActorCritic model(33);
    Ppo ppo(model, cfg);
    util::Rng collect_rng(44);
    RolloutBuffer buf = collect_bandit(model, collect_rng, 128);
    util::Rng update_rng(55);
    ppo.update(buf, update_rng);
    for (const auto& p : model.policy_parameters()) finals[run].push_back(p->value);
    for (const auto& p : model.value_parameters()) finals[run].push_back(p->value);
  }
  ASSERT_EQ(finals[0].size(), finals[1].size());
  for (std::size_t i = 0; i < finals[0].size(); ++i) {
    EXPECT_EQ(finals[0][i], finals[1][i]) << "parameter " << i;
  }
}

TEST(Ppo, CriticLearnsStateDependentValues) {
  // Feed the critic observations whose target is a deterministic
  // function of the input; after training, predictions must correlate.
  TestActorCritic model(17);
  PpoConfig cfg;
  cfg.train_iters = 60;
  cfg.target_kl = 0.0;
  cfg.value_lr = 3e-3;
  Ppo ppo(model, cfg);
  util::Rng rng(18);
  for (int epoch = 0; epoch < 8; ++epoch) {
    RolloutBuffer buf;
    for (int e = 0; e < 128; ++e) {
      Step s;
      s.policy_obs = nn::Tensor(2, 2);
      s.mask = {1, 1};
      s.action = 0;
      s.log_prob = std::log(0.5);
      const double x = rng.uniform(-1.0, 1.0);
      s.value_obs = nn::Tensor(1, 4, x);
      s.value = model.value_nograd(s.value_obs);
      s.reward = 2.0 * x;  // target value = 2x
      Episode ep;
      ep.steps.push_back(std::move(s));
      buf.add_episode(std::move(ep));
    }
    ppo.update(buf, rng);
  }
  const double lo = model.value_nograd(nn::Tensor(1, 4, -0.8));
  const double hi = model.value_nograd(nn::Tensor(1, 4, 0.8));
  EXPECT_GT(hi - lo, 1.0);  // monotone response approximating 2x
  EXPECT_NEAR(hi, 1.6, 0.8);
}

TEST(Ppo, MinibatchSamplingRespectsConfiguredSize) {
  // With a minibatch smaller than the buffer, stats.n per iteration is
  // bounded by the configured size; we can observe this indirectly via a
  // one-iteration update on a large buffer not exploding in time, and
  // directly by the entropy being finite (sanity).
  TestActorCritic model(3);
  PpoConfig cfg;
  cfg.train_iters = 1;
  cfg.minibatch_size = 32;
  cfg.target_kl = 0.0;
  Ppo ppo(model, cfg);
  util::Rng rng(9);
  RolloutBuffer buf = collect_bandit(model, rng, 512);
  const PpoStats stats = ppo.update(buf, rng);
  EXPECT_TRUE(std::isfinite(stats.entropy));
  EXPECT_EQ(stats.policy_iters, 1u);
}

// ---- stacked policy shard vs a per-step reference ----
// Ppo::update forwards each policy shard as one stacked graph with one
// backward. The reference below is the update written the direct way —
// a graph and a backward per step, shards run one after another on
// their own replicas and reduced in shard order — and must produce the
// same parameters and PpoStats bit for bit.

/// Multi-step episodes of ragged (1-40 row), masked observations, with
/// behavior log-probs perturbed off the current policy so some ratios
/// clip.
RolloutBuffer ragged_buffer(const ActorCritic& model, std::uint64_t seed) {
  util::Rng rng(seed);
  RolloutBuffer buf;
  for (int e = 0; e < 30; ++e) {
    Episode ep;
    const auto len = rng.uniform_int(1, 6);
    for (std::int64_t t = 0; t < len; ++t) {
      const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 40));
      Step s;
      s.policy_obs = nn::Tensor::randn(rows, 2, rng);
      if (rng.bernoulli(0.1)) s.policy_obs.fill(0.0);
      if (rows > 2) s.policy_obs.at(1, 0) = 0.0;
      s.mask.assign(rows, 1);
      for (std::size_t r = 0; r < rows; ++r) s.mask[r] = rng.bernoulli(0.3) ? 0 : 1;
      const auto keep = rng.uniform_int(0, static_cast<std::int64_t>(rows) - 1);
      s.mask[static_cast<std::size_t>(keep)] = 1;  // at least one valid action
      const auto sample =
          sample_masked(model.policy_logits_nograd(s.policy_obs), s.mask, rng);
      s.action = sample.action;
      s.log_prob = sample.log_prob + rng.uniform(-0.4, 0.4);
      s.value_obs = nn::Tensor::randn(1, 4, rng);
      s.value = model.value_nograd(s.value_obs);
      s.reward = rng.uniform(-1.0, 1.0);
      ep.steps.push_back(std::move(s));
    }
    buf.add_episode(std::move(ep));
  }
  return buf;
}

struct RefShard {
  double loss_sum = 0.0, kl_sum = 0.0, entropy_sum = 0.0;
  std::size_t clip_count = 0, n = 0;
};

void ref_policy_steps(const std::vector<Step*>& steps, const ActorCritic& m,
                      const PpoConfig& cfg, double inv_batch, RefShard& out) {
  for (const Step* s : steps) {
    const nn::VarPtr logp_all =
        nn::masked_log_softmax(m.policy_logits(s->policy_obs), s->mask);
    const nn::VarPtr logp_a = nn::pick(logp_all, s->action, 0);
    const nn::VarPtr ratio = nn::exp_act(nn::sub(logp_a, nn::scalar(s->log_prob)));
    const nn::VarPtr surr1 = nn::mul_scalar(ratio, s->advantage);
    const nn::VarPtr surr2 = nn::mul_scalar(
        nn::clamp(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio), s->advantage);
    nn::VarPtr loss = nn::neg(nn::minimum(surr1, surr2));
    const nn::VarPtr entropy = nn::masked_entropy(logp_all, s->mask);
    loss = nn::sub(loss, nn::mul_scalar(entropy, cfg.entropy_coef));
    loss = nn::mul_scalar(loss, inv_batch);
    nn::backward(loss);
    out.loss_sum += loss->value.item() / inv_batch;
    out.kl_sum += s->log_prob - logp_a->value.item();
    out.entropy_sum += entropy->value.item();
    const double r = ratio->value.item();
    if (r < 1.0 - cfg.clip_ratio || r > 1.0 + cfg.clip_ratio) ++out.clip_count;
    ++out.n;
  }
}

void ref_value_steps(const std::vector<Step*>& steps, const ActorCritic& m,
                     double inv_batch, RefShard& out) {
  for (const Step* s : steps) {
    const nn::VarPtr loss = nn::mul_scalar(
        nn::square(nn::sub(m.value(s->value_obs), nn::scalar(s->ret))), inv_batch);
    nn::backward(loss);
    out.loss_sum += loss->value.item() / inv_batch;
    ++out.n;
  }
}

/// Ppo::update, one graph per step; `shards` > 0 mimics the pooled path.
PpoStats reference_update(ActorCritic& model, const PpoConfig& cfg, std::size_t shards,
                          RolloutBuffer& buffer, util::Rng& rng) {
  buffer.finish(cfg.gamma, cfg.lambda, cfg.normalize_advantages);
  const std::vector<Step*> all = buffer.flat_steps();
  nn::Adam policy_opt(model.policy_parameters(), cfg.policy_lr);
  nn::Adam value_opt(model.value_parameters(), cfg.value_lr);
  std::vector<std::unique_ptr<ActorCritic>> replicas;
  for (std::size_t k = 0; k < shards; ++k) replicas.push_back(model.clone());

  const auto sample = [&] {
    if (all.size() <= cfg.minibatch_size) return all;
    std::vector<Step*> mb;
    for (std::size_t i = 0; i < cfg.minibatch_size; ++i) {
      mb.push_back(all[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))]);
    }
    return mb;
  };
  const auto run = [&](const std::vector<Step*>& mb, bool policy) {
    RefShard total;
    const double inv_batch = 1.0 / static_cast<double>(mb.size());
    const auto run_steps = [&](const std::vector<Step*>& steps, const ActorCritic& m,
                               RefShard& out) {
      if (policy) {
        ref_policy_steps(steps, m, cfg, inv_batch, out);
      } else {
        ref_value_steps(steps, m, inv_batch, out);
      }
    };
    if (shards == 0 || mb.size() < 64) {
      run_steps(mb, model, total);
      return total;
    }
    const std::size_t used = std::min(shards, mb.size());
    for (std::size_t k = 0; k < used; ++k) {
      std::vector<Step*> slice;
      for (std::size_t i = k; i < mb.size(); i += used) slice.push_back(mb[i]);
      ActorCritic& replica = *replicas[k];
      replica.sync_from(model);
      for (const auto& p : replica.policy_parameters()) p->zero_grad();
      for (const auto& p : replica.value_parameters()) p->zero_grad();
      RefShard part;
      run_steps(slice, replica, part);
      total.loss_sum += part.loss_sum;
      total.kl_sum += part.kl_sum;
      total.entropy_sum += part.entropy_sum;
      total.clip_count += part.clip_count;
      total.n += part.n;
    }
    const auto master = policy ? model.policy_parameters() : model.value_parameters();
    for (std::size_t k = 0; k < used; ++k) {
      const auto rp = policy ? replicas[k]->policy_parameters()
                             : replicas[k]->value_parameters();
      for (std::size_t i = 0; i < master.size(); ++i) {
        if (rp[i]->has_grad()) master[i]->accumulate_grad(rp[i]->grad);
      }
    }
    return total;
  };

  PpoStats stats;
  for (std::size_t iter = 0; iter < cfg.train_iters; ++iter) {
    const std::vector<Step*> mb = sample();
    policy_opt.zero_grad();
    const RefShard g = run(mb, true);
    const auto n = static_cast<double>(std::max<std::size_t>(g.n, 1));
    stats.approx_kl = g.kl_sum / n;
    stats.policy_loss = g.loss_sum / n;
    stats.entropy = g.entropy_sum / n;
    stats.clip_fraction = static_cast<double>(g.clip_count) / n;
    if (cfg.target_kl > 0.0 && stats.approx_kl > 1.5 * cfg.target_kl) break;
    stats.grad_norm = policy_opt.clip_grad_norm(cfg.max_grad_norm);
    policy_opt.step();
    ++stats.policy_iters;
  }
  for (std::size_t iter = 0; iter < cfg.train_iters; ++iter) {
    const std::vector<Step*> mb = sample();
    value_opt.zero_grad();
    const RefShard g = run(mb, false);
    stats.value_loss = g.loss_sum / static_cast<double>(std::max<std::size_t>(g.n, 1));
    value_opt.clip_grad_norm(cfg.max_grad_norm);
    value_opt.step();
    ++stats.value_iters;
  }
  return stats;
}

bool same_double_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_update_matches_reference(std::size_t threads) {
  PpoConfig cfg;
  cfg.train_iters = 6;
  cfg.minibatch_size = 96;
  cfg.target_kl = 0.0;
  cfg.grad_shards = 8;

  TestActorCritic model(71);
  const auto reference = model.clone();
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  Ppo ppo(model, cfg, pool.get());

  RolloutBuffer buf = ragged_buffer(model, 72);
  RolloutBuffer ref_buf = ragged_buffer(*reference, 72);
  util::Rng rng(73);
  util::Rng ref_rng(73);
  const PpoStats got = ppo.update(buf, rng);
  const std::size_t shards = threads > 0 ? cfg.grad_shards : 0;
  const PpoStats want = reference_update(*reference, cfg, shards, ref_buf, ref_rng);

  EXPECT_EQ(got.policy_iters, want.policy_iters);
  EXPECT_EQ(got.value_iters, want.value_iters);
  EXPECT_GT(want.clip_fraction, 0.0);  // the clipped branch is exercised
  for (const auto& [name, g, w] :
       {std::tuple{"policy_loss", got.policy_loss, want.policy_loss},
        std::tuple{"value_loss", got.value_loss, want.value_loss},
        std::tuple{"approx_kl", got.approx_kl, want.approx_kl},
        std::tuple{"entropy", got.entropy, want.entropy},
        std::tuple{"clip_fraction", got.clip_fraction, want.clip_fraction},
        std::tuple{"grad_norm", got.grad_norm, want.grad_norm}}) {
    EXPECT_TRUE(same_double_bits(g, w)) << name << ": " << g << " vs " << w;
  }
  auto got_params = model.policy_parameters();
  auto want_params = reference->policy_parameters();
  for (const auto& p : model.value_parameters()) got_params.push_back(p);
  for (const auto& p : reference->value_parameters()) want_params.push_back(p);
  ASSERT_EQ(got_params.size(), want_params.size());
  for (std::size_t i = 0; i < got_params.size(); ++i) {
    const nn::Tensor& g = got_params[i]->value;
    const nn::Tensor& w = want_params[i]->value;
    ASSERT_TRUE(g.same_shape(w));
    EXPECT_EQ(std::memcmp(g.data().data(), w.data().data(), g.size() * sizeof(double)), 0)
        << "parameter " << i;
  }
}

TEST(Ppo, StackedUpdateMatchesPerStepReferenceSerial) {
  expect_update_matches_reference(0);
}

TEST(Ppo, StackedUpdateMatchesPerStepReferenceSharded) {
  expect_update_matches_reference(2);
}

TEST(Ppo, EmptyBufferThrows) {
  TestActorCritic model(1);
  PpoConfig cfg;
  Ppo ppo(model, cfg);
  util::Rng rng(1);
  RolloutBuffer buf;
  buf.finish(1.0, 1.0);
  EXPECT_THROW(ppo.update(buf, rng), std::invalid_argument);
}

}  // namespace
}  // namespace rlbf::rl
