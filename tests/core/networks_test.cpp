#include "core/networks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

namespace rlbf::core {
namespace {

ObservationConfig small_obs(bool padded = false) {
  ObservationConfig cfg;
  cfg.max_obsv_size = 8;
  cfg.value_obsv_size = 4;
  cfg.pad_policy_obs = padded;
  return cfg;
}

TEST(KernelNet, LogitsShapeFollowsRows) {
  util::Rng rng(1);
  KernelActorCritic model(small_obs(), NetworkConfig{}, rng);
  for (std::size_t rows : {1u, 3u, 8u, 20u}) {
    const nn::Tensor obs = nn::Tensor::randn(rows, ObservationConfig::kFeatures, rng);
    const nn::Tensor logits = model.policy_logits_nograd(obs);
    EXPECT_EQ(logits.rows(), rows);
    EXPECT_EQ(logits.cols(), 1u);
  }
}

TEST(KernelNet, ScoresAreRowIndependent) {
  // The kernel property: permuting observation rows permutes the scores.
  util::Rng rng(2);
  KernelActorCritic model(small_obs(), NetworkConfig{}, rng);
  const nn::Tensor obs = nn::Tensor::randn(5, ObservationConfig::kFeatures, rng);
  const nn::Tensor logits = model.policy_logits_nograd(obs);

  nn::Tensor reversed(5, ObservationConfig::kFeatures);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < obs.cols(); ++c) {
      reversed.at(r, c) = obs.at(4 - r, c);
    }
  }
  const nn::Tensor rev_logits = model.policy_logits_nograd(reversed);
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(rev_logits.at(r, 0), logits.at(4 - r, 0), 1e-12);
  }
}

TEST(KernelNet, GraphAndNogradAgree) {
  util::Rng rng(3);
  KernelActorCritic model(small_obs(), NetworkConfig{}, rng);
  const nn::Tensor obs = nn::Tensor::randn(6, ObservationConfig::kFeatures, rng);
  EXPECT_LT(nn::Tensor::max_abs_diff(model.policy_logits(obs)->value,
                                     model.policy_logits_nograd(obs)),
            1e-12);
  const nn::Tensor vobs = nn::Tensor::randn(1, small_obs().value_feature_dim(), rng);
  EXPECT_NEAR(model.value(vobs)->value.item(), model.value_nograd(vobs), 1e-12);
}

TEST(KernelNet, PolicyAndValueParametersAreDisjoint) {
  util::Rng rng(4);
  KernelActorCritic model(small_obs(), NetworkConfig{}, rng);
  const auto p = model.policy_parameters();
  const auto v = model.value_parameters();
  EXPECT_FALSE(p.empty());
  EXPECT_FALSE(v.empty());
  for (const auto& a : p) {
    for (const auto& b : v) EXPECT_NE(a.get(), b.get());
  }
}

TEST(KernelNet, CloneAndSyncRoundTrip) {
  util::Rng rng(5);
  KernelActorCritic model(small_obs(), NetworkConfig{}, rng);
  auto copy = model.clone();
  const nn::Tensor obs = nn::Tensor::randn(4, ObservationConfig::kFeatures, rng);
  EXPECT_LT(nn::Tensor::max_abs_diff(copy->policy_logits_nograd(obs),
                                     model.policy_logits_nograd(obs)),
            1e-15);
  // Perturb the clone, then sync back from the original.
  copy->policy_parameters()[0]->value.fill(0.77);
  EXPECT_GT(nn::Tensor::max_abs_diff(copy->policy_logits_nograd(obs),
                                     model.policy_logits_nograd(obs)),
            1e-9);
  copy->sync_from(model);
  EXPECT_LT(nn::Tensor::max_abs_diff(copy->policy_logits_nograd(obs),
                                     model.policy_logits_nograd(obs)),
            1e-15);
}

TEST(KernelNet, RejectsMismatchedLoadedNetworks) {
  util::Rng rng(6);
  nn::Mlp wrong_policy({5, 4, 1}, nn::Activation::Relu, rng);  // wrong input dim
  nn::Mlp value({small_obs().value_feature_dim(), 8, 1}, nn::Activation::Relu, rng);
  EXPECT_THROW(KernelActorCritic(small_obs(), std::move(wrong_policy), std::move(value)),
               std::invalid_argument);
}

TEST(FlatNet, RequiresPaddedObservations) {
  util::Rng rng(7);
  EXPECT_THROW(FlatActorCritic(small_obs(false), NetworkConfig{}, rng),
               std::invalid_argument);
}

TEST(FlatNet, EmitsMaxObsvLogits) {
  util::Rng rng(8);
  const ObservationConfig cfg = small_obs(true);
  FlatActorCritic model(cfg, NetworkConfig{}, rng);
  const nn::Tensor obs =
      nn::Tensor::randn(cfg.max_obsv_size, ObservationConfig::kFeatures, rng);
  const nn::Tensor logits = model.policy_logits_nograd(obs);
  EXPECT_EQ(logits.rows(), cfg.max_obsv_size);
  EXPECT_EQ(logits.cols(), 1u);
  EXPECT_LT(nn::Tensor::max_abs_diff(model.policy_logits(obs)->value, logits), 1e-12);
}

TEST(FlatNet, RejectsUnpaddedInput) {
  util::Rng rng(9);
  const ObservationConfig cfg = small_obs(true);
  FlatActorCritic model(cfg, NetworkConfig{}, rng);
  const nn::Tensor obs = nn::Tensor::randn(3, ObservationConfig::kFeatures, rng);
  EXPECT_THROW(model.policy_logits(obs), std::invalid_argument);
}

TEST(FlatNet, IsOrderSensitiveUnlikeKernel) {
  // The flat MLP reads absolute positions, so permuting rows does NOT
  // simply permute scores — this is exactly what ablation A1 probes.
  util::Rng rng(10);
  const ObservationConfig cfg = small_obs(true);
  FlatActorCritic model(cfg, NetworkConfig{}, rng);
  nn::Tensor obs =
      nn::Tensor::randn(cfg.max_obsv_size, ObservationConfig::kFeatures, rng);
  const nn::Tensor logits = model.policy_logits_nograd(obs);
  nn::Tensor swapped = obs;
  for (std::size_t c = 0; c < obs.cols(); ++c) {
    std::swap(swapped.at(0, c), swapped.at(1, c));
  }
  const nn::Tensor swapped_logits = model.policy_logits_nograd(swapped);
  double permuted_diff = std::abs(swapped_logits.at(0, 0) - logits.at(1, 0)) +
                         std::abs(swapped_logits.at(1, 0) - logits.at(0, 0));
  EXPECT_GT(permuted_diff, 1e-9);
}

// One stacked policy graph over several observations (one segment each)
// and ONE backward must leave the policy gradients a graph and backward
// per observation left, bit for bit — the PPO policy update relies on it.
void expect_stacked_policy_parity(const rl::ActorCritic& model,
                                  const std::vector<nn::Tensor>& obs) {
  const auto reference = model.clone();
  const auto stacked_model = model.clone();
  util::Rng rng(99);
  std::vector<std::vector<std::uint8_t>> masks;
  std::vector<std::size_t> actions;
  for (const nn::Tensor& o : obs) {
    std::vector<std::uint8_t> mask(o.rows(), 1);
    for (std::size_t r = 1; r < o.rows(); r += 3) mask[r] = 0;
    masks.push_back(mask);
    actions.push_back(0);
  }
  const auto step_loss = [&](const nn::VarPtr& logits, std::size_t i) {
    const nn::VarPtr logp = nn::masked_log_softmax(logits, masks[i]);
    return nn::sub(nn::exp_act(nn::pick(logp, actions[i], 0)),
                   nn::mul_scalar(nn::masked_entropy(logp, masks[i]), 0.01));
  };

  for (std::size_t i = 0; i < obs.size(); ++i) {
    nn::backward(step_loss(reference->policy_logits(obs[i]), i));
  }

  nn::Segments seg;
  for (const nn::Tensor& o : obs) seg.push(o.rows());
  nn::Tensor stacked(seg.total_rows(), obs.front().cols());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    std::copy(obs[i].data().begin(), obs[i].data().end(),
              stacked.data().begin() +
                  static_cast<std::ptrdiff_t>(seg.begin(i) * stacked.cols()));
  }
  const nn::VarPtr logits = stacked_model->policy_logits(stacked, seg);
  nn::VarPtr total;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const nn::VarPtr loss =
        step_loss(nn::slice_rows(logits, seg.begin(i), seg.rows(i)), i);
    EXPECT_EQ(loss->value.item(),
              step_loss(reference->policy_logits(obs[i]), i)->value.item());
    total = total == nullptr ? loss : nn::add(total, loss);
  }
  nn::backward(total);

  const auto want = reference->policy_parameters();
  const auto got = stacked_model->policy_parameters();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    ASSERT_TRUE(want[p]->has_grad());
    ASSERT_TRUE(got[p]->grad.same_shape(want[p]->grad));
    EXPECT_EQ(std::memcmp(got[p]->grad.data().data(), want[p]->grad.data().data(),
                          want[p]->grad.size() * sizeof(double)),
              0)
        << "policy parameter " << p;
  }
  for (const auto& v : stacked_model->value_parameters()) EXPECT_FALSE(v->has_grad());
}

TEST(KernelNet, StackedPolicyGradientsMatchPerObservationBackward) {
  util::Rng rng(12);
  KernelActorCritic model(small_obs(), NetworkConfig{}, rng);
  std::vector<nn::Tensor> obs;
  for (std::size_t rows : {4u, 1u, 9u, 3u, 8u, 2u}) {
    obs.push_back(nn::Tensor::randn(rows, ObservationConfig::kFeatures, rng));
  }
  obs[3].fill(0.0);  // an all-zero observation contributes only via biases
  expect_stacked_policy_parity(model, obs);
}

TEST(FlatNet, StackedPolicyGradientsMatchPerObservationBackward) {
  util::Rng rng(13);
  const ObservationConfig cfg = small_obs(true);
  FlatActorCritic model(cfg, NetworkConfig{}, rng);
  std::vector<nn::Tensor> obs;
  for (int i = 0; i < 5; ++i) {
    obs.push_back(
        nn::Tensor::randn(cfg.padded_policy_rows(), ObservationConfig::kFeatures, rng));
  }
  obs[1].fill(0.0);
  expect_stacked_policy_parity(model, obs);
}

TEST(Networks, StackedPolicyLogitsRejectBadSegments) {
  util::Rng rng(14);
  KernelActorCritic kernel(small_obs(), NetworkConfig{}, rng);
  const nn::Tensor obs = nn::Tensor::randn(5, ObservationConfig::kFeatures, rng);
  EXPECT_THROW(kernel.policy_logits(obs, nn::Segments{}), std::invalid_argument);
  EXPECT_THROW(kernel.policy_logits(obs, nn::Segments::uniform(2, 2)),
               std::invalid_argument);
  const ObservationConfig cfg = small_obs(true);
  FlatActorCritic flat(cfg, NetworkConfig{}, rng);
  const nn::Tensor two = nn::Tensor::randn(2 * cfg.padded_policy_rows(),
                                           ObservationConfig::kFeatures, rng);
  nn::Segments ragged;
  ragged.push(cfg.padded_policy_rows() - 1);
  ragged.push(cfg.padded_policy_rows() + 1);
  EXPECT_THROW(flat.policy_logits(two, ragged), std::invalid_argument);
  EXPECT_EQ(flat.policy_logits(two, nn::Segments::uniform(2, cfg.padded_policy_rows()))
                ->value.rows(),
            two.rows());
}

TEST(Networks, SyncFromWrongTypeThrows) {
  util::Rng rng(11);
  KernelActorCritic kernel(small_obs(), NetworkConfig{}, rng);
  FlatActorCritic flat(small_obs(true), NetworkConfig{}, rng);
  EXPECT_THROW(kernel.sync_from(flat), std::invalid_argument);
  EXPECT_THROW(flat.sync_from(kernel), std::invalid_argument);
}

}  // namespace
}  // namespace rlbf::core
