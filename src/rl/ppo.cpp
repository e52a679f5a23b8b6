#include "rl/ppo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace rlbf::rl {

nn::VarPtr ActorCritic::policy_logits(const nn::Tensor& policy_obs) const {
  return policy_logits(policy_obs, nn::Segments::uniform(1, policy_obs.rows()));
}

std::vector<nn::Tensor> ActorCritic::policy_logits_nograd_batch(
    const std::vector<const nn::Tensor*>& obs) const {
  std::vector<nn::Tensor> out;
  out.reserve(obs.size());
  for (const nn::Tensor* o : obs) out.push_back(policy_logits_nograd(*o));
  return out;
}

CategoricalSample sample_masked(const nn::Tensor& logits,
                                const std::vector<std::uint8_t>& mask, util::Rng& rng) {
  if (logits.cols() != 1 || logits.rows() != mask.size()) {
    throw std::invalid_argument("sample_masked: bad shapes");
  }
  double zmax = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) zmax = std::max(zmax, logits.at(i, 0));
  }
  if (zmax == -std::numeric_limits<double>::infinity()) {
    throw std::invalid_argument("sample_masked: all actions masked");
  }
  std::vector<double> probs(mask.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      probs[i] = std::exp(logits.at(i, 0) - zmax);
      total += probs[i];
    }
  }
  const std::size_t action = rng.categorical(probs);
  CategoricalSample out;
  out.action = action;
  out.log_prob = std::log(probs[action] / total);
  return out;
}

std::size_t argmax_masked(const nn::Tensor& logits,
                          const std::vector<std::uint8_t>& mask) {
  if (logits.cols() != 1 || logits.rows() != mask.size()) {
    throw std::invalid_argument("argmax_masked: bad shapes");
  }
  std::size_t best = mask.size();
  double best_v = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] && logits.at(i, 0) > best_v) {
      best_v = logits.at(i, 0);
      best = i;
    }
  }
  if (best == mask.size()) {
    throw std::invalid_argument("argmax_masked: all actions masked");
  }
  return best;
}

struct Ppo::ShardGrads {
  double loss_sum = 0.0;
  double kl_sum = 0.0;
  double entropy_sum = 0.0;
  std::size_t clip_count = 0;
  std::size_t n = 0;
  double inv_batch = 1.0;  // 1 / minibatch size (loss scaling)
};

Ppo::Ppo(ActorCritic& model, const PpoConfig& config, util::ThreadPool* pool)
    : model_(model),
      config_(config),
      pool_(pool),
      policy_opt_(model.policy_parameters(), config.policy_lr),
      value_opt_(model.value_parameters(), config.value_lr) {
  // One replica per gradient shard, independent of the pool size: the
  // shard structure (and thus the reduction order) must not change with
  // the worker count or trained models would differ across machines.
  if (pool_ != nullptr) {
    for (std::size_t i = 0; i < config_.grad_shards; ++i) {
      replicas_.push_back(model_.clone());
    }
  }
}

void Ppo::policy_shard(const std::vector<Step*>& steps, ActorCritic& replica,
                       ShardGrads& out) const {
  if (steps.empty()) return;
  obs::Span span("policy_shard", "rl");
  // One stacked forward and one backward for the whole shard. Each step's
  // observation is one segment of the stack, so the parameter gradients
  // keep the per-step partial sums a graph per step produced (see
  // ActorCritic::policy_logits); the loss chain below is per step, and
  // every step's loss receives gradient 1 from the sum.
  nn::Segments seg;
  seg.offsets.reserve(steps.size() + 1);
  for (const Step* s : steps) seg.push(s->policy_obs.rows());
  const std::size_t cols = steps.front()->policy_obs.cols();
  nn::Tensor stacked(seg.total_rows(), cols);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const nn::Tensor& o = steps[i]->policy_obs;
    if (o.cols() != cols) {
      throw std::invalid_argument("policy_shard: ragged observations");
    }
    std::copy(o.data().begin(), o.data().end(),
              stacked.data().begin() + static_cast<std::ptrdiff_t>(seg.begin(i) * cols));
  }
  const nn::VarPtr logits_all = replica.policy_logits(stacked, seg);
  nn::VarPtr total;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step* s = steps[i];
    const nn::VarPtr logits = nn::slice_rows(logits_all, seg.begin(i), seg.rows(i));
    const nn::VarPtr logp_all = nn::masked_log_softmax(logits, s->mask);
    const nn::VarPtr logp_a = nn::pick(logp_all, s->action, 0);
    const nn::VarPtr ratio = nn::exp_act(nn::sub(logp_a, nn::scalar(s->log_prob)));
    const nn::VarPtr surr1 = nn::mul_scalar(ratio, s->advantage);
    const nn::VarPtr surr2 = nn::mul_scalar(
        nn::clamp(ratio, 1.0 - config_.clip_ratio, 1.0 + config_.clip_ratio),
        s->advantage);
    nn::VarPtr loss = nn::neg(nn::minimum(surr1, surr2));
    const nn::VarPtr entropy = nn::masked_entropy(logp_all, s->mask);
    if (config_.entropy_coef > 0.0) {
      loss = nn::sub(loss, nn::mul_scalar(entropy, config_.entropy_coef));
    }
    loss = nn::mul_scalar(loss, out.inv_batch);

    out.loss_sum += loss->value.item() / out.inv_batch;
    out.kl_sum += s->log_prob - logp_a->value.item();
    out.entropy_sum += entropy->value.item();
    const double r = ratio->value.item();
    if (r < 1.0 - config_.clip_ratio || r > 1.0 + config_.clip_ratio) ++out.clip_count;
    ++out.n;
    total = total == nullptr ? loss : nn::add(total, loss);
  }
  nn::backward(total);
}

void Ppo::value_shard(const std::vector<Step*>& steps, ActorCritic& replica,
                      ShardGrads& out) const {
  if (steps.empty()) return;
  obs::Span span("value_shard", "rl");
  // One batched critic forward for the whole shard instead of a graph
  // pass per step. This is bit-identical to the historical per-step
  // loop: forward rows are row-independent; the weight/bias gradient of
  // a B-row matmul accumulates over rows in exactly the order the
  // per-step accumulate_grad calls did; and the per-row losses are
  // extracted and summed below in step order.
  nn::Tensor stacked(steps.size(), steps.front()->value_obs.cols());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const nn::Tensor& o = steps[i]->value_obs;
    for (std::size_t c = 0; c < o.cols(); ++c) stacked.at(i, c) = o.at(0, c);
  }
  const nn::VarPtr v_all = replica.value(stacked);
  nn::VarPtr total;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const nn::VarPtr v = nn::pick(v_all, i, 0);
    nn::VarPtr loss = nn::square(nn::sub(v, nn::scalar(steps[i]->ret)));
    loss = nn::mul_scalar(loss, out.inv_batch);
    out.loss_sum += loss->value.item() / out.inv_batch;
    ++out.n;
    total = total == nullptr ? loss : nn::add(total, loss);
  }
  nn::backward(total);
}

std::vector<Step*> Ppo::sample_minibatch(const std::vector<Step*>& all,
                                         util::Rng& rng) const {
  if (config_.minibatch_size == 0 || all.size() <= config_.minibatch_size) return all;
  std::vector<Step*> mb;
  mb.reserve(config_.minibatch_size);
  const auto n = static_cast<std::int64_t>(all.size());
  for (std::size_t i = 0; i < config_.minibatch_size; ++i) {
    mb.push_back(all[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
  }
  return mb;
}

namespace {

/// Zero p's grads, run `shards` (one per replica slice), then reduce the
/// replica gradients into the master parameters.
void reduce_grads(const std::vector<nn::VarPtr>& master,
                  const std::vector<std::vector<nn::VarPtr>>& replica_params) {
  for (const auto& rp : replica_params) {
    for (std::size_t i = 0; i < master.size(); ++i) {
      if (rp[i]->has_grad()) master[i]->accumulate_grad(rp[i]->grad);
    }
  }
}

}  // namespace

PpoStats Ppo::update(RolloutBuffer& buffer, util::Rng& rng) {
  if (!buffer.finished()) {
    buffer.finish(config_.gamma, config_.lambda, config_.normalize_advantages);
  }
  const std::vector<Step*> all = buffer.flat_steps();
  if (all.empty()) throw std::invalid_argument("Ppo::update: empty buffer");

  PpoStats stats;

  // Run one minibatch through (policy|value) shards, possibly in
  // parallel, and leave reduced gradients on the master parameters.
  const auto run_batch = [&](const std::vector<Step*>& mb, bool policy) -> ShardGrads {
    ShardGrads total;
    total.inv_batch = 1.0 / static_cast<double>(mb.size());
    if (pool_ == nullptr || replicas_.empty() || mb.size() < 64) {
      if (policy) {
        policy_shard(mb, model_, total);
      } else {
        value_shard(mb, model_, total);
      }
      return total;
    }
    const std::size_t shards = std::min(replicas_.size(), mb.size());
    std::vector<ShardGrads> grads(shards);
    std::vector<std::vector<Step*>> slices(shards);
    for (std::size_t i = 0; i < mb.size(); ++i) slices[i % shards].push_back(mb[i]);
    pool_->parallel_for(shards, [&](std::size_t k) {
      auto& replica = *replicas_[k];
      replica.sync_from(model_);
      for (const auto& p : replica.policy_parameters()) p->zero_grad();
      for (const auto& p : replica.value_parameters()) p->zero_grad();
      grads[k].inv_batch = total.inv_batch;
      if (policy) {
        policy_shard(slices[k], replica, grads[k]);
      } else {
        value_shard(slices[k], replica, grads[k]);
      }
    });
    obs::Span reduce_span("shard_reduce", "rl");
    std::vector<std::vector<nn::VarPtr>> replica_params;
    replica_params.reserve(shards);
    for (std::size_t k = 0; k < shards; ++k) {
      replica_params.push_back(policy ? replicas_[k]->policy_parameters()
                                      : replicas_[k]->value_parameters());
    }
    reduce_grads(policy ? model_.policy_parameters() : model_.value_parameters(),
                 replica_params);
    for (const auto& g : grads) {
      total.loss_sum += g.loss_sum;
      total.kl_sum += g.kl_sum;
      total.entropy_sum += g.entropy_sum;
      total.clip_count += g.clip_count;
      total.n += g.n;
    }
    return total;
  };

  // --- policy iterations with approximate-KL early stopping ---
  for (std::size_t iter = 0; iter < config_.train_iters; ++iter) {
    const std::vector<Step*> mb = sample_minibatch(all, rng);
    policy_opt_.zero_grad();
    const ShardGrads g = run_batch(mb, /*policy=*/true);
    const auto n = static_cast<double>(std::max<std::size_t>(g.n, 1));
    stats.approx_kl = g.kl_sum / n;
    stats.policy_loss = g.loss_sum / n;
    stats.entropy = g.entropy_sum / n;
    stats.clip_fraction = static_cast<double>(g.clip_count) / n;
    if (config_.target_kl > 0.0 && stats.approx_kl > 1.5 * config_.target_kl) {
      // SpinningUp convention: stop before applying this update.
      break;
    }
    obs::Span step_span("optimizer_step", "rl");
    stats.grad_norm = policy_opt_.clip_grad_norm(config_.max_grad_norm);
    policy_opt_.step();
    ++stats.policy_iters;
  }

  // --- value iterations ---
  for (std::size_t iter = 0; iter < config_.train_iters; ++iter) {
    const std::vector<Step*> mb = sample_minibatch(all, rng);
    value_opt_.zero_grad();
    const ShardGrads g = run_batch(mb, /*policy=*/false);
    stats.value_loss = g.loss_sum / static_cast<double>(std::max<std::size_t>(g.n, 1));
    obs::Span step_span("optimizer_step", "rl");
    value_opt_.clip_grad_norm(config_.max_grad_norm);
    value_opt_.step();
    ++stats.value_iters;
  }
  return stats;
}

}  // namespace rlbf::rl
