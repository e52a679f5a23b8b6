#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.h"

namespace rlbf::nn {

void Variable::accumulate_grad(const Tensor& g) {
  if (!tracks_grad()) return;
  if (!has_grad()) {
    grad = Tensor::zeros(value.rows(), value.cols());
  }
  grad.add_(g);
}

void Variable::zero_grad() {
  if (grad.size() > 0) grad.fill(0.0);
}

void Segments::push(std::size_t rows) {
  if (offsets.empty()) offsets.push_back(0);
  offsets.push_back(offsets.back() + rows);
}

Segments Segments::uniform(std::size_t count, std::size_t rows_each) {
  Segments seg;
  seg.offsets.reserve(count + 1);
  for (std::size_t i = 0; i < count; ++i) seg.push(rows_each);
  return seg;
}

VarPtr make_var(Tensor value, bool requires_grad) {
  return std::make_shared<Variable>(std::move(value), requires_grad);
}

VarPtr constant(Tensor value) { return make_var(std::move(value), false); }

VarPtr scalar(double v) { return constant(Tensor::full(1, 1, v)); }

namespace {

/// An op node; it keeps its parents (and so tracks gradients) only when
/// at least one parent does. The caller attaches backward_fn.
VarPtr make_op(Tensor value, std::vector<VarPtr> parents) {
  auto out = make_var(std::move(value), false);
  bool any = false;
  for (const auto& p : parents) any = any || p->tracks_grad();
  if (any) out->parents = std::move(parents);
  return out;
}

void check_segments(const Segments& seg, const Tensor& a, const char* op) {
  if (!seg.empty() && seg.total_rows() != a.rows()) {
    throw std::invalid_argument(std::string(op) + ": segments cover " +
                                std::to_string(seg.total_rows()) + " rows of " +
                                a.shape_str());
  }
}

/// Runs fn(begin, end) over each segment's row range; an empty Segments
/// is the single range [0, rows).
template <class Fn>
void for_each_segment(const Segments& seg, std::size_t rows, Fn fn) {
  if (seg.empty()) {
    fn(std::size_t{0}, rows);
    return;
  }
  for (std::size_t i = 0; i < seg.count(); ++i) fn(seg.begin(i), seg.end(i));
}

}  // namespace

VarPtr add(const VarPtr& a, const VarPtr& b, const Segments& seg) {
  check_segments(seg, a->value, "add");
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  Tensor out = av;
  if (bv.same_shape(av)) {
    out.add_(bv);
  } else if (bv.rows() == 1 && bv.cols() == av.cols()) {
    for (std::size_t r = 0; r < av.rows(); ++r) {
      for (std::size_t c = 0; c < av.cols(); ++c) out.at(r, c) += bv.at(0, c);
    }
  } else if (bv.size() == 1) {
    const double s = bv[0];
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += s;
  } else {
    throw std::invalid_argument("add: incompatible shapes " + av.shape_str() + " + " +
                                bv.shape_str());
  }
  auto result = make_op(std::move(out), {a, b});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, b, seg, wr] {
    const auto r = wr.lock();
    const Tensor& g = r->grad;
    a->accumulate_grad(g);
    if (!b->tracks_grad()) return;
    const Tensor& bv = b->value;
    if (bv.same_shape(a->value)) {
      b->accumulate_grad(g);
    } else if (bv.rows() == 1 && bv.cols() == g.cols()) {
      Tensor gb(1, g.cols());
      for_each_segment(seg, g.rows(), [&](std::size_t begin, std::size_t end) {
        gb.fill(0.0);
        for (std::size_t r2 = begin; r2 < end; ++r2) {
          for (std::size_t c = 0; c < g.cols(); ++c) gb.at(0, c) += g.at(r2, c);
        }
        b->accumulate_grad(gb);
      });
    } else {  // scalar broadcast
      b->accumulate_grad(Tensor::full(1, 1, g.sum()));
    }
  };
  return result;
}

VarPtr sub(const VarPtr& a, const VarPtr& b) { return add(a, neg(b)); }

VarPtr mul(const VarPtr& a, const VarPtr& b) {
  if (!a->value.same_shape(b->value)) {
    throw std::invalid_argument("mul: shape mismatch " + a->value.shape_str() + " * " +
                                b->value.shape_str());
  }
  Tensor out = a->value;
  out.hadamard_(b->value);
  auto result = make_op(std::move(out), {a, b});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, b, wr] {
    const auto r = wr.lock();
    if (a->tracks_grad()) {
      Tensor ga = r->grad;
      ga.hadamard_(b->value);
      a->accumulate_grad(ga);
    }
    if (b->tracks_grad()) {
      Tensor gb = r->grad;
      gb.hadamard_(a->value);
      b->accumulate_grad(gb);
    }
  };
  return result;
}

VarPtr mul_scalar(const VarPtr& a, double s) {
  Tensor out = a->value;
  out.mul_(s);
  auto result = make_op(std::move(out), {a});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, s, wr] {
    Tensor g = wr.lock()->grad;
    g.mul_(s);
    a->accumulate_grad(g);
  };
  return result;
}

VarPtr neg(const VarPtr& a) { return mul_scalar(a, -1.0); }

VarPtr matmul(const VarPtr& a, const VarPtr& b, const Segments& seg) {
  check_segments(seg, a->value, "matmul");
  Tensor out;
  Tensor::matmul_into(a->value, b->value, out);
  auto result = make_op(std::move(out), {a, b});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, b, seg, wr] {
    const auto r = wr.lock();
    const Tensor& g = r->grad;
    // dA = G * B^T, row by row; never formed for a constant A (the
    // networks' observation input).
    if (a->tracks_grad()) {
      Tensor ga;
      Tensor::matmul_into(g, b->value, ga, false, true);
      a->accumulate_grad(ga);
    }
    // dB = A^T * G, summed one segment at a time.
    if (b->tracks_grad()) {
      Tensor gb;
      for_each_segment(seg, g.rows(), [&](std::size_t begin, std::size_t end) {
        Tensor::matmul_tn_rows(a->value, g, begin, end, gb);
        b->accumulate_grad(gb);
      });
    }
  };
  return result;
}

namespace {

/// Unary elementwise op with derivative df(x, y) computed from input x
/// and output y. Functors are template parameters so the per-element
/// calls inline.
template <class F, class DF>
VarPtr unary_op(const VarPtr& a, F f, DF df) {
  Tensor out = a->value;
  for (auto& x : out.data()) x = f(x);
  auto result = make_op(std::move(out), {a});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, df, wr] {
    const auto r = wr.lock();
    Tensor g = r->grad;
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] *= df(a->value[i], r->value[i]);
    }
    a->accumulate_grad(g);
  };
  return result;
}

}  // namespace

VarPtr relu(const VarPtr& a) {
  return unary_op(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

VarPtr tanh_act(const VarPtr& a) {
  return unary_op(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; });
}

VarPtr exp_act(const VarPtr& a) {
  return unary_op(
      a, [](double x) { return std::exp(x); }, [](double, double y) { return y; });
}

VarPtr square(const VarPtr& a) {
  return unary_op(
      a, [](double x) { return x * x; }, [](double x, double) { return 2.0 * x; });
}

VarPtr huber(const VarPtr& a, double delta) {
  if (delta <= 0.0) throw std::invalid_argument("huber: delta must be positive");
  return unary_op(
      a,
      [delta](double x) {
        const double ax = std::abs(x);
        return ax <= delta ? 0.5 * x * x : delta * (ax - 0.5 * delta);
      },
      [delta](double x, double) { return std::clamp(x, -delta, delta); });
}

VarPtr sum(const VarPtr& a) {
  auto result = make_op(Tensor::full(1, 1, a->value.sum()), {a});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, wr] {
    const double g = wr.lock()->grad[0];
    a->accumulate_grad(Tensor::full(a->value.rows(), a->value.cols(), g));
  };
  return result;
}

VarPtr mean(const VarPtr& a) {
  const auto n = static_cast<double>(a->value.size());
  if (n == 0.0) throw std::invalid_argument("mean of empty variable");
  return mul_scalar(sum(a), 1.0 / n);
}

VarPtr clamp(const VarPtr& a, double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("clamp: lo > hi");
  return unary_op(
      a, [lo, hi](double x) { return std::clamp(x, lo, hi); },
      [lo, hi](double x, double) { return (x > lo && x < hi) ? 1.0 : 0.0; });
}

VarPtr minimum(const VarPtr& a, const VarPtr& b) {
  if (!a->value.same_shape(b->value)) {
    throw std::invalid_argument("minimum: shape mismatch");
  }
  Tensor out = a->value;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], b->value[i]);
  auto result = make_op(std::move(out), {a, b});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, b, wr] {
    const auto r = wr.lock();
    // The gradient follows the smaller input; ties go to a.
    const auto routed = [&](bool to_a) {
      Tensor gx = Tensor::zeros(r->grad.rows(), r->grad.cols());
      for (std::size_t i = 0; i < r->grad.size(); ++i) {
        if ((a->value[i] <= b->value[i]) == to_a) gx[i] = r->grad[i];
      }
      return gx;
    };
    if (a->tracks_grad()) a->accumulate_grad(routed(true));
    if (b->tracks_grad()) b->accumulate_grad(routed(false));
  };
  return result;
}

VarPtr pick(const VarPtr& a, std::size_t r, std::size_t c) {
  if (r >= a->value.rows() || c >= a->value.cols()) {
    throw std::out_of_range("pick: index out of range");
  }
  auto result = make_op(Tensor::full(1, 1, a->value.at(r, c)), {a});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, r, c, wr] {
    Tensor g = Tensor::zeros(a->value.rows(), a->value.cols());
    g.at(r, c) = wr.lock()->grad[0];
    a->accumulate_grad(g);
  };
  return result;
}

VarPtr slice_rows(const VarPtr& a, std::size_t begin, std::size_t count) {
  const Tensor& av = a->value;
  if (begin + count > av.rows()) {
    throw std::out_of_range("slice_rows: rows [" + std::to_string(begin) + ", " +
                            std::to_string(begin + count) + ") of " + av.shape_str());
  }
  Tensor out(count, av.cols());
  const auto first = av.data().begin() + static_cast<std::ptrdiff_t>(begin * av.cols());
  std::copy(first, first + static_cast<std::ptrdiff_t>(count * av.cols()),
            out.data().begin());
  auto result = make_op(std::move(out), {a});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, begin, wr] {
    const auto r = wr.lock();
    if (!a->has_grad()) a->grad = Tensor::zeros(a->value.rows(), a->value.cols());
    double* dst = a->grad.data().data() + begin * a->value.cols();
    for (std::size_t i = 0; i < r->grad.size(); ++i) dst[i] += r->grad[i];
  };
  return result;
}

VarPtr reshape(const VarPtr& a, std::size_t rows, std::size_t cols) {
  auto result = make_op(a->value.reshaped(rows, cols), {a});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, wr] {
    const auto r = wr.lock();
    a->accumulate_grad(r->grad.reshaped(a->value.rows(), a->value.cols()));
  };
  return result;
}

VarPtr masked_log_softmax(const VarPtr& logits, const std::vector<std::uint8_t>& mask) {
  const Tensor& z = logits->value;
  if (z.cols() != 1) throw std::invalid_argument("masked_log_softmax: want N x 1");
  if (mask.size() != z.rows()) {
    throw std::invalid_argument("masked_log_softmax: mask size mismatch");
  }
  // log-sum-exp over valid entries, numerically stabilized.
  double zmax = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      zmax = std::max(zmax, z.at(i, 0));
      any = true;
    }
  }
  if (!any) throw std::invalid_argument("masked_log_softmax: all masked");
  double lse = 0.0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) lse += std::exp(z.at(i, 0) - zmax);
  }
  lse = zmax + std::log(lse);

  Tensor out(z.rows(), 1, kMaskedLogProb);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) out.at(i, 0) = z.at(i, 0) - lse;
  }
  auto result = make_op(std::move(out), {logits});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [logits, mask, wr] {
    const auto r = wr.lock();
    // d lp_i / d z_j = delta_ij - softmax_j (valid entries only).
    double gsum = 0.0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) gsum += r->grad.at(i, 0);
    }
    Tensor g = Tensor::zeros(r->value.rows(), 1);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (!mask[i]) continue;
      const double p = std::exp(r->value.at(i, 0));
      g.at(i, 0) = r->grad.at(i, 0) - p * gsum;
    }
    logits->accumulate_grad(g);
  };
  return result;
}

VarPtr masked_entropy(const VarPtr& log_probs, const std::vector<std::uint8_t>& mask) {
  const Tensor& lp = log_probs->value;
  if (lp.cols() != 1 || mask.size() != lp.rows()) {
    throw std::invalid_argument("masked_entropy: bad shapes");
  }
  double h = 0.0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) h -= std::exp(lp.at(i, 0)) * lp.at(i, 0);
  }
  auto result = make_op(Tensor::full(1, 1, h), {log_probs});
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [log_probs, mask, wr] {
    const double g = wr.lock()->grad[0];
    Tensor out = Tensor::zeros(log_probs->value.rows(), 1);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (!mask[i]) continue;
      const double lpi = log_probs->value.at(i, 0);
      out.at(i, 0) = -g * std::exp(lpi) * (lpi + 1.0);
    }
    log_probs->accumulate_grad(out);
  };
  return result;
}

void backward(const VarPtr& root) {
  if (obs::enabled()) {
    static obs::CachedCounter c("nn.backward_calls");
    c.add(1);
  }
  if (root->value.size() != 1) {
    throw std::invalid_argument("backward: root must be scalar, got " +
                                root->value.shape_str());
  }
  // Iterative post-order DFS for the topological order. The visited set
  // is sized up front from the largest graph this thread has walked, so
  // it does not rehash as the walk grows it. (A set kept alive across
  // calls instead holds its buckets for the thread's lifetime, which
  // measurably slowed the no-grad inference that runs afterwards.)
  thread_local std::size_t largest_graph = 0;
  std::vector<VarPtr> topo;
  std::unordered_set<const Variable*> visited;
  visited.reserve(largest_graph);
  std::vector<std::pair<VarPtr, std::size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->parents.size()) {
      const VarPtr next = node->parents[child++];
      if (next->tracks_grad() && visited.insert(next.get()).second) {
        stack.emplace_back(next, 0);
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }
  largest_graph = std::max(largest_graph, visited.size());
  root->accumulate_grad(Tensor::ones(1, 1));
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if ((*it)->backward_fn && (*it)->has_grad()) (*it)->backward_fn();
  }
}

}  // namespace rlbf::nn
