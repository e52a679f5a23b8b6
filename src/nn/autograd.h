// Reverse-mode automatic differentiation over Tensor.
//
// Computation graphs are built dynamically: every op returns a new
// Variable holding its value, its parents, and a closure that scatters
// the upstream gradient to the parents. backward() topologically sorts
// the graph from a scalar root and runs the closures in reverse.
//
// This is the substrate standing in for PyTorch (DESIGN.md §3): the op
// set is exactly what PPO with a masked categorical policy needs, and
// every op's gradient is finite-difference-checked in tests/nn/.
//
// Gradients flow only where they can reach a requires_grad leaf. A node
// that cannot (a constant, or an op over constants only) never receives
// a .grad, and matmul never computes the input-side product for it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace rlbf::nn {

class Variable;
using VarPtr = std::shared_ptr<Variable>;

class Variable {
 public:
  explicit Variable(Tensor value, bool requires_grad = false)
      : value(std::move(value)), requires_grad(requires_grad) {}

  Tensor value;
  /// Lazily sized on first accumulation; survives across graphs for
  /// parameter nodes (zeroed by the optimizer).
  Tensor grad;
  bool requires_grad = false;

  std::vector<VarPtr> parents;
  /// Reads this->grad, accumulates into parents' grads. Null for leaves.
  std::function<void()> backward_fn;

  /// Whether gradient flows into this node: a requires_grad leaf, or an
  /// op with at least one such node below it.
  bool tracks_grad() const { return requires_grad || !parents.empty(); }
  /// Accumulate g into grad (allocating on first use); a no-op on nodes
  /// that do not track gradients.
  void accumulate_grad(const Tensor& g);
  bool has_grad() const { return grad.size() == value.size() && grad.size() > 0; }
  void zero_grad();
};

/// A partition of a stacked tensor's rows into consecutive segments:
/// segment i is rows [offsets[i], offsets[i + 1]). A graph built over a
/// stack of independent inputs (one segment each) passes it to the ops
/// that reduce over rows into a parameter gradient — matmul's dB and the
/// row-broadcast add's db. Those ops sum each segment's rows from zero
/// and add the segment sums into .grad in segment order, which is
/// exactly the floating-point sum that one graph and one backward per
/// input would have produced. Row-wise results (forward values, dA,
/// activation masks) do not depend on segments. An empty Segments means
/// one segment spanning every row.
struct Segments {
  std::vector<std::size_t> offsets;

  bool empty() const { return offsets.size() < 2; }
  std::size_t count() const { return empty() ? 0 : offsets.size() - 1; }
  std::size_t begin(std::size_t i) const { return offsets[i]; }
  std::size_t end(std::size_t i) const { return offsets[i + 1]; }
  std::size_t rows(std::size_t i) const { return end(i) - begin(i); }
  std::size_t total_rows() const { return empty() ? 0 : offsets.back(); }
  /// Append a segment of `rows` rows after the last one.
  void push(std::size_t rows);
  /// `count` consecutive segments of `rows_each` rows.
  static Segments uniform(std::size_t count, std::size_t rows_each);
};

/// Leaf node; set requires_grad for parameters.
VarPtr make_var(Tensor value, bool requires_grad = false);
/// Non-differentiable constant.
VarPtr constant(Tensor value);
VarPtr scalar(double v);

/// Elementwise a + b. b may also be 1 x cols (row broadcast over a's
/// rows, the Linear bias case) or 1 x 1 (scalar broadcast). With `seg`,
/// a row-broadcast b's gradient is summed one segment at a time.
VarPtr add(const VarPtr& a, const VarPtr& b, const Segments& seg = {});
/// a - b (same broadcast rules via add/neg).
VarPtr sub(const VarPtr& a, const VarPtr& b);
/// Elementwise product, same shape only.
VarPtr mul(const VarPtr& a, const VarPtr& b);
VarPtr mul_scalar(const VarPtr& a, double s);
VarPtr neg(const VarPtr& a);
/// a * b. With `seg` (a partition of a's rows), b's gradient a^T g is
/// summed one segment at a time.
VarPtr matmul(const VarPtr& a, const VarPtr& b, const Segments& seg = {});

VarPtr relu(const VarPtr& a);
VarPtr tanh_act(const VarPtr& a);
VarPtr exp_act(const VarPtr& a);
VarPtr square(const VarPtr& a);
/// Elementwise Huber loss of a residual: 0.5 x^2 inside |x| <= delta,
/// delta(|x| - delta/2) outside. Gradient clamp(x, -delta, delta) — the
/// outlier-robust regression loss DQN fits Q targets with.
VarPtr huber(const VarPtr& a, double delta);

/// Reductions to 1 x 1.
VarPtr sum(const VarPtr& a);
VarPtr mean(const VarPtr& a);

/// Elementwise clamp; gradient passes only strictly inside (lo, hi).
VarPtr clamp(const VarPtr& a, double lo, double hi);
/// Elementwise min; gradient follows the smaller input (ties -> a).
VarPtr minimum(const VarPtr& a, const VarPtr& b);

/// Select one element as a 1 x 1 variable.
VarPtr pick(const VarPtr& a, std::size_t r, std::size_t c);
/// Rows [begin, begin + count) of a as a new variable; the gradient adds
/// back into those rows only.
VarPtr slice_rows(const VarPtr& a, std::size_t begin, std::size_t count);
/// Copy-reshape (gradient reshapes back).
VarPtr reshape(const VarPtr& a, std::size_t rows, std::size_t cols);

/// Value used for masked-out logits' log-probabilities.
inline constexpr double kMaskedLogProb = -1e30;

/// Masked log-softmax over a column vector (N x 1). Entries with
/// mask[i] == 0 are excluded from the normalization, produce
/// kMaskedLogProb, and receive zero gradient. At least one entry must
/// be valid.
VarPtr masked_log_softmax(const VarPtr& logits, const std::vector<std::uint8_t>& mask);

/// Entropy of the masked categorical given its log-probabilities:
/// -sum_valid exp(lp) * lp, as a 1 x 1 variable.
VarPtr masked_entropy(const VarPtr& log_probs, const std::vector<std::uint8_t>& mask);

/// Backpropagate from a scalar (1 x 1) root with seed gradient 1.
void backward(const VarPtr& root);

}  // namespace rlbf::nn
