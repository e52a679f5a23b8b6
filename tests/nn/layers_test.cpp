#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

namespace rlbf::nn {
namespace {

TEST(Linear, ForwardComputesXwPlusB) {
  util::Rng rng(1);
  Linear layer(2, 3, rng);
  // Overwrite parameters with known values.
  layer.weight()->value = Tensor{{1.0, 0.0, 2.0}, {0.0, 1.0, 3.0}};
  layer.bias()->value = Tensor{{10.0, 20.0, 30.0}};
  const auto y = layer.forward(make_var(Tensor{{2.0, 5.0}}));
  EXPECT_DOUBLE_EQ(y->value.at(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(y->value.at(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(y->value.at(0, 2), 2.0 * 2.0 + 5.0 * 3.0 + 30.0);
}

TEST(Linear, BatchedForwardAppliesRowwise) {
  util::Rng rng(2);
  Linear layer(2, 1, rng);
  const auto y = layer.forward(make_var(Tensor{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}}));
  EXPECT_EQ(y->value.rows(), 3u);
  EXPECT_EQ(y->value.cols(), 1u);
}

TEST(Linear, RejectsZeroDimensions) {
  util::Rng rng(1);
  EXPECT_THROW(Linear(0, 3, rng), std::invalid_argument);
  EXPECT_THROW(Linear(3, 0, rng), std::invalid_argument);
}

TEST(Linear, CloneIsIndependent) {
  util::Rng rng(3);
  Linear a(2, 2, rng);
  Linear b = a.clone();
  EXPECT_LT(Tensor::max_abs_diff(a.weight()->value, b.weight()->value), 1e-15);
  b.weight()->value.fill(99.0);
  EXPECT_GT(Tensor::max_abs_diff(a.weight()->value, b.weight()->value), 1.0);
}

TEST(Mlp, RequiresAtLeastTwoDims) {
  util::Rng rng(1);
  EXPECT_THROW(Mlp({5}, Activation::Relu, rng), std::invalid_argument);
}

TEST(Mlp, DimsAccessors) {
  util::Rng rng(1);
  Mlp mlp({8, 32, 16, 1}, Activation::Tanh, rng);
  EXPECT_EQ(mlp.in_features(), 8u);
  EXPECT_EQ(mlp.out_features(), 1u);
  EXPECT_EQ(mlp.parameters().size(), 6u);  // 3 layers x (W, b)
  EXPECT_EQ(mlp.parameter_count(), 8u * 32 + 32 + 32u * 16 + 16 + 16u * 1 + 1);
}

class MlpActivationTest : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpActivationTest, GraphAndValueForwardAgree) {
  util::Rng rng(7);
  Mlp mlp({4, 8, 3}, GetParam(), rng);
  const Tensor x = Tensor::randn(5, 4, rng);
  const Tensor via_graph = mlp.forward(make_var(x))->value;
  const Tensor via_value = mlp.forward_value(x);
  EXPECT_LT(Tensor::max_abs_diff(via_graph, via_value), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, MlpActivationTest,
                         ::testing::Values(Activation::None, Activation::Relu,
                                           Activation::Tanh));

// ---- batched-inference parity suite -------------------------------------
// The hot-path contract: the graph forward, the nograd forward, and the
// buffer-reusing batched path must agree BIT-FOR-BIT (operator==, not a
// tolerance) for every activation and batch size, and a multi-row batch
// must reproduce the per-row passes exactly. The golden byte-identity
// suite leans on this.

class MlpParityTest
    : public ::testing::TestWithParam<std::tuple<Activation, std::size_t>> {};

TEST_P(MlpParityTest, GraphValueAndBatchedPathsAreBitIdentical) {
  const auto [act, batch] = GetParam();
  util::Rng rng(23);
  const Mlp mlp({10, 32, 16, 8, 1}, act, rng);
  const Tensor x = Tensor::randn(batch, 10, rng);

  const Tensor via_graph = mlp.forward(make_var(x))->value;
  const Tensor via_value = mlp.forward_value(x);
  Tensor via_into, scratch;
  mlp.forward_value_into(x, via_into, scratch);

  EXPECT_TRUE(via_graph == via_value);
  EXPECT_TRUE(via_value == via_into);

  // One batched pass == the per-row passes, bit for bit.
  for (std::size_t r = 0; r < batch; ++r) {
    const Tensor row_out = mlp.forward_value(x.row(r));
    ASSERT_EQ(row_out.rows(), 1u);
    for (std::size_t c = 0; c < row_out.cols(); ++c) {
      EXPECT_EQ(via_value.at(r, c), row_out.at(0, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ActivationsAndBatchSizes, MlpParityTest,
    ::testing::Combine(::testing::Values(Activation::None, Activation::Relu,
                                         Activation::Tanh),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{64})));

TEST(Mlp, ForwardValueHandlesEmptyCandidateBatch) {
  util::Rng rng(29);
  const Mlp mlp({10, 8, 1}, Activation::Relu, rng);
  const Tensor empty(0, 10);
  const Tensor out = mlp.forward_value(empty);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 1u);
}

TEST(Mlp, ForwardValueIntoReusesBuffersAcrossShapes) {
  util::Rng rng(31);
  const Mlp mlp({6, 12, 4, 1}, Activation::Tanh, rng);
  Tensor out, scratch;
  // Warm with a large batch, then shrink and grow again: every call must
  // match a fresh forward_value exactly despite the recycled buffers.
  for (const std::size_t batch : {64u, 1u, 7u, 64u}) {
    const Tensor x = Tensor::randn(batch, 6, rng);
    mlp.forward_value_into(x, out, scratch);
    EXPECT_TRUE(out == mlp.forward_value(x));
  }
}

TEST(Mlp, HiddenActivationIsNotAppliedToOutput) {
  util::Rng rng(9);
  Mlp mlp({2, 4, 1}, Activation::Relu, rng);
  // Push weights negative so a final ReLU would zero the output.
  for (const auto& p : mlp.parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value[i] = -std::abs(p->value[i]) - 0.1;
    }
  }
  const Tensor y = mlp.forward_value(Tensor{{1.0, 1.0}});
  EXPECT_LT(y.item(), 0.0);  // output stayed negative: no output ReLU
}

TEST(Mlp, CloneSharesNothing) {
  util::Rng rng(11);
  Mlp a({3, 4, 1}, Activation::Tanh, rng);
  Mlp b = a.clone();
  const Tensor x = Tensor::randn(1, 3, rng);
  EXPECT_LT(Tensor::max_abs_diff(a.forward_value(x), b.forward_value(x)), 1e-15);
  b.parameters()[0]->value.fill(0.5);
  EXPECT_GT(Tensor::max_abs_diff(a.forward_value(x), b.forward_value(x)), 1e-12);
}

TEST(Mlp, CopyParametersFrom) {
  util::Rng rng(13);
  Mlp a({3, 4, 1}, Activation::Tanh, rng);
  Mlp b({3, 4, 1}, Activation::Tanh, rng);
  const Tensor x = Tensor::randn(1, 3, rng);
  ASSERT_GT(Tensor::max_abs_diff(a.forward_value(x), b.forward_value(x)), 1e-12);
  b.copy_parameters_from(a);
  EXPECT_LT(Tensor::max_abs_diff(a.forward_value(x), b.forward_value(x)), 1e-15);
}

TEST(Mlp, CopyParametersShapeMismatchThrows) {
  util::Rng rng(13);
  Mlp a({3, 4, 1}, Activation::Tanh, rng);
  Mlp b({3, 5, 1}, Activation::Tanh, rng);
  EXPECT_THROW(b.copy_parameters_from(a), std::invalid_argument);
}

TEST(Mlp, ScaleOutputLayerShrinksOutputsOnly) {
  util::Rng rng(19);
  Mlp mlp({3, 8, 2}, Activation::Tanh, rng);
  const Tensor x = Tensor::randn(4, 3, rng);
  const Tensor before = mlp.forward_value(x);
  mlp.scale_output_layer(0.01);
  const Tensor after = mlp.forward_value(x);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i] * 0.01, 1e-12);
  }
  // Hidden layers untouched: rescaling back restores the original.
  mlp.scale_output_layer(100.0);
  EXPECT_LT(Tensor::max_abs_diff(mlp.forward_value(x), before), 1e-9);
}

TEST(Mlp, BackwardReachesAllParameters) {
  util::Rng rng(17);
  Mlp mlp({3, 4, 2, 1}, Activation::Tanh, rng);
  const auto y = mlp.forward(make_var(Tensor::randn(2, 3, rng)));
  backward(sum(y));
  for (const auto& p : mlp.parameters()) {
    ASSERT_TRUE(p->has_grad());
    EXPECT_GT(p->grad.norm(), 0.0);
  }
}

// ---- segment-exact parameter gradients ----
// A stacked graph with Segments plus ONE backward must leave the same
// parameter .grad bits as one graph and one backward per segment; the
// PPO policy update's bit-identity rests on it.

struct SegmentCase {
  const char* name;
  Activation act;
  std::vector<std::size_t> rows;  // per segment
  std::size_t zero_segment;       // index of a segment with all-zero rows
};

void PrintTo(const SegmentCase& c, std::ostream* os) { *os << c.name; }

class MlpSegmentParityTest : public ::testing::TestWithParam<SegmentCase> {};

bool same_grad_bits(const VarPtr& x, const VarPtr& y) {
  return x->grad.same_shape(y->grad) &&
         std::memcmp(x->grad.data().data(), y->grad.data().data(),
                     x->grad.size() * sizeof(double)) == 0;
}

TEST_P(MlpSegmentParityTest, StackedBackwardMatchesOneBackwardPerSegment) {
  const SegmentCase& c = GetParam();
  util::Rng rng(31);
  const std::size_t in = 6;
  const Mlp per_segment({in, 16, 8, 3}, c.act, rng);
  const Mlp stacked = per_segment.clone();
  // Both start from the same nonzero gradients: the segment sums must
  // land on top of whatever .grad already holds, in segment order.
  const auto p_ref = per_segment.parameters();
  const auto p_new = stacked.parameters();
  for (std::size_t i = 0; i < p_ref.size(); ++i) {
    const Tensor g0 = Tensor::randn(p_ref[i]->value.rows(), p_ref[i]->value.cols(), rng);
    p_ref[i]->accumulate_grad(g0);
    p_new[i]->accumulate_grad(g0);
  }

  Segments seg;
  for (std::size_t r : c.rows) seg.push(r);
  Tensor x = Tensor::randn(seg.total_rows(), in, rng);
  for (std::size_t r = seg.begin(c.zero_segment); r < seg.end(c.zero_segment); ++r) {
    for (std::size_t col = 0; col < in; ++col) x.at(r, col) = 0.0;
  }
  std::vector<Tensor> weights;
  for (std::size_t i = 0; i < seg.count(); ++i) {
    weights.push_back(Tensor::randn(seg.rows(i), 3, rng));
  }
  const auto segment_loss = [&](const VarPtr& out, std::size_t i) {
    return sum(mul(tanh_act(out), constant(weights[i])));
  };

  for (std::size_t i = 0; i < seg.count(); ++i) {
    Tensor xi(seg.rows(i), in);
    for (std::size_t r = 0; r < seg.rows(i); ++r) {
      for (std::size_t col = 0; col < in; ++col) {
        xi.at(r, col) = x.at(seg.begin(i) + r, col);
      }
    }
    backward(segment_loss(per_segment.forward(constant(xi)), i));
  }

  const VarPtr out = stacked.forward(constant(x), seg);
  VarPtr total;
  for (std::size_t i = 0; i < seg.count(); ++i) {
    const VarPtr loss = segment_loss(slice_rows(out, seg.begin(i), seg.rows(i)), i);
    total = total == nullptr ? loss : add(total, loss);
  }
  backward(total);

  for (std::size_t i = 0; i < p_ref.size(); ++i) {
    EXPECT_TRUE(same_grad_bits(p_ref[i], p_new[i])) << "parameter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Segments, MlpSegmentParityTest,
    ::testing::Values(
        SegmentCase{"ReluRagged", Activation::Relu, {3, 1, 7, 2, 5, 1, 4}, 3},
        SegmentCase{"TanhRagged", Activation::Tanh, {2, 6, 1, 3, 9}, 0},
        SegmentCase{"ReluOneRowSegments", Activation::Relu, {1, 1, 1, 1, 1, 1}, 2},
        SegmentCase{"TanhSingleSegment", Activation::Tanh, {11}, 0}),
    [](const ::testing::TestParamInfo<SegmentCase>& info) { return info.param.name; });

}  // namespace
}  // namespace rlbf::nn
