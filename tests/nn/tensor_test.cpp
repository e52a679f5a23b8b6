#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace rlbf::nn {
namespace {

TEST(Tensor, ConstructionAndFill) {
  Tensor t(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(t[i], 1.5);
}

TEST(Tensor, InitializerList) {
  Tensor t{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(t.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3.0);
}

TEST(Tensor, RaggedInitializerThrows) {
  EXPECT_THROW((Tensor{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_DOUBLE_EQ(Tensor::full(1, 1, 7.0).item(), 7.0);
  EXPECT_THROW(Tensor(2, 1).item(), std::logic_error);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a{{1.0, 2.0}, {3.0, 4.0}};
  Tensor b{{5.0, 6.0}, {7.0, 8.0}};
  const Tensor c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  Tensor a(2, 3);
  Tensor b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(Tensor, MatmulTransposedVariantsAgree) {
  util::Rng rng(1);
  const Tensor a = Tensor::randn(4, 3, rng);
  const Tensor b = Tensor::randn(3, 5, rng);
  const Tensor expected = a.matmul(b);

  Tensor via_ta;
  Tensor::matmul_into(a.transpose(), b, via_ta, /*trans_a=*/true, false);
  EXPECT_LT(Tensor::max_abs_diff(expected, via_ta), 1e-12);

  Tensor via_tb;
  Tensor::matmul_into(a, b.transpose(), via_tb, false, /*trans_b=*/true);
  EXPECT_LT(Tensor::max_abs_diff(expected, via_tb), 1e-12);
}

TEST(Tensor, MatmulAccumulate) {
  Tensor a{{1.0}};
  Tensor b{{2.0}};
  Tensor out = Tensor::full(1, 1, 10.0);
  Tensor::matmul_into(a, b, out, false, false, /*accumulate=*/true);
  EXPECT_DOUBLE_EQ(out.item(), 12.0);
}

// ---- independent oracle for the matmul kernels ----

/// Entries drawn from N(0, 1), with exact zeros and negative zeros mixed
/// in: the kernels skip zero A entries, and a skipped term must leave the
/// same bits as the naive sum.
Tensor oracle_input(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double u = rng.uniform(0.0, 1.0);
    t[i] = u < 0.2 ? 0.0 : u < 0.3 ? -0.0 : rng.normal(0.0, 1.0);
  }
  return t;
}

/// out (+)= op(A) op(B) by the definition: each output summed over k in
/// increasing order from its start value, skipping zero A entries.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                    const Tensor* start) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  Tensor out = start != nullptr ? *start : Tensor(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = out.at(i, j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double aik = trans_a ? a.at(kk, i) : a.at(i, kk);
        if (aik == 0.0) continue;
        acc += aik * (trans_b ? b.at(j, kk) : b.at(kk, j));
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data().data(), y.data().data(), x.size() * sizeof(double)) == 0;
}

TEST(Tensor, MatmulKernelsMatchNaiveOracleBitwise) {
  util::Rng rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    const auto dim = [&] { return static_cast<std::size_t>(rng.uniform_int(1, 9)); };
    const std::size_t m = dim(), k = dim(), n = dim();
    const bool trans_a = trial % 2 == 1;
    const bool trans_b = trial % 4 >= 2;
    const bool accumulate = trial % 8 >= 4;
    const Tensor a = trans_a ? oracle_input(k, m, rng) : oracle_input(m, k, rng);
    const Tensor b = trans_b ? oracle_input(n, k, rng) : oracle_input(k, n, rng);
    const Tensor start = oracle_input(m, n, rng);

    Tensor out = accumulate ? start : Tensor(3, 2, 7.0);  // stale shape is replaced
    Tensor::matmul_into(a, b, out, trans_a, trans_b, accumulate);
    const Tensor want =
        naive_matmul(a, b, trans_a, trans_b, accumulate ? &start : nullptr);
    ASSERT_TRUE(same_bits(out, want))
        << m << "x" << k << "x" << n << " trans_a=" << trans_a << " trans_b=" << trans_b
        << " accumulate=" << accumulate;
  }
}

TEST(Tensor, MatmulTnRowsMatchesOracleOverTheRange) {
  util::Rng rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const Tensor a = oracle_input(rows, m, rng);
    const Tensor b = oracle_input(rows, n, rng);
    const auto begin = static_cast<std::size_t>(rng.uniform_int(0, rows - 1));
    const auto end = static_cast<std::size_t>(rng.uniform_int(begin + 1, rows));

    Tensor a_part(end - begin, m), b_part(end - begin, n);
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < m; ++c) a_part.at(r - begin, c) = a.at(r, c);
      for (std::size_t c = 0; c < n; ++c) b_part.at(r - begin, c) = b.at(r, c);
    }
    Tensor out = Tensor::full(m, n, 5.0);  // overwritten, not accumulated
    Tensor::matmul_tn_rows(a, b, begin, end, out);
    ASSERT_TRUE(same_bits(out, naive_matmul(a_part, b_part, true, false, nullptr)));
  }
  Tensor out;
  EXPECT_THROW(Tensor::matmul_tn_rows(Tensor(3, 2), Tensor(4, 2), 0, 3, out),
               std::invalid_argument);
  EXPECT_THROW(Tensor::matmul_tn_rows(Tensor(3, 2), Tensor(3, 2), 2, 4, out),
               std::invalid_argument);
}

TEST(Tensor, Transpose) {
  Tensor t{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Tensor tt = t.transpose();
  EXPECT_EQ(tt.rows(), 3u);
  EXPECT_EQ(tt.cols(), 2u);
  EXPECT_DOUBLE_EQ(tt.at(2, 1), 6.0);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a{{1.0, 2.0}};
  Tensor b{{3.0, 4.0}};
  Tensor c = a;
  c.add_(b);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 6.0);
  c.sub_(b);
  EXPECT_LT(Tensor::max_abs_diff(c, a), 1e-15);
  c.hadamard_(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 3.0);
  c.mul_(2.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 16.0);
}

TEST(Tensor, ElementwiseShapeMismatchThrows) {
  Tensor a(1, 2);
  Tensor b(2, 1);
  EXPECT_THROW(a.add_(b), std::invalid_argument);
  EXPECT_THROW(a.hadamard_(b), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t{{1.0, -2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(t.sum(), 6.0);
  EXPECT_DOUBLE_EQ(t.mean(), 1.5);
  EXPECT_DOUBLE_EQ(t.min(), -2.0);
  EXPECT_DOUBLE_EQ(t.max(), 4.0);
  EXPECT_DOUBLE_EQ(t.norm(), std::sqrt(1.0 + 4.0 + 9.0 + 16.0));
}

TEST(Tensor, RowExtraction) {
  Tensor t{{1.0, 2.0}, {3.0, 4.0}};
  const Tensor r = t.row(1);
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 3.0);
  EXPECT_THROW(t.row(2), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t{{1.0, 2.0, 3.0, 4.0}};
  const Tensor r = t.reshaped(2, 2);
  EXPECT_DOUBLE_EQ(r.at(1, 0), 3.0);
  EXPECT_THROW(t.reshaped(3, 2), std::invalid_argument);
}

TEST(Tensor, XavierBounds) {
  util::Rng rng(3);
  const Tensor w = Tensor::xavier(100, 50, rng);
  const double bound = std::sqrt(6.0 / 150.0);
  EXPECT_LE(w.max(), bound);
  EXPECT_GE(w.min(), -bound);
  EXPECT_NEAR(w.mean(), 0.0, 0.01);
}

TEST(Tensor, RandnMoments) {
  util::Rng rng(4);
  const Tensor t = Tensor::randn(200, 200, rng, 2.0);
  EXPECT_NEAR(t.mean(), 0.0, 0.05);
  double ss = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) ss += t[i] * t[i];
  EXPECT_NEAR(ss / static_cast<double>(t.size()), 4.0, 0.15);
}

TEST(Tensor, EqualityAndDiff) {
  Tensor a{{1.0, 2.0}};
  Tensor b{{1.0, 2.5}};
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 0.5);
}

}  // namespace
}  // namespace rlbf::nn
