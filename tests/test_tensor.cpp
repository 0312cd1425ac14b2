#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include "stats/rng.hpp"
#include "tensor/ops.hpp"

namespace dubhe::tensor {
namespace {

TEST(Tensor, ConstructionAndShape) {
  const Tensor t{{2, 3}};
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_EQ(t.size(), 6u);
  for (const float v : t.flat()) EXPECT_EQ(v, 0.0f);
  EXPECT_THROW(Tensor{std::vector<std::size_t>{}}, std::invalid_argument);
}

TEST(Tensor, ElementAccessAndAt) {
  Tensor t{{2, 2}};
  t(0, 1) = 5.0f;
  t(1, 0) = -2.0f;
  EXPECT_EQ(t.at(0, 1), 5.0f);
  EXPECT_EQ(t.at(1, 0), -2.0f);
  EXPECT_THROW((void)t.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)t.at(0, 2), std::out_of_range);
}

TEST(Tensor, ReshapeValidation) {
  Tensor t{{2, 6}};
  const Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_EQ(r.size(), 12u);
  EXPECT_THROW(t.reshaped({5, 2}), std::invalid_argument);
}

TEST(Tensor, Fill) {
  Tensor t{{2, 2}};
  t.fill(3.5f);
  for (const float v : t.flat()) EXPECT_EQ(v, 3.5f);
}

/// Naive triple-loop reference for differential matmul testing.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c{{m, n}};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a(kk, i) : a(i, kk);
        const float bv = tb ? b(j, kk) : b(kk, j);
        acc += static_cast<double>(av) * bv;
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor random_tensor(std::size_t r, std::size_t c, std::uint64_t seed) {
  Tensor t{{r, c}};
  stats::Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

class MatmulTranspose : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MatmulTranspose, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  const std::size_t m = 7, k = 5, n = 9;
  const Tensor a = ta ? random_tensor(k, m, 1) : random_tensor(m, k, 1);
  const Tensor b = tb ? random_tensor(n, k, 2) : random_tensor(k, n, 2);
  const Tensor got = matmul(a, b, ta, tb);
  const Tensor want = naive_matmul(a, b, ta, tb);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.flat()[i], want.flat()[i], 1e-4f) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFlags, MatmulTranspose,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(Matmul, IdentityIsNeutral) {
  const Tensor a = random_tensor(4, 4, 3);
  Tensor eye{{4, 4}};
  for (std::size_t i = 0; i < 4; ++i) eye(i, i) = 1.0f;
  const Tensor out = matmul(a, eye);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out.flat()[i], a.flat()[i]);
}

TEST(Matmul, ShapeMismatchThrows) {
  const Tensor a{{2, 3}}, b{{4, 5}};
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  const Tensor c{{2, 3, 1}};
  EXPECT_THROW(matmul(c.reshaped({2, 3, 1}), a), std::invalid_argument);
}

TEST(Ops, SumRows) {
  Tensor x{{2, 2}};
  x(0, 0) = 1;
  x(0, 1) = 2;
  x(1, 0) = 3;
  x(1, 1) = 4;
  std::vector<float> out(2);
  sum_rows(x, out);
  EXPECT_EQ(out[0], 4.0f);
  EXPECT_EQ(out[1], 6.0f);
}

TEST(Ops, ReluForwardBackward) {
  Tensor x{{1, 4}};
  x(0, 0) = -1;
  x(0, 1) = 0;
  x(0, 2) = 2;
  x(0, 3) = -3;
  Tensor mask;
  relu_inplace(x, mask);
  EXPECT_EQ(x(0, 0), 0.0f);
  EXPECT_EQ(x(0, 2), 2.0f);
  Tensor g{{1, 4}};
  g.fill(1.0f);
  relu_backward_inplace(g, mask);
  EXPECT_EQ(g.flat()[0], 0.0f);
  EXPECT_EQ(g.flat()[1], 0.0f);  // relu'(0) = 0 convention
  EXPECT_EQ(g.flat()[2], 1.0f);
  EXPECT_EQ(g.flat()[3], 0.0f);
}

TEST(Tensor, ResizeReusesAllocation) {
  Tensor t{{4, 8}};
  t.fill(7.0f);
  const float* before = t.data();
  t.resize({2, 3});  // shrinking never reallocates
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.data(), before);
  t.resize({4, 2, 1});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_THROW(t.resize(std::initializer_list<std::size_t>{}), std::invalid_argument);
}

}  // namespace
}  // namespace dubhe::tensor
