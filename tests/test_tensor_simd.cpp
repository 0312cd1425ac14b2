// Parity and determinism suite for the SIMD compute backend (tier-1; also
// run under ASan and TSan presets). Pins three properties: (1) the packed
// microkernel GEMM matches a naive double-accumulator reference on awkward
// shapes and every transpose combination, for whichever backends this build
// carries; (2) the fused bias epilogue Linear and Conv2d call equals the
// unfused composition bit-for-bit; (3) matmul and Conv2d forward/backward are
// byte-identical for any thread count (1/2/7), the contract the contiguous
// partitioning of core::ParallelRuntime guarantees.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "core/cpu.hpp"
#include "nn/conv.hpp"
#include "stats/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace dubhe::tensor {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t{std::move(shape)};
  stats::Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

/// Naive triple loop with double accumulation — the correctness oracle.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c{{m, n}};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a.data()[kk * a.dim(1) + i] : a.data()[i * a.dim(1) + kk];
        const float bv = tb ? b.data()[j * b.dim(1) + kk] : b.data()[kk * b.dim(1) + j];
        acc += static_cast<double>(av) * bv;
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_near(const Tensor& got, const Tensor& want, float tol) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.flat()[i], want.flat()[i], tol) << "index " << i;
  }
}

void expect_identical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.flat()[i], want.flat()[i]) << "index " << i;
  }
}

/// C = op(A) @ op(B) + bias through the GEMM's fused bias epilogue — the
/// call nn::Linear and nn::Conv2d make.
Tensor gemm_bias(const Tensor& a, const Tensor& b, const std::vector<float>& bias,
                 bool ta = false, bool tb = false) {
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c{{m, n}};
  gemm(m, n, k, a.data(), a.dim(1), ta, b.data(), b.dim(1), tb, c.data(), bias.data());
  return c;
}

/// x[i, j] += bias[j], applied after the GEMM as a separate pass.
void add_bias(Tensor& x, const std::vector<float>& bias) {
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    for (std::size_t j = 0; j < x.dim(1); ++j) x(i, j) += bias[j];
  }
}

constexpr std::uint32_t kSimdFeatures = core::cpu::kAvx2 | core::cpu::kFma;

/// Narrows core::cpu's enabled set for one scope — the GEMM reads it on
/// every call — and restores the previous set on exit.
class ScopedCpuMask {
 public:
  explicit ScopedCpuMask(std::uint32_t mask) : prev_(core::cpu::set_enabled(mask)) {}
  ~ScopedCpuMask() { core::cpu::set_enabled(prev_); }
  ScopedCpuMask(const ScopedCpuMask&) = delete;
  ScopedCpuMask& operator=(const ScopedCpuMask&) = delete;

 private:
  std::uint32_t prev_;
};

/// Runs fn under every backend this binary may use (scalar always; AVX2
/// when compiled in and allowed by DUBHE_CPU).
void for_each_backend(const std::function<void(const char*)>& fn) {
  {
    const ScopedCpuMask scalar(core::cpu::enabled() & ~kSimdFeatures);
    fn("scalar");
  }
  if (simd_enabled()) fn("avx2");
}

// m, k, n triplets hitting the microkernel edges: sub-tile, exact-tile,
// ragged-tile, single row/column/inner-dim, and k = 0.
const std::tuple<std::size_t, std::size_t, std::size_t> kShapes[] = {
    {1, 1, 1}, {7, 5, 9},  {8, 8, 8},   {16, 24, 32}, {17, 9, 23},
    {1, 64, 1}, {3, 1, 11}, {64, 1, 64}, {5, 0, 7},    {9, 33, 8},
};

TEST(SimdGemm, MatchesNaiveReferenceAllBackends) {
  for_each_backend([&](const char* backend) {
    for (const auto& [m, k, n] : kShapes) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          SCOPED_TRACE(std::string(backend) + " m=" + std::to_string(m) +
                       " k=" + std::to_string(k) + " n=" + std::to_string(n) +
                       " ta=" + std::to_string(ta) + " tb=" + std::to_string(tb));
          const Tensor a = ta ? random_tensor({k, m}, 1) : random_tensor({m, k}, 1);
          const Tensor b = tb ? random_tensor({n, k}, 2) : random_tensor({k, n}, 2);
          const Tensor got = matmul(a, b, ta, tb);
          const Tensor want = naive_matmul(a, b, ta, tb);
          const float tol = 1e-4f * static_cast<float>(std::max<std::size_t>(k, 1));
          expect_near(got, want, tol);
        }
      }
    }
  });
}

TEST(SimdGemm, ZeroSizedDimensions) {
  // m = 0 and n = 0 are legal tensors here (only the empty *shape vector*
  // is rejected); the product must simply be empty.
  const Tensor a{{0, 3}}, b{{3, 4}};
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.dim(0), 0u);
  EXPECT_EQ(c.dim(1), 4u);
  const Tensor d = matmul(random_tensor({2, 3}, 3), Tensor{{3, 0}});
  EXPECT_EQ(d.dim(1), 0u);
  EXPECT_EQ(d.size(), 0u);
  // k = 0: a well-defined all-zeros product.
  const Tensor e = matmul(Tensor{{2, 0}}, Tensor{{0, 5}});
  for (const float v : e.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(SimdGemm, ScalarAndSimdBackendsAgree) {
  if (!simd_enabled()) GTEST_SKIP() << "scalar-only build";
  const Tensor a = random_tensor({33, 47}, 4), b = random_tensor({47, 29}, 5);
  Tensor scalar;
  {
    const ScopedCpuMask mask(core::cpu::enabled() & ~kSimdFeatures);
    scalar = matmul(a, b);
  }
  const Tensor simd = matmul(a, b);
  // FMA contraction changes rounding, not values: tolerance scaled by k.
  expect_near(simd, scalar, 1e-4f * 47);
}

TEST(SimdGemm, FusedBiasEqualsUnfused) {
  for_each_backend([&](const char* backend) {
    SCOPED_TRACE(backend);
    const Tensor a = random_tensor({13, 21}, 6), b = random_tensor({21, 18}, 7);
    std::vector<float> bias(18);
    stats::Rng rng(8);
    for (float& v : bias) v = static_cast<float>(rng.normal());

    Tensor unfused = matmul(a, b);
    add_bias(unfused, bias);
    const Tensor fused = gemm_bias(a, b, bias);
    // The epilogue adds the identical bias to the identical accumulator, so
    // the fused path is bit-identical, not merely close.
    expect_identical(fused, unfused);
  });
}

TEST(SimdGemm, TransposeFlagsWithFusedEpilogue) {
  for_each_backend([&](const char* backend) {
    SCOPED_TRACE(backend);
    const std::size_t m = 10, k = 12, n = 7;
    const Tensor at = random_tensor({k, m}, 11);
    const Tensor bt = random_tensor({n, k}, 12);
    std::vector<float> bias(n, -0.05f);
    Tensor reference = naive_matmul(at, bt, true, true);
    add_bias(reference, bias);
    const Tensor got = gemm_bias(at, bt, bias, true, true);
    expect_near(got, reference, 1e-4f * k);
  });
}

TEST(SimdGemm, ThreadCountInvariance) {
  // The kParallelFlopCutoff keeps small GEMMs serial, so use one big
  // enough to actually shard. Contiguous row-panel partitioning must make
  // the result byte-identical for 1, 2, and 7 shards.
  const Tensor a = random_tensor({67, 129}, 13), b = random_tensor({129, 45}, 14);
  ASSERT_GE(static_cast<std::size_t>(67 * 129 * 45), kParallelFlopCutoff);
  const std::size_t prev = set_compute_threads(1);
  const Tensor t1 = matmul(a, b);
  set_compute_threads(2);
  const Tensor t2 = matmul(a, b);
  set_compute_threads(7);
  const Tensor t7 = matmul(a, b);
  set_compute_threads(prev);
  expect_identical(t2, t1);
  expect_identical(t7, t1);
}

TEST(SimdGemm, ConvThreadCountInvariance) {
  // Conv2d end to end (im2col + GEMM + col2im all shard): forward output,
  // input gradient, and parameter gradients must not depend on threads.
  const Tensor x = random_tensor({8, 3, 12, 12}, 15);
  const Tensor gout = random_tensor({8, 6, 12, 12}, 16);

  struct Run {
    Tensor y, dx;
    std::vector<float> grads;
  };
  const auto run = [&](std::size_t threads) {
    nn::Conv2d conv(3, 6, 3, 1, /*init_seed=*/17);
    set_compute_threads(threads);
    Run r;
    r.y = conv.forward(x);
    r.dx = conv.backward(gout);
    r.grads.assign(conv.grads().begin(), conv.grads().end());
    return r;
  };
  const std::size_t prev = set_compute_threads(0);
  const Run r1 = run(1), r2 = run(2), r7 = run(7);
  set_compute_threads(prev);

  expect_identical(r2.y, r1.y);
  expect_identical(r7.y, r1.y);
  expect_identical(r2.dx, r1.dx);
  expect_identical(r7.dx, r1.dx);
  EXPECT_EQ(r2.grads, r1.grads);
  EXPECT_EQ(r7.grads, r1.grads);
}

TEST(SimdGemm, BackendIntrospection) {
  const bool native = simd_enabled();
  {
    const ScopedCpuMask mask(core::cpu::enabled() & ~core::cpu::kFma);
    EXPECT_FALSE(simd_enabled());
    EXPECT_STREQ(simd_backend_name(), "scalar");
  }
  {
    const ScopedCpuMask mask(0);
    EXPECT_FALSE(simd_enabled());
  }
  EXPECT_EQ(simd_enabled(), native);
  EXPECT_STREQ(simd_backend_name(), native ? "avx2" : "scalar");
}

TEST(SimdGemm, CpuMaskReachesAWarmGemm) {
  // core::cpu is the only tier switch: a mask applied after the GEMM has
  // run must reach the very next call, not a choice cached by the first.
  if (!simd_enabled()) GTEST_SKIP() << "AVX2 GEMM not compiled in or not allowed";
  const Tensor a = random_tensor({9, 11}, 10), b = random_tensor({11, 13}, 11);
  (void)matmul(a, b);
  {
    const ScopedCpuMask mask(core::cpu::enabled() & ~core::cpu::kAvx2);
    EXPECT_STREQ(simd_backend_name(), "scalar");
    expect_near(matmul(a, b), naive_matmul(a, b, false, false), 1e-4f * 11);
  }
  EXPECT_STREQ(simd_backend_name(), "avx2");
}

TEST(SimdGemm, ReluMaskReuseKeepsSemantics) {
  // relu_inplace reuses the caller's mask: one that arrives with a stale
  // larger shape must come out resized and fully overwritten.
  Tensor mask{{4, 4}};
  mask.fill(9.0f);
  Tensor x{{1, 3}};
  x(0, 0) = -1.0f;
  x(0, 1) = 0.0f;
  x(0, 2) = 2.0f;
  relu_inplace(x, mask);
  ASSERT_EQ(mask.shape(), x.shape());
  EXPECT_EQ(mask.flat()[0], 0.0f);
  EXPECT_EQ(mask.flat()[1], 0.0f);
  EXPECT_EQ(mask.flat()[2], 1.0f);
  EXPECT_EQ(x(0, 2), 2.0f);
}

}  // namespace
}  // namespace dubhe::tensor
