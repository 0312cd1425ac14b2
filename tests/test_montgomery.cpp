// Montgomery row primitive, context, squaring kernel and sliding-window
// pow, each checked against plain long-division arithmetic. The kernel
// checks run once per row tier (the ADX leg skips on a host without
// BMI2 + ADX); the row primitive's tiers are also compared directly.
//
// This file is also compiled a second time with DUBHE_NO_INT128 (target
// test_montgomery_portable) so the kernels' synthesized 64x64->128 path
// gets the same coverage as the native __int128 path.

#include "bigint/montgomery.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bigint/random.hpp"
#include "pow_reference.hpp"

namespace dubhe::bigint {
namespace {

/// Odd `limbs`-limb modulus whose top limb is all ones: the squaring
/// reduction's carry into its top scratch limb is largest there.
BigUint all_ones_top_modulus(EntropySource& rng, std::size_t limbs) {
  BigUint m = (BigUint::pow2(kLimbBits) - BigUint{1}) << (kLimbBits * (limbs - 1));
  if (limbs > 1) m += random_bits(rng, kLimbBits * (limbs - 1));
  if (!m.is_odd()) m += BigUint{1};
  return m;
}

/// Runs each kernel check with contexts built under one row tier.
class MontgomeryTier : public ::testing::TestWithParam<RowTier> {
 protected:
  void SetUp() override {
    scope_.emplace(GetParam());
    if (!scope_->available()) GTEST_SKIP() << "row tier not available on this host/build";
  }
  void TearDown() override { scope_.reset(); }

 private:
  std::optional<ScopedRowTier> scope_;
};

INSTANTIATE_TEST_SUITE_P(Tiers, MontgomeryTier,
                         ::testing::Values(RowTier::kPortable, RowTier::kAdx),
                         [](const auto& info) { return to_string(info.param); });

/// addmul_1 through `tier` on copies of `t0`; checks the limb past the row
/// is untouched and returns {row limbs..., carry}.
std::vector<Limb> run_row(RowTier tier, const std::vector<Limb>& t0, const std::vector<Limb>& a,
                          Limb b) {
  constexpr Limb kGuard = 0x5a5a5a5a5a5a5a5aULL;
  std::vector<Limb> t = t0;
  t.push_back(kGuard);
  const Limb carry = addmul_1(t.data(), a.data(), a.size(), b, tier);
  EXPECT_EQ(t.back(), kGuard) << to_string(tier) << " wrote past the row";
  t.back() = carry;
  return t;
}

TEST(MontgomeryRow, AllOnesRowIsExact) {
  // (2^64n - 1) + (2^64n - 1)(2^64 - 1) = 2^64(n+1) - 2^64: limb 0 is zero,
  // every other limb and the carry are all ones — the largest carry on
  // both chains.
  for (const RowTier tier : {RowTier::kPortable, RowTier::kAdx}) {
    const ScopedRowTier scope(tier);
    if (!scope.available()) continue;
    for (std::size_t n = 1; n <= 33; ++n) {
      const std::vector<Limb> ones(n, kLimbMax);
      std::vector<Limb> want(n + 1, kLimbMax);
      want[0] = 0;
      EXPECT_EQ(run_row(tier, ones, ones, kLimbMax), want) << to_string(tier) << " n=" << n;
    }
  }
}

TEST(MontgomeryRow, AdxMatchesPortable) {
  {
    const ScopedRowTier scope(RowTier::kAdx);
    if (!scope.available()) GTEST_SKIP() << "BMI2 + ADX not available on this host/build";
  }
  Xoshiro256ss rng(13);
  const auto random_limbs = [&](std::size_t n) {
    std::vector<Limb> v(n);
    for (Limb& x : v) x = rng.next_u64();
    return v;
  };
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u,
                              33u, 64u}) {
    const std::vector<Limb> ones(n, kLimbMax);
    EXPECT_EQ(run_row(RowTier::kAdx, ones, ones, kLimbMax),
              run_row(RowTier::kPortable, ones, ones, kLimbMax))
        << "all ones, n=" << n;
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<Limb> t = random_limbs(n), a = random_limbs(n);
      // Mix in the extremes of b: 0, 1 and all ones alongside random limbs.
      const Limb b = trial == 0 ? 0 : trial == 1 ? 1 : trial == 2 ? kLimbMax : rng.next_u64();
      EXPECT_EQ(run_row(RowTier::kAdx, t, a, b), run_row(RowTier::kPortable, t, a, b))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST_P(MontgomeryTier, ContextRecordsItsTier) {
  const Montgomery ctx(BigUint::from_dec("1000000007"));
  EXPECT_EQ(ctx.row_tier(), GetParam());
}

TEST(Montgomery, RejectsEvenOrZeroModulus) {
  EXPECT_THROW(Montgomery{BigUint{100}}, std::invalid_argument);
  EXPECT_THROW(Montgomery{BigUint{}}, std::invalid_argument);
}

TEST(Montgomery, ToFromMontRoundTrip) {
  const BigUint m = BigUint::from_dec("1000000007");
  const Montgomery ctx(m);
  Xoshiro256ss rng(5);
  for (int i = 0; i < 50; ++i) {
    const BigUint x = random_below(rng, m);
    EXPECT_EQ(ctx.from_mont(ctx.to_mont(x)), x);
  }
}

TEST_P(MontgomeryTier, MulMatchesPlainModularMultiply) {
  Xoshiro256ss rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    BigUint m = random_bits(rng, 192) + BigUint{3};
    if (!m.is_odd()) m += BigUint{1};
    const Montgomery ctx(m);
    for (int i = 0; i < 10; ++i) {
      const BigUint a = random_below(rng, m);
      const BigUint b = random_below(rng, m);
      const BigUint got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
      EXPECT_EQ(got, a.mul_mod(b, m));
    }
  }
}

TEST_P(MontgomeryTier, PowMatchesSquareAndMultiply) {
  Xoshiro256ss rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    BigUint m = random_bits(rng, 160) + BigUint{3};
    if (!m.is_odd()) m += BigUint{1};
    const Montgomery ctx(m);
    const BigUint base = random_below(rng, m);
    const BigUint exp = random_bits(rng, 96);
    EXPECT_EQ(ctx.pow(base, exp), windowless_pow(base, exp, m));
  }
}

TEST_P(MontgomeryTier, SqrMatchesMul) {
  Xoshiro256ss rng(8);
  for (const std::size_t limbs : {1u, 2u, 3u, 16u, 17u, 32u, 64u}) {
    for (const BigUint& m : {all_ones_top_modulus(rng, limbs),
                             BigUint::pow2(kLimbBits * limbs) - BigUint{1},
                             random_exact_bits(rng, kLimbBits * limbs - 7)}) {
      if (!m.is_odd()) continue;  // the partially filled top limb, when odd
      const Montgomery ctx(m);
      std::vector<BigUint> operands{BigUint{}, BigUint{1}, m - BigUint{1}};
      for (int i = 0; i < 4; ++i) operands.push_back(random_below(rng, m));
      for (const BigUint& a : operands) {
        EXPECT_EQ(ctx.sqr(a), ctx.mul(a, a)) << limbs << " limbs";
        EXPECT_EQ(ctx.from_mont(ctx.sqr(ctx.to_mont(a))), a.mul_mod(a, m))
            << limbs << " limbs";
      }
    }
  }
}

TEST_P(MontgomeryTier, AllOnesTopLimbPowMatchesWindowless) {
  // Bases 0, 1, N-1 and R mod N (the Montgomery one) at a 1024-bit
  // exponent, the width of every Paillier and Miller-Rabin exponent.
  Xoshiro256ss rng(9);
  for (const std::size_t limbs : {1u, 2u, 3u, 16u, 17u, 32u, 64u}) {
    const BigUint m = all_ones_top_modulus(rng, limbs);
    const Montgomery ctx(m);
    const BigUint r_mod_n = BigUint::pow2(kLimbBits * limbs) % m;
    const BigUint e = random_exact_bits(rng, 1024);
    for (const BigUint& base : {BigUint{}, BigUint{1}, m - BigUint{1}, r_mod_n}) {
      EXPECT_EQ(ctx.pow(base, e), windowless_pow(base, e, m)) << limbs << " limbs";
    }
  }
}

TEST_P(MontgomeryTier, PowSparseAndDenseExponents) {
  // Exponents whose windows are all ones, a lone top bit, or a long zero
  // run between two set bits — each stresses a different window boundary.
  Xoshiro256ss rng(10);
  BigUint m = random_exact_bits(rng, 1024);
  if (!m.is_odd()) m += BigUint{1};
  const Montgomery ctx(m);
  const BigUint base = random_below(rng, m);
  for (const BigUint& e : {BigUint::pow2(700) - BigUint{1}, BigUint::pow2(700),
                           BigUint::pow2(600) + BigUint{5},
                           (BigUint::pow2(130) + BigUint{1}) << 5}) {
    EXPECT_EQ(ctx.pow(base, e), windowless_pow(base, e, m)) << e.bit_length();
  }
}

TEST(Montgomery, PowEdgeExponents) {
  const BigUint m{101};
  const Montgomery ctx(m);
  EXPECT_TRUE(ctx.pow(BigUint{7}, BigUint{}).is_one());       // e = 0
  EXPECT_EQ(ctx.pow(BigUint{7}, BigUint{1}).to_u64(), 7u);    // e = 1
  EXPECT_EQ(ctx.pow(BigUint{}, BigUint{5}).to_u64(), 0u);     // base 0
  EXPECT_EQ(ctx.pow(BigUint{102}, BigUint{1}).to_u64(), 1u);  // base reduced mod m
}

TEST(Montgomery, SingleLimbModulus) {
  const Montgomery ctx(BigUint{97});
  for (std::uint64_t a = 0; a < 97; a += 13) {
    for (std::uint64_t b = 0; b < 97; b += 17) {
      const BigUint got = ctx.from_mont(ctx.mul(ctx.to_mont(BigUint{a}), ctx.to_mont(BigUint{b})));
      EXPECT_EQ(got.to_u64(), a * b % 97);
    }
  }
}

TEST_P(MontgomeryTier, LargeModulusPow) {
  // 2048-bit odd modulus: exercise multi-limb CIOS end to end via Fermat on
  // a known prime is too slow to find here, so check x^2 consistency.
  Xoshiro256ss rng(11);
  BigUint m = random_bits(rng, 2048) + BigUint{3};
  if (!m.is_odd()) m += BigUint{1};
  const Montgomery ctx(m);
  const BigUint x = random_below(rng, m);
  EXPECT_EQ(ctx.pow(x, BigUint{2}), x.mul_mod(x, m));
  EXPECT_EQ(ctx.pow(x, BigUint{3}), x.mul_mod(x, m).mul_mod(x, m));
}

}  // namespace
}  // namespace dubhe::bigint
