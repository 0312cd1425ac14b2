// Differential tests of the from-scratch bigint library against GMP.
// GMP serves purely as an oracle here; no dubhe library links it. Every
// case runs once per Montgomery row tier (the ADX leg skips on a host
// without BMI2 + ADX): pow_mod builds its context inside the tier scope.

#include <gmp.h>
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>

#include "bigint/biguint.hpp"
#include "bigint/random.hpp"
#include "pow_reference.hpp"

namespace dubhe::bigint {
namespace {

/// RAII wrapper for one mpz_t.
class Mpz {
 public:
  Mpz() { mpz_init(z_); }
  explicit Mpz(const BigUint& v) {
    mpz_init(z_);
    const std::string hex = v.to_hex();
    mpz_set_str(z_, hex.c_str(), 16);
  }
  ~Mpz() { mpz_clear(z_); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;

  [[nodiscard]] std::string hex() const {
    char* s = mpz_get_str(nullptr, 16, z_);
    std::string out(s);
    void (*freefunc)(void*, std::size_t);
    mp_get_memory_functions(nullptr, nullptr, &freefunc);
    freefunc(s, out.size() + 1);
    return out;
  }
  mpz_t& raw() { return z_; }

 private:
  mpz_t z_;
};

class BigUintGmpDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, RowTier>> {
 protected:
  void SetUp() override {
    scope_.emplace(std::get<1>(GetParam()));
    if (!scope_->available()) GTEST_SKIP() << "row tier not available on this host/build";
  }
  void TearDown() override { scope_.reset(); }
  /// Operand width of this instance.
  static std::size_t width() { return std::get<0>(GetParam()); }

 private:
  std::optional<ScopedRowTier> scope_;
};

TEST_P(BigUintGmpDifferential, AddSubMulDivAgreeWithGmp) {
  const std::size_t bits = width();
  Xoshiro256ss rng(bits * 7919 + 3);
  for (int iter = 0; iter < 25; ++iter) {
    const BigUint a = random_bits(rng, bits);
    const BigUint b = random_bits(rng, bits / 2 + 1) + BigUint{1};
    Mpz ga(a), gb(b), gr;

    mpz_add(gr.raw(), ga.raw(), gb.raw());
    EXPECT_EQ((a + b).to_hex(), gr.hex());

    if (a >= b) {
      mpz_sub(gr.raw(), ga.raw(), gb.raw());
      EXPECT_EQ((a - b).to_hex(), gr.hex());
    }

    mpz_mul(gr.raw(), ga.raw(), gb.raw());
    EXPECT_EQ((a * b).to_hex(), gr.hex());

    Mpz gq;
    mpz_tdiv_qr(gq.raw(), gr.raw(), ga.raw(), gb.raw());
    BigUint q, r;
    BigUint::divmod(a, b, q, r);
    EXPECT_EQ(q.to_hex(), gq.hex());
    EXPECT_EQ(r.to_hex(), gr.hex());
  }
}

TEST_P(BigUintGmpDifferential, PowModAgreesWithGmp) {
  const std::size_t bits = width();
  Xoshiro256ss rng(bits * 31 + 1);
  for (int iter = 0; iter < 5; ++iter) {
    const BigUint base = random_bits(rng, bits);
    const BigUint exp = random_bits(rng, 64);
    BigUint mod = random_bits(rng, bits) + BigUint{3};
    if (!mod.is_odd()) mod += BigUint{1};  // exercise the Montgomery path
    Mpz gb(base), ge(exp), gm(mod), gr;
    mpz_powm(gr.raw(), gb.raw(), ge.raw(), gm.raw());
    EXPECT_EQ(base.pow_mod(exp, mod).to_hex(), gr.hex());
  }
}

TEST_P(BigUintGmpDifferential, PowModWideExponentsAgreeWithGmp) {
  // Exponents at the full and half modulus width (the half-width one is
  // the Paillier CRT shape), 2^k and 2^k - 1 (one lone bit, all-ones
  // windows), and a 300-bit run of zeros between two dense blocks.
  const std::size_t bits = width();
  Xoshiro256ss rng(bits * 37 + 5);
  BigUint mod = random_exact_bits(rng, bits);
  if (!mod.is_odd()) mod += BigUint{1};
  const BigUint zero_run =
      (random_exact_bits(rng, 64) << (64 + 300)) + random_exact_bits(rng, 64);
  const std::size_t half = bits / 2 > 0 ? bits / 2 : 1;
  for (const BigUint& exp :
       {random_exact_bits(rng, bits), random_exact_bits(rng, half), BigUint::pow2(bits),
        BigUint::pow2(bits) - BigUint{1}, zero_run}) {
    const BigUint base = random_bits(rng, bits);
    Mpz gb(base), ge(exp), gm(mod), gr;
    mpz_powm(gr.raw(), gb.raw(), ge.raw(), gm.raw());
    EXPECT_EQ(base.pow_mod(exp, mod).to_hex(), gr.hex()) << exp.bit_length();
  }
}

TEST_P(BigUintGmpDifferential, GcdAndInverseAgreeWithGmp) {
  const std::size_t bits = width();
  Xoshiro256ss rng(bits * 101 + 9);
  for (int iter = 0; iter < 10; ++iter) {
    const BigUint a = random_bits(rng, bits) + BigUint{1};
    const BigUint b = random_bits(rng, bits) + BigUint{1};
    Mpz ga(a), gb(b), gr;
    mpz_gcd(gr.raw(), ga.raw(), gb.raw());
    EXPECT_EQ(BigUint::gcd(a, b).to_hex(), gr.hex());

    if (mpz_invert(gr.raw(), ga.raw(), gb.raw()) != 0) {
      EXPECT_EQ(BigUint::mod_inverse(a, b).to_hex(), gr.hex());
    } else {
      EXPECT_THROW(BigUint::mod_inverse(a, b), std::domain_error);
    }
  }
}

TEST_P(BigUintGmpDifferential, DecimalConversionAgreesWithGmp) {
  const std::size_t bits = width();
  Xoshiro256ss rng(bits + 77);
  for (int iter = 0; iter < 10; ++iter) {
    const BigUint a = random_bits(rng, bits);
    Mpz ga(a);
    char* s = mpz_get_str(nullptr, 10, ga.raw());
    EXPECT_EQ(a.to_dec(), std::string(s));
    void (*freefunc)(void*, std::size_t);
    mp_get_memory_functions(nullptr, nullptr, &freefunc);
    freefunc(s, std::string(s).size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, BigUintGmpDifferential,
    ::testing::Combine(::testing::Values<std::size_t>(8, 64, 128, 512, 1024, 2048, 4096),
                       ::testing::Values(RowTier::kPortable, RowTier::kAdx)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dubhe::bigint
