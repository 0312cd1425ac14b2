#include "bigint/biguint.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bigint/random.hpp"

namespace dubhe::bigint {
namespace {

TEST(BigUint, DefaultIsZero) {
  const BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_FALSE(z.is_one());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_u64(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
}

TEST(BigUint, FromU64RoundTrip) {
  for (const std::uint64_t v : {0ULL, 1ULL, 2ULL, 0xFFFFFFFFULL, 0x100000000ULL,
                                0xDEADBEEFCAFEBABEULL, 0xFFFFFFFFFFFFFFFFULL}) {
    const BigUint b{v};
    EXPECT_EQ(b.to_u64(), v) << v;
    EXPECT_TRUE(b.fits_u64());
  }
}

TEST(BigUint, HexRoundTrip) {
  const char* cases[] = {"1", "f", "10", "deadbeef", "123456789abcdef0123456789abcdef",
                         "ffffffffffffffffffffffffffffffffffffffff"};
  for (const char* s : cases) {
    EXPECT_EQ(BigUint::from_hex(s).to_hex(), s);
  }
}

TEST(BigUint, HexParsesUppercase) {
  EXPECT_EQ(BigUint::from_hex("DeadBEEF").to_u64(), 0xdeadbeefULL);
}

TEST(BigUint, HexRejectsGarbage) {
  EXPECT_THROW(BigUint::from_hex(""), std::invalid_argument);
  EXPECT_THROW(BigUint::from_hex("12g4"), std::invalid_argument);
  EXPECT_THROW(BigUint::from_hex("0x12"), std::invalid_argument);
}

TEST(BigUint, DecRoundTrip) {
  const char* cases[] = {"1", "9", "10", "4294967296", "18446744073709551616",
                         "123456789012345678901234567890123456789012345678901234567890"};
  for (const char* s : cases) {
    EXPECT_EQ(BigUint::from_dec(s).to_dec(), s);
  }
}

TEST(BigUint, DecRejectsGarbage) {
  EXPECT_THROW(BigUint::from_dec(""), std::invalid_argument);
  EXPECT_THROW(BigUint::from_dec("12a"), std::invalid_argument);
  EXPECT_THROW(BigUint::from_dec("-5"), std::invalid_argument);
}

TEST(BigUint, ComparisonOrdering) {
  const BigUint a{5}, b{7};
  const BigUint big = BigUint::from_hex("ffffffffffffffffff");
  EXPECT_LT(a, b);
  EXPECT_GT(big, b);
  EXPECT_EQ(a, BigUint{5});
  EXPECT_LE(a, a);
  EXPECT_NE(a, b);
}

TEST(BigUint, AdditionCarriesAcrossLimbs) {
  const BigUint a = BigUint::from_hex("ffffffffffffffff");  // 2^64 - 1
  EXPECT_EQ((a + BigUint{1}).to_hex(), "10000000000000000");
  EXPECT_EQ((a + a).to_hex(), "1fffffffffffffffe");
}

TEST(BigUint, SubtractionBorrowsAcrossLimbs) {
  const BigUint a = BigUint::from_hex("10000000000000000");
  EXPECT_EQ((a - BigUint{1}).to_hex(), "ffffffffffffffff");
  EXPECT_TRUE((a - a).is_zero());
}

TEST(BigUint, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUint{3} - BigUint{4}, std::underflow_error);
}

TEST(BigUint, KnownBigProduct) {
  const BigUint a = BigUint::from_dec("123456789012345678901234567890");
  const BigUint b = BigUint::from_dec("987654321098765432109876543210");
  EXPECT_EQ((a * b).to_dec(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigUint, MultiplyByZeroAndOne) {
  const BigUint a = BigUint::from_hex("abcdef0123456789");
  EXPECT_TRUE((a * BigUint{}).is_zero());
  EXPECT_EQ(a * BigUint{1}, a);
}

TEST(BigUint, KaratsubaMatchesSchoolbookOnLargeOperands) {
  // Operands over the Karatsuba threshold; verified against the identity
  // (x + 1)(x - 1) = x^2 - 1, which exercises both paths.
  Xoshiro256ss rng(99);
  const BigUint x = random_bits(rng, 4096);
  const BigUint lhs = (x + BigUint{1}) * (x - BigUint{1});
  const BigUint rhs = x * x - BigUint{1};
  EXPECT_EQ(lhs, rhs);
}

TEST(BigUint, ShiftsRoundTrip) {
  const BigUint a = BigUint::from_hex("123456789abcdef");
  for (const std::size_t s : {1u, 7u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ((a << s) >> s, a) << s;
  }
  EXPECT_EQ((BigUint{1} << 100).bit_length(), 101u);
}

TEST(BigUint, ShiftRightBelowZeroBitsGivesZero) {
  EXPECT_TRUE((BigUint{5} >> 3).is_zero());
  EXPECT_TRUE((BigUint{} >> 100).is_zero());
}

TEST(BigUint, DivmodRecombines) {
  Xoshiro256ss rng(17);
  for (int i = 0; i < 50; ++i) {
    const BigUint a = random_bits(rng, 512);
    const BigUint b = random_bits(rng, 128 + i) + BigUint{1};
    BigUint q, r;
    BigUint::divmod(a, b, q, r);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigUint, DivmodSmallerDividend) {
  BigUint q, r;
  BigUint::divmod(BigUint{5}, BigUint{9}, q, r);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r.to_u64(), 5u);
}

TEST(BigUint, DivisionByZeroThrows) {
  BigUint q, r;
  EXPECT_THROW(BigUint::divmod(BigUint{5}, BigUint{}, q, r), std::domain_error);
}

TEST(BigUint, DivmodAddBackCase) {
  // Crafted to hit Knuth D's rare add-back branch: divisor with high limb
  // pattern that makes qhat overshoot.
  const BigUint a = BigUint::from_hex("800000000000000000000003");
  const BigUint b = BigUint::from_hex("200000000000000000000001");
  BigUint q, r;
  BigUint::divmod(a, b, q, r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigUint, BytesRoundTrip) {
  const BigUint a = BigUint::from_hex("0102030405060708090a0b0c0d0e0f");
  const auto bytes = a.to_bytes_be();
  EXPECT_EQ(bytes.size(), 15u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(BigUint::from_bytes_be(bytes), a);
}

TEST(BigUint, BytesPadding) {
  const auto bytes = BigUint{0xABCD}.to_bytes_be(8);
  EXPECT_EQ(bytes.size(), 8u);
  EXPECT_EQ(bytes[6], 0xAB);
  EXPECT_EQ(bytes[7], 0xCD);
  EXPECT_EQ(bytes[0], 0x00);
}

TEST(BigUint, BitAccess) {
  const BigUint a = BigUint::from_hex("5");  // 101
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(2));
  EXPECT_FALSE(a.bit(3));
  EXPECT_FALSE(a.bit(1000));
}

TEST(BigUint, Pow2) {
  EXPECT_EQ(BigUint::pow2(0).to_u64(), 1u);
  EXPECT_EQ(BigUint::pow2(31).to_u64(), 0x80000000ULL);
  EXPECT_EQ(BigUint::pow2(32).to_u64(), 0x100000000ULL);
  EXPECT_EQ(BigUint::pow2(200).bit_length(), 201u);
}

TEST(BigUint, PowModMatchesIteratedMultiplication) {
  // 5^117 mod 19 computed both ways.
  std::uint64_t expect = 1;
  for (int i = 0; i < 117; ++i) expect = expect * 5 % 19;
  EXPECT_EQ(BigUint{5}.pow_mod(BigUint{117}, BigUint{19}).to_u64(), expect);
}

TEST(BigUint, PowModEvenModulus) {
  // pow_mod must also work when the modulus is even (generic path).
  std::uint64_t expect = 1;
  for (int i = 0; i < 77; ++i) expect = expect * 7 % 100;
  EXPECT_EQ(BigUint{7}.pow_mod(BigUint{77}, BigUint{100}).to_u64(), expect);
}

TEST(BigUint, PowModZeroExponent) {
  EXPECT_TRUE(BigUint{9}.pow_mod(BigUint{}, BigUint{13}).is_one());
  EXPECT_TRUE(BigUint{9}.pow_mod(BigUint{}, BigUint{1}).is_zero());  // mod 1
}

TEST(BigUint, PowModZeroModulusThrows) {
  EXPECT_THROW(BigUint{2}.pow_mod(BigUint{3}, BigUint{}), std::domain_error);
}

TEST(BigUint, FermatLittleTheoremProperty) {
  // a^(p-1) = 1 mod p for prime p and gcd(a, p) = 1.
  const BigUint p{1000000007};
  Xoshiro256ss rng(4);
  for (int i = 0; i < 10; ++i) {
    const BigUint a = random_below(rng, p - BigUint{2}) + BigUint{1};
    EXPECT_TRUE(a.pow_mod(p - BigUint{1}, p).is_one());
  }
}

TEST(BigUint, GcdLcm) {
  EXPECT_EQ(BigUint::gcd(BigUint{12}, BigUint{18}).to_u64(), 6u);
  EXPECT_EQ(BigUint::gcd(BigUint{17}, BigUint{5}).to_u64(), 1u);
  EXPECT_EQ(BigUint::gcd(BigUint{}, BigUint{7}).to_u64(), 7u);
  EXPECT_EQ(BigUint::lcm(BigUint{4}, BigUint{6}).to_u64(), 12u);
  EXPECT_TRUE(BigUint::lcm(BigUint{}, BigUint{6}).is_zero());
}

TEST(BigUint, GcdLinearity) {
  Xoshiro256ss rng(8);
  for (int i = 0; i < 20; ++i) {
    const BigUint a = random_bits(rng, 256);
    const BigUint b = random_bits(rng, 256) + BigUint{1};
    const BigUint g = BigUint::gcd(a, b);
    if (!a.is_zero()) {
      EXPECT_TRUE((a % g).is_zero());
    }
    EXPECT_TRUE((b % g).is_zero());
  }
}

TEST(BigUint, ModInverseProperty) {
  Xoshiro256ss rng(21);
  const BigUint m = BigUint::from_dec("1000000007");  // prime
  for (int i = 0; i < 25; ++i) {
    const BigUint a = random_below(rng, m - BigUint{1}) + BigUint{1};
    const BigUint inv = BigUint::mod_inverse(a, m);
    EXPECT_TRUE(a.mul_mod(inv, m).is_one());
    EXPECT_LT(inv, m);
  }
}

TEST(BigUint, ModInverseNotInvertibleThrows) {
  EXPECT_THROW(BigUint::mod_inverse(BigUint{6}, BigUint{9}), std::domain_error);
  EXPECT_THROW(BigUint::mod_inverse(BigUint{5}, BigUint{}), std::domain_error);
}

TEST(BigUint, MulModAssociativityProperty) {
  Xoshiro256ss rng(33);
  const BigUint m = random_bits(rng, 200) + BigUint{2};
  for (int i = 0; i < 20; ++i) {
    const BigUint a = random_below(rng, m);
    const BigUint b = random_below(rng, m);
    const BigUint c = random_below(rng, m);
    EXPECT_EQ(a.mul_mod(b, m).mul_mod(c, m), a.mul_mod(b.mul_mod(c, m), m));
  }
}

TEST(BigUint, DistributivityProperty) {
  Xoshiro256ss rng(55);
  for (int i = 0; i < 20; ++i) {
    const BigUint a = random_bits(rng, 300);
    const BigUint b = random_bits(rng, 300);
    const BigUint c = random_bits(rng, 300);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

}  // namespace
}  // namespace dubhe::bigint
