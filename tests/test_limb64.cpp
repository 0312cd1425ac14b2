// Edge cases specific to the 64-bit limb representation: carries that
// straddle the limb boundary, Karatsuba on odd limb counts, Montgomery
// round-trips at modulus widths not divisible by the limb width, and golden
// byte vectors that pin the serialization format across limb-width changes.
//
// This file is also compiled a second time with DUBHE_NO_INT128 (target
// test_limb64_portable) so the synthesized 64x64->128 primitives get the
// same coverage as the native __int128 path.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bigint/limb.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/random.hpp"
#include "paillier/paillier.hpp"
#include "pow_reference.hpp"

namespace dubhe::bigint {
namespace {

TEST(Limb64, PrimitivesMatchReference) {
  // mul_wide against hand-computed products.
  const LimbPair p1 = mul_wide(0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(p1.lo, 1u);                       // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(p1.hi, 0xFFFFFFFFFFFFFFFEULL);
  const LimbPair p2 = mul_wide(0x123456789ABCDEF0ULL, 0x10u);
  EXPECT_EQ(p2.lo, 0x23456789ABCDEF00ULL);
  EXPECT_EQ(p2.hi, 0x1u);

  // addc / subb carry chains.
  Limb c = 0;
  EXPECT_EQ(addc(kLimbMax, 1u, c), 0u);
  EXPECT_EQ(c, 1u);
  EXPECT_EQ(addc(kLimbMax, kLimbMax, c), kLimbMax);  // max+max+1 = 2^65 - 1
  EXPECT_EQ(c, 1u);
  Limb b = 0;
  EXPECT_EQ(subb(0u, 1u, b), kLimbMax);
  EXPECT_EQ(b, 1u);

  // mac at saturation: acc + a*b + carry must be exact in 128 bits.
  Limb carry = kLimbMax;
  const Limb lo = mac(kLimbMax, kLimbMax, kLimbMax, carry);
  EXPECT_EQ(lo, kLimbMax);  // 2^128 - 1 split across (carry, lo)
  EXPECT_EQ(carry, kLimbMax);

  // div_2by1 against known quotients.
  Limb rem = 0;
  EXPECT_EQ(div_2by1(0x1u, 0x0u, 0x10u, rem), Limb{1} << 60);
  EXPECT_EQ(rem, 0u);
  EXPECT_EQ(div_2by1(0x0u, 1000000000000000003ULL, 1000000000000000000ULL, rem), 1u);
  EXPECT_EQ(rem, 3u);
}

TEST(Limb64, CarriesAcrossTheLimbBoundary) {
  const BigUint two63 = BigUint::pow2(63);  // top bit of limb 0
  const BigUint two64 = BigUint::pow2(64);  // lowest bit of limb 1
  const BigUint two65 = BigUint::pow2(65);

  EXPECT_EQ(two63.limb_count(), 1u);
  EXPECT_EQ(two64.limb_count(), 2u);
  EXPECT_EQ(two63.bit_length(), 64u);
  EXPECT_EQ(two64.bit_length(), 65u);

  // 63 -> 64-bit carry.
  EXPECT_EQ((two63 + two63), two64);
  // 64 -> 65-bit carry through a full limb of ones.
  const BigUint max64 = two64 - BigUint{1};
  EXPECT_EQ(max64.to_u64(), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(max64.limb_count(), 1u);
  EXPECT_EQ((max64 + BigUint{1}), two64);
  EXPECT_EQ((max64 + max64 + BigUint{2}), two65);
  // Borrow back down across the boundary.
  EXPECT_EQ((two64 - BigUint{1}).limb_count(), 1u);
  EXPECT_EQ((two65 - BigUint{1}) - (two65 - two64), max64);

  // 65-bit operands: products spanning 2 -> 3 limbs.
  // (2^64+1)^2 = 2^128 + 2^65 + 1
  const BigUint v65 = two64 + BigUint{1};
  EXPECT_EQ((v65 * v65).to_hex(), "100000000000000020000000000000001");
  EXPECT_EQ((v65 * v65) % two64, BigUint{1});
}

TEST(Limb64, ShiftsAtLimbBoundary) {
  const BigUint a = BigUint::from_hex("123456789abcdef0fedcba9876543210");
  for (const std::size_t s : {63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_EQ((a << s) >> s, a) << s;
    EXPECT_EQ((a << s).bit_length(), a.bit_length() + s) << s;
  }
  EXPECT_EQ((BigUint{1} << 64).limb_count(), 2u);
  EXPECT_TRUE((BigUint{1} >> 1).is_zero());
}

TEST(Limb64, KaratsubaOddLimbCounts) {
  // Operand limb counts straddling and above kKaratsubaThreshold, odd on
  // at least one side so the split point m leaves unbalanced halves.
  Xoshiro256ss rng(64);
  const std::size_t threshold_bits = BigUint::kKaratsubaThreshold * BigUint::kLimbBits;
  for (const std::size_t abits : {threshold_bits + 64, threshold_bits + 3 * 64 + 17}) {
    for (const std::size_t bbits : {threshold_bits + 64, threshold_bits + 5 * 64 + 1}) {
      const BigUint a = random_exact_bits(rng, abits);
      const BigUint b = random_exact_bits(rng, bbits);
      const BigUint prod = a * b;  // Karatsuba path
      // Cross-check against schoolbook by splitting b below the threshold:
      // a*b = (a*b_hi << k) + a*b_lo with both partial products schoolbook.
      const std::size_t k = (BigUint::kKaratsubaThreshold - 1) * BigUint::kLimbBits;
      const BigUint b_lo = b % BigUint::pow2(k);
      const BigUint b_hi = b >> k;
      EXPECT_EQ(prod, ((a * b_hi) << k) + a * b_lo);
      // And the division cross-check.
      EXPECT_TRUE((prod % a).is_zero());
      EXPECT_EQ(prod / a, b);
    }
  }
}

TEST(Limb64, MontgomeryAtNonLimbMultipleWidths) {
  // Modulus widths deliberately not divisible by 64: the top limb is
  // partially filled, which is where padding and trim bugs live.
  Xoshiro256ss rng(65);
  for (const std::size_t bits : {65u, 127u, 190u, 1031u, 2000u}) {
    BigUint m = random_exact_bits(rng, bits);
    if (!m.is_odd()) m += BigUint{1};
    ASSERT_EQ(m.bit_length(), bits);
    const Montgomery ctx(m);
    for (int i = 0; i < 8; ++i) {
      const BigUint x = random_below(rng, m);
      const BigUint y = random_below(rng, m);
      EXPECT_EQ(ctx.from_mont(ctx.to_mont(x)), x) << bits;
      EXPECT_EQ(ctx.from_mont(ctx.mul(ctx.to_mont(x), ctx.to_mont(y))),
                x.mul_mod(y, m))
          << bits;
    }
    // A 1024-bit exponent: the Paillier half-width / Miller-Rabin shape.
    const BigUint e = random_exact_bits(rng, 1024);
    EXPECT_EQ(ctx.pow(BigUint{3}, e), windowless_pow(BigUint{3}, e, m)) << bits;
  }
}

TEST(Limb64, ModU64MatchesDivmod) {
  Xoshiro256ss rng(66);
  for (int i = 0; i < 30; ++i) {
    const BigUint a = random_bits(rng, 64 + i * 23);
    for (const std::uint64_t d :
         {1ULL, 2ULL, 3ULL, 0xFFFFFFFFULL, 0x100000001ULL, 0xFFFFFFFFFFFFFFFFULL}) {
      EXPECT_EQ(a.mod_u64(d), (a % BigUint{d}).to_u64()) << d;
    }
  }
  EXPECT_THROW((void)BigUint{5}.mod_u64(0), std::domain_error);
}

TEST(Limb64, FromLimbsLe) {
  const std::uint64_t words[] = {0xdeadbeefULL, 0x1ULL, 0x0ULL};
  const BigUint v = BigUint::from_limbs_le(words);
  EXPECT_EQ(v.limb_count(), 2u);  // trailing zero word trimmed
  EXPECT_EQ(v, (BigUint{1} << 64) + BigUint{0xdeadbeefULL});
  EXPECT_TRUE(BigUint::from_limbs_le({}).is_zero());
}

TEST(Limb64, ByteSerializationGoldenVectors) {
  // Golden vectors fixed at the seed's byte format. These must never change
  // with the limb width: the wire format is pure big-endian bytes.
  const BigUint a = BigUint::from_hex("0102030405060708090a0b0c0d0e0f1011");
  const auto bytes = a.to_bytes_be();
  ASSERT_EQ(bytes.size(), 17u);  // crosses the 8-byte limb boundary mid-value
  for (std::size_t i = 0; i < 17; ++i) {
    EXPECT_EQ(bytes[i], static_cast<std::uint8_t>(i + 1)) << i;
  }
  EXPECT_EQ(BigUint::from_bytes_be(bytes), a);

  // Left-padding must not disturb the magnitude bytes.
  const auto padded = BigUint{0xABCDULL}.to_bytes_be(10);
  const std::vector<std::uint8_t> expect_padded{0, 0, 0, 0, 0, 0, 0, 0, 0xAB, 0xCD};
  EXPECT_EQ(padded, expect_padded);

  // A value with a zero low byte in the middle limb.
  const auto sparse = (BigUint::pow2(64) + BigUint{0xFF00ULL}).to_bytes_be();
  const std::vector<std::uint8_t> expect_sparse{0x01, 0, 0, 0, 0, 0, 0, 0xFF, 0};
  EXPECT_EQ(sparse, expect_sparse);
}

TEST(Limb64, CiphertextSerializationGoldenVector) {
  // Length-prefixed framing golden vector: n = 199 (0xc7), key_bits = 8,
  // ciphertext_bytes = (2*8+7)/8 = 2, so the wire form of c = 0x1234 is a
  // 4-byte big-endian length followed by the 2 magnitude bytes.
  const he::PublicKey pk{BigUint{199}};
  ASSERT_EQ(pk.ciphertext_bytes(), 2u);
  const he::Ciphertext ct{BigUint{0x1234}};
  const auto wire = he::serialize(ct, pk);
  const std::vector<std::uint8_t> expect{0, 0, 0, 2, 0x12, 0x34};
  EXPECT_EQ(wire, expect);
  EXPECT_EQ(he::deserialize_ciphertext(wire).c, ct.c);

  // Public key framing: tag 'P' then a length-prefixed minimal magnitude.
  const auto pk_wire = he::serialize(pk);
  const std::vector<std::uint8_t> expect_pk{'P', 0, 0, 0, 1, 0xc7};
  EXPECT_EQ(pk_wire, expect_pk);
}

TEST(Limb64, DecStringRoundTripAroundChunkBoundaries) {
  // from_dec consumes 19-digit chunks; exercise lengths around multiples
  // of the chunk size, including values with long runs of zeros.
  const char* cases[] = {
      "9999999999999999999",                      // 19 nines (one full chunk)
      "10000000000000000000",                     // 10^19 (chunk scale itself)
      "100000000000000000000000000000000000001",  // 39 digits, zero interior
      "18446744073709551615",                     // 2^64 - 1
      "18446744073709551616",                     // 2^64
      "340282366920938463463374607431768211456",  // 2^128
  };
  for (const char* s : cases) {
    EXPECT_EQ(BigUint::from_dec(s).to_dec(), s);
  }
}

}  // namespace
}  // namespace dubhe::bigint
