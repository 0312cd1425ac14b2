#pragma once

#include <cstdint>

// The bigint layer works on 64-bit limbs and needs a 64x64 -> 128-bit
// multiply plus a 128/64 -> 64 divide. On GCC/Clang (and any compiler
// defining __SIZEOF_INT128__) these compile to single instructions through
// `unsigned __int128`. Define DUBHE_NO_INT128 to force the portable
// fallback, which synthesizes both from 32-bit halves; the fallback is also
// what compilers without __int128 get automatically.
#if defined(__SIZEOF_INT128__) && !defined(DUBHE_NO_INT128)
#define DUBHE_HAS_INT128 1
#else
#define DUBHE_HAS_INT128 0
#endif

namespace dubhe::bigint {

/// Storage word of BigUint. All multi-precision loops below are written
/// against the primitives in this header so the limb width is set in
/// exactly one place.
using Limb = std::uint64_t;
inline constexpr unsigned kLimbBits = 64;
inline constexpr Limb kLimbMax = ~Limb{0};

/// A double-width value split into limbs (lo is the less significant half).
struct LimbPair {
  Limb lo;
  Limb hi;
};

/// Full 64x64 -> 128-bit product.
inline LimbPair mul_wide(Limb a, Limb b) {
#if DUBHE_HAS_INT128
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return {static_cast<Limb>(p), static_cast<Limb>(p >> 64)};
#else
  // Four 32x32 -> 64 partial products. `mid` cannot overflow: it sums one
  // 32-bit high half and two 32-bit-truncated products, max < 3 * 2^32.
  const std::uint64_t a0 = a & 0xffffffffu, a1 = a >> 32;
  const std::uint64_t b0 = b & 0xffffffffu, b1 = b >> 32;
  const std::uint64_t p00 = a0 * b0;
  const std::uint64_t p01 = a0 * b1;
  const std::uint64_t p10 = a1 * b0;
  const std::uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
  return {(mid << 32) | (p00 & 0xffffffffu),
          a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)};
#endif
}

/// a + b + carry; `carry` (0 or 1 on entry) is replaced by the outgoing carry.
inline Limb addc(Limb a, Limb b, Limb& carry) {
  const Limb s1 = a + b;
  const Limb c1 = static_cast<Limb>(s1 < a);
  const Limb s2 = s1 + carry;
  carry = c1 + static_cast<Limb>(s2 < s1);
  return s2;
}

/// a - b - borrow; `borrow` (0 or 1 on entry) is replaced by the outgoing
/// borrow.
inline Limb subb(Limb a, Limb b, Limb& borrow) {
  const Limb d1 = a - b;
  const Limb b1 = static_cast<Limb>(a < b);
  const Limb d2 = d1 - borrow;
  borrow = b1 + static_cast<Limb>(d1 < borrow);
  return d2;
}

/// acc + a * b + carry; returns the low limb and replaces `carry` with the
/// high limb. Exact in 128 bits: (2^64-1)^2 + 2(2^64-1) = 2^128 - 1.
inline Limb mac(Limb acc, Limb a, Limb b, Limb& carry) {
#if DUBHE_HAS_INT128
  const unsigned __int128 cur =
      static_cast<unsigned __int128>(a) * b + acc + carry;
  carry = static_cast<Limb>(cur >> 64);
  return static_cast<Limb>(cur);
#else
  LimbPair p = mul_wide(a, b);
  Limb c = 0;
  Limb lo = addc(p.lo, acc, c);
  p.hi += c;
  c = 0;
  lo = addc(lo, carry, c);
  carry = p.hi + c;
  return lo;
#endif
}

/// ((hi << 64) | lo) / d, remainder in `rem`. Requires hi < d so the
/// quotient fits in one limb.
inline Limb div_2by1(Limb hi, Limb lo, Limb d, Limb& rem) {
#if DUBHE_HAS_INT128 && defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // hi < d is exactly divq's no-overflow condition, so one instruction does
  // it; compilers lower the __int128 expression below to a libgcc call.
  Limb q;
  __asm__("divq %[d]" : "=a"(q), "=d"(rem) : [d] "rm"(d), "a"(lo), "d"(hi) : "cc");
  return q;
#elif DUBHE_HAS_INT128
  const unsigned __int128 n = (static_cast<unsigned __int128>(hi) << 64) | lo;
  rem = static_cast<Limb>(n % d);
  return static_cast<Limb>(n / d);
#else
  // Knuth base-2^32 schoolbook division (two digit steps), after
  // normalizing so the divisor's top bit is set.
  int shift = 0;
  for (Limb t = d; (t & (Limb{1} << 63)) == 0; t <<= 1) ++shift;
  const Limb dn = d << shift;
  const Limb hin = shift ? (hi << shift) | (lo >> (64 - shift)) : hi;
  const Limb lon = lo << shift;
  const Limb d1 = dn >> 32, d0 = dn & 0xffffffffu;
  const Limb l1 = lon >> 32, l0 = lon & 0xffffffffu;

  const auto digit = [&](Limb num_hi, Limb num_lo) -> LimbPair {
    // One 32-bit quotient digit of (num_hi:num_lo) / dn; returns
    // {digit, partial remainder}.
    Limb q = num_hi / d1;
    Limb r = num_hi % d1;
    while (q > 0xffffffffu || q * d0 > ((r << 32) | num_lo)) {
      --q;
      r += d1;
      if (r > 0xffffffffu) break;
    }
    return {q, ((num_hi << 32) | num_lo) - q * dn};
  };

  const LimbPair q1 = digit(hin, l1);
  const LimbPair q0 = digit(q1.hi, l0);
  rem = q0.hi >> shift;
  return (q1.lo << 32) | q0.lo;
#endif
}

}  // namespace dubhe::bigint
