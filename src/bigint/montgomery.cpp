#include "bigint/montgomery.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/cpu.hpp"

// The ADX row is GCC/Clang inline assembly for x86-64. It needs 128-bit
// intermediates nowhere, but DUBHE_NO_INT128 builds are the portable
// reference and keep the C loop only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && DUBHE_HAS_INT128
#define DUBHE_ROW_ADX 1
#else
#define DUBHE_ROW_ADX 0
#endif

namespace dubhe::bigint {

namespace {

/// Inverse of odd `x` mod 2^64 by Newton iteration. The seed y = x is
/// correct to 3 bits (x * x = 1 mod 8 for odd x) and each step doubles the
/// number of correct low bits: 3 -> 6 -> 12 -> 24 -> 48 -> 96 >= 64.
std::uint64_t inv64(std::uint64_t x) {
  std::uint64_t y = x;
  for (int i = 0; i < 5; ++i) y *= 2u - x * y;
  return y;
}

/// Sliding-window width of `Montgomery::pow`. The 16-entry odd-power table
/// costs 15 multiplies and one squaring, the same table cost as a fixed
/// 4-bit window, and each window then covers up to 5 exponent bits.
constexpr unsigned kPowWindowBits = 5;

/// Portable row: one sequential carry chain through `mac`.
struct PortableRow {
  static Limb addmul_1(Limb* t, const Limb* a, std::size_t n, Limb b) {
    Limb carry = 0;
    for (std::size_t j = 0; j < n; ++j) t[j] = mac(t[j], a[j], b, carry);
    return carry;
  }
};

#if DUBHE_ROW_ADX

/// ADX row. mulx forms a[j] * b without touching the flags; adcx folds the
/// previous product's high limb into this low limb on the CF chain, and
/// adox adds the result into t[j] on the OF chain, so the two carry chains
/// overlap instead of serializing. Loop control uses lea and jrcxz, which
/// leave both flags alone. A 1-limb loop runs the n mod 4 leading limbs,
/// then a 4x unrolled loop the rest; the final high limb takes both
/// outstanding carries. It cannot overflow: t + a * b < 2^(64 (n + 1)).
struct AdxRow {
  static Limb addmul_1(Limb* t, const Limb* a, std::size_t n, Limb b) {
    Limb carry, zero, lo0, lo1, hi0;
    std::size_t count = n & 3;
    const std::size_t blocks = n >> 2;
    __asm__ volatile(
        "xor %k[carry], %k[carry]\n\t"
        "xor %k[zero], %k[zero]\n\t"  // also clears CF and OF
        "1:\n\t"
        "jrcxz 2f\n\t"
        "mulx (%[a]), %[lo0], %[hi0]\n\t"
        "adcx %[carry], %[lo0]\n\t"
        "adox (%[t]), %[lo0]\n\t"
        "mov %[lo0], (%[t])\n\t"
        "mov %[hi0], %[carry]\n\t"
        "lea 8(%[a]), %[a]\n\t"
        "lea 8(%[t]), %[t]\n\t"
        "lea -1(%%rcx), %%rcx\n\t"
        "jmp 1b\n\t"
        "2:\n\t"
        "mov %[blocks], %%rcx\n\t"
        "3:\n\t"
        "jrcxz 4f\n\t"
        "mulx (%[a]), %[lo0], %[hi0]\n\t"
        "adcx %[carry], %[lo0]\n\t"
        "adox (%[t]), %[lo0]\n\t"
        "mov %[lo0], (%[t])\n\t"
        "mulx 8(%[a]), %[lo1], %[carry]\n\t"
        "adcx %[hi0], %[lo1]\n\t"
        "adox 8(%[t]), %[lo1]\n\t"
        "mov %[lo1], 8(%[t])\n\t"
        "mulx 16(%[a]), %[lo0], %[hi0]\n\t"
        "adcx %[carry], %[lo0]\n\t"
        "adox 16(%[t]), %[lo0]\n\t"
        "mov %[lo0], 16(%[t])\n\t"
        "mulx 24(%[a]), %[lo1], %[carry]\n\t"
        "adcx %[hi0], %[lo1]\n\t"
        "adox 24(%[t]), %[lo1]\n\t"
        "mov %[lo1], 24(%[t])\n\t"
        "lea 32(%[a]), %[a]\n\t"
        "lea 32(%[t]), %[t]\n\t"
        "lea -1(%%rcx), %%rcx\n\t"
        "jmp 3b\n\t"
        "4:\n\t"
        "adcx %[zero], %[carry]\n\t"
        "adox %[zero], %[carry]\n\t"
        : [carry] "=&r"(carry), [zero] "=&r"(zero), [lo0] "=&r"(lo0),
          [lo1] "=&r"(lo1), [hi0] "=&r"(hi0), [t] "+r"(t), [a] "+r"(a),
          "+c"(count)
        : [blocks] "r"(blocks), "d"(b)
        : "cc", "memory");
    return carry;
  }
};

#else

// Never selected in these builds (select_row_tier returns kPortable); the
// alias keeps the dispatch sites free of preprocessor branches.
using AdxRow = PortableRow;

#endif  // DUBHE_ROW_ADX

/// CIOS over rows, without the per-step shift: step i adds a * b[i] and then
/// m * N into t[i .. i+s), which leaves t[i] zero, so the running value
/// moves up one limb per step and ends at t[s .. 2s] (< 2N). Only t[0 .. s)
/// is read before it is written; the limb above each step's rows lives in
/// `top` until the next step stores it.
template <class Row>
void cios_rows(const Limb* a, const Limb* b, const Limb* n, std::size_t s, Limb n0inv,
               Limb* t) {
  for (std::size_t i = 0; i < s; ++i) t[i] = 0;
  Limb top = 0;  // t[i + s]
  for (std::size_t i = 0; i < s; ++i) {
    Limb k = 0;
    Limb hi = addc(top, Row::addmul_1(t + i, a, s, b[i]), k);
    Limb hi2 = k;
    const Limb m = t[i] * n0inv;
    k = 0;
    hi = addc(hi, Row::addmul_1(t + i, n, s, m), k);
    t[i + s] = hi;
    top = hi2 + k;  // the running value stays < 2N, so this cannot wrap
  }
  t[2 * s] = top;
}

/// Squaring over rows: leaves a^2 / R (< 2N) in t[s .. 2s], ready for the
/// final subtraction.
template <class Row>
void sqr_rows(const Limb* a, const Limb* n, std::size_t s, Limb n0inv, Limb* t) {
  // Off-diagonal products a[i] * a[j] for i < j, each formed once. Row i
  // accumulates into t[2i+1 .. i+s-1] and sets t[i+s], which no earlier
  // row reaches; row 0 accumulates into the zeroed low half.
  for (std::size_t i = 0; i < s; ++i) t[i] = 0;
  for (std::size_t i = 0; i < s; ++i) {
    t[i + s] = Row::addmul_1(t + 2 * i + 1, a + i + 1, s - i - 1, a[i]);
  }
  // Double the off-diagonal sum and add the diagonal squares a[i]^2 at
  // limb 2i in one pass. a^2 < R^2, so nothing carries out of limb 2s-1.
  Limb shifted = 0;  // top bit of the previous limb, shifted in
  Limb carry = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const LimbPair d = mul_wide(a[i], a[i]);
    const Limb lo = t[2 * i], hi = t[2 * i + 1];
    t[2 * i] = addc((lo << 1) | shifted, d.lo, carry);
    t[2 * i + 1] = addc((hi << 1) | (lo >> 63), d.hi, carry);
    shifted = hi >> 63;
  }
  // Word-by-word REDC: each step clears limb i by adding m * N << 64i.
  // `top` carries the bit out of limb i+s into limb i+s+1 of the next step.
  Limb top = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const Limb m = t[i] * n0inv;
    t[i + s] = addc(t[i + s], Row::addmul_1(t + i, n, s, m), top);
  }
  t[2 * s] = top;
}

}  // namespace

Limb addmul_1(Limb* t, const Limb* a, std::size_t n, Limb b, RowTier tier) {
  return tier == RowTier::kAdx ? AdxRow::addmul_1(t, a, n, b)
                               : PortableRow::addmul_1(t, a, n, b);
}

const char* to_string(RowTier tier) {
  return tier == RowTier::kAdx ? "adx" : "portable";
}

RowTier select_row_tier() {
#if DUBHE_ROW_ADX
  if (core::cpu::has(core::cpu::kBmi2) && core::cpu::has(core::cpu::kAdx)) {
    return RowTier::kAdx;
  }
#endif
  return RowTier::kPortable;
}

Montgomery::Montgomery(const BigUint& modulus) : n_(modulus) {
  if (n_.is_zero() || !n_.is_odd()) {
    throw std::invalid_argument("Montgomery: modulus must be odd and non-zero");
  }
  s_ = n_.limb_count();
  n_limbs_.resize(s_);
  for (std::size_t i = 0; i < s_; ++i) n_limbs_[i] = n_.limb(i);
  n0inv_ = 0u - inv64(n_limbs_[0]);

  // R = 2^(64 s); compute R mod N and R^2 mod N with plain division once.
  const BigUint r = BigUint::pow2(kLimbBits * s_) % n_;
  rr_ = r.mul_mod(r, n_);
  tier_ = select_row_tier();
}

std::vector<Montgomery::Limb> Montgomery::padded(const BigUint& x) const {
  std::vector<Limb> v(s_, 0);
  for (std::size_t i = 0; i < s_; ++i) v[i] = x.limb(i);
  return v;
}

BigUint Montgomery::from_limbs(std::vector<Limb> v) {
  BigUint r;
  r.limbs_ = std::move(v);
  r.trim();
  return r;
}

void Montgomery::cios(const Limb* a, const Limb* b, Limb* out, Limb* t) const {
  if (tier_ == RowTier::kAdx) {
    cios_rows<AdxRow>(a, b, n_limbs_.data(), s_, n0inv_, t);
  } else {
    cios_rows<PortableRow>(a, b, n_limbs_.data(), s_, n0inv_, t);
  }
  reduce_final(t + s_, out);
}

void Montgomery::reduce_final(const Limb* t, Limb* out) const {
  // Conditional final subtraction: t < 2N, reduce to < N.
  const std::size_t s = s_;
  const Limb* n = n_limbs_.data();
  bool ge = t[s] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = s; i-- > 0;) {
      if (t[i] != n[i]) { ge = t[i] > n[i]; break; }
    }
  }
  if (ge) {
    Limb borrow = 0;
    for (std::size_t i = 0; i < s; ++i) {
      out[i] = subb(t[i], n[i], borrow);
    }
  } else {
    for (std::size_t i = 0; i < s; ++i) out[i] = t[i];
  }
}

void Montgomery::sqr(const Limb* a, Limb* out, Limb* t) const {
  if (tier_ == RowTier::kAdx) {
    sqr_rows<AdxRow>(a, n_limbs_.data(), s_, n0inv_, t);
  } else {
    sqr_rows<PortableRow>(a, n_limbs_.data(), s_, n0inv_, t);
  }
  reduce_final(t + s_, out);
}

BigUint Montgomery::mul(const BigUint& a, const BigUint& b) const {
  const std::vector<Limb> pa = padded(a), pb = padded(b);
  std::vector<Limb> out(s_), t(scratch_limbs());
  cios(pa.data(), pb.data(), out.data(), t.data());
  return from_limbs(std::move(out));
}

BigUint Montgomery::sqr(const BigUint& a) const {
  const std::vector<Limb> pa = padded(a);
  std::vector<Limb> out(s_), t(scratch_limbs());
  sqr(pa.data(), out.data(), t.data());
  return from_limbs(std::move(out));
}

BigUint Montgomery::to_mont(const BigUint& x) const {
  return mul(x, rr_);
}

BigUint Montgomery::from_mont(const BigUint& x) const {
  return mul(x, BigUint{1});
}

void Montgomery::to_mont_limbs(const BigUint& x, Limb* out, Limb* t) const {
  const std::vector<Limb> px = padded(x), prr = padded(rr_);
  cios(px.data(), prr.data(), out, t);
}

BigUint Montgomery::from_mont_limbs(const std::vector<Limb>& acc,
                                    std::vector<Limb>& tmp,
                                    std::vector<Limb>& t) const {
  // Out of Montgomery form: multiply by 1.
  std::vector<Limb> one(s_, 0);
  one[0] = 1;
  cios(acc.data(), one.data(), tmp.data(), t.data());
  return from_limbs(std::move(tmp));
}

BigUint Montgomery::pow(const BigUint& base, const BigUint& exp) const {
  if (exp.is_zero()) return BigUint{1} % n_;

  // All intermediates live in fixed-size limb buffers; the window table,
  // accumulator, and scratch are allocated once up front.
  std::vector<Limb> t(scratch_limbs()), tmp(s_);
  std::vector<Limb> bm(s_);
  to_mont_limbs(base % n_, bm.data(), t.data());

  // Odd powers bm^1, bm^3, ..., bm^31: entry k holds bm^(2k+1).
  constexpr std::size_t entries = std::size_t{1} << (kPowWindowBits - 1);
  std::vector<Limb> table(entries * s_);
  std::copy(bm.begin(), bm.end(), table.begin());
  sqr(bm.data(), tmp.data(), t.data());  // bm^2
  for (std::size_t k = 1; k < entries; ++k) {
    cios(table.data() + (k - 1) * s_, tmp.data(), table.data() + k * s_,
         t.data());
  }

  // Left to right: a zero bit costs one squaring; a one bit opens a window
  // of up to kPowWindowBits bits ending in a one, costing one squaring per
  // bit and one multiply by its odd-power entry. The top bit is set, so the
  // first window loads its entry instead of squaring the Montgomery one.
  std::vector<Limb> acc(s_);
  bool started = false;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    if (!exp.bit(i)) {
      sqr(acc.data(), tmp.data(), t.data());
      acc.swap(tmp);
      continue;
    }
    std::size_t low = i + 1 >= kPowWindowBits ? i + 1 - kPowWindowBits : 0;
    while (!exp.bit(low)) ++low;
    std::size_t digit = 0;
    for (std::size_t b = i + 1; b-- > low;) {
      digit = (digit << 1) | (exp.bit(b) ? 1u : 0u);
      if (started) {
        sqr(acc.data(), tmp.data(), t.data());
        acc.swap(tmp);
      }
    }
    const Limb* entry = table.data() + (digit >> 1) * s_;
    if (started) {
      cios(acc.data(), entry, tmp.data(), t.data());
      acc.swap(tmp);
    } else {
      std::copy(entry, entry + s_, acc.begin());
      started = true;
    }
    i = low;  // the loop's decrement moves on to bit low - 1
  }
  return from_mont_limbs(acc, tmp, t);
}

}  // namespace dubhe::bigint
