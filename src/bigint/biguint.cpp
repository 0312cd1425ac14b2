#include "bigint/biguint.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <stdexcept>

#include "bigint/montgomery.hpp"

namespace dubhe::bigint {

namespace {
// Decimal conversion chunk: the largest power of ten below 2^64, so a full
// chunk of 19 digits still fits a limb.
constexpr std::uint64_t kDecChunkScale = 10000000000000000000ULL;  // 10^19
constexpr int kDecChunkDigits = 19;
}  // namespace

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::pow2(std::size_t k) {
  BigUint r;
  r.limbs_.assign(k / kLimbBits + 1, 0);
  r.limbs_.back() = Limb{1} << (k % kLimbBits);
  return r;
}

BigUint BigUint::from_hex(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("BigUint::from_hex: empty string");
  BigUint r;
  r.limbs_.assign(s.size() / (kLimbBits / 4) + 1, 0);
  std::size_t bitpos = 0;
  for (std::size_t i = s.size(); i-- > 0;) {
    const char c = s[i];
    Limb v = 0;
    if (c >= '0' && c <= '9') v = static_cast<Limb>(c - '0');
    else if (c >= 'a' && c <= 'f') v = static_cast<Limb>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v = static_cast<Limb>(c - 'A' + 10);
    else throw std::invalid_argument("BigUint::from_hex: bad character");
    r.limbs_[bitpos / kLimbBits] |= v << (bitpos % kLimbBits);
    bitpos += 4;
  }
  r.trim();
  return r;
}

BigUint BigUint::from_dec(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("BigUint::from_dec: empty string");
  BigUint r;
  // Consume up to 19 decimal digits at a time: r = r * 10^k + chunk.
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t take = std::min<std::size_t>(kDecChunkDigits, s.size() - i);
    std::uint64_t chunk = 0, scale = 1;
    for (std::size_t j = 0; j < take; ++j) {
      const char c = s[i + j];
      if (c < '0' || c > '9') throw std::invalid_argument("BigUint::from_dec: bad character");
      chunk = chunk * 10 + static_cast<std::uint64_t>(c - '0');
      scale = take == kDecChunkDigits ? kDecChunkScale : scale * 10;
    }
    // r = r * scale + chunk, in place.
    Limb carry = chunk;
    for (auto& limb : r.limbs_) {
      limb = mac(0, limb, scale, carry);
    }
    if (carry) r.limbs_.push_back(carry);
    i += take;
  }
  r.trim();
  return r;
}

BigUint BigUint::from_bytes_be(std::span<const std::uint8_t> bytes) {
  BigUint r;
  r.limbs_.assign(bytes.size() / 8 + 1, 0);
  std::size_t shift = 0, limb = 0;
  for (std::size_t i = bytes.size(); i-- > 0;) {
    r.limbs_[limb] |= static_cast<Limb>(bytes[i]) << shift;
    shift += 8;
    if (shift == kLimbBits) { shift = 0; ++limb; }
  }
  r.trim();
  return r;
}

BigUint BigUint::from_limbs_le(std::span<const std::uint64_t> words) {
  BigUint r;
  r.limbs_.assign(words.begin(), words.end());
  r.trim();
  return r;
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  return kLimbBits * (limbs_.size() - 1) +
         (kLimbBits - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1u;
}

std::string BigUint::to_hex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(limbs_.size() * (kLimbBits / 4));
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = kLimbBits / 4 - 1; nib >= 0; --nib) {
      out.push_back(kDigits[(limbs_[i] >> (nib * 4)) & 0xF]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

std::string BigUint::to_dec() const {
  if (limbs_.empty()) return "0";
  std::vector<Limb> work(limbs_);
  std::string out;
  while (!work.empty()) {
    // Divide work by 10^19, collecting the remainder.
    Limb rem = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      work[i] = div_2by1(rem, work[i], kDecChunkScale, rem);
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    for (int d = 0; d < kDecChunkDigits; ++d) {
      out.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<std::uint8_t> BigUint::to_bytes_be(std::size_t pad_to) const {
  const std::size_t nbytes = (bit_length() + 7) / 8;
  const std::size_t total = std::max(nbytes, pad_to);
  std::vector<std::uint8_t> out(total, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    out[total - 1 - i] = static_cast<std::uint8_t>(limbs_[i / 8] >> ((i % 8) * 8));
  }
  return out;
}

std::strong_ordering BigUint::operator<=>(const BigUint& o) const {
  if (limbs_.size() != o.limbs_.size()) {
    return limbs_.size() <=> o.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] <=> o.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUint& BigUint::operator+=(const BigUint& o) {
  if (limbs_.size() < o.limbs_.size()) limbs_.resize(o.limbs_.size(), 0);
  Limb carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    limbs_[i] = addc(limbs_[i], o.limb(i), carry);
    if (carry == 0 && i >= o.limbs_.size()) break;
  }
  if (carry) limbs_.push_back(carry);
  return *this;
}

BigUint& BigUint::operator-=(const BigUint& o) {
  if (*this < o) throw std::underflow_error("BigUint subtraction underflow");
  Limb borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    limbs_[i] = subb(limbs_[i], o.limb(i), borrow);
    if (borrow == 0 && i >= o.limbs_.size()) break;
  }
  trim();
  return *this;
}

BigUint& BigUint::operator<<=(std::size_t bits) {
  if (limbs_.empty() || bits == 0) return *this;
  const std::size_t limb_shift = bits / kLimbBits, bit_shift = bits % kLimbBits;
  const std::size_t old = limbs_.size();
  limbs_.resize(old + limb_shift + (bit_shift ? 1 : 0), 0);
  if (bit_shift == 0) {
    for (std::size_t i = old; i-- > 0;) limbs_[i + limb_shift] = limbs_[i];
  } else {
    for (std::size_t i = old; i-- > 0;) {
      limbs_[i + limb_shift + 1] |= limbs_[i] >> (kLimbBits - bit_shift);
      limbs_[i + limb_shift] = limbs_[i] << bit_shift;
    }
  }
  for (std::size_t i = 0; i < limb_shift; ++i) limbs_[i] = 0;
  trim();
  return *this;
}

BigUint& BigUint::operator>>=(std::size_t bits) {
  const std::size_t limb_shift = bits / kLimbBits, bit_shift = bits % kLimbBits;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  const std::size_t n = limbs_.size() - limb_shift;
  for (std::size_t i = 0; i < n; ++i) {
    Limb v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    limbs_[i] = v;
  }
  limbs_.resize(n);
  trim();
  return *this;
}

BigUint BigUint::slice_limbs(std::size_t lo, std::size_t hi) const {
  BigUint r;
  hi = std::min(hi, limbs_.size());
  if (lo >= hi) return r;
  r.limbs_.assign(limbs_.begin() + static_cast<std::ptrdiff_t>(lo),
                  limbs_.begin() + static_cast<std::ptrdiff_t>(hi));
  r.trim();
  return r;
}

BigUint BigUint::mul_schoolbook(const BigUint& a, const BigUint& b) {
  BigUint r;
  if (a.is_zero() || b.is_zero()) return r;
  r.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    Limb carry = 0;
    const Limb ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      r.limbs_[i + j] = mac(r.limbs_[i + j], ai, b.limbs_[j], carry);
    }
    r.limbs_[i + b.limbs_.size()] = carry;
  }
  r.trim();
  return r;
}

BigUint BigUint::mul_karatsuba(const BigUint& a, const BigUint& b) {
  const std::size_t m = std::max(a.limbs_.size(), b.limbs_.size()) / 2;
  const BigUint a0 = a.slice_limbs(0, m), a1 = a.slice_limbs(m, a.limbs_.size());
  const BigUint b0 = b.slice_limbs(0, m), b1 = b.slice_limbs(m, b.limbs_.size());
  const BigUint z0 = a0 * b0;
  const BigUint z2 = a1 * b1;
  BigUint z1 = (a0 + a1) * (b0 + b1);
  z1 -= z0;
  z1 -= z2;
  BigUint r = z2;
  r <<= kLimbBits * m;
  r += z1;
  r <<= kLimbBits * m;
  r += z0;
  return r;
}

BigUint operator*(const BigUint& a, const BigUint& b) {
  if (std::min(a.limbs_.size(), b.limbs_.size()) >= BigUint::kKaratsubaThreshold) {
    return BigUint::mul_karatsuba(a, b);
  }
  return BigUint::mul_schoolbook(a, b);
}

void BigUint::divmod(const BigUint& a, const BigUint& b, BigUint& q, BigUint& r) {
  if (b.is_zero()) throw std::domain_error("BigUint division by zero");
  if (a < b) {
    r = a;
    q = BigUint{};
    return;
  }
  if (b.limbs_.size() == 1) {
    // Single-limb fast path.
    const Limb d = b.limbs_[0];
    BigUint quot;
    quot.limbs_.assign(a.limbs_.size(), 0);
    Limb rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      quot.limbs_[i] = div_2by1(rem, a.limbs_[i], d, rem);
    }
    quot.trim();
    q = std::move(quot);
    r = BigUint{rem};
    return;
  }

  // Knuth TAOCP vol. 2, Algorithm D. Normalize so the divisor's top bit is set.
  const unsigned shift = static_cast<unsigned>(std::countl_zero(b.limbs_.back()));
  BigUint u = a << shift;
  const BigUint v = b << shift;
  const std::size_t n = v.limbs_.size();
  u.limbs_.resize(std::max(u.limbs_.size(), a.limbs_.size() + (shift ? 1u : 0u)) + 1, 0);
  const std::size_t m = u.limbs_.size() - n - 1;

  BigUint quot;
  quot.limbs_.assign(m + 1, 0);
  const Limb vtop = v.limbs_[n - 1], vsec = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat from the top two dividend limbs against vtop. When the
    // top limb equals vtop the true quotient digit is base-1 (it cannot be
    // base or more after normalization).
    const Limb u2 = u.limbs_[j + n], u1 = u.limbs_[j + n - 1], u0 = u.limbs_[j + n - 2];
    Limb qhat, rhat;
    bool rhat_in_range;  // rhat < 2^64 (the correction loop stops beyond)
    if (u2 == vtop) {
      qhat = kLimbMax;
      rhat = u1 + vtop;
      rhat_in_range = rhat >= vtop;  // detects wraparound
    } else {
      qhat = div_2by1(u2, u1, vtop, rhat);
      rhat_in_range = true;
    }
    // Refine: decrement qhat while qhat * vsec overshoots (rhat, u0).
    while (rhat_in_range) {
      const LimbPair p = mul_wide(qhat, vsec);
      if (p.hi < rhat || (p.hi == rhat && p.lo <= u0)) break;
      --qhat;
      rhat += vtop;
      rhat_in_range = rhat >= vtop;
    }

    // Multiply-and-subtract qhat * v from u[j .. j+n].
    Limb borrow = 0, mul_carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Limb prod_lo = mac(0, qhat, v.limbs_[i], mul_carry);
      u.limbs_[j + i] = subb(u.limbs_[j + i], prod_lo, borrow);
    }
    u.limbs_[j + n] = subb(u.limbs_[j + n], mul_carry, borrow);
    if (borrow) {
      // qhat was one too large (rare): add v back and decrement qhat.
      --qhat;
      Limb c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u.limbs_[j + i] = addc(u.limbs_[j + i], v.limbs_[i], c);
      }
      u.limbs_[j + n] += c;  // cancels the borrow
    }
    quot.limbs_[j] = qhat;
  }

  quot.trim();
  u.limbs_.resize(n);
  u.trim();
  u >>= shift;
  q = std::move(quot);
  r = std::move(u);
}

std::uint64_t BigUint::mod_u64(std::uint64_t d) const {
  if (d == 0) throw std::domain_error("BigUint::mod_u64: division by zero");
  Limb rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    div_2by1(rem, limbs_[i], d, rem);
  }
  return rem;
}

BigUint BigUint::mul_mod(const BigUint& o, const BigUint& m) const {
  return (*this * o) % m;
}

BigUint BigUint::pow_mod(const BigUint& e, const BigUint& m) const {
  if (m.is_zero()) throw std::domain_error("BigUint::pow_mod: zero modulus");
  if (m.is_one()) return BigUint{};
  if (m.is_odd()) {
    const Montgomery ctx(m);
    return ctx.pow(*this % m, e);
  }
  // Generic square-and-multiply for even moduli (not used by Paillier, whose
  // moduli are odd, but kept for API completeness).
  BigUint base = *this % m;
  BigUint result{1};
  for (std::size_t i = 0, nbits = e.bit_length(); i < nbits; ++i) {
    if (e.bit(i)) result = result.mul_mod(base, m);
    base = base.mul_mod(base, m);
  }
  return result;
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint q, r;
    divmod(a, b, q, r);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUint BigUint::lcm(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint{};
  return (a / gcd(a, b)) * b;
}

BigUint BigUint::mod_inverse(const BigUint& a, const BigUint& m) {
  if (m.is_zero()) throw std::domain_error("BigUint::mod_inverse: zero modulus");
  // Iterative extended Euclid keeping only the coefficient of `a`. The
  // coefficient alternates in sign along the iteration, so we track its
  // magnitude and sign separately to stay within unsigned arithmetic.
  BigUint r0 = a % m, r1 = m;
  BigUint s0{1}, s1{0};
  bool neg0 = false, neg1 = false;
  while (!r1.is_zero()) {
    BigUint q, rem;
    divmod(r0, r1, q, rem);
    // s2 = s0 - q*s1
    BigUint qs1 = q * s1;
    BigUint s2;
    bool neg2;
    if (neg0 == neg1) {
      if (s0 >= qs1) { s2 = s0 - qs1; neg2 = neg0; }
      else { s2 = qs1 - s0; neg2 = !neg0; }
    } else {
      s2 = s0 + qs1;
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = std::move(rem);
    s0 = std::move(s1);
    neg0 = neg1;
    s1 = std::move(s2);
    neg1 = neg2;
  }
  if (!r0.is_one()) throw std::domain_error("BigUint::mod_inverse: not invertible");
  BigUint inv = s0 % m;
  if (neg0 && !inv.is_zero()) inv = m - inv;
  return inv;
}

}  // namespace dubhe::bigint
