#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/limb.hpp"

namespace dubhe::bigint {

/// Arbitrary-precision unsigned integer.
///
/// Storage is a little-endian vector of 64-bit limbs with the invariant that
/// the most significant limb is non-zero (zero is the empty vector). All
/// arithmetic goes through the double-width primitives in limb.hpp (native
/// 128-bit intermediates where the compiler has __int128, a portable 32-bit
/// synthesis otherwise); multiplication switches from schoolbook to Karatsuba
/// above `kKaratsubaThreshold` limbs and division is Knuth's Algorithm D.
/// This is the only integer type the Paillier layer builds on; it
/// deliberately has no dependency on GMP or any other library.
class BigUint {
 public:
  using Limb = bigint::Limb;
  static constexpr unsigned kLimbBits = bigint::kLimbBits;
  static constexpr std::size_t kKaratsubaThreshold = 24;  // limbs

  /// Zero.
  BigUint() = default;
  /// From a 64-bit value.
  BigUint(std::uint64_t v);  // NOLINT(google-explicit-constructor)

  /// Parses a hexadecimal string (no prefix, case-insensitive). Throws
  /// std::invalid_argument on empty or non-hex input.
  static BigUint from_hex(std::string_view s);
  /// Parses a decimal string. Throws std::invalid_argument on bad input.
  static BigUint from_dec(std::string_view s);
  /// Big-endian byte import (leading zero bytes allowed).
  static BigUint from_bytes_be(std::span<const std::uint8_t> bytes);
  /// Little-endian 64-bit word import (trailing zero words allowed).
  static BigUint from_limbs_le(std::span<const std::uint64_t> words);
  /// 2^k.
  static BigUint pow2(std::size_t k);

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  [[nodiscard]] bool is_one() const { return limbs_.size() == 1 && limbs_[0] == 1u; }
  /// Number of significant bits; 0 for zero.
  [[nodiscard]] std::size_t bit_length() const;
  /// Bit i (0 = least significant); false beyond bit_length().
  [[nodiscard]] bool bit(std::size_t i) const;
  /// Number of limbs in use.
  [[nodiscard]] std::size_t limb_count() const { return limbs_.size(); }
  /// Limb i, 0 beyond limb_count().
  [[nodiscard]] Limb limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0u;
  }
  /// Value as uint64, truncating to the low 64 bits.
  [[nodiscard]] std::uint64_t to_u64() const {
    return limbs_.empty() ? 0u : limbs_[0];
  }
  /// True if the value fits in 64 bits.
  [[nodiscard]] bool fits_u64() const { return limbs_.size() <= 1; }

  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] std::string to_dec() const;
  /// Big-endian byte export, minimal length (empty for zero) unless
  /// `pad_to` is larger, in which case the output is left-padded with zeros.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes_be(std::size_t pad_to = 0) const;

  std::strong_ordering operator<=>(const BigUint& o) const;
  bool operator==(const BigUint& o) const { return limbs_ == o.limbs_; }

  BigUint& operator+=(const BigUint& o);
  /// Subtraction; throws std::underflow_error if *this < o.
  BigUint& operator-=(const BigUint& o);
  BigUint& operator*=(const BigUint& o) { *this = *this * o; return *this; }
  BigUint& operator<<=(std::size_t bits);
  BigUint& operator>>=(std::size_t bits);

  friend BigUint operator+(BigUint a, const BigUint& b) { a += b; return a; }
  friend BigUint operator-(BigUint a, const BigUint& b) { a -= b; return a; }
  friend BigUint operator*(const BigUint& a, const BigUint& b);
  friend BigUint operator<<(BigUint a, std::size_t bits) { a <<= bits; return a; }
  friend BigUint operator>>(BigUint a, std::size_t bits) { a >>= bits; return a; }

  /// Quotient+remainder in one pass (Knuth Algorithm D). Throws
  /// std::domain_error on division by zero.
  static void divmod(const BigUint& a, const BigUint& b, BigUint& q, BigUint& r);
  friend BigUint operator/(const BigUint& a, const BigUint& b) {
    BigUint q, r; divmod(a, b, q, r); return q;
  }
  friend BigUint operator%(const BigUint& a, const BigUint& b) {
    BigUint q, r; divmod(a, b, q, r); return r;
  }

  /// Remainder modulo a machine word (single limb pass, no allocation).
  /// Throws std::domain_error on d == 0.
  [[nodiscard]] std::uint64_t mod_u64(std::uint64_t d) const;

  /// (this * o) % m.
  [[nodiscard]] BigUint mul_mod(const BigUint& o, const BigUint& m) const;
  /// this^e % m. Uses Montgomery exponentiation when m is odd, generic
  /// square-and-multiply otherwise. Throws std::domain_error if m == 0.
  [[nodiscard]] BigUint pow_mod(const BigUint& e, const BigUint& m) const;

  /// Greatest common divisor (Euclid).
  static BigUint gcd(BigUint a, BigUint b);
  /// Least common multiple; 0 if either argument is 0.
  static BigUint lcm(const BigUint& a, const BigUint& b);
  /// Modular inverse; throws std::domain_error if gcd(a, m) != 1 or m == 0.
  static BigUint mod_inverse(const BigUint& a, const BigUint& m);

 private:
  friend class Montgomery;
  void trim();
  static BigUint mul_schoolbook(const BigUint& a, const BigUint& b);
  static BigUint mul_karatsuba(const BigUint& a, const BigUint& b);
  /// Limbs [lo, hi) as a value (used by Karatsuba splitting).
  [[nodiscard]] BigUint slice_limbs(std::size_t lo, std::size_t hi) const;

  std::vector<Limb> limbs_;
};

}  // namespace dubhe::bigint
