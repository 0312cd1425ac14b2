#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/biguint.hpp"

namespace dubhe::bigint {

/// Tiers of the Montgomery row primitive `addmul_1`. Both produce the same
/// limbs; they differ only in how the carry chain is scheduled.
enum class RowTier : std::uint8_t {
  kPortable,  ///< the C `mac` loop: any host, any compiler, DUBHE_NO_INT128
  kAdx,       ///< x86-64 mulx + adcx/adox: two independent carry chains
};

/// The row primitive under both Montgomery kernels: t[0..n) += a[0..n) * b,
/// returning the carry limb (the product's limb n). `tier` must be
/// available (see select_row_tier); n may be zero.
BigUint::Limb addmul_1(BigUint::Limb* t, const BigUint::Limb* a, std::size_t n,
                       BigUint::Limb b, RowTier tier);

/// The fastest tier this binary and the current core::cpu::enabled() set
/// allow: kAdx when it is compiled in (x86-64, GCC/Clang, 128-bit
/// intermediates) and BMI2 + ADX are enabled, otherwise kPortable.
[[nodiscard]] RowTier select_row_tier();

/// "portable" or "adx" — what benches print in their headers.
[[nodiscard]] const char* to_string(RowTier tier);

/// Montgomery multiplication context for a fixed odd modulus.
///
/// Implements the CIOS (coarsely integrated operand scanning) method with
/// 64-bit limbs. A context precomputes `R^2 mod N` (for R = 2^(64 s)) and
/// `-N^{-1} mod 2^64` once, after which modular multiplications cost one
/// pass over the operand limbs with no long division. Both the CIOS and the
/// squaring kernel are sequences of `addmul_1` rows; the context resolves
/// the row tier once, at construction, through core::cpu. A reduced
/// Montgomery product is the unique value in [0, N), so every tier returns
/// the same integers. Squarings form each off-diagonal product once (~3/4
/// of the CIOS limb multiplies). `pow` slides a 5-bit window over the
/// exponent against a table of odd powers, squaring through that kernel,
/// with every buffer allocated before the hot loop — the loop performs no
/// heap allocation.
class Montgomery {
 public:
  /// Throws std::invalid_argument if `modulus` is even or zero.
  explicit Montgomery(const BigUint& modulus);

  [[nodiscard]] const BigUint& modulus() const { return n_; }
  /// Row tier chosen at construction (select_row_tier() at that moment).
  [[nodiscard]] RowTier row_tier() const { return tier_; }

  /// x * R mod N (into Montgomery form). x must be < N.
  [[nodiscard]] BigUint to_mont(const BigUint& x) const;
  /// x * R^{-1} mod N (out of Montgomery form).
  [[nodiscard]] BigUint from_mont(const BigUint& x) const;
  /// Montgomery product: a * b * R^{-1} mod N, operands in Montgomery form.
  [[nodiscard]] BigUint mul(const BigUint& a, const BigUint& b) const;
  /// Montgomery square: a * a * R^{-1} mod N, operand in Montgomery form.
  /// Same value as mul(a, a), through the squaring kernel.
  [[nodiscard]] BigUint sqr(const BigUint& a) const;
  /// base^exp mod N for plain (non-Montgomery) base, result plain.
  [[nodiscard]] BigUint pow(const BigUint& base, const BigUint& exp) const;

 private:
  using Limb = BigUint::Limb;

  /// Raw CIOS kernel over limb vectors of length s_ (inputs zero-padded,
  /// < N). `out` (length s_) must not alias `a` or `b`; `t` is
  /// caller-provided scratch of at least scratch_limbs() limbs so the pow
  /// loop can reuse one buffer.
  void cios(const Limb* a, const Limb* b, Limb* out, Limb* t) const;
  /// Raw squaring kernel: out = a * a * R^{-1} mod N, limb-identical to
  /// cios(a, a, out, t). `a` (length s_, < N) must not alias `out`; `t` is
  /// scratch of at least scratch_limbs() limbs (the 2 s_-limb square plus
  /// the carry limb of the reduction).
  void sqr(const Limb* a, Limb* out, Limb* t) const;
  /// Scratch length that serves both cios and sqr.
  [[nodiscard]] std::size_t scratch_limbs() const { return 2 * s_ + 1; }
  /// Final step shared by both kernels: the s_ + 1 limbs at `t` hold a
  /// value < 2N; write it reduced below N to `out` (length s_).
  void reduce_final(const Limb* t, Limb* out) const;
  [[nodiscard]] std::vector<Limb> padded(const BigUint& x) const;
  [[nodiscard]] static BigUint from_limbs(std::vector<Limb> v);
  /// x into Montgomery form, written to `out` (length s_); `t` is cios
  /// scratch of scratch_limbs() limbs.
  void to_mont_limbs(const BigUint& x, Limb* out, Limb* t) const;
  /// Montgomery-form `acc` (length s_) out of Montgomery form, clobbering
  /// `tmp` (length s_); `t` is cios scratch.
  [[nodiscard]] BigUint from_mont_limbs(const std::vector<Limb>& acc,
                                        std::vector<Limb>& tmp,
                                        std::vector<Limb>& t) const;

  BigUint n_;
  std::vector<Limb> n_limbs_;  // modulus, padded to s_
  std::size_t s_ = 0;          // limb count of the modulus
  Limb n0inv_ = 0;             // -N^{-1} mod 2^64
  BigUint rr_;                 // R^2 mod N
  RowTier tier_ = RowTier::kPortable;
};

}  // namespace dubhe::bigint
