#pragma once

// Reference modular exponentiation and Montgomery row-tier scoping shared
// by the bigint test suites.

#include <cstdint>
#include <ostream>

#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "core/cpu.hpp"

namespace dubhe::bigint {

/// base^exp mod m by windowless square-and-multiply over plain `mul_mod`
/// (long division, no Montgomery form): independent of Montgomery::pow.
inline BigUint windowless_pow(const BigUint& base, const BigUint& exp, const BigUint& m) {
  BigUint result = BigUint{1} % m;
  BigUint b = base % m;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = result.mul_mod(b, m);
    b = b.mul_mod(b, m);
  }
  return result;
}

/// Switches core::cpu to one Montgomery row tier for its lifetime: BMI2 and
/// ADX are enabled for kAdx (when detected) and masked for kPortable.
/// Contexts built inside the scope run that tier; the previous enabled set
/// comes back on destruction. available() is false when this build or host
/// cannot run the tier.
class ScopedRowTier {
 public:
  explicit ScopedRowTier(RowTier tier) {
    constexpr std::uint32_t kRowBits = core::cpu::kBmi2 | core::cpu::kAdx;
    const std::uint32_t now = core::cpu::enabled();
    prev_ = core::cpu::set_enabled(tier == RowTier::kAdx ? now | kRowBits : now & ~kRowBits);
    available_ = select_row_tier() == tier;
  }
  ~ScopedRowTier() { core::cpu::set_enabled(prev_); }
  ScopedRowTier(const ScopedRowTier&) = delete;
  ScopedRowTier& operator=(const ScopedRowTier&) = delete;

  [[nodiscard]] bool available() const { return available_; }

 private:
  std::uint32_t prev_ = 0;
  bool available_ = false;
};

/// gtest value printer, so parameterized failures name the tier.
inline void PrintTo(RowTier tier, std::ostream* os) { *os << to_string(tier); }

}  // namespace dubhe::bigint
