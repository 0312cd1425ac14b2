#pragma once

// Reference modular exponentiation shared by the bigint test suites.

#include "bigint/biguint.hpp"

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

}  // namespace dubhe::bigint
