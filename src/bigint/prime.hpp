#pragma once

#include <cstdint>
#include <span>

#include "bigint/biguint.hpp"
#include "bigint/random.hpp"

namespace dubhe::bigint {

/// The 1,028 primes <= 8,192 (2, 3, 5, ..., 8191), ascending: the trial
/// division sieve.
std::span<const std::uint32_t> small_primes();

/// A run of consecutive small_primes() whose product fits one word.
struct SmallPrimeGroup {
  std::uint64_t product;
  std::size_t first;  ///< index of the run's first prime in small_primes()
  std::size_t count;
};

/// small_primes() split greedily, in order, into the longest runs whose
/// product fits one word (199 groups). Trial division makes one multi-limb
/// remainder pass per group instead of one per prime.
std::span<const SmallPrimeGroup> small_prime_groups();

/// Outcome of trial division by small_primes().
enum class TrialDivision {
  kSmallPrime,     ///< n is itself one of small_primes()
  kComposite,      ///< one of small_primes() divides n (and n is not it)
  kNoSmallFactor,  ///< none of small_primes() divides n
};

/// Trial division of n >= 2 by small_primes(), one BigUint::mod_u64 pass per
/// small_prime_groups() entry and then one word remainder per prime.
TrialDivision trial_divide(const BigUint& n);

/// Miller–Rabin probabilistic primality test: trial division, then
/// `rounds` rounds, each drawing one uniform base in [2, n-2] from `rng`
/// and stopping at the first witness. The error probability for a
/// composite n is <= 4^-rounds.
bool is_probable_prime(const BigUint& n, EntropySource& rng, int rounds = 24);

/// Uniform random probable prime with exactly `bits` significant bits: the
/// first candidate, in the order `rng` yields them, that passes
/// is_probable_prime(candidate, rng, mr_rounds). Candidates are drawn with
/// random_exact_bits and made odd; a candidate the +1 pushes past `bits` is
/// dropped. The Miller–Rabin exponentiations run on the shared
/// core::ParallelRuntime, speculating on clones of `rng`; the result and the
/// words taken from `rng` are those of the serial search, so the prime and
/// the generator's state afterwards are the same for any pool size, and
/// also when called inside a pool task. Throws std::invalid_argument for
/// bits < 2.
BigUint random_prime(EntropySource& rng, std::size_t bits, int mr_rounds = 24);

}  // namespace dubhe::bigint
