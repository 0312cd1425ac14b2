#include "bigint/prime.hpp"

#include <stdexcept>
#include <vector>

#include "bigint/montgomery.hpp"

namespace dubhe::bigint {

namespace {

std::vector<std::uint32_t> sieve_up_to(std::uint32_t limit) {
  std::vector<bool> composite(limit + 1, false);
  std::vector<std::uint32_t> primes;
  for (std::uint32_t i = 2; i <= limit; ++i) {
    if (composite[i]) continue;
    primes.push_back(i);
    for (std::uint64_t j = static_cast<std::uint64_t>(i) * i; j <= limit; j += i) {
      composite[static_cast<std::size_t>(j)] = true;
    }
  }
  return primes;
}

}  // namespace

std::span<const std::uint32_t> small_primes() {
  static const std::vector<std::uint32_t> primes = sieve_up_to(8192);
  return primes;
}

bool is_probable_prime(const BigUint& n, EntropySource& rng, int rounds) {
  if (n < BigUint{2}) return false;
  // Trial division against the sieve via the single-word remainder fast
  // path — one limb pass per prime, no BigUint allocation. n can only
  // equal a sieve prime when it fits a single limb.
  const bool n_small = n.fits_u64();
  const std::uint64_t n64 = n.to_u64();
  for (const std::uint32_t p : small_primes()) {
    if (n_small && n64 == p) return true;
    if (n.mod_u64(p) == 0) return false;
  }
  // n is odd and > every small prime here. Write n - 1 = d * 2^r.
  const BigUint n_minus_1 = n - BigUint{1};
  BigUint d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d >>= 1;
    ++r;
  }
  const Montgomery ctx(n);
  const BigUint n_minus_3 = n - BigUint{3};
  // The follow-up squarings stay in Montgomery form, where -1 is N - (R mod N).
  const BigUint minus_one_mont = ctx.to_mont(n_minus_1);
  for (int round = 0; round < rounds; ++round) {
    const BigUint a = random_below(rng, n_minus_3) + BigUint{2};  // [2, n-2]
    const BigUint x = ctx.pow(a, d);
    if (x.is_one() || x == n_minus_1) continue;
    bool witness = true;
    BigUint xm = ctx.to_mont(x);
    for (std::size_t i = 0; i + 1 < r; ++i) {
      xm = ctx.sqr(xm);
      if (xm == minus_one_mont) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigUint random_prime(EntropySource& rng, std::size_t bits, int mr_rounds) {
  if (bits < 2) throw std::invalid_argument("random_prime: bits must be >= 2");
  for (;;) {
    BigUint candidate = random_exact_bits(rng, bits);
    if (!candidate.is_odd()) candidate += BigUint{1};
    if (candidate.bit_length() != bits) continue;  // the +1 overflowed
    if (is_probable_prime(candidate, rng, mr_rounds)) return candidate;
  }
}

}  // namespace dubhe::bigint
