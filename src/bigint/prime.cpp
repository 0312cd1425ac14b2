#include "bigint/prime.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bigint/montgomery.hpp"
#include "core/parallel.hpp"

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

std::vector<SmallPrimeGroup> group_primes(std::span<const std::uint32_t> primes) {
  std::vector<SmallPrimeGroup> groups;
  for (std::size_t i = 0; i < primes.size();) {
    SmallPrimeGroup g{1, i, 0};
    // product * p <= UINT64_MAX, checked without a double-width product.
    while (i < primes.size() &&
           g.product <= std::numeric_limits<std::uint64_t>::max() / primes[i]) {
      g.product *= primes[i++];
      ++g.count;
    }
    groups.push_back(g);
  }
  return groups;
}

/// The base a Miller–Rabin round on n draws: uniform in [2, n-2].
BigUint draw_base(EntropySource& rng, const BigUint& n) {
  return random_below(rng, n - BigUint{3}) + BigUint{2};
}

/// Miller–Rabin rounds on one odd n > 3: n - 1 = d * 2^r and the Montgomery
/// context every round shares. A round only reads it, so several bases of
/// one n can be tested concurrently.
class MillerRabin {
 public:
  explicit MillerRabin(const BigUint& n)
      : n_minus_1_(n - BigUint{1}), ctx_(n), minus_one_mont_(ctx_.to_mont(n_minus_1_)),
        d_(n_minus_1_) {
    while (!d_.is_odd()) {
      d_ >>= 1;
      ++r_;
    }
  }

  /// False when `a` is a witness that n is composite.
  [[nodiscard]] bool passes(const BigUint& a) const {
    const BigUint x = ctx_.pow(a, d_);
    if (x.is_one() || x == n_minus_1_) return true;
    // The follow-up squarings stay in Montgomery form, where -1 is
    // N - (R mod N).
    BigUint xm = ctx_.to_mont(x);
    for (std::size_t i = 0; i + 1 < r_; ++i) {
      xm = ctx_.sqr(xm);
      if (xm == minus_one_mont_) return true;
    }
    return false;
  }

 private:
  BigUint n_minus_1_;
  Montgomery ctx_;
  BigUint minus_one_mont_;
  BigUint d_;
  std::size_t r_ = 0;
};

/// A clone of a generator that counts the words it yields, so a draw made
/// on it can be replayed on the original by count alone.
class CountingSource final : public EntropySource {
 public:
  /// Clones `origin` and skips the clone past its next `words` words.
  CountingSource(const EntropySource& origin, std::uint64_t words) : src_(origin.clone()) {
    while (words_ < words) next_u64();
  }
  std::uint64_t next_u64() override {
    ++words_;
    return src_->next_u64();
  }
  /// The count is not part of the stream, so the clone is the inner one's.
  [[nodiscard]] std::unique_ptr<EntropySource> clone() const override {
    return src_->clone();
  }
  [[nodiscard]] std::uint64_t words() const { return words_; }

 private:
  std::unique_ptr<EntropySource> src_;
  std::uint64_t words_ = 0;
};

/// A candidate that survived trial division, in the speculative batch.
struct Speculated {
  explicit Speculated(BigUint value) : n(std::move(value)) {}
  BigUint n;
  /// The base round 1 draws; empty when no round runs (n is a sieve prime,
  /// or mr_rounds <= 0), so n passes.
  std::optional<BigUint> base;
  std::uint64_t words = 0;  ///< stream position just after n and `base`
  std::optional<MillerRabin> mr;
  bool passes = true;  ///< round 1's verdict
};

}  // namespace

std::span<const std::uint32_t> small_primes() {
  static const std::vector<std::uint32_t> primes = sieve_up_to(8192);
  return primes;
}

std::span<const SmallPrimeGroup> small_prime_groups() {
  static const std::vector<SmallPrimeGroup> groups = group_primes(small_primes());
  return groups;
}

TrialDivision trial_divide(const BigUint& n) {
  const auto primes = small_primes();
  // Only n <= 8191 can be a sieve prime, and a composite n that small has a
  // prime factor <= sqrt(8191), which is in the sieve.
  if (n.fits_u64() && n.to_u64() <= primes.back()) {
    return std::binary_search(primes.begin(), primes.end(), n.to_u64())
               ? TrialDivision::kSmallPrime
               : TrialDivision::kComposite;
  }
  for (const SmallPrimeGroup& g : small_prime_groups()) {
    const std::uint64_t rem = n.mod_u64(g.product);
    for (std::size_t i = g.first; i < g.first + g.count; ++i) {
      if (rem % primes[i] == 0) return TrialDivision::kComposite;
    }
  }
  return TrialDivision::kNoSmallFactor;
}

bool is_probable_prime(const BigUint& n, EntropySource& rng, int rounds) {
  if (n < BigUint{2}) return false;
  const TrialDivision td = trial_divide(n);
  if (td != TrialDivision::kNoSmallFactor) return td == TrialDivision::kSmallPrime;
  const MillerRabin mr(n);
  for (int round = 0; round < rounds; ++round) {
    if (!mr.passes(draw_base(rng, n))) return false;
  }
  return true;
}

BigUint random_prime(EntropySource& rng, std::size_t bits, int mr_rounds) {
  if (bits < 2) throw std::invalid_argument("random_prime: bits must be >= 2");
  // The serial search draws a candidate, trial-divides it, then draws one
  // base per round until a witness. This one replays that stream on a
  // counting clone of rng: it speculates that every candidate fails round 1
  // (composites almost always do), tests one batch of round 1s in parallel,
  // and re-reads the stream by word count wherever the guess was wrong. The
  // batch width changes only the speed: two candidates per hand (workers +
  // caller) halve the pool round trips, whose wake-up latency grows on a
  // busy host, for about one wasted round-1 test per prime.
  const std::size_t width = 2 * (core::ParallelRuntime::instance().worker_count() + 1);
  const auto commit = [&rng](BigUint p, std::uint64_t words) {
    for (std::uint64_t w = 0; w < words; ++w) rng.next_u64();
    return p;
  };
  CountingSource stream(rng, 0);
  std::vector<Speculated> batch;
  batch.reserve(width);
  for (;;) {
    batch.clear();
    while (batch.size() < width) {
      BigUint candidate = random_exact_bits(stream, bits);
      if (!candidate.is_odd()) candidate += BigUint{1};
      if (candidate.bit_length() != bits) continue;  // the +1 overflowed
      const TrialDivision td = trial_divide(candidate);
      if (td == TrialDivision::kComposite) continue;
      Speculated& c = batch.emplace_back(std::move(candidate));
      if (td == TrialDivision::kNoSmallFactor && mr_rounds > 0) c.base = draw_base(stream, c.n);
      c.words = stream.words();
    }
    core::parallel_for(batch.size(), 0, [&batch](std::size_t i) {
      Speculated& c = batch[i];
      if (!c.base) return;
      c.mr.emplace(c.n);
      c.passes = c.mr->passes(*c.base);
    });
    const auto first = std::find_if(batch.begin(), batch.end(),
                                    [](const Speculated& c) { return c.passes; });
    // No pass: the speculative draws were the serial draws; keep going.
    if (first == batch.end()) continue;

    // Rounds 2..mr_rounds draw their bases right after round 1's; test them
    // all at once and let the first witness decide.
    CountingSource rest(rng, first->words);
    std::vector<BigUint> bases;
    std::vector<std::uint64_t> words_after;
    for (int round = 1; first->base && round < mr_rounds; ++round) {
      bases.push_back(draw_base(rest, first->n));
      words_after.push_back(rest.words());
    }
    std::vector<char> passes(bases.size());
    core::parallel_for(bases.size(), 0, [&](std::size_t j) {
      passes[j] = first->mr->passes(bases[j]) ? 1 : 0;
    });
    const auto witness = std::find(passes.begin(), passes.end(), 0);
    if (witness == passes.end()) return commit(std::move(first->n), rest.words());
    // Composite after all: the serial search goes on after the witness.
    stream = CountingSource(rng, words_after[static_cast<std::size_t>(witness - passes.begin())]);
  }
}

}  // namespace dubhe::bigint
