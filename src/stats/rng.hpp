#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bigint/random.hpp"

namespace dubhe::stats {

/// Deterministic RNG for the simulation layers: thin convenience facade over
/// the bigint layer's xoshiro256** with the floating-point / sampling
/// utilities the data generators and selection strategies need. Streams for
/// independent components should use distinct seeds (see `derive_seed`).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}

  std::uint64_t next_u64() { return gen_.next_u64(); }
  /// Uniform double in [0, 1).
  double uniform() { return gen_.next_double(); }
  /// Uniform integer in [0, bound); bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return gen_.next_below(bound); }
  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) { return uniform() < p; }
  /// Standard normal via Box–Muller (one value per call; no caching so the
  /// stream is position-independent).
  double normal();

  /// Index sampled from unnormalized non-negative weights. Throws
  /// std::invalid_argument if all weights are zero or the span is empty.
  std::size_t categorical(std::span<const double> weights);
  /// k distinct indices sampled without replacement, proportional to
  /// weights. k must be <= number of strictly positive weights.
  std::vector<std::size_t> sample_without_replacement(std::span<const double> weights,
                                                      std::size_t k);
  /// Uniformly selects k distinct values from [0, n). k <= n required.
  std::vector<std::size_t> choose_k_of_n(std::size_t k, std::size_t n);
  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
    }
  }

  /// Exposes the underlying entropy source (e.g. to feed Paillier keygen).
  bigint::EntropySource& entropy() { return gen_; }

 private:
  bigint::Xoshiro256ss gen_;
};

/// Splits one master seed into independent per-component seeds.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream);

}  // namespace dubhe::stats
