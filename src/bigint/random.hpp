#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "bigint/biguint.hpp"

namespace dubhe::bigint {

/// Source of random 64-bit words. The bigint/paillier layers are written
/// against this interface so experiments can run with a deterministic,
/// seedable generator while a deployment can plug in OS entropy.
class EntropySource {
 public:
  virtual ~EntropySource() = default;
  virtual std::uint64_t next_u64() = 0;
  /// An independent source that yields the words this one would yield
  /// next. Seeded generators copy their state, so advancing the clone leaves
  /// the original untouched; random_prime speculates on clones this way.
  [[nodiscard]] virtual std::unique_ptr<EntropySource> clone() const = 0;
};

/// SplitMix64 — tiny, fast generator used for seeding and tests.
class SplitMix64 final : public EntropySource {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next_u64() override;
  [[nodiscard]] std::unique_ptr<EntropySource> clone() const override;

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the default deterministic generator for experiments.
/// Seeded from a single 64-bit value through SplitMix64 per the authors'
/// recommendation, or directly from a full 256-bit state (the batch
/// Paillier APIs seed per-item streams this way so each item carries the
/// caller's full entropy, not a 64-bit bottleneck).
class Xoshiro256ss final : public EntropySource {
 public:
  explicit Xoshiro256ss(std::uint64_t seed);
  /// Adopts `state` verbatim; the (invalid) all-zero state falls back to
  /// SplitMix64 seeding from 0.
  explicit Xoshiro256ss(const std::array<std::uint64_t, 4>& state);
  std::uint64_t next_u64() override;
  [[nodiscard]] std::unique_ptr<EntropySource> clone() const override;

  /// Uniform double in [0, 1).
  double next_double();
  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Reads /dev/urandom. Throws std::runtime_error if unavailable.
class SystemEntropySource final : public EntropySource {
 public:
  std::uint64_t next_u64() override;
  /// A fresh reader: OS entropy is not reproducible, so the clone's words
  /// are independent of this source's, not a copy of them.
  [[nodiscard]] std::unique_ptr<EntropySource> clone() const override;
};

/// Derives an independent stream seed from a master seed (golden-ratio mix
/// through SplitMix64). stats::derive_seed forwards here, so the experiment
/// stack's per-client and per-stream seeds share one convention.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream);

/// Uniform integer in [0, 2^bits). Consumes ceil(bits / 64) generator words;
/// the first word drawn becomes the most significant limb (excess high bits
/// are dropped from it). This mapping is part of the reproducibility
/// contract: seeded experiment streams depend on it.
BigUint random_bits(EntropySource& rng, std::size_t bits);
/// Uniform integer with exactly `bits` significant bits (top bit forced).
BigUint random_exact_bits(EntropySource& rng, std::size_t bits);
/// Uniform integer in [0, n) by rejection sampling. Throws on n == 0.
BigUint random_below(EntropySource& rng, const BigUint& n);

}  // namespace dubhe::bigint
