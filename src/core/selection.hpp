#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/registration.hpp"
#include "core/registry.hpp"
#include "stats/distribution.hpp"
#include "stats/rng.hpp"

namespace dubhe::core {

/// A client-selection strategy: given the round's target participation K,
/// produce the set of participating client indices. Implementations are the
/// paper's three contenders — random (baseline), greedy (Astraea-style
/// optimal bound, requires plaintext knowledge of every client's data
/// distribution) and Dubhe.
class SelectionStrategy {
 public:
  virtual ~SelectionStrategy() = default;
  /// K distinct client indices. Throws std::invalid_argument if K exceeds
  /// the population.
  [[nodiscard]] virtual std::vector<std::size_t> select(std::size_t K, stats::Rng& rng) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Uniform K-of-N without replacement.
class RandomSelector final : public SelectionStrategy {
 public:
  explicit RandomSelector(std::size_t num_clients);
  std::vector<std::size_t> select(std::size_t K, stats::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  std::size_t n_;
};

/// Astraea-style greedy balancing (paper §6.1): pick the first client
/// uniformly, then repeatedly add the client whose inclusion minimizes
/// KL(selected-aggregate || uniform). O(N K C) per round, and — the point
/// Dubhe makes — it needs every client's plaintext label distribution on
/// the server.
class GreedySelector final : public SelectionStrategy {
 public:
  explicit GreedySelector(std::vector<stats::Distribution> client_dists);
  std::vector<std::size_t> select(std::size_t K, stats::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "greedy"; }

 private:
  std::vector<stats::Distribution> dists_;
};

/// Eq. 6 evaluated from the decrypted overall registry alone: the form a
/// *client* computes after decrypting the registry broadcast — it needs only
/// R_A, its own category index, and the round's K, nothing server-side.
/// DubheSelector::probability is this call, so client-drawn and
/// server-drawn executions agree on every threshold.
[[nodiscard]] double proactive_probability(std::span<const std::uint64_t> overall_registry,
                                           std::size_t category_index, std::size_t K);

/// The server half of §5.2 when the Bernoulli draws happened client-side
/// (the faithful deployment): replenish uniformly from the decliners, or
/// trim by uniform shuffle, to exactly K. `joined[k] != 0` means client k
/// proactively drew participation. Consumes `rng` exactly as
/// DubheSelector::select does after its draw loop, so the plaintext and
/// client-drawn paths share one replenish stream.
[[nodiscard]] std::vector<std::size_t> resolve_participation(
    std::span<const std::uint8_t> joined, std::size_t K, stats::Rng& rng);

/// Dubhe's proactive probabilistic selection (paper §5.2). This class is the
/// *plaintext* fast path: it consumes registry category counts directly and
/// is bit-identical to the secure flow (additive HE is exact), so the large
/// parameter sweeps use it. The secure path lives in core/secure.hpp and
/// produces the same overall registry via Paillier aggregation.
class DubheSelector final : public SelectionStrategy {
 public:
  /// `codec` must outlive the selector. `sigma` has one threshold per
  /// element of G.
  DubheSelector(const RegistryCodec* codec, std::vector<double> sigma);

  /// Runs Algorithm 1 for every client and accumulates the overall registry
  /// R_A. Call once per (re-)registration epoch.
  void register_clients(std::span<const stats::Distribution> dists);
  /// Installs an externally aggregated overall registry (the secure path's
  /// result) together with this client population's own registrations.
  void load_overall_registry(std::vector<std::uint64_t> overall,
                             std::vector<Registration> regs);

  /// Eq. 6: P^{(t,k)} = min(1, K / (R_A(u_k) * ||R_A||_0)).
  [[nodiscard]] double probability(std::size_t client, std::size_t K) const;
  /// Proactive Bernoulli participation followed by the server's uniform
  /// replenish/remove to exactly K (paper §5.2).
  std::vector<std::size_t> select(std::size_t K, stats::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "dubhe"; }

  [[nodiscard]] const std::vector<std::uint64_t>& overall_registry() const {
    return overall_;
  }
  [[nodiscard]] const std::vector<Registration>& registrations() const { return regs_; }
  [[nodiscard]] std::size_t nonzero_categories() const { return nnz_; }

 private:
  const RegistryCodec* codec_;
  std::vector<double> sigma_;
  std::vector<Registration> regs_;
  std::vector<std::uint64_t> overall_;
  std::size_t nnz_ = 0;
};

}  // namespace dubhe::core
