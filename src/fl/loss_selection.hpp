#pragma once

#include <cstdint>

#include "core/selection.hpp"
#include "fl/trainer.hpp"

namespace dubhe::fl {

/// Power-of-choice client selection (Cho, Wang & Joshi 2020 — the loss-based
/// family the paper contrasts Dubhe against in §2.1/§3): sample a candidate
/// pool of d >= K clients uniformly, have each candidate evaluate the
/// current global model's loss on its own data, and keep the K
/// highest-loss candidates.
///
/// This is a *baseline*, implemented to quantify the paper's critique:
/// every round, d clients must run forward passes (extra client compute —
/// counted via loss_evaluations()) and reveal a loss value that correlates
/// with their data distribution (a privacy cost Dubhe avoids). The selector
/// reads the live global model from the trainer, so it only works inside a
/// training loop, unlike the distribution-only strategies.
class PowerOfChoiceSelector final : public core::SelectionStrategy {
 public:
  /// `trainer` must outlive the selector. candidate_pool is the paper's d;
  /// it is clamped to [K, N] at selection time.
  PowerOfChoiceSelector(FederatedTrainer* trainer, std::size_t candidate_pool,
                        std::size_t loss_samples = 64);

  std::vector<std::size_t> select(std::size_t K, stats::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "power-of-choice"; }

  /// Total client-side loss evaluations so far (the per-round burden).
  [[nodiscard]] std::uint64_t loss_evaluations() const { return evaluations_; }

 private:
  FederatedTrainer* trainer_;
  std::size_t d_;
  std::size_t loss_samples_;
  std::uint64_t evaluations_ = 0;
};

}  // namespace dubhe::fl
