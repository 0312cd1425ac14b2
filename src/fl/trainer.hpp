#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fl/channel.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"

namespace dubhe::fl {

/// Per-round outcome of the training loop.
struct RoundResult {
  double test_accuracy = 0;
  /// Population distribution p_o — the label distribution of the data that
  /// actually participated this round.
  stats::Distribution population;
  /// || p_o - p_u ||_1, the quantity Dubhe minimizes (paper Eq. 3).
  double population_l1_to_uniform = 0;
};

/// Glue that runs FL rounds: materializes one Client per dataset client,
/// trains the selected subset concurrently on the shared
/// core::ParallelRuntime pool (the paper runs participants as parallel
/// processes), aggregates with equal weights, and accounts the model
/// traffic on the channel.
class FederatedTrainer {
 public:
  FederatedTrainer(const data::FederatedDataset& dataset, nn::Sequential prototype,
                   TrainConfig cfg, ChannelAccountant* channel = nullptr);

  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }
  [[nodiscard]] const Client& client(std::size_t k) const { return clients_.at(k); }
  [[nodiscard]] Server& server() { return server_; }

  /// Trains one round over `selected` (client indices; duplicates allowed —
  /// a replenished client can be drawn twice only if the caller permits it).
  /// `evaluate` toggles the (comparatively expensive) test-set pass.
  RoundResult run_round(std::span<const std::size_t> selected, std::uint64_t round_seed,
                        bool evaluate = true);

 private:
  const data::FederatedDataset& dataset_;
  TrainConfig cfg_;
  Server server_;
  std::vector<Client> clients_;
  ChannelAccountant* channel_;
};

}  // namespace dubhe::fl
