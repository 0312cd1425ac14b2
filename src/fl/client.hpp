#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/federated.hpp"
#include "nn/sequential.hpp"

namespace dubhe::fl {

/// Local-training hyperparameters (paper §6.1.2: B = 8, E = 1 or 5,
/// Adam with lr = 1e-4, no weight decay).
struct TrainConfig {
  std::size_t batch_size = 8;
  std::size_t epochs = 1;
  double lr = 1e-4;
  bool use_adam = true;
  /// Paper §4.1: "each client frequently generates and updates the
  /// collection of data samples ... the actual dataset used for training at
  /// round t is D^{(t,k)}". With this flag each round trains on freshly
  /// generated instances drawn from the client's own label distribution
  /// (same counts, new feature draws), modeling clients that keep
  /// collecting data. Off by default (static local datasets).
  bool resample_each_round = false;
  /// FedProx proximal coefficient mu (paper §2.2 cites FedProx as the
  /// algorithm-level companion to Dubhe's system-level selection): adds
  /// mu/2 * ||w - w_global||^2 to the local objective, i.e. mu*(w - w_global)
  /// to every gradient. 0 disables the term (plain FedAvg local training).
  double prox_mu = 0.0;
};

/// One (virtual) client: a fixed list of sample keys plus the ability to
/// run local epochs from a given global model. Clients are stateless across
/// rounds — a fresh optimizer per round, as in the reference FedML setup —
/// so concurrent training of many clients shares nothing but the read-only
/// dataset.
class Client {
 public:
  Client(std::size_t id, std::vector<data::Sample> samples,
         const data::FederatedDataset* dataset);

  [[nodiscard]] std::size_t id() const { return id_; }
  /// The client's own label distribution — the only statistic Dubhe's
  /// registration consumes, and it never leaves the client unencrypted.
  [[nodiscard]] const stats::Distribution& label_distribution() const { return dist_; }

  /// Runs E epochs of mini-batch training starting from `global_weights` on
  /// a private replica of `prototype`; returns the updated flat weights.
  /// `seed` shuffles batches deterministically per (client, round).
  [[nodiscard]] std::vector<float> train(const nn::Sequential& prototype,
                                         std::span<const float> global_weights,
                                         const TrainConfig& cfg, std::uint64_t seed) const;

  /// Mean cross-entropy of the given global model over (up to max_samples
  /// of) this client's local data, without training. This is the extra
  /// client-side computation that loss-based selection schemes (Cho et al.,
  /// Goetz et al. — paper §2.1/§3) demand every round.
  [[nodiscard]] double local_loss(const nn::Sequential& prototype,
                                  std::span<const float> global_weights,
                                  std::size_t max_samples = 64) const;

 private:
  std::size_t id_;
  std::vector<data::Sample> samples_;
  const data::FederatedDataset* dataset_;
  stats::Distribution dist_;
};

}  // namespace dubhe::fl
