#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/partition.hpp"
#include "data/synthetic.hpp"

namespace dubhe::data {

/// A training sample key: the generator rematerializes features and the
/// observed label from (label, instance) deterministically, so datasets are
/// cheap to hold even at N = 8962 clients.
struct Sample {
  std::size_t cls = 0;        // true class (drives feature generation)
  std::uint64_t instance = 0; // unique per class

  bool operator==(const Sample&) const = default;
};

/// A complete federated dataset: the label partition, per-client sample
/// lists, the synthetic feature generator, and a balanced test set (the
/// paper evaluates on a test set uniform across classes).
class FederatedDataset {
 public:
  FederatedDataset(DatasetSpec spec, PartitionConfig pcfg, std::size_t test_per_class = 64);

  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return gen_.num_classes(); }
  [[nodiscard]] std::size_t feature_dim() const { return gen_.feature_dim(); }
  [[nodiscard]] const SyntheticGenerator& generator() const { return gen_; }
  [[nodiscard]] const Partition& partition() const { return partition_; }

  [[nodiscard]] std::span<const Sample> client_samples(std::size_t k) const;
  /// Client k's label distribution (what the client itself can compute and
  /// what Dubhe's registration consumes).
  [[nodiscard]] const stats::Distribution& client_distribution(std::size_t k) const;
  [[nodiscard]] const std::vector<Sample>& test_samples() const { return test_; }

  /// Materializes a batch: X is batch x feature_dim row-major, y gets the
  /// observed labels. Spans must be exactly sized.
  void materialize(std::span<const Sample> batch, std::span<float> X,
                   std::span<std::size_t> y) const;

 private:
  SyntheticGenerator gen_;
  Partition partition_;
  std::vector<std::vector<Sample>> clients_;
  std::vector<Sample> test_;
};

}  // namespace dubhe::data
