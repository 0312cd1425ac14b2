#include "data/federated.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dubhe::data {
namespace {

PartitionConfig small_config() {
  PartitionConfig cfg;
  cfg.num_classes = 10;
  cfg.num_clients = 40;
  cfg.samples_per_client = 64;
  cfg.rho = 5;
  cfg.emd_avg = 1.0;
  cfg.seed = 7;
  return cfg;
}

TEST(FederatedDataset, RejectsSpecPartitionMismatch) {
  PartitionConfig cfg = small_config();
  cfg.num_classes = 52;  // femnist partition with a 10-class spec
  EXPECT_THROW(FederatedDataset(mnist_like(), cfg), std::invalid_argument);
}

TEST(FederatedDataset, ClientSamplesMatchPartitionCounts) {
  const FederatedDataset ds(mnist_like(), small_config());
  for (std::size_t k = 0; k < ds.num_clients(); ++k) {
    const auto samples = ds.client_samples(k);
    std::vector<std::size_t> counts(ds.num_classes(), 0);
    for (const Sample& s : samples) ++counts[s.cls];
    EXPECT_EQ(counts, ds.partition().client_counts[k]) << k;
  }
  EXPECT_THROW((void)ds.client_samples(1000), std::out_of_range);
}

TEST(FederatedDataset, TrainingInstancesAreGloballyUnique) {
  const FederatedDataset ds(mnist_like(), small_config());
  std::set<std::pair<std::size_t, std::uint64_t>> seen;
  for (std::size_t k = 0; k < ds.num_clients(); ++k) {
    for (const Sample& s : ds.client_samples(k)) {
      EXPECT_TRUE(seen.emplace(s.cls, s.instance).second)
          << "duplicate sample " << s.cls << "/" << s.instance;
    }
  }
}

TEST(FederatedDataset, TestSetIsBalancedAndDisjointFromTraining) {
  const FederatedDataset ds(mnist_like(), small_config(), /*test_per_class=*/32);
  std::vector<std::size_t> counts(ds.num_classes(), 0);
  for (const Sample& s : ds.test_samples()) {
    ++counts[s.cls];
    EXPECT_GE(s.instance, std::uint64_t{1} << 60);  // disjoint id range
  }
  for (const std::size_t c : counts) EXPECT_EQ(c, 32u);
}

TEST(FederatedDataset, MaterializeShapesAndLabels) {
  const FederatedDataset ds(mnist_like(), small_config());
  const auto samples = ds.client_samples(0);
  const std::size_t B = 8, F = ds.feature_dim();
  std::vector<float> X(B * F);
  std::vector<std::size_t> y(B);
  ds.materialize({samples.data(), B}, X, y);
  for (std::size_t i = 0; i < B; ++i) {
    EXPECT_EQ(y[i], samples[i].cls);  // mnist-like has zero label noise
    // Features must match a direct generator call.
    std::vector<float> direct(F);
    ds.generator().features_into(samples[i].cls, samples[i].instance, direct);
    for (std::size_t f = 0; f < F; ++f) EXPECT_EQ(X[i * F + f], direct[f]);
  }
  std::vector<float> bad(B * F - 1);
  EXPECT_THROW(ds.materialize({samples.data(), B}, bad, y), std::invalid_argument);
}

TEST(FederatedDataset, ClientDistributionAccessor) {
  const FederatedDataset ds(mnist_like(), small_config());
  for (std::size_t k = 0; k < ds.num_clients(); ++k) {
    EXPECT_EQ(ds.client_distribution(k), ds.partition().client_dists[k]);
  }
  EXPECT_THROW((void)ds.client_distribution(999), std::out_of_range);
}

}  // namespace
}  // namespace dubhe::data
