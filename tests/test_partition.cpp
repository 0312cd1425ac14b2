#include "data/partition.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace dubhe::data {
namespace {

// An all-zero residual makes round_counts_feedback the plain
// largest-remainder split.
std::vector<std::size_t> round_once(const stats::Distribution& p, std::size_t total) {
  std::vector<double> residual(p.size(), 0.0);
  return round_counts_feedback(p, total, residual);
}

TEST(RoundCounts, SumsExactlyToTotal) {
  const stats::Distribution p{0.33, 0.33, 0.34};
  const auto counts = round_once(p, 100);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}), 100u);
  EXPECT_EQ(counts[0], 33u);
  EXPECT_EQ(counts[1], 33u);
  EXPECT_EQ(counts[2], 34u);
}

TEST(RoundCounts, HandlesSpikyDistributions) {
  stats::Distribution p(10, 0.0);
  p[3] = 1.0;
  const auto counts = round_once(p, 128);
  EXPECT_EQ(counts[3], 128u);
}

TEST(RoundCounts, ZeroDistributionStillSumsToTotal) {
  const stats::Distribution p(4, 0.0);
  const auto counts = round_once(p, 7);
  std::size_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, 7u);
}

TEST(RoundCountsFeedback, ConservesMassAcrossSequence) {
  // Rounding the same slightly-fractional distribution many times must keep
  // the global aggregate on target (this is the minority-class-starvation
  // regression the error feedback exists for).
  const stats::Distribution p{0.905, 0.055, 0.04};  // 128*0.04 = 5.12
  std::vector<double> residual(3, 0.0);
  std::vector<std::size_t> totals(3, 0);
  const std::size_t clients = 500, n = 128;
  for (std::size_t k = 0; k < clients; ++k) {
    const auto counts = round_counts_feedback(p, n, residual);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}), n);
    for (std::size_t c = 0; c < 3; ++c) totals[c] += counts[c];
  }
  const double total = static_cast<double>(clients * n);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(static_cast<double>(totals[c]) / total, p[c], 1e-3) << c;
  }
}

TEST(RoundCountsFeedback, ResidualSizeMismatchThrows) {
  std::vector<double> residual(2, 0.0);
  EXPECT_THROW(round_counts_feedback(stats::Distribution{1, 0, 0}, 10, residual),
               std::invalid_argument);
}

TEST(MakePartition, RejectsBadConfigs) {
  PartitionConfig cfg;
  cfg.emd_avg = 2.0;
  EXPECT_THROW(make_partition(cfg), std::invalid_argument);
  cfg.emd_avg = -0.1;
  EXPECT_THROW(make_partition(cfg), std::invalid_argument);
  cfg = PartitionConfig{};
  cfg.num_clients = 0;
  EXPECT_THROW(make_partition(cfg), std::invalid_argument);
  cfg = PartitionConfig{};
  cfg.rho = 0.5;
  EXPECT_THROW(make_partition(cfg), std::invalid_argument);
}

TEST(MakePartition, ShapesAndSampleCounts) {
  PartitionConfig cfg;
  cfg.num_classes = 10;
  cfg.num_clients = 50;
  cfg.samples_per_client = 64;
  cfg.rho = 5;
  cfg.emd_avg = 1.0;
  const Partition part = make_partition(cfg);
  EXPECT_EQ(part.num_clients(), 50u);
  EXPECT_EQ(part.num_classes(), 10u);
  for (const auto& row : part.client_counts) {
    EXPECT_EQ(std::accumulate(row.begin(), row.end(), std::size_t{0}), 64u);
  }
}

TEST(MakePartition, Deterministic) {
  PartitionConfig cfg;
  cfg.num_clients = 30;
  cfg.rho = 4;
  cfg.emd_avg = 1.2;
  cfg.seed = 99;
  const Partition a = make_partition(cfg);
  const Partition b = make_partition(cfg);
  EXPECT_EQ(a.client_counts, b.client_counts);
  cfg.seed = 100;
  const Partition c = make_partition(cfg);
  EXPECT_NE(a.client_counts, c.client_counts);
}

TEST(MakePartition, IidWhenEmdZero) {
  PartitionConfig cfg;
  cfg.num_clients = 100;
  cfg.samples_per_client = 1000;  // large so quantization noise is tiny
  cfg.rho = 3;
  cfg.emd_avg = 0.0;
  const Partition part = make_partition(cfg);
  EXPECT_LT(part.realized_emd_avg, 0.02);
}

class PartitionTargets
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PartitionTargets, RealizesRhoAndEmd) {
  const auto [rho, emd] = GetParam();
  PartitionConfig cfg;
  cfg.num_classes = 10;
  cfg.num_clients = 1000;
  cfg.samples_per_client = 128;
  cfg.rho = rho;
  cfg.emd_avg = emd;
  cfg.seed = 17;
  const Partition part = make_partition(cfg);
  EXPECT_NEAR(part.realized_emd_avg, emd, 0.05) << "emd target";
  const double realized_rho = stats::imbalance_ratio(part.global_realized);
  EXPECT_NEAR(realized_rho, rho, rho * 0.1 + 0.05) << "rho target";
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, PartitionTargets,
                         ::testing::Combine(::testing::Values(1.0, 2.0, 5.0, 10.0),
                                            ::testing::Values(0.0, 0.5, 1.0, 1.5)));

TEST(MakePartition, FemnistScaleConfiguration) {
  // Table 1's second row: C = 52, N = 8962, rho = 13.64, EMD = 0.554.
  PartitionConfig cfg;
  cfg.num_classes = 52;
  cfg.num_clients = 8962;
  cfg.samples_per_client = 32;
  cfg.rho = 13.64;
  cfg.emd_avg = 0.554;
  cfg.seed = 5;
  const Partition part = make_partition(cfg);
  EXPECT_EQ(part.num_clients(), 8962u);
  // 32 samples over 52 classes quantizes every client distribution, which
  // puts a structural floor under the per-client EMD (see partition.cpp);
  // the builder returns the closest feasible realization above the target.
  EXPECT_GE(part.realized_emd_avg, 0.554 - 0.05);
  EXPECT_LE(part.realized_emd_avg, 0.95);
  EXPECT_NEAR(stats::imbalance_ratio(part.global_realized), 13.64, 3.0);
}

TEST(MakePartition, ClientDistributionsMatchCounts) {
  PartitionConfig cfg;
  cfg.num_clients = 20;
  cfg.rho = 2;
  cfg.emd_avg = 0.8;
  const Partition part = make_partition(cfg);
  for (std::size_t k = 0; k < part.num_clients(); ++k) {
    const auto expect = stats::from_counts(part.client_counts[k]);
    for (std::size_t c = 0; c < part.num_classes(); ++c) {
      EXPECT_DOUBLE_EQ(part.client_dists[k][c], expect[c]);
    }
  }
}

}  // namespace
}  // namespace dubhe::data
