#pragma once

#include <cstdint>
#include <vector>

#include "stats/distribution.hpp"
#include "stats/rng.hpp"

namespace dubhe::data {

/// Parameters of a federated label partition, mirroring the paper's Table 1:
/// a global class profile with imbalance ratio `rho` (half-normal shape) and
/// a per-client discrepancy targeted at `emd_avg` = mean_k ||p_k - p_g||_1.
struct PartitionConfig {
  std::size_t num_classes = 10;
  std::size_t num_clients = 1000;
  /// Samples per (virtual) client — the paper's N_VC.
  std::size_t samples_per_client = 128;
  /// Global class imbalance ratio (most / least frequent). >= 1.
  double rho = 1.0;
  /// Target average EMD between client and global label distributions,
  /// in [0, 2). Targets above the structural maximum (clients fully
  /// concentrated on their dominating classes) are clamped; check
  /// Partition::realized_emd_avg.
  double emd_avg = 0.0;
  /// Fraction of clients whose local skew concentrates on two classes
  /// rather than one (the registry's G = {1, 2, C} mirrors this structure).
  double two_dominant_fraction = 0.3;
  std::uint64_t seed = 1;
};

/// The realized partition: integer label counts per client plus derived
/// distributions. Counts are produced by largest-remainder rounding, so each
/// client has exactly samples_per_client samples.
struct Partition {
  /// Configured global profile p_g (what rho parameterizes).
  stats::Distribution global_profile;
  /// Realized global label distribution (aggregate of client counts).
  stats::Distribution global_realized;
  /// N x C integer label counts.
  std::vector<std::vector<std::size_t>> client_counts;
  /// Normalized rows of client_counts.
  std::vector<stats::Distribution> client_dists;
  /// mean_k || p_k - p_g_realized ||_1 over the realized counts.
  double realized_emd_avg = 0;

  [[nodiscard]] std::size_t num_clients() const { return client_counts.size(); }
  [[nodiscard]] std::size_t num_classes() const { return global_profile.size(); }
};

/// Builds a partition. Deterministic in cfg.seed. Throws
/// std::invalid_argument for emd_avg outside [0, 2) or rho < 1.
Partition make_partition(const PartitionConfig& cfg);

/// Largest-remainder (Hamilton) rounding with error feedback: rounds
/// `p * total + residual` to integers summing exactly to `total` and updates
/// `residual` with the leftover rounding error (an all-zero residual gives
/// the plain largest-remainder split). Used across a client sequence so that
/// per-client quantization does not systematically starve minority classes
/// (keeps the realized global distribution within O(C) samples of the
/// configured profile).
std::vector<std::size_t> round_counts_feedback(const stats::Distribution& p,
                                               std::size_t total,
                                               std::vector<double>& residual);

}  // namespace dubhe::data
