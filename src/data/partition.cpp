#include "data/partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "stats/halfnormal.hpp"

namespace dubhe::data {

namespace {

/// Core largest-remainder pass over raw (non-negative) exact values.
std::vector<std::size_t> round_exact(const std::vector<double>& exact, std::size_t total) {
  const std::size_t C = exact.size();
  std::vector<std::size_t> counts(C, 0);
  std::vector<std::pair<double, std::size_t>> remainders;  // (frac, class)
  remainders.reserve(C);
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < C; ++c) {
    const double v = std::max(exact[c], 0.0);
    const auto floor_val = static_cast<std::size_t>(v);
    counts[c] = floor_val;
    assigned += floor_val;
    remainders.emplace_back(v - static_cast<double>(floor_val), c);
  }
  if (assigned > total) {
    // Residual-inflated values can overshoot; trim from the smallest
    // fractional parts upward, never below zero.
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; assigned > total && i < remainders.size(); ++i) {
      while (assigned > total && counts[remainders[i].second] > 0) {
        --counts[remainders[i].second];
        --assigned;
      }
    }
    return counts;
  }
  // Hand out the leftover units to the largest fractional parts; ties break
  // toward lower class index for determinism.
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < total && i < remainders.size(); ++i, ++assigned) {
    ++counts[remainders[i].second];
  }
  // Degenerate case (all-zero input): dump the rest on class 0.
  while (assigned < total) {
    ++counts[0];
    ++assigned;
  }
  return counts;
}

}  // namespace

std::vector<std::size_t> round_counts_feedback(const stats::Distribution& p,
                                               std::size_t total,
                                               std::vector<double>& residual) {
  if (residual.size() != p.size()) {
    throw std::invalid_argument("round_counts_feedback: residual size mismatch");
  }
  std::vector<double> exact(p.size());
  for (std::size_t c = 0; c < p.size(); ++c) {
    exact[c] = p[c] * static_cast<double>(total) + residual[c];
  }
  std::vector<std::size_t> counts = round_exact(exact, total);
  for (std::size_t c = 0; c < p.size(); ++c) {
    residual[c] = exact[c] - static_cast<double>(counts[c]);
  }
  return counts;
}

Partition make_partition(const PartitionConfig& cfg) {
  if (cfg.emd_avg < 0 || cfg.emd_avg >= 2.0) {
    throw std::invalid_argument("make_partition: emd_avg must be in [0, 2)");
  }
  if (cfg.num_classes == 0 || cfg.num_clients == 0 || cfg.samples_per_client == 0) {
    throw std::invalid_argument("make_partition: empty dimensions");
  }
  stats::Rng rng(stats::derive_seed(cfg.seed, 0x9a27));

  Partition part;
  part.global_profile = stats::half_normal_profile(cfg.num_classes, cfg.rho);
  const stats::Distribution& pg = part.global_profile;
  const std::size_t N = cfg.num_clients, C = cfg.num_classes;

  // Pass 1: assign each client's dominating-class set D_k. Classes are
  // drawn proportionally to a *feedback residual* that tracks how much spike
  // mass each class still deserves (target: aggregate spike mass = p_g, so
  // the realized global distribution keeps the configured profile instead of
  // drifting by Poisson noise on the minority classes). Record the spike
  // distance e_k = ||s_k - p_g||_1 = 2 (1 - sum_{j in D_k} p_g(j)).
  std::vector<std::vector<std::size_t>> dominant(N);
  std::vector<double> spike_dist(N, 0);
  std::vector<double> spike_residual(C, 0.0);
  double mean_e = 0;
  for (std::size_t k = 0; k < N; ++k) {
    if (cfg.emd_avg > 0) {
      // This client will place one unit of spike mass; its fair share per
      // class is p_g.
      for (std::size_t c = 0; c < C; ++c) spike_residual[c] += pg[c];
      const std::size_t d = rng.bernoulli(cfg.two_dominant_fraction) && C >= 2 ? 2 : 1;
      std::vector<double> weights(C);
      for (std::size_t c = 0; c < C; ++c) {
        weights[c] = std::max(spike_residual[c], 0.0) + 1e-9;
      }
      dominant[k] = rng.sample_without_replacement(weights, d);
      // The spike splits evenly within D_k (both dominating classes clear
      // the same threshold, as in the paper's registry examples).
      const double share = 1.0 / static_cast<double>(d);
      for (const std::size_t j : dominant[k]) spike_residual[j] -= share;
      double dist = 0;
      for (std::size_t c = 0; c < C; ++c) {
        const bool in_d =
            std::find(dominant[k].begin(), dominant[k].end(), c) != dominant[k].end();
        dist += std::abs((in_d ? share : 0.0) - pg[c]);
      }
      spike_dist[k] = dist;
    }
    mean_e += spike_dist[k];
  }
  mean_e /= static_cast<double>(N);

  // Pass 2: client distribution p_k = (1-alpha) p_g + alpha s_k, rounded to
  // integer counts. Small per-client sample budgets quantize distributions
  // and push the realized EMD above the analytic alpha * mean_e, so alpha is
  // adjusted with a couple of proportional-control iterations and the
  // closest realization wins. (When samples_per_client < num_classes the
  // quantization floor can exceed the target entirely — e.g. FEMNIST-style
  // 32 samples over 52 classes — in which case the floor is returned; see
  // realized_emd_avg.)
  const auto build_with_alpha = [&](double alpha) {
    part.client_counts.assign(N, {});
    part.client_dists.assign(N, {});
    std::vector<std::size_t> global_counts(C, 0);
    std::vector<double> residual(C, 0.0);  // error feedback keeps the mix on-profile
    for (std::size_t k = 0; k < N; ++k) {
      stats::Distribution pk(pg.begin(), pg.end());
      if (alpha > 0 && !dominant[k].empty()) {
        for (double& v : pk) v *= (1.0 - alpha);
        const double share = alpha / static_cast<double>(dominant[k].size());
        for (const std::size_t j : dominant[k]) pk[j] += share;
      }
      part.client_counts[k] = round_counts_feedback(pk, cfg.samples_per_client, residual);
      for (std::size_t c = 0; c < C; ++c) global_counts[c] += part.client_counts[k][c];
      part.client_dists[k] = stats::from_counts(part.client_counts[k]);
    }
    part.global_realized = stats::from_counts(global_counts);
    double emd_sum = 0;
    for (std::size_t k = 0; k < N; ++k) {
      emd_sum += stats::l1_distance(part.client_dists[k], part.global_realized);
    }
    part.realized_emd_avg = emd_sum / static_cast<double>(N);
  };

  double alpha = cfg.emd_avg <= 0 || mean_e <= 0 ? 0.0 : std::min(1.0, cfg.emd_avg / mean_e);
  build_with_alpha(alpha);
  if (cfg.emd_avg > 0) {
    double best_alpha = alpha, best_err = std::abs(part.realized_emd_avg - cfg.emd_avg);
    for (int iter = 0; iter < 3 && best_err > 0.01; ++iter) {
      alpha = std::min(1.0, std::max(0.0, alpha * cfg.emd_avg /
                                              std::max(part.realized_emd_avg, 1e-9)));
      build_with_alpha(alpha);
      const double err = std::abs(part.realized_emd_avg - cfg.emd_avg);
      if (err < best_err) {
        best_err = err;
        best_alpha = alpha;
      }
    }
    if (alpha != best_alpha) build_with_alpha(best_alpha);
  }
  return part;
}

}  // namespace dubhe::data
