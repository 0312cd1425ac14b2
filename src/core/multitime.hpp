#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/selection.hpp"

namespace dubhe::core {

/// Result of an H-time tentative selection (paper §5.3).
struct MultiTimeOutcome {
  /// The determined participant set S_{h*}.
  std::vector<std::size_t> selected;
  /// EMD* = || p_{o,h*} - p_u ||_1 of the winning try.
  double emd_star = 0;
  std::size_t best_try = 0;
  /// || p_{o,h} - p_u ||_1 for every try, in order.
  std::vector<double> try_emds;
  /// Population distribution of the winning try.
  stats::Distribution population;
};

/// Runs H tentative selections with `strategy`, scores each try's population
/// distribution p_{o,h} against uniform, and keeps the argmin (client
/// determination, §5.3.1). In the secure deployment p_{o,h} reaches the
/// agent only as a Paillier aggregate (see SecureSelectionSession); here the
/// aggregation is plaintext but numerically identical. H = 1 degenerates to
/// a single one-off selection.
MultiTimeOutcome multi_time_select(SelectionStrategy& strategy,
                                   std::span<const stats::Distribution> client_dists,
                                   std::size_t K, std::size_t H, stats::Rng& rng);

/// The fully-callback form the overload above reduces to, and the single
/// authoritative copy of the §5.3.1 argmin rule (first-minimum tie-break
/// included). The secure paths (the net layer's aggregator engine and its
/// direct reference, run_session_direct) call it with their Paillier
/// reduction, so the plaintext, direct-secure and wire executions cannot
/// drift apart: `select(h)` returns try h's participant set (client-side
/// Bernoulli draws resolved by the server's replenish stream), and
/// `aggregate(h, sel)` returns p_{o,h} with `num_classes` entries.
MultiTimeOutcome multi_time_select(
    std::size_t num_classes, std::size_t H,
    const std::function<std::vector<std::size_t>(std::size_t)>& select,
    const std::function<stats::Distribution(std::size_t, std::span<const std::size_t>)>&
        aggregate);

/// Population distribution of a selected set: mean of the members' label
/// distributions (all virtual clients carry equal sample counts).
stats::Distribution population_of(std::span<const stats::Distribution> client_dists,
                                  std::span<const std::size_t> selected);

}  // namespace dubhe::core
