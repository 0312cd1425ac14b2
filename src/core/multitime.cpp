#include "core/multitime.hpp"

#include <stdexcept>

namespace dubhe::core {

stats::Distribution population_of(std::span<const stats::Distribution> client_dists,
                                  std::span<const std::size_t> selected) {
  if (selected.empty()) throw std::invalid_argument("population_of: empty selection");
  const std::size_t C = client_dists[0].size();
  stats::Distribution po(C, 0.0);
  for (const std::size_t k : selected) {
    const auto& d = client_dists[k];
    for (std::size_t c = 0; c < C; ++c) po[c] += d[c];
  }
  stats::normalize(po);
  return po;
}

MultiTimeOutcome multi_time_select(SelectionStrategy& strategy,
                                   std::span<const stats::Distribution> client_dists,
                                   std::size_t K, std::size_t H, stats::Rng& rng) {
  if (client_dists.empty()) throw std::invalid_argument("multi_time_select: no clients");
  return multi_time_select(
      client_dists[0].size(), H, [&](std::size_t) { return strategy.select(K, rng); },
      [&](std::size_t, std::span<const std::size_t> s) {
        return population_of(client_dists, s);
      });
}

MultiTimeOutcome multi_time_select(
    std::size_t num_classes, std::size_t H,
    const std::function<std::vector<std::size_t>(std::size_t)>& select,
    const std::function<stats::Distribution(std::size_t, std::span<const std::size_t>)>&
        aggregate) {
  if (H == 0) throw std::invalid_argument("multi_time_select: H == 0");
  const stats::Distribution pu = stats::uniform(num_classes);

  std::vector<std::vector<std::size_t>> tries;
  tries.reserve(H);
  for (std::size_t h = 0; h < H; ++h) tries.push_back(select(h));

  MultiTimeOutcome out;
  out.try_emds.reserve(H);
  for (std::size_t h = 0; h < H; ++h) {
    stats::Distribution po = aggregate(h, tries[h]);
    const double emd = stats::l1_distance(po, pu);
    out.try_emds.push_back(emd);
    if (h == 0 || emd < out.emd_star) {
      out.emd_star = emd;
      out.best_try = h;
      out.selected = std::move(tries[h]);
      out.population = std::move(po);
    }
  }
  return out;
}

}  // namespace dubhe::core
