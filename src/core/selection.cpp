#include "core/selection.hpp"

#include <algorithm>
#include <stdexcept>

namespace dubhe::core {

RandomSelector::RandomSelector(std::size_t num_clients) : n_(num_clients) {
  if (n_ == 0) throw std::invalid_argument("RandomSelector: empty population");
}

std::vector<std::size_t> RandomSelector::select(std::size_t K, stats::Rng& rng) {
  if (K > n_) throw std::invalid_argument("RandomSelector: K > N");
  return rng.choose_k_of_n(K, n_);
}

GreedySelector::GreedySelector(std::vector<stats::Distribution> client_dists)
    : dists_(std::move(client_dists)) {
  if (dists_.empty()) throw std::invalid_argument("GreedySelector: empty population");
}

std::vector<std::size_t> GreedySelector::select(std::size_t K, stats::Rng& rng) {
  const std::size_t N = dists_.size();
  if (K > N) throw std::invalid_argument("GreedySelector: K > N");
  const std::size_t C = dists_[0].size();
  const stats::Distribution pu = stats::uniform(C);

  std::vector<bool> taken(N, false);
  std::vector<std::size_t> selected;
  selected.reserve(K);
  stats::Distribution agg(C, 0.0);

  const std::size_t first = static_cast<std::size_t>(rng.below(N));
  taken[first] = true;
  selected.push_back(first);
  for (std::size_t c = 0; c < C; ++c) agg[c] += dists_[first][c];

  stats::Distribution candidate(C);
  for (std::size_t step = 1; step < K; ++step) {
    double best_score = 0;
    std::size_t best = N;
    for (std::size_t k = 0; k < N; ++k) {
      if (taken[k]) continue;
      for (std::size_t c = 0; c < C; ++c) candidate[c] = agg[c] + dists_[k][c];
      stats::normalize(candidate);
      const double score = stats::kl_divergence(candidate, pu);
      if (best == N || score < best_score) {
        best_score = score;
        best = k;
      }
    }
    taken[best] = true;
    selected.push_back(best);
    for (std::size_t c = 0; c < C; ++c) agg[c] += dists_[best][c];
  }
  return selected;
}

double proactive_probability(std::span<const std::uint64_t> overall_registry,
                             std::size_t category_index, std::size_t K) {
  if (category_index >= overall_registry.size()) {
    throw std::out_of_range("proactive_probability: bad category index");
  }
  std::size_t nnz = 0;
  for (const std::uint64_t v : overall_registry) nnz += (v != 0) ? 1 : 0;
  const std::uint64_t cat_count = overall_registry[category_index];
  if (cat_count == 0 || nnz == 0) return 0.0;
  const double p = static_cast<double>(K) /
                   (static_cast<double>(cat_count) * static_cast<double>(nnz));
  return std::min(1.0, p);
}

std::vector<std::size_t> resolve_participation(std::span<const std::uint8_t> joined_bits,
                                               std::size_t K, stats::Rng& rng) {
  const std::size_t N = joined_bits.size();
  if (K > N) throw std::invalid_argument("resolve_participation: K > N");
  std::vector<std::size_t> joined;
  std::vector<std::size_t> declined;
  for (std::size_t k = 0; k < N; ++k) {
    (joined_bits[k] != 0 ? joined : declined).push_back(k);
  }
  // The server replenishes or trims uniformly to exactly K (§5.2).
  if (joined.size() < K) {
    const auto extra = rng.choose_k_of_n(K - joined.size(), declined.size());
    for (const std::size_t i : extra) joined.push_back(declined[i]);
  } else if (joined.size() > K) {
    rng.shuffle(joined);
    joined.resize(K);
  }
  return joined;
}

DubheSelector::DubheSelector(const RegistryCodec* codec, std::vector<double> sigma)
    : codec_(codec), sigma_(std::move(sigma)) {
  if (codec_ == nullptr) throw std::invalid_argument("DubheSelector: null codec");
  if (sigma_.size() != codec_->reference_set().size()) {
    throw std::invalid_argument("DubheSelector: sigma size must match |G|");
  }
}

void DubheSelector::register_clients(std::span<const stats::Distribution> dists) {
  regs_.clear();
  regs_.reserve(dists.size());
  overall_.assign(codec_->length(), 0);
  for (const auto& p : dists) {
    regs_.push_back(register_client(*codec_, p, sigma_));
    ++overall_[regs_.back().category_index];
  }
  nnz_ = static_cast<std::size_t>(
      std::count_if(overall_.begin(), overall_.end(), [](std::uint64_t v) { return v != 0; }));
}

void DubheSelector::load_overall_registry(std::vector<std::uint64_t> overall,
                                          std::vector<Registration> regs) {
  if (overall.size() != codec_->length()) {
    throw std::invalid_argument("load_overall_registry: length mismatch");
  }
  overall_ = std::move(overall);
  regs_ = std::move(regs);
  nnz_ = static_cast<std::size_t>(
      std::count_if(overall_.begin(), overall_.end(), [](std::uint64_t v) { return v != 0; }));
}

double DubheSelector::probability(std::size_t client, std::size_t K) const {
  if (client >= regs_.size()) throw std::out_of_range("probability: bad client");
  return proactive_probability(overall_, regs_[client].category_index, K);
}

std::vector<std::size_t> DubheSelector::select(std::size_t K, stats::Rng& rng) {
  const std::size_t N = regs_.size();
  if (N == 0) throw std::logic_error("DubheSelector: register_clients first");
  if (K > N) throw std::invalid_argument("DubheSelector: K > N");

  // Each client proactively joins with its own probability (Eq. 6). In the
  // experiment plane every draw comes from the caller's single stream; the
  // deployment-faithful paths draw client-side from per-(client, round)
  // streams instead and feed the bits to resolve_participation directly.
  std::vector<std::uint8_t> bits(N, 0);
  for (std::size_t k = 0; k < N; ++k) {
    bits[k] = rng.bernoulli(probability(k, K)) ? 1 : 0;
  }
  return resolve_participation(bits, K, rng);
}

}  // namespace dubhe::core
