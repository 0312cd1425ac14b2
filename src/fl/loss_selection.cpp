#include "fl/loss_selection.hpp"

#include <algorithm>
#include <stdexcept>

namespace dubhe::fl {

PowerOfChoiceSelector::PowerOfChoiceSelector(FederatedTrainer* trainer,
                                             std::size_t candidate_pool,
                                             std::size_t loss_samples)
    : trainer_(trainer), d_(candidate_pool), loss_samples_(loss_samples) {
  if (trainer_ == nullptr) {
    throw std::invalid_argument("PowerOfChoiceSelector: null trainer");
  }
}

std::vector<std::size_t> PowerOfChoiceSelector::select(std::size_t K, stats::Rng& rng) {
  const std::size_t N = trainer_->num_clients();
  if (K > N) throw std::invalid_argument("PowerOfChoiceSelector: K > N");
  const std::size_t d = std::min(N, std::max(d_, K));

  const std::vector<std::size_t> candidates = rng.choose_k_of_n(d, N);
  const auto& weights = trainer_->server().global_weights();
  const nn::Sequential& proto = trainer_->server().prototype();

  std::vector<std::pair<double, std::size_t>> losses;  // (-loss, client)
  losses.reserve(d);
  for (const std::size_t k : candidates) {
    losses.emplace_back(-trainer_->client(k).local_loss(proto, weights, loss_samples_), k);
    ++evaluations_;
  }
  // Highest loss first; ties toward lower client id for determinism.
  std::stable_sort(losses.begin(), losses.end());
  std::vector<std::size_t> out;
  out.reserve(K);
  for (std::size_t i = 0; i < K; ++i) out.push_back(losses[i].second);
  return out;
}

}  // namespace dubhe::fl
