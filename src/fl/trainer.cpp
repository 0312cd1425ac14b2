#include "fl/trainer.hpp"

#include <stdexcept>

#include "core/parallel.hpp"
#include "net/schema.hpp"

namespace dubhe::fl {

FederatedTrainer::FederatedTrainer(const data::FederatedDataset& dataset,
                                   nn::Sequential prototype, TrainConfig cfg,
                                   ChannelAccountant* channel)
    : dataset_(dataset), cfg_(cfg), server_(std::move(prototype)), channel_(channel) {
  clients_.reserve(dataset.num_clients());
  for (std::size_t k = 0; k < dataset.num_clients(); ++k) {
    const auto samples = dataset.client_samples(k);
    clients_.emplace_back(k, std::vector<data::Sample>(samples.begin(), samples.end()),
                          &dataset);
  }
}

RoundResult FederatedTrainer::run_round(std::span<const std::size_t> selected,
                                        std::uint64_t round_seed, bool evaluate) {
  if (selected.empty()) throw std::invalid_argument("run_round: empty selection");
  const std::size_t K = selected.size();
  std::vector<std::vector<float>> updates(K);
  const std::vector<float>& global = server_.global_weights();
  const nn::Sequential& proto = server_.prototype();

  // One client per index on every worker of the shared runtime. Each
  // client's training is seeded by (round, client id) alone, so results are
  // identical for any shard count; the intra-client GEMMs are nested inside
  // the round's shards (worker- and caller-side alike) and therefore run
  // inline, keeping the process at exactly one pool's worth of threads.
  core::parallel_for(K, 0, [&](std::size_t i) {
    const Client& c = clients_.at(selected[i]);
    updates[i] =
        c.train(proto, global, cfg_, stats::derive_seed(round_seed, c.id() + 1));
  });
  server_.aggregate(updates);

  if (channel_ != nullptr) {
    // One model down + one update up per participant, at the exact encoded
    // frame size (kModelDown and kModelUpdate frames are the same width —
    // see net::WeightsMsg), so the ledger matches what a Transport carries
    // byte for byte.
    const std::size_t model_bytes = net::wire_size(net::WeightsMsg{0, global}).frame;
    channel_->record(MessageKind::kModelWeights, Direction::kServerToClient,
                     model_bytes * K, K);
    channel_->record(MessageKind::kModelWeights, Direction::kClientToServer,
                     model_bytes * K, K);
  }

  RoundResult result;
  result.population.assign(dataset_.num_classes(), 0.0);
  for (const std::size_t k : selected) {
    const auto& d = clients_.at(k).label_distribution();
    for (std::size_t c = 0; c < d.size(); ++c) result.population[c] += d[c];
  }
  stats::normalize(result.population);
  result.population_l1_to_uniform =
      stats::l1_distance(result.population, stats::uniform(dataset_.num_classes()));
  if (evaluate) result.test_accuracy = server_.evaluate(dataset_);
  return result;
}

}  // namespace dubhe::fl
