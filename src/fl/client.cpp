#include "fl/client.hpp"

#include <memory>
#include <stdexcept>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "stats/rng.hpp"

namespace dubhe::fl {

Client::Client(std::size_t id, std::vector<data::Sample> samples,
               const data::FederatedDataset* dataset)
    : id_(id), samples_(std::move(samples)), dataset_(dataset) {
  if (dataset_ == nullptr) throw std::invalid_argument("Client: null dataset");
  std::vector<std::size_t> counts(dataset_->num_classes(), 0);
  for (const auto& s : samples_) ++counts[s.cls];
  dist_ = stats::from_counts(counts);
}

std::vector<float> Client::train(const nn::Sequential& prototype,
                                 std::span<const float> global_weights,
                                 const TrainConfig& cfg, std::uint64_t seed) const {
  if (samples_.empty()) return {global_weights.begin(), global_weights.end()};
  nn::Sequential model = prototype;  // deep copy
  model.set_weights(global_weights);

  std::unique_ptr<nn::Optimizer> opt;
  if (cfg.use_adam) {
    opt = std::make_unique<nn::Adam>(cfg.lr);
  } else {
    opt = std::make_unique<nn::Sgd>(cfg.lr);
  }
  const auto params = model.param_views();
  const auto grads = model.grad_views();

  const std::size_t F = dataset_->feature_dim();
  stats::Rng rng(seed);
  std::vector<data::Sample> order = samples_;
  if (cfg.resample_each_round) {
    // Fresh instance draws for this round: same label counts, new features.
    // The id layout ((client+1) << 28 | round-salt << 12 | slot) keeps every
    // client's stream disjoint from other clients, from the static training
    // ids (small sequential integers) and from the test range (2^60+).
    const std::uint64_t salt = (seed >> 8) & 0xFFFF;
    for (std::size_t j = 0; j < order.size(); ++j) {
      order[j].instance =
          ((static_cast<std::uint64_t>(id_) + 1) << 28) | (salt << 12) | j;
    }
  }

  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += cfg.batch_size) {
      const std::size_t bs = std::min(cfg.batch_size, order.size() - start);
      tensor::Tensor X{{bs, F}};
      std::vector<std::size_t> y(bs);
      dataset_->materialize({order.data() + start, bs}, X.flat(), y);
      const tensor::Tensor logits = model.forward(X);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits, y);
      model.backward(loss.grad);
      if (cfg.prox_mu > 0) {
        // FedProx: grad += mu * (w - w_global), segment by segment.
        const auto mu = static_cast<float>(cfg.prox_mu);
        std::size_t off = 0;
        for (std::size_t s = 0; s < params.size(); ++s) {
          for (std::size_t j = 0; j < params[s].size(); ++j) {
            grads[s][j] += mu * (params[s][j] - global_weights[off + j]);
          }
          off += params[s].size();
        }
      }
      opt->step(params, grads);
    }
  }
  return model.get_weights();
}

double Client::local_loss(const nn::Sequential& prototype,
                          std::span<const float> global_weights,
                          std::size_t max_samples) const {
  if (samples_.empty()) return 0.0;
  nn::Sequential model = prototype;
  model.set_weights(global_weights);
  const std::size_t F = dataset_->feature_dim();
  const std::size_t n = std::min(max_samples, samples_.size());
  tensor::Tensor X{{n, F}};
  std::vector<std::size_t> y(n);
  dataset_->materialize({samples_.data(), n}, X.flat(), y);
  return nn::softmax_cross_entropy(model.forward(X), y).loss;
}

}  // namespace dubhe::fl
