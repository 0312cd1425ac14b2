#include "fl/server.hpp"

#include <stdexcept>

#include "nn/loss.hpp"

namespace dubhe::fl {

Server::Server(nn::Sequential prototype)
    : model_(std::move(prototype)), weights_(model_.get_weights()) {}

void Server::set_global_weights(std::vector<float> w) {
  if (w.size() != weights_.size()) {
    throw std::invalid_argument("Server: weight size mismatch");
  }
  weights_ = std::move(w);
}

void Server::aggregate(std::span<const std::vector<float>> updates) {
  if (updates.empty()) throw std::invalid_argument("Server::aggregate: no updates");
  std::vector<double> acc(weights_.size(), 0.0);
  for (const auto& u : updates) {
    if (u.size() != weights_.size()) {
      throw std::invalid_argument("Server::aggregate: update size mismatch");
    }
    for (std::size_t i = 0; i < u.size(); ++i) acc[i] += u[i];
  }
  const double inv = 1.0 / static_cast<double>(updates.size());
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = static_cast<float>(acc[i] * inv);
  }
}

std::vector<double> Server::evaluate_per_class(const data::FederatedDataset& dataset,
                                               std::size_t batch_size) {
  model_.set_weights(weights_);
  const auto& test = dataset.test_samples();
  const std::size_t F = dataset.feature_dim();
  const std::size_t C = dataset.num_classes();
  std::vector<std::size_t> correct(C, 0), total(C, 0);
  for (std::size_t start = 0; start < test.size(); start += batch_size) {
    const std::size_t bs = std::min(batch_size, test.size() - start);
    tensor::Tensor X{{bs, F}};
    std::vector<std::size_t> y(bs);
    dataset.materialize({test.data() + start, bs}, X.flat(), y);
    const tensor::Tensor logits = model_.forward(X);
    for (std::size_t i = 0; i < bs; ++i) {
      std::size_t argmax = 0;
      for (std::size_t c = 1; c < C; ++c) {
        if (logits(i, c) > logits(i, argmax)) argmax = c;
      }
      ++total[y[i]];
      if (argmax == y[i]) ++correct[y[i]];
    }
  }
  std::vector<double> recall(C, 0.0);
  for (std::size_t c = 0; c < C; ++c) {
    if (total[c] > 0) {
      recall[c] = static_cast<double>(correct[c]) / static_cast<double>(total[c]);
    }
  }
  return recall;
}

double Server::evaluate(const data::FederatedDataset& dataset, std::size_t batch_size) {
  model_.set_weights(weights_);
  const auto& test = dataset.test_samples();
  const std::size_t F = dataset.feature_dim();
  std::size_t correct_weighted = 0, total = 0;
  for (std::size_t start = 0; start < test.size(); start += batch_size) {
    const std::size_t bs = std::min(batch_size, test.size() - start);
    tensor::Tensor X{{bs, F}};
    std::vector<std::size_t> y(bs);
    dataset.materialize({test.data() + start, bs}, X.flat(), y);
    const tensor::Tensor logits = model_.forward(X);
    const double acc = nn::top1_accuracy(logits, y);
    correct_weighted += static_cast<std::size_t>(acc * static_cast<double>(bs) + 0.5);
    total += bs;
  }
  return total == 0 ? 0.0 : static_cast<double>(correct_weighted) / static_cast<double>(total);
}

}  // namespace dubhe::fl
