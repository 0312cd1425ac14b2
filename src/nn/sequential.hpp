#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dubhe::nn {

/// A feed-forward stack of layers. The model's parameters are exposed as a
/// single flat float vector (get_weights / set_weights), which is the
/// contract the FedAvg aggregator and the optimizers build on.
class Sequential {
 public:
  Sequential() = default;
  Sequential(const Sequential& o);
  Sequential& operator=(const Sequential& o);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  Sequential& add(std::unique_ptr<Layer> layer);

  [[nodiscard]] Tensor forward(const Tensor& x);
  /// Runs the full backward pass; parameter gradients are left in the
  /// layers, readable via grad_views().
  void backward(const Tensor& grad_out);

  /// Total parameter count.
  [[nodiscard]] std::size_t num_params() const;
  /// Per-layer parameter views (empty spans excluded).
  [[nodiscard]] std::vector<std::span<float>> param_views();
  [[nodiscard]] std::vector<std::span<float>> grad_views();

  /// Flattened copy of all parameters.
  [[nodiscard]] std::vector<float> get_weights() const;
  /// Loads flattened parameters; size must equal num_params().
  void set_weights(std::span<const float> w);

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// The scratch arena shared by this model's layers (heap-held so the
  /// address layers bind to survives moves of the Sequential itself).
  [[nodiscard]] Workspace& workspace() { return *ws_; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::unique_ptr<Workspace> ws_ = std::make_unique<Workspace>();
};

}  // namespace dubhe::nn
