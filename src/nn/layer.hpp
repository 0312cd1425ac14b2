#pragma once

#include <memory>
#include <span>
#include <string>

#include "nn/workspace.hpp"
#include "tensor/tensor.hpp"

namespace dubhe::nn {

using tensor::Tensor;

/// A differentiable layer. `forward` may cache activations for the
/// subsequent `backward` (layers are stateful within one forward/backward
/// pair, which is all mini-batch SGD needs). Parameters and their gradients
/// are exposed as flat spans so optimizers and FedAvg aggregation can treat
/// every model as one float vector.
///
/// Scratch buffers (im2col matrices, masks, staging temporaries) come from
/// a Workspace: Sequential attaches its arena to every layer it owns, so
/// replicas reuse one set of buffers across all steps of a round, and a
/// detached layer lazily creates a private arena — same reuse, no sharing.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  /// Copies (the clone() path) never carry workspace state: the clone's
  /// owner re-attaches its own arena, or the clone builds a private one.
  Layer(const Layer&) noexcept {}
  Layer& operator=(const Layer&) noexcept { return *this; }
  Layer(Layer&&) noexcept = default;
  Layer& operator=(Layer&&) noexcept = default;

  /// Binds the arena this layer's temporaries live in. The pointer must
  /// outlive the layer or be re-attached (Sequential handles both).
  void attach_workspace(Workspace* ws) { ws_ = ws; }

  virtual Tensor forward(const Tensor& x) = 0;
  /// Gradient wrt input, given gradient wrt output. Also accumulates
  /// parameter gradients (overwriting, not summing — one step per batch).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Flat parameter / gradient views; empty for parameterless layers.
  virtual std::span<float> params() { return {}; }
  virtual std::span<float> grads() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
  /// Deep copy (used to clone the global model into per-client replicas).
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  /// The attached arena, or a lazily created private one.
  [[nodiscard]] Workspace& scratch() {
    if (ws_ != nullptr) return *ws_;
    if (!owned_ws_) owned_ws_ = std::make_unique<Workspace>();
    return *owned_ws_;
  }

 private:
  Workspace* ws_ = nullptr;
  std::unique_ptr<Workspace> owned_ws_;
};

}  // namespace dubhe::nn
