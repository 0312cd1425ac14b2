#pragma once

#include <map>
#include <span>
#include <utility>

#include "tensor/tensor.hpp"

namespace dubhe::nn {

/// Scratch-buffer arena shared by the layers of one model replica.
///
/// Every forward/backward temporary that used to be allocated per step —
/// im2col column matrices, ReLU masks, row-major gradient staging
/// buffers, cached inputs — lives here instead, keyed by (owning layer,
/// slot) and resized in place, so after the first step of a client round
/// the training loop performs no per-step heap allocation for scratch.
///
/// One arena belongs to exactly one Sequential (or, for a detached layer,
/// to that layer); model replicas training concurrently on the shared
/// runtime each own their own arena, so there is no cross-thread sharing.
/// Entries persist for the arena's lifetime — a mask written in forward is
/// read back by the same layer's backward.
class Workspace {
 public:
  /// The buffer for (owner, slot), resized to `shape` with contents
  /// unspecified (callers fully overwrite, or fill() explicitly). The
  /// reference stays valid until the arena is destroyed.
  tensor::Tensor& get(const void* owner, int slot,
                      std::span<const std::size_t> shape) {
    tensor::Tensor& t = buffers_[{owner, slot}];
    t.resize(shape);
    return t;
  }
  tensor::Tensor& get(const void* owner, int slot,
                      std::initializer_list<std::size_t> shape) {
    return get(owner, slot,
               std::span<const std::size_t>(shape.begin(), shape.size()));
  }

  /// The buffer for (owner, slot) with whatever shape it last had; creates
  /// a fresh empty tensor on first use. For buffers written by one call and
  /// read by a later one (cached activations, masks).
  tensor::Tensor& peek(const void* owner, int slot) { return buffers_[{owner, slot}]; }

  [[nodiscard]] std::size_t buffer_count() const { return buffers_.size(); }

 private:
  std::map<std::pair<const void*, int>, tensor::Tensor> buffers_;
};

}  // namespace dubhe::nn
