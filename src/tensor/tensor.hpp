#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace dubhe::tensor {

/// Dense row-major float tensor. Rank is dynamic but small (<= 4 in this
/// codebase: [batch, features] for dense layers, [batch, C, H, W] for conv).
/// Deliberately minimal — contiguous storage, no views/strides — because the
/// NN substrate only needs batched forward/backward over small models.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape);

  [[nodiscard]] const std::vector<std::size_t>& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_.at(i); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::span<float> flat() { return data_; }
  [[nodiscard]] std::span<const float> flat() const { return data_; }

  /// 2-D element access (debug-checked in tests via at()).
  float& operator()(std::size_t r, std::size_t c) { return data_[r * shape_[1] + c]; }
  float operator()(std::size_t r, std::size_t c) const { return data_[r * shape_[1] + c]; }
  /// Bounds-checked access; throws std::out_of_range.
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;

  /// Returns a reshaped copy sharing no storage. Product of dims must match.
  [[nodiscard]] Tensor reshaped(std::vector<std::size_t> new_shape) const;

  /// Reshapes in place to an arbitrary new shape, reusing the existing
  /// allocation when capacity suffices (the workspace-reuse primitive).
  /// Element values are unspecified afterwards — callers overwrite or
  /// fill(). Throws std::invalid_argument on an empty shape.
  void resize(std::span<const std::size_t> new_shape);
  void resize(std::initializer_list<std::size_t> new_shape) {
    resize(std::span<const std::size_t>(new_shape.begin(), new_shape.size()));
  }

  void fill(float v);

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace dubhe::tensor
