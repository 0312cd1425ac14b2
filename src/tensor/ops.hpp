#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace dubhe::tensor {

/// C = A @ B with optional transposes. A is [m, k] (or [k, m] when
/// transpose_a), B is [k, n] (or [n, k] when transpose_b), C is [m, n].
/// Runs on the packed-microkernel GEMM (AVX2+FMA or portable scalar, see
/// tensor/simd.hpp), sharded over the shared core::ParallelRuntime with
/// contiguous partitions — results are identical for any thread count.
/// Throws std::invalid_argument on shape mismatch.
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

/// Column sums of a [batch, n] tensor into `out` (size n) — the bias grad.
void sum_rows(const Tensor& x, std::span<float> out);

/// In-place ReLU; `mask` is resized to x's shape and receives the 0/1 mask
/// for the backward pass (1 where x was > 0).
void relu_inplace(Tensor& x, Tensor& mask);
/// In-place backward: grad *= mask (elementwise).
void relu_backward_inplace(Tensor& grad, const Tensor& mask);

}  // namespace dubhe::tensor
