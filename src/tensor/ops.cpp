#include "tensor/ops.hpp"

#include <stdexcept>

#include "tensor/gemm.hpp"

namespace dubhe::tensor {

namespace {

struct GemmShape {
  std::size_t m, n, k;
};

GemmShape check_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  if (a.rank() != 2 || b.rank() != 2) throw std::invalid_argument("matmul: rank != 2");
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t kb = tb ? b.dim(1) : b.dim(0);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  if (k != kb) throw std::invalid_argument("matmul: inner dimension mismatch");
  return {m, n, k};
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a, bool transpose_b) {
  const GemmShape s = check_matmul(a, b, transpose_a, transpose_b);
  Tensor c{{s.m, s.n}};
  gemm(s.m, s.n, s.k, a.data(), a.dim(1), transpose_a, b.data(), b.dim(1),
       transpose_b, c.data());
  return c;
}

void sum_rows(const Tensor& x, std::span<float> out) {
  if (x.rank() != 2 || x.dim(1) != out.size()) {
    throw std::invalid_argument("sum_rows: shape mismatch");
  }
  for (float& v : out) v = 0;
  const float* data = x.data();
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    for (std::size_t j = 0; j < out.size(); ++j) out[j] += data[i * out.size() + j];
  }
}

void relu_inplace(Tensor& x, Tensor& mask) {
  mask.resize(x.shape());
  float* d = x.data();
  float* m = mask.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (d[i] > 0) {
      m[i] = 1.0f;
    } else {
      d[i] = 0.0f;
      m[i] = 0.0f;
    }
  }
}

void relu_backward_inplace(Tensor& grad, const Tensor& mask) {
  if (grad.size() != mask.size()) {
    throw std::invalid_argument("relu_backward: size mismatch");
  }
  float* d = grad.data();
  const float* m = mask.data();
  for (std::size_t i = 0; i < grad.size(); ++i) d[i] *= m[i];
}

}  // namespace dubhe::tensor
