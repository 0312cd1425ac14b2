#include "nn/sequential.hpp"
#include <algorithm>

#include <stdexcept>

namespace dubhe::nn {

Sequential::Sequential(const Sequential& o) {
  layers_.reserve(o.layers_.size());
  for (const auto& l : o.layers_) {
    layers_.push_back(l->clone());
    layers_.back()->attach_workspace(ws_.get());
  }
}

Sequential& Sequential::operator=(const Sequential& o) {
  if (this == &o) return *this;
  layers_.clear();
  ws_ = std::make_unique<Workspace>();  // drop buffers keyed by dead layers
  layers_.reserve(o.layers_.size());
  for (const auto& l : o.layers_) {
    layers_.push_back(l->clone());
    layers_.back()->attach_workspace(ws_.get());
  }
  return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layer->attach_workspace(ws_.get());
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur);
  return cur;
}

void Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) cur = layers_[i]->backward(cur);
}

std::size_t Sequential::num_params() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    n += const_cast<Layer&>(*l).params().size();  // params() is logically const
  }
  return n;
}

std::vector<std::span<float>> Sequential::param_views() {
  std::vector<std::span<float>> out;
  for (auto& l : layers_) {
    const auto p = l->params();
    if (!p.empty()) out.push_back(p);
  }
  return out;
}

std::vector<std::span<float>> Sequential::grad_views() {
  std::vector<std::span<float>> out;
  for (auto& l : layers_) {
    const auto g = l->grads();
    if (!g.empty()) out.push_back(g);
  }
  return out;
}

std::vector<float> Sequential::get_weights() const {
  std::vector<float> w;
  w.reserve(num_params());
  for (const auto& l : layers_) {
    const auto p = const_cast<Layer&>(*l).params();
    w.insert(w.end(), p.begin(), p.end());
  }
  return w;
}

void Sequential::set_weights(std::span<const float> w) {
  if (w.size() != num_params()) throw std::invalid_argument("set_weights: size mismatch");
  std::size_t off = 0;
  for (auto& l : layers_) {
    const auto p = l->params();
    std::copy_n(w.data() + off, p.size(), p.data());
    off += p.size();
  }
}

}  // namespace dubhe::nn
