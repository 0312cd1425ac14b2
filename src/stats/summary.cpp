#include "stats/summary.hpp"

#include <cmath>
#include <stdexcept>

namespace dubhe::stats {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void VectorStat::add(const std::vector<double>& x) {
  if (x.size() != stats_.size()) throw std::invalid_argument("VectorStat: dim mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) stats_[i].add(x[i]);
}

std::vector<double> VectorStat::means() const {
  std::vector<double> out(stats_.size());
  for (std::size_t i = 0; i < stats_.size(); ++i) out[i] = stats_[i].mean();
  return out;
}

}  // namespace dubhe::stats
