#pragma once

#include <cstddef>
#include <vector>

namespace dubhe::stats {

/// Welford's online mean/variance accumulator — used everywhere the paper
/// reports "mean and standard deviation over 100 selections".
class RunningStat {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (divide by n); the paper's error bars are
  /// population-style over repeated trials.
  [[nodiscard]] double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0, m2_ = 0;
  double min_ = 0, max_ = 0;
};

/// Per-element running statistics for vectors (e.g. the expectation and
/// deviation of each class's participated proportion, Fig. 2 right panels).
class VectorStat {
 public:
  explicit VectorStat(std::size_t dims) : stats_(dims) {}
  void add(const std::vector<double>& x);
  [[nodiscard]] std::vector<double> means() const;
  [[nodiscard]] std::size_t dims() const { return stats_.size(); }

 private:
  std::vector<RunningStat> stats_;
};

}  // namespace dubhe::stats
