#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace dubhe::stats {
namespace {

TEST(Rng, DeterministicStreams) {
  Rng a(5), b(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DeriveSeedSeparatesStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(7, 3), derive_seed(7, 3));
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(123);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(rng.normal());
  EXPECT_NEAR(stat.mean(), 0.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(125);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  Rng rng2(126);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng2.bernoulli(0.0));
    EXPECT_TRUE(rng2.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(127);
  const std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsDegenerate) {
  Rng rng(128);
  EXPECT_THROW(rng.categorical(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(rng.categorical(std::vector<double>{0, 0}), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(129);
  const std::vector<double> w{1, 2, 3, 4, 5};
  for (int i = 0; i < 100; ++i) {
    const auto picks = rng.sample_without_replacement(w, 3);
    const std::set<std::size_t> uniq(picks.begin(), picks.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (const auto p : picks) EXPECT_LT(p, 5u);
  }
}

TEST(Rng, ChooseKOfNInvariants) {
  Rng rng(130);
  for (int i = 0; i < 50; ++i) {
    const auto picks = rng.choose_k_of_n(10, 100);
    EXPECT_EQ(picks.size(), 10u);
    const std::set<std::size_t> uniq(picks.begin(), picks.end());
    EXPECT_EQ(uniq.size(), 10u);
    for (const auto p : picks) EXPECT_LT(p, 100u);
  }
  EXPECT_EQ(rng.choose_k_of_n(0, 5).size(), 0u);
  EXPECT_EQ(rng.choose_k_of_n(5, 5).size(), 5u);
  EXPECT_THROW(rng.choose_k_of_n(6, 5), std::invalid_argument);
}

TEST(Rng, ChooseKOfNIsUniform) {
  // Each of 5 elements should appear in a 2-of-5 draw with frequency 2/5.
  Rng rng(131);
  std::vector<int> counts(5, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    for (const auto p : rng.choose_k_of_n(2, 5)) ++counts[p];
  }
  for (const int c : counts) EXPECT_NEAR(c / static_cast<double>(trials), 0.4, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(132);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RunningStat, MatchesClosedForm) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  const RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(VectorStat, PerDimension) {
  VectorStat vs(2);
  vs.add({1.0, 10.0});
  vs.add({3.0, 30.0});
  const auto means = vs.means();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 20.0);
  EXPECT_THROW(vs.add({1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace dubhe::stats
