#include "core/multitime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "data/partition.hpp"

namespace dubhe::core {
namespace {

std::vector<stats::Distribution> make_cohort(std::size_t n, std::uint64_t seed = 5) {
  data::PartitionConfig cfg;
  cfg.num_classes = 10;
  cfg.num_clients = n;
  cfg.samples_per_client = 128;
  cfg.rho = 10;
  cfg.emd_avg = 1.5;
  cfg.seed = seed;
  return data::make_partition(cfg).client_dists;
}

TEST(PopulationOf, MeanOfMemberDistributions) {
  const auto dists = make_cohort(10);
  const std::vector<std::size_t> sel{0, 3, 7};
  const auto po = population_of(dists, sel);
  for (std::size_t c = 0; c < 10; ++c) {
    const double expect = (dists[0][c] + dists[3][c] + dists[7][c]) / 3.0;
    EXPECT_NEAR(po[c], expect, 1e-12);
  }
  EXPECT_THROW(population_of(dists, std::vector<std::size_t>{}), std::invalid_argument);
}

TEST(MultiTime, EmdStarIsMinimumOverTries) {
  const auto dists = make_cohort(200);
  RandomSelector sel(dists.size());
  stats::Rng rng(3);
  const MultiTimeOutcome out = multi_time_select(sel, dists, 20, 8, rng);
  EXPECT_EQ(out.try_emds.size(), 8u);
  EXPECT_DOUBLE_EQ(out.emd_star,
                   *std::min_element(out.try_emds.begin(), out.try_emds.end()));
  EXPECT_EQ(out.try_emds[out.best_try], out.emd_star);
  EXPECT_EQ(out.selected.size(), 20u);
  // Returned population must equal the winning try's recomputed population.
  const auto po = population_of(dists, out.selected);
  for (std::size_t c = 0; c < 10; ++c) EXPECT_NEAR(out.population[c], po[c], 1e-12);
  EXPECT_NEAR(out.emd_star, stats::l1_distance(po, stats::uniform(10)), 1e-12);
}

TEST(MultiTime, SingleTryDegeneratesToOneSelection) {
  const auto dists = make_cohort(100);
  RandomSelector sel(dists.size());
  stats::Rng rng_a(9), rng_b(9);
  const MultiTimeOutcome out = multi_time_select(sel, dists, 15, 1, rng_a);
  RandomSelector sel_b(dists.size());
  const auto direct = sel_b.select(15, rng_b);
  EXPECT_EQ(out.selected, direct);
  EXPECT_EQ(out.best_try, 0u);
}

TEST(MultiTime, MoreTriesNeverHurtInExpectation) {
  // E[min of H tries] is non-increasing in H; check the empirical means
  // with the same generator sequence (Table 2's trend).
  const auto dists = make_cohort(500, 11);
  RandomSelector sel(dists.size());
  const int reps = 60;
  double mean1 = 0, mean5 = 0, mean20 = 0;
  stats::Rng rng(13);
  for (int r = 0; r < reps; ++r) {
    mean1 += multi_time_select(sel, dists, 20, 1, rng).emd_star;
    mean5 += multi_time_select(sel, dists, 20, 5, rng).emd_star;
    mean20 += multi_time_select(sel, dists, 20, 20, rng).emd_star;
  }
  EXPECT_LT(mean5, mean1);
  EXPECT_LT(mean20, mean5);
}

TEST(MultiTime, ValidationErrors) {
  const auto dists = make_cohort(20);
  RandomSelector sel(dists.size());
  stats::Rng rng(1);
  EXPECT_THROW(multi_time_select(sel, dists, 5, 0, rng), std::invalid_argument);
  EXPECT_THROW(
      multi_time_select(sel, std::span<const stats::Distribution>{}, 5, 2, rng),
      std::invalid_argument);
}

TEST(MultiTime, EverySelectRunsBeforeAnyAggregate) {
  // The contract the pipelined determination relies on: select(0) ..
  // select(H-1) first, then aggregate(0) .. aggregate(H-1) in try order,
  // each with its own try's set.
  std::vector<std::string> calls;
  const MultiTimeOutcome out = multi_time_select(
      2, 3,
      [&](std::size_t h) {
        calls.push_back("select " + std::to_string(h));
        return std::vector<std::size_t>{10 + h};
      },
      [&](std::size_t h, std::span<const std::size_t> s) {
        calls.push_back("aggregate " + std::to_string(h) + " of " + std::to_string(s[0]));
        return stats::Distribution{0.5 + 0.1 * static_cast<double>(h),
                                   0.5 - 0.1 * static_cast<double>(h)};
      });
  EXPECT_EQ(calls, (std::vector<std::string>{"select 0", "select 1", "select 2",
                                             "aggregate 0 of 10", "aggregate 1 of 11",
                                             "aggregate 2 of 12"}));
  EXPECT_EQ(out.best_try, 0u);
  EXPECT_EQ(out.selected, std::vector<std::size_t>{10});
}

/// The determination as one interleaved loop: select try h, aggregate it,
/// then select try h+1. Nothing aggregate does reaches the selection
/// stream, so this order and multi_time_select's must agree.
MultiTimeOutcome interleaved_reference(SelectionStrategy& strategy,
                                       std::span<const stats::Distribution> dists,
                                       std::size_t K, std::size_t H, stats::Rng& rng) {
  const stats::Distribution pu = stats::uniform(dists[0].size());
  MultiTimeOutcome out;
  for (std::size_t h = 0; h < H; ++h) {
    std::vector<std::size_t> s = strategy.select(K, rng);
    stats::Distribution po = population_of(dists, s);
    const double emd = stats::l1_distance(po, pu);
    out.try_emds.push_back(emd);
    if (h == 0 || emd < out.emd_star) {
      out.emd_star = emd;
      out.best_try = h;
      out.selected = std::move(s);
      out.population = std::move(po);
    }
  }
  return out;
}

void expect_same_outcome(const MultiTimeOutcome& a, const MultiTimeOutcome& b) {
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.best_try, b.best_try);
  EXPECT_EQ(a.try_emds, b.try_emds);  // exact, no tolerance
  EXPECT_EQ(a.emd_star, b.emd_star);
  EXPECT_EQ(a.population, b.population);
}

TEST(MultiTime, MatchesTheInterleavedLoopOverFixedSeeds) {
  const auto dists = make_cohort(120, 23);
  const RegistryCodec codec(10, {1, 2, 10});
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    RandomSelector random(dists.size());
    stats::Rng rng_a(seed), rng_b(seed);
    expect_same_outcome(multi_time_select(random, dists, 10, 5, rng_a),
                        interleaved_reference(random, dists, 10, 5, rng_b));
    DubheSelector dubhe(&codec, std::vector<double>{0.7, 0.1, 0.0});
    dubhe.register_clients(dists);
    expect_same_outcome(multi_time_select(dubhe, dists, 10, 5, rng_a),
                        interleaved_reference(dubhe, dists, 10, 5, rng_b));
    // Both orders leave the stream in the same place.
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
  }
}

TEST(MultiTime, EqualEmdsKeepTheFirstTry) {
  // Every client has the same distribution, so every try scores the same
  // EMD: the first-minimum tie-break must pick try 0 in both orders.
  const std::vector<stats::Distribution> same(30, stats::Distribution{0.7, 0.2, 0.1});
  RandomSelector random(same.size());
  stats::Rng rng_a(4), rng_b(4);
  const MultiTimeOutcome out = multi_time_select(random, same, 5, 6, rng_a);
  const MultiTimeOutcome ref = interleaved_reference(random, same, 5, 6, rng_b);
  EXPECT_EQ(out.best_try, 0u);
  for (const double emd : out.try_emds) EXPECT_EQ(emd, out.try_emds[0]);
  expect_same_outcome(out, ref);
}

TEST(MultiTime, WorksWithDubheSelector) {
  const auto dists = make_cohort(300, 17);
  const RegistryCodec codec(10, {1, 2, 10});
  DubheSelector dubhe(&codec, std::vector<double>{0.7, 0.1, 0.0});
  dubhe.register_clients(dists);
  stats::Rng rng(19);
  const MultiTimeOutcome h1 = multi_time_select(dubhe, dists, 20, 1, rng);
  const MultiTimeOutcome h10 = multi_time_select(dubhe, dists, 20, 10, rng);
  EXPECT_EQ(h10.selected.size(), 20u);
  EXPECT_LE(h10.emd_star, h1.emd_star + 0.2);  // overwhelmingly better or close
}

}  // namespace
}  // namespace dubhe::core
