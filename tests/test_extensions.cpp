// Tests for the extension features: FedProx proximal training, local-loss
// evaluation + power-of-choice selection, per-class evaluation, client
// dropout, and data drift with re-registration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/drift.hpp"
#include "fl/loss_selection.hpp"
#include "nn/builders.hpp"
#include "sim/experiment.hpp"

namespace dubhe {
namespace {

data::PartitionConfig small_config(std::size_t n = 40) {
  data::PartitionConfig cfg;
  cfg.num_classes = 10;
  cfg.num_clients = n;
  cfg.samples_per_client = 64;
  cfg.rho = 5;
  cfg.emd_avg = 1.2;
  cfg.seed = 11;
  return cfg;
}

double l2_distance(std::span<const float> a, std::span<const float> b) {
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (static_cast<double>(a[i]) - b[i]) * (static_cast<double>(a[i]) - b[i]);
  }
  return std::sqrt(acc);
}

// ---------------------------------------------------------------------------
// FedProx
// ---------------------------------------------------------------------------

TEST(FedProx, ProximalTermKeepsWeightsNearGlobal) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  const auto samples = ds.client_samples(0);
  const fl::Client client(0, {samples.begin(), samples.end()}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 16, 10, 5);
  const auto w0 = proto.get_weights();

  fl::TrainConfig plain{.batch_size = 8, .epochs = 3, .lr = 1e-2, .use_adam = false};
  fl::TrainConfig prox = plain;
  prox.prox_mu = 10.0;  // strong pull toward the global model

  const auto w_plain = client.train(proto, w0, plain, 42);
  const auto w_prox = client.train(proto, w0, prox, 42);
  EXPECT_LT(l2_distance(w_prox, w0), l2_distance(w_plain, w0));
  EXPECT_NE(w_prox, w0);  // still trains
}

TEST(FedProx, ZeroMuMatchesPlainTraining) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  const auto samples = ds.client_samples(1);
  const fl::Client client(1, {samples.begin(), samples.end()}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 16, 10, 5);
  const auto w0 = proto.get_weights();
  fl::TrainConfig a{.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  fl::TrainConfig b = a;
  b.prox_mu = 0.0;
  EXPECT_EQ(client.train(proto, w0, a, 9), client.train(proto, w0, b, 9));
}

TEST(FedProx, RunsInsideExperiment) {
  sim::ExperimentConfig cfg;
  cfg.spec = data::mnist_like();
  cfg.part = small_config(60);
  cfg.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  cfg.train.prox_mu = 0.01;
  cfg.K = 8;
  cfg.rounds = 5;
  cfg.eval_every = 5;
  cfg.method = sim::Method::kDubhe;
  const auto r = sim::run_experiment(cfg);
  EXPECT_EQ(r.po_pu_l1.size(), 5u);
}

// ---------------------------------------------------------------------------
// Local loss + power-of-choice
// ---------------------------------------------------------------------------

TEST(LocalLoss, ReflectsModelQuality) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  const auto samples = ds.client_samples(0);
  const fl::Client client(0, {samples.begin(), samples.end()}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 16, 10, 5);
  const auto w0 = proto.get_weights();
  const double before = client.local_loss(proto, w0);
  EXPECT_GT(before, 0.0);
  // After training on its own data, the client's local loss must drop.
  const auto w1 = client.train(
      proto, w0, fl::TrainConfig{.batch_size = 8, .epochs = 5, .lr = 1e-3, .use_adam = true},
      3);
  EXPECT_LT(client.local_loss(proto, w1), before);
}

TEST(LocalLoss, EmptyClientIsZero) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  const fl::Client client(9, {}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 8, 10, 5);
  EXPECT_EQ(client.local_loss(proto, proto.get_weights()), 0.0);
}

TEST(PowerOfChoice, SelectsKDistinctAndCountsEvaluations) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  fl::FederatedTrainer trainer(ds, nn::make_mlp(ds.feature_dim(), 16, 10, 5),
                               fl::TrainConfig{});
  fl::PowerOfChoiceSelector poc(&trainer, /*candidate_pool=*/20);
  stats::Rng rng(3);
  const auto s = poc.select(8, rng);
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(std::set<std::size_t>(s.begin(), s.end()).size(), 8u);
  EXPECT_EQ(poc.loss_evaluations(), 20u);  // d candidates evaluated
  poc.select(8, rng);
  EXPECT_EQ(poc.loss_evaluations(), 40u);
  EXPECT_EQ(poc.name(), "power-of-choice");
  EXPECT_THROW(poc.select(1000, rng), std::invalid_argument);
  EXPECT_THROW(fl::PowerOfChoiceSelector(nullptr, 10), std::invalid_argument);
}

TEST(PowerOfChoice, PrefersHighLossClients) {
  // Train the global model toward client 0's data; client 0's loss drops,
  // so power-of-choice with d = N must prefer everyone else.
  const data::FederatedDataset ds(data::mnist_like(), small_config(12));
  fl::FederatedTrainer trainer(
      ds, nn::make_mlp(ds.feature_dim(), 16, 10, 5),
      fl::TrainConfig{.batch_size = 8, .epochs = 8, .lr = 1e-3, .use_adam = true});
  const std::vector<std::size_t> only_zero{0};
  for (int round = 0; round < 5; ++round) {
    trainer.run_round(only_zero, static_cast<std::uint64_t>(round), false);
  }
  fl::PowerOfChoiceSelector poc(&trainer, /*candidate_pool=*/12);
  stats::Rng rng(4);
  const auto s = poc.select(6, rng);  // half the cohort; client 0 should miss
  EXPECT_EQ(std::count(s.begin(), s.end(), 0u), 0);
}

TEST(PowerOfChoice, RunsInsideExperiment) {
  sim::ExperimentConfig cfg;
  cfg.spec = data::mnist_like();
  cfg.part = small_config(60);
  cfg.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  cfg.K = 8;
  cfg.rounds = 6;
  cfg.eval_every = 3;
  cfg.method = sim::Method::kPowerOfChoice;
  cfg.poc_candidates = 24;
  const auto r = sim::run_experiment(cfg);
  EXPECT_EQ(r.po_pu_l1.size(), 6u);
  EXPECT_FALSE(r.accuracy_curve.empty());
}

TEST(PowerOfChoice, MakeSelectorRefusesIt) {
  const auto part = data::make_partition(small_config());
  const core::RegistryCodec codec(10, {1, 2, 10});
  EXPECT_THROW(sim::make_selector(sim::Method::kPowerOfChoice, part.client_dists,
                                  &codec, {0.7, 0.1, 0.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-class evaluation
// ---------------------------------------------------------------------------

TEST(PerClassEvaluation, ConsistentWithOverallAccuracy) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  fl::Server server(nn::make_mlp(ds.feature_dim(), 16, 10, 5));
  const double overall = server.evaluate(ds);
  const auto per_class = server.evaluate_per_class(ds);
  ASSERT_EQ(per_class.size(), 10u);
  double mean = 0;
  for (const double v : per_class) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    mean += v;
  }
  // Balanced test set: overall accuracy == mean of per-class recalls.
  EXPECT_NEAR(mean / 10.0, overall, 1e-9);
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

TEST(Dropout, ExperimentSurvivesHeavyDropout) {
  sim::ExperimentConfig cfg;
  cfg.spec = data::mnist_like();
  cfg.part = small_config(60);
  cfg.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  cfg.K = 10;
  cfg.rounds = 8;
  cfg.eval_every = 4;
  cfg.method = sim::Method::kDubhe;
  cfg.dropout_prob = 0.9;  // nearly everyone drops; rounds must still run
  const auto r = sim::run_experiment(cfg);
  EXPECT_EQ(r.po_pu_l1.size(), 8u);
}

TEST(Dropout, ZeroProbabilityIsIdentical) {
  sim::ExperimentConfig cfg;
  cfg.spec = data::mnist_like();
  cfg.part = small_config(60);
  cfg.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  cfg.K = 10;
  cfg.rounds = 4;
  cfg.eval_every = 2;
  cfg.method = sim::Method::kRandom;
  const auto a = sim::run_experiment(cfg);
  cfg.dropout_prob = 0.0;
  const auto b = sim::run_experiment(cfg);
  EXPECT_EQ(a.accuracy_curve, b.accuracy_curve);
}

// ---------------------------------------------------------------------------
// Drift + re-registration
// ---------------------------------------------------------------------------

TEST(Drift, ChangesRequestedFractionOfClients) {
  const auto cfg = small_config(100);
  const auto part = data::make_partition(cfg);
  const auto drifted = data::drift_partition(part, cfg, 0.3, 99);
  std::size_t changed = 0;
  for (std::size_t k = 0; k < 100; ++k) {
    if (drifted.client_counts[k] != part.client_counts[k]) ++changed;
  }
  // ~30 clients change (a donor row can coincide, so allow slack).
  EXPECT_GE(changed, 20u);
  EXPECT_LE(changed, 30u);
  // Row sums stay intact.
  for (const auto& row : drifted.client_counts) {
    std::size_t total = 0;
    for (const auto c : row) total += c;
    EXPECT_EQ(total, cfg.samples_per_client);
  }
}

TEST(Drift, ZeroAndFullFraction) {
  const auto cfg = small_config(30);
  const auto part = data::make_partition(cfg);
  const auto same = data::drift_partition(part, cfg, 0.0, 1);
  EXPECT_EQ(same.client_counts, part.client_counts);
  const auto all = data::drift_partition(part, cfg, 1.0, 1);
  std::size_t changed = 0;
  for (std::size_t k = 0; k < 30; ++k) {
    if (all.client_counts[k] != part.client_counts[k]) ++changed;
  }
  EXPECT_GE(changed, 25u);
}

TEST(Drift, GlobalsAreRecomputed) {
  const auto cfg = small_config(100);
  const auto part = data::make_partition(cfg);
  const auto drifted = data::drift_partition(part, cfg, 0.5, 7);
  std::vector<std::size_t> counts(10, 0);
  for (const auto& row : drifted.client_counts) {
    for (std::size_t c = 0; c < 10; ++c) counts[c] += row[c];
  }
  const auto expect = stats::from_counts(counts);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_NEAR(drifted.global_realized[c], expect[c], 1e-12);
  }
}

TEST(Drift, Validation) {
  const auto cfg = small_config(20);
  const auto part = data::make_partition(cfg);
  EXPECT_THROW(data::drift_partition(part, cfg, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(data::drift_partition(part, cfg, 1.1, 1), std::invalid_argument);
  auto wrong = cfg;
  wrong.num_clients = 21;
  EXPECT_THROW(data::drift_partition(part, wrong, 0.5, 1), std::invalid_argument);
}

TEST(Drift, ReRegistrationRestoresUnbiasedness) {
  // A stale registry on heavily drifted data balances worse than a fresh
  // one — the reason the paper's registration is periodic (§5.1).
  auto cfg = small_config(600);
  cfg.rho = 10;
  cfg.emd_avg = 1.5;
  const auto part = data::make_partition(cfg);
  const core::RegistryCodec codec(10, {1, 2, 10});
  const std::vector<double> sigma{0.7, 0.1, 0.0};

  core::DubheSelector stale(&codec, sigma);
  stale.register_clients(part.client_dists);

  const auto drifted = data::drift_partition(part, cfg, 0.8, 5);
  core::DubheSelector fresh(&codec, sigma);
  fresh.register_clients(drifted.client_dists);

  stats::Rng rng(9);
  const stats::Distribution pu = stats::uniform(10);
  double stale_l1 = 0, fresh_l1 = 0;
  const int reps = 60;
  for (int i = 0; i < reps; ++i) {
    stale_l1 += stats::l1_distance(
        core::population_of(drifted.client_dists, stale.select(20, rng)), pu);
    fresh_l1 += stats::l1_distance(
        core::population_of(drifted.client_dists, fresh.select(20, rng)), pu);
  }
  EXPECT_LT(fresh_l1, stale_l1);
}

}  // namespace
}  // namespace dubhe
