#include <gtest/gtest.h>

#include "data/federated.hpp"
#include "fl/channel.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "fl/trainer.hpp"
#include "net/codec.hpp"
#include "nn/builders.hpp"
#include "stats/rng.hpp"

namespace dubhe::fl {
namespace {

data::PartitionConfig small_config() {
  data::PartitionConfig cfg;
  cfg.num_classes = 10;
  cfg.num_clients = 30;
  cfg.samples_per_client = 32;
  cfg.rho = 4;
  cfg.emd_avg = 1.0;
  cfg.seed = 11;
  return cfg;
}

TEST(Channel, RecordsPerKindAndDirection) {
  ChannelAccountant ch;
  ch.record(MessageKind::kRegistry, Direction::kClientToServer, 100);
  ch.record(MessageKind::kRegistry, Direction::kServerToClient, 50, 2);
  ch.record(MessageKind::kModelWeights, Direction::kClientToServer, 1000);
  EXPECT_EQ(ch.messages(MessageKind::kRegistry), 3u);
  EXPECT_EQ(ch.bytes(MessageKind::kRegistry), 150u);
  EXPECT_EQ(ch.messages(MessageKind::kRegistry, Direction::kClientToServer), 1u);
  EXPECT_EQ(ch.bytes(MessageKind::kModelWeights), 1000u);
  EXPECT_EQ(ch.total_messages(), 4u);
  EXPECT_EQ(ch.total_bytes(), 1150u);
  ch.reset();
  EXPECT_EQ(ch.total_messages(), 0u);
  EXPECT_EQ(ch.total_bytes(), 0u);
}

TEST(Channel, KindNames) {
  EXPECT_EQ(to_string(MessageKind::kRegistry), "registry");
  EXPECT_EQ(to_string(MessageKind::kModelWeights), "model-weights");
}

TEST(Client, LabelDistributionMatchesSamples) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  const auto samples = ds.client_samples(3);
  const Client client(3, {samples.begin(), samples.end()}, &ds);
  EXPECT_EQ(client.label_distribution(), ds.client_distribution(3));
  EXPECT_THROW(Client(0, {}, nullptr), std::invalid_argument);
}

TEST(Client, TrainingIsDeterministicPerSeed) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  const auto samples = ds.client_samples(0);
  const Client client(0, {samples.begin(), samples.end()}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 16, 10, 5);
  const auto w0 = proto.get_weights();
  const TrainConfig cfg{.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  const auto w1 = client.train(proto, w0, cfg, 42);
  const auto w2 = client.train(proto, w0, cfg, 42);
  const auto w3 = client.train(proto, w0, cfg, 43);
  EXPECT_EQ(w1, w2);
  EXPECT_NE(w1, w3);
  EXPECT_NE(w1, w0);  // training actually moved the weights
}

TEST(Client, EmptyClientReturnsGlobalWeights) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  const Client client(9, {}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 8, 10, 5);
  const auto w0 = proto.get_weights();
  EXPECT_EQ(client.train(proto, w0, TrainConfig{}, 1), w0);
}

TEST(Server, AggregateIsExactMean) {
  nn::Sequential proto = nn::make_mlp(2, 2, 2, 3);
  Server server(std::move(proto));
  const std::size_t n = server.global_weights().size();
  std::vector<std::vector<float>> updates(2, std::vector<float>(n));
  for (std::size_t i = 0; i < n; ++i) {
    updates[0][i] = 1.0f;
    updates[1][i] = 3.0f;
  }
  server.aggregate(updates);
  for (const float w : server.global_weights()) EXPECT_EQ(w, 2.0f);
}

TEST(Server, AggregateValidation) {
  Server server(nn::make_mlp(2, 2, 2, 3));
  EXPECT_THROW(server.aggregate({}), std::invalid_argument);
  std::vector<std::vector<float>> bad{std::vector<float>{1.0f}};
  EXPECT_THROW(server.aggregate(bad), std::invalid_argument);
}

TEST(Server, SetGlobalWeightsValidatesSize) {
  Server server(nn::make_mlp(2, 2, 2, 3));
  auto w = server.global_weights();
  w.push_back(0.0f);
  EXPECT_THROW(server.set_global_weights(w), std::invalid_argument);
}

TEST(Trainer, RoundPopulationMatchesSelectedClients) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  FederatedTrainer trainer(ds, nn::make_mlp(ds.feature_dim(), 16, 10, 5), TrainConfig{});
  const std::vector<std::size_t> sel{0, 1, 2};
  const RoundResult rr = trainer.run_round(sel, 1, /*evaluate=*/false);
  stats::Distribution expect(10, 0.0);
  for (const std::size_t k : sel) {
    for (std::size_t c = 0; c < 10; ++c) expect[c] += ds.client_distribution(k)[c];
  }
  stats::normalize(expect);
  for (std::size_t c = 0; c < 10; ++c) EXPECT_NEAR(rr.population[c], expect[c], 1e-12);
  EXPECT_NEAR(rr.population_l1_to_uniform,
              stats::l1_distance(expect, stats::uniform(10)), 1e-12);
}

TEST(Trainer, EmptySelectionThrows) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  FederatedTrainer trainer(ds, nn::make_mlp(ds.feature_dim(), 8, 10, 5), TrainConfig{});
  EXPECT_THROW(trainer.run_round({}, 1), std::invalid_argument);
}

TEST(Trainer, ChannelAccountsModelTraffic) {
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  ChannelAccountant channel;
  FederatedTrainer trainer(ds, nn::make_mlp(ds.feature_dim(), 8, 10, 5), TrainConfig{},
                           &channel);
  const std::vector<std::size_t> sel{0, 1, 2, 3};
  trainer.run_round(sel, 1, false);
  EXPECT_EQ(channel.messages(MessageKind::kModelWeights, Direction::kServerToClient), 4u);
  EXPECT_EQ(channel.messages(MessageKind::kModelWeights, Direction::kClientToServer), 4u);
  // Exact encoded frame size (header + seed/id + count + f32 payload), not
  // the bare float-payload estimate — what a net::Transport would carry.
  const std::size_t model_bytes =
      net::wire_size(net::WeightsMsg{0, trainer.server().global_weights()}).frame;
  EXPECT_EQ(channel.bytes(MessageKind::kModelWeights), 2 * 4 * model_bytes);
}

TEST(Trainer, TrainingImprovesAccuracyOnEasyData) {
  data::PartitionConfig cfg = small_config();
  cfg.rho = 1;
  cfg.emd_avg = 0.0;
  const data::FederatedDataset ds(data::mnist_like(), cfg);
  // 32 samples/client at batch 8 is only 4 optimizer steps per epoch, and a
  // fresh Adam warms up slowly — train 5 local epochs like the paper's
  // FEMNIST configuration so rounds make visible progress.
  FederatedTrainer trainer(ds, nn::make_mlp(ds.feature_dim(), 32, 10, 5),
                           TrainConfig{.batch_size = 8, .epochs = 5, .lr = 1e-3,
                                       .use_adam = true});
  stats::Rng rng(3);
  double first = 0, last = 0;
  for (int round = 0; round < 25; ++round) {
    const auto sel = rng.choose_k_of_n(10, ds.num_clients());
    const RoundResult rr = trainer.run_round(sel, static_cast<std::uint64_t>(round), true);
    if (round == 0) first = rr.test_accuracy;
    last = rr.test_accuracy;
  }
  EXPECT_GT(last, first + 0.15);
  EXPECT_GT(last, 0.75);
}

TEST(Trainer, PooledRoundMatchesASerialReference) {
  // Sharding a round on the pool must not change results: per-client work
  // is seeded by (round, client id) alone and aggregation order is fixed by
  // the selection. The reference trains each selected client in turn on
  // this thread, then aggregates.
  const data::FederatedDataset ds(data::mnist_like(), small_config());
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 16, 10, 5);
  FederatedTrainer trainer(ds, proto, TrainConfig{});
  const std::vector<std::size_t> sel{0, 5, 10, 15, 20};
  trainer.run_round(sel, 7, false);

  Server reference(proto);
  std::vector<std::vector<float>> updates;
  for (const std::size_t k : sel) {
    const auto samples = ds.client_samples(k);
    const Client c(k, {samples.begin(), samples.end()}, &ds);
    updates.push_back(c.train(reference.prototype(), reference.global_weights(), TrainConfig{},
                              stats::derive_seed(7, k + 1)));
  }
  reference.aggregate(updates);
  EXPECT_EQ(trainer.server().global_weights(), reference.global_weights());
}

}  // namespace
}  // namespace dubhe::fl
