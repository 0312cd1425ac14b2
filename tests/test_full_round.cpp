// The paper's Figure 3, end to end: one complete Dubhe round driven through
// the public APIs — agent keygen, encrypted registration, proactive
// probability calculation, multi-time tentative selection with encrypted
// population aggregation, client drop-out, local training, equal-weight
// aggregation and evaluation — with consistency asserted at every joint.

#include <gtest/gtest.h>

#include <set>

#include "core/multitime.hpp"
#include "core/secure.hpp"
#include "core/selection.hpp"
#include "data/federated.hpp"
#include "fl/trainer.hpp"
#include "nn/builders.hpp"

namespace dubhe {
namespace {

class FullRound : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PartitionConfig pc;
    pc.num_classes = 10;
    pc.num_clients = 50;
    pc.samples_per_client = 64;
    pc.rho = 8;
    pc.emd_avg = 1.4;
    pc.seed = 21;
    dataset_ = std::make_unique<data::FederatedDataset>(data::mnist_like(), pc);
  }
  std::unique_ptr<data::FederatedDataset> dataset_;
};

TEST_F(FullRound, Figure3Walkthrough) {
  const auto& dists = dataset_->partition().client_dists;
  const std::size_t N = dataset_->num_clients();
  const std::size_t K = 8, H = 5;

  // --- Client selection module: registration under HE (§5.1). ---
  const core::RegistryCodec codec(10, {1, 2, 10});
  const std::vector<double> sigma{0.7, 0.1, 0.0};
  fl::ChannelAccountant channel;
  core::SecureConfig scfg;
  scfg.key_bits = 256;
  bigint::Xoshiro256ss he_rng(5);
  core::SecureSelectionSession session(codec, sigma, scfg, N, he_rng, &channel);
  auto reg = session.run_registration(dists);

  // Invariant: the overall registry counts exactly the cohort.
  std::uint64_t total = 0;
  for (const auto v : reg.overall_registry) total += v;
  ASSERT_EQ(total, N);

  // --- Probability calculation (§5.2, Eq. 6-7). ---
  core::DubheSelector selector(&codec, sigma);
  selector.load_overall_registry(std::move(reg.overall_registry),
                                 std::move(reg.registrations));
  double expected_participants = 0;
  for (std::size_t k = 0; k < N; ++k) {
    const double p = selector.probability(k, K);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    expected_participants += p;
  }
  EXPECT_NEAR(expected_participants, static_cast<double>(K), K * 0.25);

  // --- Multi-time client determination (§5.3.1) with the per-try p_o
  //     aggregated under encryption, as the agent would see it. ---
  stats::Rng sel_rng(9);
  const auto outcome = core::multi_time_select(selector, dists, K, H, sel_rng);
  ASSERT_EQ(outcome.selected.size(), K);
  ASSERT_EQ(std::set<std::size_t>(outcome.selected.begin(), outcome.selected.end()).size(),
            K);
  // The encrypted aggregation of the winning set must match the plaintext
  // population the determination used.
  const auto po_secure = session.aggregate_population(dists, outcome.selected);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_NEAR(po_secure[c], outcome.population[c], 1e-4);
  }
  EXPECT_NEAR(stats::l1_distance(po_secure, stats::uniform(10)), outcome.emd_star, 1e-4);

  // --- Drop out (Fig. 3): one selected client vanishes before training. ---
  std::vector<std::size_t> participants = outcome.selected;
  participants.pop_back();

  // --- Training + aggregation + evaluation. ---
  fl::FederatedTrainer trainer(
      *dataset_, nn::make_mlp(dataset_->feature_dim(), 32, 10, 7),
      {.batch_size = 8, .epochs = 2, .lr = 1e-3, .use_adam = true}, &channel);
  const auto w_before = trainer.server().global_weights();
  const fl::RoundResult rr = trainer.run_round(participants, 1, /*evaluate=*/true);
  EXPECT_NE(trainer.server().global_weights(), w_before);
  EXPECT_GT(rr.test_accuracy, 0.05);
  EXPECT_EQ(rr.population.size(), 10u);

  // --- The channel saw every §6.4 message category. ---
  EXPECT_EQ(channel.messages(fl::MessageKind::kKeyMaterial), N);
  EXPECT_EQ(channel.messages(fl::MessageKind::kRegistry), 2 * N);
  EXPECT_GE(channel.messages(fl::MessageKind::kDistribution), K);
  EXPECT_EQ(channel.messages(fl::MessageKind::kModelWeights), 2 * participants.size());
  // Selection traffic (KBs) is dwarfed by nothing here because the model is
  // tiny, but the registry bytes must match the advertised wire size.
  EXPECT_EQ(channel.bytes(fl::MessageKind::kRegistry),
            2 * N * session.encrypted_registry_bytes());
}

TEST_F(FullRound, SecondRegistrationRefreshesCleanly) {
  // Re-registration (periodic per §5.1) must be independent of the first.
  const auto& dists = dataset_->partition().client_dists;
  const core::RegistryCodec codec(10, {1, 2, 10});
  core::SecureConfig scfg;
  scfg.key_bits = 256;
  bigint::Xoshiro256ss rng(6);
  core::SecureSelectionSession session(codec, {0.7, 0.1, 0.0}, scfg,
                                       dataset_->num_clients(), rng);
  const auto first = session.run_registration(dists);
  const auto second = session.run_registration(dists);
  EXPECT_EQ(first.overall_registry, second.overall_registry);
}

}  // namespace
}  // namespace dubhe
