#include "core/secure.hpp"

#include <gtest/gtest.h>

#include "core/multitime.hpp"

#include "core/selection.hpp"
#include "data/partition.hpp"

namespace dubhe::core {
namespace {

std::vector<stats::Distribution> make_cohort(std::size_t n, std::uint64_t seed = 5) {
  data::PartitionConfig cfg;
  cfg.num_classes = 10;
  cfg.num_clients = n;
  cfg.samples_per_client = 128;
  cfg.rho = 5;
  cfg.emd_avg = 1.2;
  cfg.seed = seed;
  return data::make_partition(cfg).client_dists;
}

SecureConfig test_config() {
  SecureConfig cfg;
  cfg.key_bits = 256;  // small keys keep the test fast; 2048 runs in the bench
  cfg.packing_slot_bits = 16;
  // Keep fixed-point sums within the 16-bit packed slots (5 clients x 2000).
  cfg.fixed_point_scale = 2000;
  return cfg;
}

TEST(SecureSession, RegistrationMatchesPlaintextPath) {
  const auto dists = make_cohort(40);
  const RegistryCodec codec(10, {1, 2, 10});
  const std::vector<double> sigma{0.7, 0.1, 0.0};

  bigint::Xoshiro256ss rng(42);
  SecureSelectionSession session(codec, sigma, test_config(), dists.size(), rng);
  const auto outcome = session.run_registration(dists);

  // The HE path must agree exactly with plaintext registration + summation.
  DubheSelector plain(&codec, sigma);
  plain.register_clients(dists);
  EXPECT_EQ(outcome.overall_registry, plain.overall_registry());
  ASSERT_EQ(outcome.registrations.size(), dists.size());
  for (std::size_t k = 0; k < dists.size(); ++k) {
    EXPECT_EQ(outcome.registrations[k].category_index,
              plain.registrations()[k].category_index);
  }
}

TEST(SecureSession, RegistrySumsToCohortSize) {
  const auto dists = make_cohort(25);
  const RegistryCodec codec(10, {1, 2, 10});
  bigint::Xoshiro256ss rng(43);
  SecureSelectionSession session(codec, {0.7, 0.1, 0.0}, test_config(),
                                 dists.size(), rng);
  const auto outcome = session.run_registration(dists);
  std::uint64_t total = 0;
  for (const auto v : outcome.overall_registry) total += v;
  EXPECT_EQ(total, 25u);
}

TEST(SecureSession, AggregatePopulationMatchesPlaintext) {
  const auto dists = make_cohort(30);
  const RegistryCodec codec(10, {1, 2, 10});
  bigint::Xoshiro256ss rng(44);
  SecureSelectionSession session(codec, {0.7, 0.1, 0.0}, test_config(),
                                 dists.size(), rng);
  const std::vector<std::size_t> selected{1, 4, 9, 16, 25};
  const auto po = session.aggregate_population(dists, selected);
  const auto expect = population_of(dists, selected);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_NEAR(po[c], expect[c], 2e-3);  // fixed-point quantization tolerance
  }
}

TEST(SecureSession, DubheSelectorConsumesSecureRegistry) {
  // End-to-end §5.1 -> §5.2: selection probabilities computed from the
  // securely aggregated registry equal the plaintext ones.
  const auto dists = make_cohort(60);
  const RegistryCodec codec(10, {1, 2, 10});
  const std::vector<double> sigma{0.7, 0.1, 0.0};
  bigint::Xoshiro256ss rng(48);
  SecureSelectionSession session(codec, sigma, test_config(), dists.size(), rng);
  auto outcome = session.run_registration(dists);

  DubheSelector secure_backed(&codec, sigma);
  secure_backed.load_overall_registry(std::move(outcome.overall_registry),
                                      std::move(outcome.registrations));
  DubheSelector plain(&codec, sigma);
  plain.register_clients(dists);
  for (std::size_t k = 0; k < dists.size(); ++k) {
    EXPECT_DOUBLE_EQ(secure_backed.probability(k, 20), plain.probability(k, 20));
  }
}

TEST(SecureSession, CohortSizeMismatchThrows) {
  const auto dists = make_cohort(10);
  const RegistryCodec codec(10, {1, 2, 10});
  bigint::Xoshiro256ss rng(49);
  SecureSelectionSession session(codec, {0.7, 0.1, 0.0}, test_config(), 11, rng);
  EXPECT_THROW(session.run_registration(dists), std::invalid_argument);
  EXPECT_THROW(session.aggregate_population(dists, std::vector<std::size_t>{}),
               std::invalid_argument);
}

TEST(SecureSession, SigmaArityValidated) {
  const RegistryCodec codec(10, {1, 2, 10});
  bigint::Xoshiro256ss rng(50);
  EXPECT_THROW(
      SecureSelectionSession(codec, {0.7}, test_config(), 5, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace dubhe::core
