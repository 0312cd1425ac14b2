// Walk-through of Dubhe's privacy machinery (paper §5.1-§5.2): what each
// party sees during a registration round. Every client's label distribution
// stays on the client; the server only ever handles Paillier ciphertexts;
// the decrypted *aggregate* is all anyone learns.
//
//   ./build/examples/secure_registration

#include <cstdio>

#include "core/secure.hpp"
#include "core/selection.hpp"
#include "core/telemetry.hpp"
#include "data/partition.hpp"
#include "net/schema.hpp"

int main() {
  using namespace dubhe;

  // Ten clients with very different local label mixes.
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = 10;
  pc.samples_per_client = 128;
  pc.rho = 5;
  pc.emd_avg = 1.4;
  pc.seed = 42;
  const data::Partition part = data::make_partition(pc);

  const core::RegistryCodec codec(10, {1, 2, 10});
  const std::vector<double> sigma{0.7, 0.1, 0.0};
  std::printf("registry codebook: G = {1, 2, 10}, length %zu "
              "(10 singles + 45 pairs + 1 'balanced')\n\n",
              codec.length());

  // --- Client side: Algorithm 1 turns a private distribution into one bit.
  std::printf("client-side registration (private):\n");
  for (std::size_t k = 0; k < 3; ++k) {
    const auto reg = core::register_client(codec, part.client_dists[k], sigma);
    std::printf("  client %zu: dominating classes {", k);
    for (std::size_t i = 0; i < reg.category.size() && i < 3; ++i) {
      std::printf("%s%zu", i ? "," : "", reg.category[i]);
    }
    std::printf("%s} -> flips registry slot %zu\n",
                reg.category.size() > 3 ? ",..." : "", reg.category_index);
  }

  // --- The full encrypted round-trip, with the crypto timed by telemetry.
  telemetry::set_enabled(true);
  core::SecureConfig scfg;
  scfg.key_bits = 512;  // demo key; the paper (and bench/overhead_sec64) use 2048
  bigint::Xoshiro256ss rng(7);
  core::SecureSelectionSession session(codec, sigma, scfg, pc.num_clients, rng);
  std::printf("\nagent generated a %zu-bit Paillier key and dispatched it to %zu "
              "clients\n",
              session.public_key().key_bits(), pc.num_clients);

  auto outcome = session.run_registration(part.client_dists);
  const he::PackedCodec packed(scfg.key_bits - 1, scfg.packing_slot_bits);
  std::printf("each client uploaded an encrypted registry frame of %zu bytes; the "
              "server summed ciphertexts only\n",
              net::wire_size(net::packed_shape(session.public_key(), packed, codec.length()))
                  .frame);

  // What the cohort learns: the aggregate R_A — and nothing per-client.
  std::printf("\ndecrypted overall registry R_A (only non-zero slots):\n  ");
  for (std::size_t i = 0; i < outcome.overall_registry.size(); ++i) {
    if (outcome.overall_registry[i] == 0) continue;
    const auto cat = codec.category_at(i);
    std::printf("slot%zu{", i);
    for (std::size_t j = 0; j < cat.size() && j < 3; ++j) {
      std::printf("%s%zu", j ? "," : "", cat[j]);
    }
    std::printf("%s}=%llu ", cat.size() > 3 ? ",..." : "",
                static_cast<unsigned long long>(outcome.overall_registry[i]));
  }

  // --- Each client now computes its own participation probability (Eq. 6).
  core::DubheSelector selector(&codec, sigma);
  selector.load_overall_registry(std::move(outcome.overall_registry),
                                 std::move(outcome.registrations));
  std::printf("\n\nproactive participation probabilities for K = 4:\n");
  for (std::size_t k = 0; k < pc.num_clients; ++k) {
    std::printf("  client %zu: P = %.3f\n", k, selector.probability(k, 4));
  }

  std::printf("\ncrypto time: %.3f s encrypting, %.3f s decrypting\n",
              telemetry::histogram("dubhe_paillier_encrypt_seconds{mode=\"plain\"}").sum(),
              telemetry::histogram("dubhe_paillier_decrypt_seconds").sum());
  return 0;
}
