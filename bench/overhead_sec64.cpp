// §6.4: encryption and communication overhead, at the paper's deployment
// parameters (Paillier key size 2048).
//
// Paper reference numbers (python-paillier):
//   registry (56 slots):   plaintext 0.47-0.49 KB, ciphertext 29.6-31.28 KB,
//                          encrypt 6.9 s, decrypt 1.9 s
//   p_l (52 slots):        plaintext 0.68 KB, ciphertext 29.1 KB,
//                          encrypt 6.8 s, decrypt 1.7 s
//   communication:         N messages per registration, ~HK per multi-time
//                          round, K for the classic per-round check-in
//
// This binary measures the same quantities with the from-scratch Paillier
// (CRT decryption, g = n+1 encryption) and additionally quantifies the
// BatchCrypt-style packed registry, which fits a whole registry into one
// ciphertext. The communication table is the ledger of one secure session
// run through net::run_session_direct, which prices every frame the wire
// would carry at its exact size; the session's crypto time is read from the
// dubhe_paillier_{encrypt,decrypt}_seconds telemetry histograms.

#include <chrono>

#include "bench_common.hpp"
#include "bigint/limb.hpp"
#include "bigint/montgomery.hpp"
#include "core/telemetry.hpp"
#include "net/node.hpp"
#include "nn/builders.hpp"
#include "paillier/encrypted_vector.hpp"

using namespace dubhe;
using Clock = std::chrono::steady_clock;

namespace {

double secs(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void measure_vector(const char* what, const he::Keypair& kp, std::size_t slots,
                    bigint::EntropySource& rng, sim::Table& table) {
  std::vector<std::uint64_t> values(slots, 0);
  values[slots / 2] = 1;
  const std::size_t plain_bytes = slots * sizeof(std::uint64_t);

  auto t0 = Clock::now();
  const auto enc = he::EncryptedVector::encrypt(kp.pub, values, rng);
  const double enc_s = secs(t0);

  t0 = Clock::now();
  (void)enc.decrypt(kp.prv);
  const double dec_s = secs(t0);

  table.add_row({what, std::to_string(slots), sim::fmt_bytes(plain_bytes),
                 sim::fmt_bytes(static_cast<double>(enc.byte_size())),
                 sim::fmt(enc_s, 2) + " s", sim::fmt(dec_s, 2) + " s"});
}

void measure_packed(const char* what, const he::Keypair& kp, std::size_t slots,
                    bigint::EntropySource& rng, sim::Table& table) {
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 20);
  std::vector<std::uint64_t> values(slots, 0);
  values[slots / 2] = 1;

  auto t0 = Clock::now();
  const auto enc = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng);
  const double enc_s = secs(t0);

  t0 = Clock::now();
  (void)enc.decrypt(kp.prv);
  const double dec_s = secs(t0);

  table.add_row({what, std::to_string(slots),
                 sim::fmt_bytes(static_cast<double>(slots * sizeof(std::uint64_t))),
                 sim::fmt_bytes(static_cast<double>(enc.byte_size())),
                 sim::fmt(enc_s, 2) + " s", sim::fmt(dec_s, 2) + " s"});
}

}  // namespace

int main() {
  bench::banner("§6.4 — encryption and communication overhead",
                "Section 6.4 (Paillier-2048, registry lengths 56 and 53, p_l length 52)",
                "Paper: registry ciphertext ~30 KB, encrypt 6.9 s / decrypt 1.9 s "
                "(python-paillier)");

  // Record which bigint kernel produced these numbers: the limb width is
  // the dominant constant behind every encrypt/decrypt figure below.
  std::cout << "bigint kernel: " << bigint::kLimbBits << "-bit limbs, "
            << (DUBHE_HAS_INT128 ? "__int128" : "portable 32-bit synthesized")
            << " intermediates, " << bigint::to_string(bigint::select_row_tier())
            << " Montgomery rows\n";

  bigint::Xoshiro256ss rng(2048);
  auto t0 = Clock::now();
  const he::Keypair kp = he::Keypair::generate(rng, 2048);
  std::cout << "keygen (2048-bit modulus): " << sim::fmt(secs(t0), 2) << " s\n\n";

  sim::Table table({"payload", "slots", "plaintext", "ciphertext", "encrypt", "decrypt"});
  measure_vector("registry G={1,2,10} (C=10)", kp, 56, rng, table);
  measure_vector("registry G={1,52}   (C=52)", kp, 53, rng, table);
  measure_vector("p_l distribution    (C=52)", kp, 52, rng, table);
  measure_packed("registry, packed (20b slots)", kp, 56, rng, table);
  table.print(std::cout);

  // Communication counts measured on a real (small-key) secure session.
  std::cout << "\nCommunication accounting (measured on a secure session, N = 50, "
               "K = 10, H = 5):\n";
  const std::size_t N = 50, K = 10, H = 5;
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = N;
  pc.samples_per_client = 128;
  pc.rho = 10;
  pc.emd_avg = 1.5;
  pc.seed = 3;
  const data::FederatedDataset dataset(data::mnist_like(), pc);

  net::SessionParams params;
  params.secure.key_bits = 256;  // counts are key-size independent
  params.K = K;
  params.H = H;
  params.evaluate = false;
  fl::ChannelAccountant channel;
  telemetry::reset_all();
  telemetry::set_enabled(true);
  (void)net::run_session_direct(dataset, nn::make_mlp(dataset.feature_dim(), 16, 10, 7),
                                params, &channel);
  telemetry::set_enabled(false);
  const fl::ChannelLedger ledger = channel.snapshot();

  // The per-kind byte column splits into ciphertext material versus
  // everything else (framing, length prefixes, key material).
  sim::Table comm({"message kind", "count", "bytes", "encrypted", "plaintext",
                  "paper count"});
  const auto split_row = [&](const char* name, fl::MessageKind kind,
                             const std::string& paper) {
    const auto total = ledger.bytes(kind);
    const auto enc = ledger.encrypted_bytes(kind);
    comm.add_row({name, std::to_string(ledger.messages(kind)),
                  sim::fmt_bytes(static_cast<double>(total)),
                  sim::fmt_bytes(static_cast<double>(enc)),
                  sim::fmt_bytes(static_cast<double>(total - enc)), paper});
  };
  split_row("key material", fl::MessageKind::kKeyMaterial, "N = " + std::to_string(N));
  split_row("registry (up+down)", fl::MessageKind::kRegistry,
            "2N = " + std::to_string(2 * N));
  split_row("p_l multi-time", fl::MessageKind::kDistribution,
            "~HK = " + std::to_string(H * K));
  comm.print(std::cout);

  const auto& enc_hist = telemetry::histogram("dubhe_paillier_encrypt_seconds{mode=\"plain\"}");
  const auto& dec_hist = telemetry::histogram("dubhe_paillier_decrypt_seconds");
  // The decrypt histogram observes one pooled call per vector; its counter
  // counts the ciphertexts.
  const auto& dec_count = telemetry::counter("dubhe_paillier_decrypt_total");
  std::cout << "\nCrypto time inside the session: encrypt "
            << sim::fmt(enc_hist.sum(), 2) << " s over " << enc_hist.count()
            << " ciphertexts, decrypt " << sim::fmt(dec_hist.sum(), 2) << " s over "
            << dec_count.value() << " ciphertexts.\n"
            << "Registries and p_l are KBs versus model weights in MBs "
               "(paper's point: the selection overhead is negligible, and the "
               "packed registry is ~50x smaller still).\n";
  return 0;
}
