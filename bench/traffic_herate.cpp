// Ciphertext traffic diet: the he_rate sweep behind wire v3's selective
// model-update encryption (kModelUpdateSparse). For he_rate in
// {0, 0.1, 0.5, 1.0} this driver reports, on the fig6 fast-scale MNIST
// config:
//
//   1. measured bytes/round of the model-update channel, split into
//      ciphertext material vs plaintext (ledger accounting, small key —
//      byte *counts* at the deployment key are predicted separately);
//   2. predicted bytes/round at the deployment 2048-bit key, priced by
//      net::wire_size from the payload field lists in net/schema.hpp;
//   3. encrypt + aggregate + decrypt wall-clock at the 2048-bit key,
//      micro-timed on the real packed ciphertext path;
//   4. final accuracy and its delta against the he_rate = 0 plaintext
//      baseline (identical for every rate > 0: both portions quantize the
//      same way, so the delta measures quantization alone).

#include <chrono>

#include "bench_common.hpp"
#include "core/selective.hpp"
#include "net/node.hpp"
#include "net/schema.hpp"
#include "nn/builders.hpp"

using namespace dubhe;
using Clock = std::chrono::steady_clock;

namespace {

double secs(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  bench::banner("Ciphertext traffic diet — he_rate sweep over model updates",
                "Section 6.4 extension: selective (top-k) update encryption",
                "he_rate = fraction of update coordinates shipped as packed "
                "ciphertexts; the rest travel quantized-plaintext behind the "
                "shared bitmap");

  // fig6 fast-scale shape (MNIST-2/1.0), shrunk to session-bench size: the
  // sweep runs 4 full secure sessions and the point is the *traffic*, not
  // the curve.
  const std::size_t N = bench::scaled(100, 40);
  const std::size_t K = bench::scaled(20, 10);
  const std::size_t R = bench::scaled(20, 5);
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = N;
  pc.samples_per_client = 64;
  pc.rho = 2;
  pc.emd_avg = 1.0;
  pc.seed = 3;
  const data::FederatedDataset dataset{data::mnist_like(), pc};
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const std::size_t n_weights = proto.num_params();

  std::cout << "clients N = " << N << ", participants K = " << K << ", rounds = " << R
            << ", model coordinates n = " << n_weights << "\n\n";

  // The deployment-size key, for exact 2048-bit frame predictions and the
  // crypto wall-clock micro-timings.
  bigint::Xoshiro256ss krng(2048);
  auto t0 = Clock::now();
  const he::Keypair kp = he::Keypair::generate(krng, 2048);
  std::cout << "keygen (2048-bit modulus): " << sim::fmt(secs(t0), 2) << " s\n\n";
  const std::size_t slot_bits = core::update_slot_bits(N);
  const he::PackedCodec codec(kp.pub.key_bits() - 1, slot_bits);

  sim::Table table({"he_rate", "enc coords", "bytes/round", "encrypted", "plaintext",
                    "2048b bytes/round", "accuracy", "d_acc"});
  double acc0 = 0.0;
  for (const double rate : {0.0, 0.1, 0.5, 1.0}) {
    net::SessionParams params;
    params.secure.key_bits = 256;  // counts and weights are key-size independent
    params.secure.update_he_rate = rate;
    params.K = K;
    params.H = 3;
    params.rounds = R;
    params.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};

    fl::ChannelAccountant channel;
    const auto transcript = net::run_session_direct(dataset, proto, params, &channel);

    // Model-update channel traffic, averaged per round (up + down).
    const fl::ChannelLedger ledger = channel.snapshot();
    const auto total = ledger.bytes(fl::MessageKind::kModelWeights);
    const auto enc = ledger.encrypted_bytes(fl::MessageKind::kModelWeights);
    const double per_round = static_cast<double>(total) / static_cast<double>(R);
    const double enc_round = static_cast<double>(enc) / static_cast<double>(R);

    // Exact per-round bytes at the deployment key: K model downlinks plus K
    // uplinks — plaintext kModelUpdate frames at rate 0, kModelUpdateSparse
    // otherwise.
    const std::size_t k = core::update_encrypted_count(n_weights, rate);
    const std::size_t down_2048 =
        net::wire_size(net::WeightsMsg{0, std::vector<float>(n_weights)}).frame;
    const std::size_t up_2048 =
        k == 0 ? down_2048
               : net::wire_size(net::ModelUpdateSparse{
                                    0, static_cast<std::uint32_t>(n_weights), 16, {}, {},
                                    net::packed_shape(kp.pub, codec, k)})
                     .frame;
    const double round_2048 =
        static_cast<double>(K) * static_cast<double>(down_2048 + up_2048);

    const double acc = transcript.rounds.back().accuracy;
    if (rate == 0.0) acc0 = acc;
    table.add_row({sim::fmt(rate, 1), std::to_string(k), sim::fmt_bytes(per_round),
                   sim::fmt_bytes(enc_round), sim::fmt_bytes(per_round - enc_round),
                   sim::fmt_bytes(round_2048), sim::fmt(acc, 4),
                   sim::fmt(acc - acc0, 4)});
  }
  table.print(std::cout);

  // Crypto wall-clock at the deployment key, micro-timed on the packed
  // path a real client/server would run: one client's top-k encryption,
  // the server's K-1 homomorphic additions, and the final decryption.
  std::cout << "\nCrypto wall-clock at 2048-bit (" << slot_bits << "-bit slots, "
            << codec.slots_per_plaintext() << " coords/ciphertext):\n";
  sim::Table crypto({"he_rate", "ciphertexts", "encrypt (1 client)",
                     "aggregate (K adds)", "decrypt"});
  bigint::Xoshiro256ss rng(7);
  for (const double rate : {0.1, 0.5, 1.0}) {
    const std::size_t k = core::update_encrypted_count(n_weights, rate);
    const std::vector<std::uint64_t> vals(k, (std::uint64_t{1} << 15) + 17);

    t0 = Clock::now();
    const auto ct = he::PackedEncryptedVector::encrypt(kp.pub, codec, vals, rng);
    const double enc_s = secs(t0);

    t0 = Clock::now();
    he::PackedEncryptedVector sum = ct;
    for (std::size_t i = 1; i < K; ++i) sum += ct;
    const double add_s = secs(t0);

    t0 = Clock::now();
    (void)sum.decrypt(kp.prv);
    const double dec_s = secs(t0);

    crypto.add_row({sim::fmt(rate, 1), std::to_string(codec.plaintexts_for(k)),
                    sim::fmt(enc_s, 2) + " s", sim::fmt(add_s, 3) + " s",
                    sim::fmt(dec_s, 2) + " s"});
  }
  crypto.print(std::cout);

  std::cout << "\nReading: encrypted bytes grow monotonically with he_rate while "
               "the merged model (and so d_acc) is identical for every rate > 0 — "
               "the rate buys privacy, the quantization costs the accuracy.\n";
  return 0;
}
