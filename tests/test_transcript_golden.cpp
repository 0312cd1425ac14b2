// Transcripts pinned across commits. Every other transcript test is
// relative (direct == loopback == TCP == tree), so a change that moves every
// path alike — the selection RNG order, quantization, the FedAvg order, the
// optimizer's arithmetic — passes them all. This table pins FNV-1a digests
// of net::format_transcript for a handful of sessions instead: one over the
// protocol's integer-determined lines, one over the trained weights per
// float tier. A golden that moves is a visible diff, and its reason belongs
// in CHANGES.md.
//
// The world is dubhe_node --selftest's (3 clients, K = 2, H = 3) over three
// rounds. Keys stay at or below 512 bits, so each keygen takes milliseconds;
// the 512-bit row runs the agent's pooled PrivateKey::decrypt
// (he::kParallelKeyBitsCutoff).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/cpu.hpp"
#include "net/fault.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "nn/builders.hpp"
#include "tensor/simd.hpp"

namespace dubhe {
namespace {

void fnv1a(std::uint64_t& h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
}

const data::FederatedDataset& dataset() {
  static const data::FederatedDataset d = [] {
    data::PartitionConfig pc;
    pc.num_classes = 10;
    pc.num_clients = 3;
    pc.samples_per_client = 48;
    pc.rho = 8;
    pc.emd_avg = 1.4;
    pc.seed = 21;
    return data::FederatedDataset(data::mnist_like(), pc);
  }();
  return d;
}

const nn::Sequential& prototype() {
  static const nn::Sequential p = nn::make_mlp(dataset().feature_dim(), 16, 10, 7);
  return p;
}

net::SessionParams params() {
  net::SessionParams p;
  p.secure.key_bits = 256;
  p.K = 2;
  p.H = 3;
  p.rounds = 3;
  p.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  return p;
}

/// Client 1 runs `spec`; everyone else is honest.
std::vector<net::FaultPlan> client_one_runs(const char* spec) {
  std::vector<net::FaultPlan> plans(dataset().num_clients());
  plans[1] = net::parse_fault_plan(spec);
  return plans;
}

net::SessionTranscript flat() {
  return net::run_loopback_session(dataset(), prototype(), params());
}

net::SessionTranscript selective_update() {
  net::SessionParams p = params();
  p.secure.update_he_rate = 0.5;
  return net::run_loopback_session(dataset(), prototype(), p);
}

net::SessionTranscript pooled_decrypt() {
  net::SessionParams p = params();
  p.secure.key_bits = 512;
  return net::run_loopback_session(dataset(), prototype(), p);
}

net::SessionTranscript two_shard_tree() {
  return net::run_tree_session(dataset(), prototype(), params(), 2);
}

net::SessionTranscript churn() {
  return net::run_loopback_session(dataset(), prototype(), params(),
                                   client_one_runs("disconnect@participation:1"));
}

net::SessionTranscript replay_everyone_selected() {
  net::SessionParams p = params();
  p.K = dataset().num_clients();
  return net::run_loopback_session(dataset(), prototype(), p,
                                   client_one_runs("replay@participation"));
}

/// Where the float arithmetic of this run fuses a*b+c into one FMA, which
/// is what the trained weights (and the accuracy measured on them) depend
/// on:
///   kNoFma          nowhere: a DUBHE_SIMD=OFF build, or the scalar GEMM
///                   (DUBHE_CPU=portable) in an unoptimized build;
///   kFmaGemm        in the AVX2 GEMM only: an unoptimized DUBHE_SIMD build;
///   kFmaEverywhere  wherever the optimizer contracts: an optimized
///                   DUBHE_SIMD build (-mfma), on either GEMM tier.
enum FloatTier { kNoFma, kFmaGemm, kFmaEverywhere, kFloatTiers };

FloatTier float_tier() {
  const bool gemm_fma = tensor::simd_enabled();
#ifdef __OPTIMIZE__
  // Whether the AVX2 kernels are compiled in: simd_enabled() with every
  // detected capability allowed.
  const std::uint32_t was = core::cpu::set_enabled(core::cpu::detected());
  const bool simd_build = tensor::simd_enabled();
  (void)core::cpu::set_enabled(was);
  if (simd_build) return kFmaEverywhere;
#endif
  return gemm_fma ? kFmaGemm : kNoFma;
}

/// FNV-1a of a session's format_transcript, split in two: `protocol` over
/// every line that integers and their exact ratios determine (registry,
/// try EMDs, selections, populations, drops, quarantine records), and
/// `weights` over the weights_fnv1a= and accuracy= lines.
struct Digests {
  std::uint64_t protocol = 0xcbf29ce484222325ULL;
  std::uint64_t weights = 0xcbf29ce484222325ULL;
};

Digests digests(const net::SessionTranscript& t) {
  Digests d;
  std::istringstream lines(net::format_transcript(t));
  for (std::string line; std::getline(lines, line);) {
    const bool weights = line.starts_with("weights_fnv1a=") || line.starts_with("accuracy=");
    fnv1a(weights ? d.weights : d.protocol, line + '\n');
  }
  return d;
}

struct Golden {
  const char* config;
  net::SessionTranscript (*run)();
  std::uint64_t protocol_fnv;
  std::uint64_t weights_fnv[kFloatTiers];  // indexed by FloatTier
};

// The tree row equals the flat row: shard count never moves a byte.
constexpr Golden kTranscriptGoldens[] = {
    {"flat", &flat, 0x72dca54e1eb6b354ULL,
     {0x5a758c303e5e1f07ULL, 0x146c8529e5d2368fULL, 0xba5d4fbc3a5e1954ULL}},
    {"update_he_rate=0.5", &selective_update, 0x72dca54e1eb6b354ULL,
     {0xa0c48f1cae0c4616ULL, 0xa0c48f1cae0c4616ULL, 0xa0c48f1cae0c4616ULL}},
    {"key_bits=512", &pooled_decrypt, 0x32f30e36a0234447ULL,
     {0x25f65a8f0a877b89ULL, 0x8a26c4c7fef80901ULL, 0x79f83c147d873c60ULL}},
    {"tree A=2", &two_shard_tree, 0x72dca54e1eb6b354ULL,
     {0x5a758c303e5e1f07ULL, 0x146c8529e5d2368fULL, 0xba5d4fbc3a5e1954ULL}},
    {"churn disconnect@participation:1", &churn, 0x80b96b391a2022ffULL,
     {0x467da8d7a24541f4ULL, 0x254b443fdef72646ULL, 0xa24b87a2bebb3af8ULL}},
    {"K=N replay@participation", &replay_everyone_selected, 0xfc02350fab43f319ULL,
     {0x125255d31d511745ULL, 0x6dd0098d78618859ULL, 0x6dd0098d78618859ULL}},
};

void expect_golden(const Golden& g, const net::SessionTranscript& t) {
  const Digests d = digests(t);
  const FloatTier tier = float_tier();
  EXPECT_EQ(d.protocol, g.protocol_fnv) << g.config << "\n" << net::format_transcript(t);
  EXPECT_EQ(d.weights, g.weights_fnv[tier])
      << g.config << " (float tier " << tier << ")\n" << net::format_transcript(t);
}

TEST(TranscriptGolden, SessionsMatchTheirPinnedDigests) {
  for (const Golden& g : kTranscriptGoldens) expect_golden(g, g.run());
}

TEST(TranscriptGolden, DirectPathMatchesTheFlatDigests) {
  // The in-process reference path renders the flat row's bytes too.
  expect_golden(kTranscriptGoldens[0], net::run_session_direct(dataset(), prototype(), params()));
}

}  // namespace
}  // namespace dubhe
