// The aggregation tree's acceptance contract: a 2-level session (root +
// A shard aggregators + N clients) produces a transcript byte-identical to
// the flat single-aggregator session on the same seeds — the tree only
// re-parenthesizes the homomorphic reductions, so shard count must never
// move a transcript byte. That holds over loopback and real TCP sockets,
// with selective update encryption on, and under a seeded fault plan whose
// quarantine records must ride up the tree intact. Plus the shard-plane
// codec under friendly and hostile bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/registry.hpp"

#include "net/codec.hpp"
#include "net/fault.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "net/wire.hpp"
#include "nn/builders.hpp"
#include "paillier/packing.hpp"

namespace dubhe {
namespace {

using net::Frame;
using net::MsgType;
using net::QuarantineRecord;
using net::QuarantineReason;
using net::SessionPhase;
using net::ShardRange;
using net::WireErrc;
using net::WireError;

data::FederatedDataset make_dataset(std::size_t num_clients) {
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = num_clients;
  pc.samples_per_client = 48;
  pc.rho = 8;
  pc.emd_avg = 1.4;
  pc.seed = 21;
  return {data::mnist_like(), pc};
}

net::SessionParams make_params(std::size_t K, std::size_t rounds = 1) {
  net::SessionParams p;
  p.secure.key_bits = 128;  // tree vs flat equality is key-size independent
  p.K = K;
  p.H = 3;
  p.rounds = rounds;
  p.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  return p;
}

void expect_same_transcript(const net::SessionTranscript& a,
                            const net::SessionTranscript& b) {
  EXPECT_EQ(a.overall_registry, b.overall_registry);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].selected, b.rounds[r].selected) << "round " << r;
    ASSERT_EQ(a.rounds[r].global_weights.size(), b.rounds[r].global_weights.size());
    EXPECT_EQ(std::memcmp(a.rounds[r].global_weights.data(),
                          b.rounds[r].global_weights.data(),
                          a.rounds[r].global_weights.size() * sizeof(float)),
              0)
        << "round " << r;
  }
  // The formatted transcript covers EMDs, populations, accuracy, dropped
  // sets and quarantine records — the full byte-equality bar.
  EXPECT_EQ(net::format_transcript(a), net::format_transcript(b));
}

TEST(ShardRangeSplit, PartitionsEveryCohort) {
  for (std::size_t total : {0u, 1u, 5u, 8u, 17u}) {
    for (std::size_t A : {1u, 2u, 3u, 4u, 7u}) {
      std::size_t covered = 0;
      for (std::size_t s = 0; s < A; ++s) {
        const ShardRange r = net::shard_range(total, A, s);
        EXPECT_EQ(r.first, covered) << total << "/" << A << "/" << s;
        covered += r.count;
        // Balanced: sizes differ by at most one, larger slices first.
        EXPECT_GE(r.count, total / A);
        EXPECT_LE(r.count, total / A + 1);
      }
      EXPECT_EQ(covered, total) << total << "/" << A;
    }
  }
  EXPECT_THROW((void)net::shard_range(8, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)net::shard_range(8, 2, 2), std::invalid_argument);
}

TEST(ShardTree, LoopbackTreeMatchesFlatForEveryShardCount) {
  // The tentpole: same seeds, same dataset — the flat driver and the tree
  // at A in {1, 2, 3} must agree to the byte. A == 1 pins the degenerate
  // tree (one shard owning everything) against the flat path too.
  const auto dataset = make_dataset(8);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(3, 2);

  const auto flat = net::run_loopback_session(dataset, proto, params);
  for (const std::size_t A : {1u, 2u, 3u}) {
    const auto tree = net::run_tree_session(dataset, proto, params, A);
    expect_same_transcript(flat, tree);
  }
}

TEST(ShardTree, TcpTreeMatchesFlatTcp) {
  // Real sockets on both tiers: shard servers accept their slices, the root
  // accepts the shards, accept order is arbitrary on every tier — and the
  // transcript still cannot move.
  const auto dataset = make_dataset(6);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2, 2);
  params.evaluate = false;

  const auto flat = net::run_tcp_session(dataset, proto, params, 1);
  const auto tree = net::run_tree_tcp_session(dataset, proto, params, 2, 2);
  expect_same_transcript(flat, tree);
}

TEST(ShardTree, SelectiveEncryptionPartialSumsAreExact)  {
  // he_rate > 0 is the genuine partial-aggregation mode: shards sum u64
  // plaintext coordinates and multiply packed ciphertexts locally, the root
  // only merges A partials. Both algebraic structures are associative, so
  // the re-parenthesized sums must be bit-identical to the flat driver's.
  const auto dataset = make_dataset(6);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(3, 2);
  params.secure.update_he_rate = 0.5;

  const auto flat = net::run_loopback_session(dataset, proto, params);
  const auto tree = net::run_tree_session(dataset, proto, params, 3);
  expect_same_transcript(flat, tree);
}

TEST(ShardTree, ShardSideFaultReachesRootTranscriptIntact) {
  // A client disconnecting mid-round inside shard 1 must surface in the
  // root transcript as exactly the record the flat driver would produce:
  // same global client id, round, phase, reason — quarantines ride the
  // partial messages up the tree unmodified.
  const std::size_t N = 6;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2, 2);
  params.evaluate = false;
  std::vector<net::FaultPlan> plans(N);
  plans[4] = net::parse_fault_plan("disconnect@participation:1");

  const auto flat = net::run_loopback_session(dataset, proto, params, plans);
  const auto tree = net::run_tree_session(dataset, proto, params, 2, plans);
  expect_same_transcript(flat, tree);
  ASSERT_EQ(tree.quarantined.size(), 1u);
  EXPECT_EQ(tree.quarantined[0].client_id, 4u);  // global id, owned by shard 1
  EXPECT_EQ(tree.quarantined[0].round, 1u);
  EXPECT_EQ(tree.quarantined[0].phase, SessionPhase::kParticipation);
  EXPECT_EQ(tree.quarantined[0].reason, QuarantineReason::kDisconnect);

  // Same plan over TCP: timing changes, the transcript must not.
  const auto tree_tcp = net::run_tree_tcp_session(dataset, proto, params, 2, 1, plans);
  expect_same_transcript(flat, tree_tcp);
}

TEST(ShardTree, EveryHarnessTerminatesWhenTrainingThrows) {
  // A CNN prototype fed flat features: every client's train() throws, and
  // with evaluate on so does the aggregator's own evaluate(). All four
  // harnesses must surface that error instead of hanging. The tree-over-TCP
  // one used to hang or abort: the root's failure made every shard thread
  // stop the root server while the main thread was stopping it too.
  const auto dataset = make_dataset(4);
  const auto proto = nn::make_cnn(16, 10, 7);
  const auto expect_conv_error = [](const char* harness, const std::function<void()>& run) {
    try {
      run();
      ADD_FAILURE() << harness << " returned a transcript";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("Conv2d: bad input"), std::string::npos)
          << harness << ": " << e.what();
    }
  };
  for (const bool evaluate : {true, false}) {
    auto params = make_params(3, 2);
    params.evaluate = evaluate;
    expect_conv_error("loopback", [&] { (void)net::run_loopback_session(dataset, proto, params); });
    expect_conv_error("tcp", [&] { (void)net::run_tcp_session(dataset, proto, params, 2); });
    expect_conv_error("tree", [&] { (void)net::run_tree_session(dataset, proto, params, 2); });
    for (int i = 0; i < 5; ++i) {
      expect_conv_error("tree-tcp",
                        [&] { (void)net::run_tree_tcp_session(dataset, proto, params, 2, 2); });
    }
  }
}

// --- shard-plane codec: round trips. ---------------------------------------

std::vector<QuarantineRecord> sample_quarantines() {
  return {{net::QuarantineRecord::kUnknownClient, net::QuarantineRecord::kSetupRound,
           SessionPhase::kHello, QuarantineReason::kTimeout},
          {7, 2, SessionPhase::kUpdate, QuarantineReason::kBadCiphertext}};
}

/// The session key of the codec cases: partial sums decode under it.
const he::PublicKey& sample_key() {
  static const he::PublicKey pk = [] {
    bigint::Xoshiro256ss rng(77);
    return he::Keypair::generate(rng, 128).pub;
  }();
  return pk;
}

/// A small packed partial sum for the codec cases.
he::PackedEncryptedVector sample_sum() {
  bigint::Xoshiro256ss rng(78);
  const he::PackedCodec codec(sample_key().key_bits() - 1, 32);
  return he::PackedEncryptedVector::encrypt(sample_key(), codec,
                                            std::vector<std::uint64_t>{3, 0, 9}, rng);
}

/// The partials hold typed ciphertexts, so their round trip is checked the
/// canonical way: parsing a frame and re-encoding it gives the same bytes.
template <typename Partial>
void expect_canonical(const Frame& f) {
  EXPECT_EQ(net::encode(net::decode<Partial>(f, sample_key())).payload, f.payload);
}

/// The packed vector has no operator==: two sums are equal when both are
/// empty or their serialized forms (geometry, ciphertexts) match.
void expect_same_sum(const he::PackedEncryptedVector& a, const he::PackedEncryptedVector& b) {
  ASSERT_EQ(a.ciphertext_count(), b.ciphertext_count());
  if (a.ciphertext_count() != 0) EXPECT_EQ(he::serialize(a), he::serialize(b));
}

// Field-wise equality for the partials that carry a ciphertext.
void expect_same(const net::PartialRegistry& a, const net::PartialRegistry& b) {
  EXPECT_EQ(a.shard_id, b.shard_id);
  EXPECT_EQ(a.contributors, b.contributors);
  EXPECT_EQ(a.quarantined, b.quarantined);
  expect_same_sum(a.ciphertext, b.ciphertext);
}

void expect_same(const net::PartialPopulation& a, const net::PartialPopulation& b) {
  EXPECT_EQ(a.shard_id, b.shard_id);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.try_index, b.try_index);
  EXPECT_EQ(a.contributors, b.contributors);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.quarantined, b.quarantined);
  expect_same_sum(a.ciphertext, b.ciphertext);
}

void expect_same(const net::PartialUpdate& a, const net::PartialUpdate& b) {
  EXPECT_EQ(a.shard_id, b.shard_id);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.contributors, b.contributors);
  EXPECT_EQ(a.plain_sums, b.plain_sums);
  expect_same_sum(a.ciphertext, b.ciphertext);
}

TEST(ShardCodec, RoundTripsEveryMessage) {
  const net::ShardHello hello{1, 4, 25, 25, 100, net::kWireVersion};
  EXPECT_EQ(net::decode<net::ShardHello>(net::encode<net::ShardHello>(hello)), hello);

  const net::ShardRoundBegin rb{42};
  EXPECT_EQ(net::decode<net::ShardRoundBegin>(net::encode<net::ShardRoundBegin>(rb)), rb);

  net::PartialRegistry pr;
  pr.shard_id = 2;
  pr.contributors = 3;
  pr.quarantined = sample_quarantines();
  pr.ciphertext = sample_sum();
  const Frame prf = net::encode<net::PartialRegistry>(pr);
  expect_canonical<net::PartialRegistry>(prf);
  expect_same(net::decode<net::PartialRegistry>(prf, sample_key()), pr);
  pr.contributors = 0;
  pr.ciphertext = {};
  const Frame pr0f = net::encode<net::PartialRegistry>(pr);
  expect_canonical<net::PartialRegistry>(pr0f);
  expect_same(net::decode<net::PartialRegistry>(pr0f, sample_key()), pr);

  net::PartialParticipation pp;
  pp.shard_id = 1;
  pp.round = 3;
  pp.quarantined = sample_quarantines();
  pp.entries = {{5, 3, {1, 0, 1}}, {6, 3, {0, 0, 0}}};
  EXPECT_EQ(net::decode<net::PartialParticipation>(net::encode<net::PartialParticipation>(pp)), pp);

  const net::ShardTryBegin tb{3, 2, {5, 9, 6}};  // selection order, not sorted
  EXPECT_EQ(net::decode<net::ShardTryBegin>(net::encode<net::ShardTryBegin>(tb)), tb);

  net::PartialPopulation pop;
  pop.shard_id = 0;
  pop.round = 3;
  pop.try_index = 2;
  pop.contributors = 2;
  pop.failed = true;
  pop.quarantined = sample_quarantines();
  pop.ciphertext = sample_sum();
  const Frame popf = net::encode<net::PartialPopulation>(pop);
  expect_canonical<net::PartialPopulation>(popf);
  expect_same(net::decode<net::PartialPopulation>(popf, sample_key()), pop);

  const net::ShardUpdateBegin ub{3, {5, 9}, {1.5f, -2.25f, 0.0f}};
  EXPECT_EQ(net::decode<net::ShardUpdateBegin>(net::encode<net::ShardUpdateBegin>(ub)), ub);

  net::PartialUpdate pu0;
  pu0.shard_id = 1;
  pu0.round = 3;
  pu0.mode = 0;
  pu0.quarantined = sample_quarantines();
  pu0.updates = {{9, {0.5f, 1.25f}}, {5, {-3.0f, 0.0f}}};  // recipient order
  const Frame pu0f = net::encode<net::PartialUpdate>(pu0);
  expect_canonical<net::PartialUpdate>(pu0f);
  expect_same(net::decode<net::PartialUpdate>(pu0f, sample_key()), pu0);

  net::PartialUpdate pu1;
  pu1.shard_id = 1;
  pu1.round = 3;
  pu1.mode = 1;
  pu1.quarantined = sample_quarantines();
  pu1.contributors = 2;
  pu1.plain_sums = {10, 0, 77};
  pu1.ciphertext = sample_sum();
  const Frame puf = net::encode<net::PartialUpdate>(pu1);
  expect_canonical<net::PartialUpdate>(puf);
  expect_same(net::decode<net::PartialUpdate>(puf, sample_key()), pu1);

  // encrypted_payload_bytes skips each partial's variable-length prefix
  // (quarantine records, plain sums) and counts only the ciphertexts.
  const he::PackedEncryptedVector sum = sample_sum();
  const std::size_t sum_bytes = sum.ciphertext_count() * sum.public_key().ciphertext_bytes();
  ASSERT_GT(sum_bytes, 0u);
  EXPECT_EQ(net::encrypted_payload_bytes(prf), sum_bytes);
  EXPECT_EQ(net::encrypted_payload_bytes(popf), sum_bytes);
  EXPECT_EQ(net::encrypted_payload_bytes(puf), sum_bytes);
  EXPECT_EQ(net::encrypted_payload_bytes(pr0f), 0u);
  EXPECT_EQ(net::encrypted_payload_bytes(pu0f), 0u);
}

// --- shard-plane codec: hostile bytes must fail typed, never UB. -----------

WireErrc code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const WireError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a WireError";
  return WireErrc::kBadPayload;
}

TEST(ShardCodec, RejectsMalformedShardHello) {
  // shard_id must be < num_shards; the announced slice must fit the cohort.
  EXPECT_EQ(code_of([] {
              (void)net::decode<net::ShardHello>(
                  net::encode<net::ShardHello>({3, 2, 0, 4, 8, net::kWireVersion}));
            }),
            WireErrc::kBadPayload);
  EXPECT_EQ(code_of([] {
              (void)net::decode<net::ShardHello>(
                  net::encode<net::ShardHello>({0, 2, 6, 4, 8, net::kWireVersion}));
            }),
            WireErrc::kBadPayload);
  // Truncation is typed too.
  Frame f = net::encode<net::ShardHello>({0, 2, 0, 4, 8, net::kWireVersion});
  f.payload.pop_back();
  EXPECT_EQ(code_of([&] { (void)net::decode<net::ShardHello>(f); }), WireErrc::kBadPayload);
}

TEST(ShardCodec, RejectsInconsistentPartials) {
  // contributors > 0 requires a ciphertext; contributors == 0 forbids one.
  net::PartialRegistry pr;
  pr.shard_id = 0;
  pr.contributors = 2;
  EXPECT_THROW((void)net::encode<net::PartialRegistry>(pr), WireError);
  pr.contributors = 0;
  pr.ciphertext = sample_sum();
  EXPECT_THROW((void)net::encode<net::PartialRegistry>(pr), WireError);

  // A ciphertext section that is not the packed paillier wire form.
  pr.contributors = 1;
  Frame garbled = net::encode<net::PartialRegistry>(pr);
  garbled.payload.push_back(0x00);  // trailing byte after the last ciphertext
  EXPECT_EQ(code_of([&] { (void)net::decode<net::PartialRegistry>(garbled, sample_key()); }),
            WireErrc::kBadPayload);

  // Quarantine records with out-of-range enums are rejected on decode.
  net::PartialParticipation pp;
  pp.shard_id = 0;
  pp.round = 1;
  pp.quarantined = {{1, 0, SessionPhase::kUpdate, QuarantineReason::kTimeout}};
  Frame f = net::encode<net::PartialParticipation>(pp);
  // Locate the reason byte (last byte of the single 18-byte record) and
  // corrupt it past the enum range.
  f.payload[f.payload.size() - 5] = 0xEE;  // reason byte of the only record
  EXPECT_EQ(code_of([&] { (void)net::decode<net::PartialParticipation>(f); }),
            WireErrc::kBadPayload);

  // Non-ascending participation entries are a canonical-encoding violation
  // the decoder rejects (the encoder is a trusted local caller).
  pp.quarantined.clear();
  pp.entries = {{6, 1, {1}}, {5, 1, {0}}};
  EXPECT_EQ(code_of([&] {
              (void)net::decode<net::PartialParticipation>(net::encode<net::PartialParticipation>(pp));
            }),
            WireErrc::kBadPayload);

  // Mode-0 partial updates must not carry duplicate client ids.
  net::PartialUpdate pu;
  pu.shard_id = 0;
  pu.round = 1;
  pu.mode = 0;
  pu.updates = {{5, {1.0f}}, {5, {2.0f}}};
  EXPECT_EQ(
      code_of([&] {
        (void)net::decode<net::PartialUpdate>(net::encode<net::PartialUpdate>(pu), sample_key());
      }),
      WireErrc::kBadPayload);

  // An entry count the remaining bytes cannot hold is rejected before any
  // allocation: shard 0, round 1, no quarantine records, count 0xFFFFFFFF.
  const std::vector<std::uint8_t> huge_count = {0xFF, 0xFF, 0xFF, 0xFF};
  Frame huge_pp{net::MsgType::kPartialParticipation, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}};
  huge_pp.payload.insert(huge_pp.payload.end(), {0, 0, 0, 0});
  huge_pp.payload.insert(huge_pp.payload.end(), huge_count.begin(), huge_count.end());
  ASSERT_EQ(huge_pp.payload.size(), 20u);
  EXPECT_EQ(code_of([&] { (void)net::decode<net::PartialParticipation>(huge_pp); }),
            WireErrc::kBadPayload);
  Frame huge_pu{net::MsgType::kPartialUpdate, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0}};
  huge_pu.payload.insert(huge_pu.payload.end(), {0, 0, 0, 0});
  huge_pu.payload.insert(huge_pu.payload.end(), huge_count.begin(), huge_count.end());
  ASSERT_EQ(huge_pu.payload.size(), 21u);
  EXPECT_EQ(code_of([&] { (void)net::decode<net::PartialUpdate>(huge_pu, sample_key()); }),
            WireErrc::kBadPayload);

  // A drain report (round == kSetupRound) must not carry entries.
  net::PartialParticipation drain;
  drain.shard_id = 0;
  drain.round = net::QuarantineRecord::kSetupRound;
  drain.entries = {{1, 0, {1}}};
  EXPECT_EQ(code_of([&] {
              (void)net::decode<net::PartialParticipation>(net::encode<net::PartialParticipation>(drain));
            }),
            WireErrc::kBadPayload);
}

TEST(ShardCodec, DecodesManyForwardedUpdatesInNLogN) {
  // Distinct ids with empty weight lists, in recipient order (not sorted):
  // at 200,000 entries a 2.4 MB mode-0 partial. The duplicate-id check must
  // not compare every pair (that took ~20 s). Timed as a ratio inside one
  // process, so the build and the host load cancel out: ten times the
  // entries costs ~12x in n log n and 100x all-pairs.
  const auto fastest_decode = [](std::size_t n) {
    net::PartialUpdate pu;
    pu.mode = 0;
    pu.updates.resize(n);
    for (std::size_t i = 0; i < n; ++i) pu.updates[i].client_id = n - i;
    const Frame f = net::encode(pu);
    EXPECT_EQ(f.payload.size(), 21u + 12u * n);
    auto best = std::chrono::steady_clock::duration::max();
    for (int run = 0; run < 3; ++run) {
      const auto t0 = std::chrono::steady_clock::now();
      const net::PartialUpdate back = net::decode<net::PartialUpdate>(f, sample_key());
      best = std::min(best, std::chrono::steady_clock::now() - t0);
      EXPECT_EQ(back.updates, pu.updates);
    }
    return std::chrono::duration<double>(best).count();
  };
  const double small = fastest_decode(20000);
  const double large = fastest_decode(200000);
  EXPECT_LT(large / small, 40.0) << small << " s at 20,000 entries, " << large
                                 << " s at 200,000";
}

TEST(ShardTree, RootRejectsWrongShapePartialSum) {
  // run_root_session validates every shard partial like a client upload:
  // a ciphertext outside the session key's Z_{n^2} or a sum with the wrong
  // slot count is a fatal TransportError (shards are infrastructure, not
  // churn). Simulate a buggy shard by speaking just enough of the protocol
  // by hand.
  const auto dataset = make_dataset(4);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2, 1);
  params.evaluate = false;
  const std::size_t length =
      core::RegistryCodec(params.num_classes, params.reference_set).length();
  const he::PackedCodec codec(params.secure.key_bits - 1, params.secure.packing_slot_bits);
  // The rogue partial registry sums, built under the session key the root
  // dispatched.
  const std::function<he::PackedEncryptedVector(const he::PublicKey&)> rogue_sums[] = {
      // Every ciphertext equal to n^2: refused by the decode at the root.
      [&](const he::PublicKey& pk) {
        return he::PackedEncryptedVector(
            pk, codec, length,
            std::vector<he::Ciphertext>(codec.plaintexts_for(length), {pk.n_squared()}));
      },
      // One slot short: decodes, refused by the root's shape check.
      [&](const he::PublicKey& pk) {
        bigint::Xoshiro256ss rng(123);
        const std::vector<std::uint64_t> vals(length - 1, 1);
        return he::PackedEncryptedVector::encrypt(pk, codec, vals, rng);
      },
  };
  for (const auto& rogue_sum : rogue_sums) {
    auto [root_side, shard_side] = net::LoopbackTransport::make_pair();
    std::vector<std::shared_ptr<net::Transport>> links{root_side};
    std::thread rogue([&, shard = shard_side] {
      try {
        std::uint16_t seq = 0;
        auto send = [&](Frame f) {
          f.seq = seq++;
          shard->send(f);
        };
        send(net::encode<net::ShardHello>({0, 1, 0, 4, 4, net::kWireVersion}));
        (void)shard->receive();  // kServerHello
        const auto keys = net::decode<net::KeyMaterial>(*shard->receive());
        net::PartialRegistry pr;
        pr.shard_id = 0;
        pr.contributors = 4;
        pr.ciphertext = rogue_sum(keys.prv.public_key());
        send(net::encode<net::PartialRegistry>(pr));
        while (shard->receive()) {
        }
      } catch (...) {
        shard->close();
      }
    });
    EXPECT_THROW(
        { (void)net::run_root_session(links, dataset, proto, params); },
        net::TransportError);
    root_side->close();
    rogue.join();
  }
}

TEST(ShardTree, ShardHelloOutOfSequenceIsFatal) {
  // A shard link's first frame carries seq 0 too. Shards are
  // infrastructure, so a hello numbered 1 ends the root's session with a
  // TransportError instead of a quarantine.
  const auto dataset = make_dataset(2);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(1);
  auto [root_side, shard_side] = net::LoopbackTransport::make_pair();
  std::thread shard([link = shard_side] {
    try {
      Frame hello = net::encode<net::ShardHello>({0, 1, 0, 2, 2, net::kWireVersion});
      hello.seq = 1;
      link->send(hello);
      while (link->receive()) {
      }
    } catch (...) {
      link->close();
    }
  });
  const std::vector<std::shared_ptr<net::Transport>> links{root_side};
  std::exception_ptr error;
  try {
    (void)net::run_root_session(links, dataset, proto, params);
  } catch (...) {
    error = std::current_exception();
  }
  root_side->close();
  shard.join();
  ASSERT_NE(error, nullptr) << "the root accepted a hello numbered 1";
  try {
    std::rethrow_exception(error);
  } catch (const net::TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("out of sequence"), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a TransportError, got: " << e.what();
  }
}

TEST(ShardTree, ShardUplinkOutOfSequenceIsFatal) {
  // serve_shard lets its uplink's WireError propagate: a shard does not
  // outlive a root link it can no longer trust. A scripted root runs the
  // setup and round 0's sweep in sequence through a shard of two scripted
  // clients, then repeats round 0's number.
  constexpr std::size_t N = 2;
  const auto params = make_params(1);
  bigint::Xoshiro256ss rng(5);
  const he::Keypair kp = he::Keypair::generate(rng, params.secure.key_bits);
  const std::vector<std::uint64_t> registry(
      core::RegistryCodec(params.num_classes, params.reference_set).length(), 0);
  const he::PackedCodec codec(params.secure.key_bits - 1, params.secure.packing_slot_bits);

  std::vector<std::shared_ptr<net::Transport>> client_links;
  std::vector<std::thread> clients;
  for (std::uint64_t id = 0; id < N; ++id) {
    auto [shard_end, client_end] = net::LoopbackTransport::make_pair();
    client_links.push_back(shard_end);
    clients.emplace_back([&, id, end = client_end] {
      net::Link link(*end);
      try {
        link.send(net::encode<net::ClientHello>({id, net::kWireVersion}));
        bigint::Xoshiro256ss upload_rng(id);
        while (auto f = link.receive()) {
          if (f->type == MsgType::kRegistrationRequest) {
            link.send(net::encode(MsgType::kRegistryUpload,
                                  he::PackedEncryptedVector::encrypt(kp.pub, codec, registry,
                                                                     upload_rng)));
          } else if (f->type == MsgType::kRoundBegin) {
            const std::uint64_t round = net::decode<net::RoundBegin>(*f).round;
            link.send(net::encode<net::Participation>(
                {id, round, std::vector<std::uint8_t>(params.H, 1)}));
          }
        }
      } catch (const std::exception&) {
        // the shard closed this link
      }
    });
  }
  auto [root_end, uplink] = net::LoopbackTransport::make_pair();
  std::exception_ptr shard_error;
  std::thread shard([&, link = uplink] {
    try {
      net::serve_shard(*link, client_links, 0, 1, N, params);
    } catch (...) {
      shard_error = std::current_exception();
    }
    link->close();
  });

  net::Link root(*root_end);
  try {
    (void)root.receive();  // kShardHello
    root.send(net::encode<net::ServerHello>({9, N, 0}));
    root.send(net::encode<net::KeyMaterial>({kp.prv}));
    const auto sum = net::decode<net::PartialRegistry>(root.receive().value(), kp.pub);
    root.send(net::encode(MsgType::kRegistryBroadcast, sum.ciphertext));
    (void)root.receive();  // the setup round's kPartialParticipation
    root.send(net::encode(net::ShardRoundBegin{0}));  // seq 3
    const auto swept = net::decode<net::PartialParticipation>(root.receive().value());
    EXPECT_EQ(swept.entries.size(), N);
    Frame stale = net::encode(net::ShardRoundBegin{1});
    stale.seq = 3;  // round 0's number again
    root_end->send(stale);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "scripted root: " << e.what();
  }
  root_end->close();  // a shard that took the replay fails on EOF instead of waiting
  shard.join();
  for (const auto& link : client_links) link->close();
  for (auto& t : clients) t.join();

  ASSERT_NE(shard_error, nullptr);
  try {
    std::rethrow_exception(shard_error);
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrc::kReplayed);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a WireError, got: " << e.what();
  }
}

TEST(ShardTree, RootRejectsAnOutOfSequenceShardFrame) {
  // The root's end of a shard link (RemoteShard) turns a broken sequence
  // mid-session into a fatal TransportError. A scripted shard queues its
  // setup and round 0 answers in sequence, then stamps round 1's
  // participation partial with round 0's last number.
  constexpr std::size_t N = 2;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(1, 2);
  params.H = 1;
  params.evaluate = false;
  const std::size_t length =
      core::RegistryCodec(params.num_classes, params.reference_set).length();
  const he::PackedCodec codec(params.secure.key_bits - 1, params.secure.packing_slot_bits);

  auto [root_side, shard_side] = net::LoopbackTransport::make_pair();
  std::thread shard([&, end = shard_side] {
    net::Link link(*end);
    try {
      link.send(net::encode<net::ShardHello>({0, 1, 0, N, N, net::kWireVersion}));
      (void)link.receive();  // kServerHello
      const he::PublicKey pk =
          net::decode<net::KeyMaterial>(link.receive().value()).prv.public_key();
      bigint::Xoshiro256ss rng(31);
      net::PartialRegistry pr;
      pr.contributors = N;
      pr.ciphertext = he::PackedEncryptedVector::encrypt(
          pk, codec, std::vector<std::uint64_t>(length, 0), rng);
      link.send(net::encode(pr));
      link.send(net::encode(
          net::PartialParticipation{0, net::QuarantineRecord::kSetupRound, {}, {}}));
      const auto participation = [&](std::uint64_t r) {
        net::PartialParticipation pp{0, r, {}, {}};
        for (std::uint64_t id = 0; id < N; ++id) pp.entries.push_back({id, r, {1}});
        return net::encode(pp);
      };
      link.send(participation(0));
      net::PartialPopulation population;  // K = 1: one contributor per try
      population.contributors = 1;
      population.ciphertext = he::PackedEncryptedVector::encrypt(
          pk, codec, std::vector<std::uint64_t>(params.num_classes, 1), rng);
      link.send(net::encode(population));
      link.send(net::encode(net::PartialUpdate{}));  // seq 5
      Frame stale = participation(1);
      stale.seq = 5;  // round 0's last number again
      end->send(stale);
      while (link.receive()) {
      }
    } catch (const std::exception&) {
      end->close();  // the root closed the link
    }
  });

  const std::vector<std::shared_ptr<net::Transport>> links{root_side};
  std::exception_ptr error;
  try {
    (void)net::run_root_session(links, dataset, proto, params);
  } catch (...) {
    error = std::current_exception();
  }
  root_side->close();
  shard.join();
  ASSERT_NE(error, nullptr) << "the root accepted an out-of-sequence partial";
  try {
    std::rethrow_exception(error);
  } catch (const net::TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("out of sequence"), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a TransportError, got: " << e.what();
  }
}

TEST(ShardTree, RootRejectsAPartialForTheWrongTry) {
  // The root posts both tries of a determination (H = 2) before it takes
  // either, and a shard answers them in order: a partial population that
  // does not answer the oldest try still posted is a fatal TransportError.
  // A scripted shard answers try 1 first.
  constexpr std::size_t N = 2;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(1, 1);
  params.H = 2;
  params.evaluate = false;
  const std::size_t length =
      core::RegistryCodec(params.num_classes, params.reference_set).length();
  const he::PackedCodec codec(params.secure.key_bits - 1, params.secure.packing_slot_bits);

  auto [root_side, shard_side] = net::LoopbackTransport::make_pair();
  std::thread shard([&, end = shard_side] {
    net::Link link(*end);
    try {
      link.send(net::encode<net::ShardHello>({0, 1, 0, N, N, net::kWireVersion}));
      (void)link.receive();  // kServerHello
      const he::PublicKey pk =
          net::decode<net::KeyMaterial>(link.receive().value()).prv.public_key();
      bigint::Xoshiro256ss rng(37);
      net::PartialRegistry pr;
      pr.contributors = N;
      pr.ciphertext = he::PackedEncryptedVector::encrypt(
          pk, codec, std::vector<std::uint64_t>(length, 0), rng);
      link.send(net::encode(pr));
      link.send(net::encode(
          net::PartialParticipation{0, net::QuarantineRecord::kSetupRound, {}, {}}));
      net::PartialParticipation pp{0, 0, {}, {}};
      for (std::uint64_t id = 0; id < N; ++id) pp.entries.push_back({id, 0, {1, 1}});
      link.send(net::encode(pp));
      net::PartialPopulation population;  // K = 1: one contributor per try
      population.try_index = 1;
      population.contributors = 1;
      population.ciphertext = he::PackedEncryptedVector::encrypt(
          pk, codec, std::vector<std::uint64_t>(params.num_classes, 1), rng);
      link.send(net::encode(population));
      while (link.receive()) {
      }
    } catch (const std::exception&) {
      end->close();  // the root closed the link
    }
  });

  const std::vector<std::shared_ptr<net::Transport>> links{root_side};
  std::exception_ptr error;
  try {
    (void)net::run_root_session(links, dataset, proto, params);
  } catch (...) {
    error = std::current_exception();
  }
  root_side->close();
  shard.join();
  ASSERT_NE(error, nullptr) << "the root accepted a partial for the wrong try";
  try {
    std::rethrow_exception(error);
  } catch (const net::TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("wrong try"), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a TransportError, got: " << e.what();
  }
}

TEST(ShardTree, RejectsInvalidTopologies) {
  // Every harness checks its arguments before any thread or socket exists:
  // a tree needs 1..N shards, and a non-empty fault-plan list needs one
  // plan per client.
  const std::size_t N = 4;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(2, 1);
  using Plans = std::span<const net::FaultPlan>;
  struct Harness {
    const char* name;
    bool tree;
    std::function<void(std::size_t shards, Plans plans)> run;
  };
  const Harness harnesses[] = {
      {"loopback", false,
       [&](std::size_t, Plans plans) {
         (void)net::run_loopback_session(dataset, proto, params, plans);
       }},
      {"tcp", false,
       [&](std::size_t, Plans plans) {
         (void)net::run_tcp_session(dataset, proto, params, 1, plans);
       }},
      {"tree", true,
       [&](std::size_t shards, Plans plans) {
         (void)net::run_tree_session(dataset, proto, params, shards, plans);
       }},
      {"tree-tcp", true,
       [&](std::size_t shards, Plans plans) {
         (void)net::run_tree_tcp_session(dataset, proto, params, shards, 1, plans);
       }},
  };
  struct Case {
    std::size_t shards;
    std::size_t plans;  // 0 = no fault plans
    bool tree_only;
  };
  const Case cases[] = {{0, 0, true}, {N + 1, 0, true}, {2, N - 1, false}, {2, N + 1, false}};
  for (const Harness& h : harnesses) {
    for (const Case& c : cases) {
      if (c.tree_only && !h.tree) continue;
      const std::vector<net::FaultPlan> plans(c.plans);
      EXPECT_THROW(h.run(c.shards, plans), std::invalid_argument)
          << h.name << ": shards " << c.shards << ", plans " << c.plans;
    }
  }
}

}  // namespace
}  // namespace dubhe
