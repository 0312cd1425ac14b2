// The shared crypto runtime: core::ParallelRuntime determinism, the batch
// Paillier APIs' thread-count invariance (byte-identical ciphertexts for any
// shard count, each item from its own 256-bit stream state), and the
// key-holder CRT encryption path (byte-identical to the public-key path,
// its two halves on the shared pool, nested and concurrent use).
// tools/ci.sh runs this suite under Release, ASan/UBSan (lifetime and UB
// bugs), and a dedicated ThreadSanitizer pass (data races in the pool —
// ASan cannot see those).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bigint/random.hpp"
#include "core/parallel.hpp"
#include "core/registration.hpp"
#include "core/secure.hpp"
#include "data/partition.hpp"
#include "paillier/encrypted_vector.hpp"
#include "paillier/packing.hpp"
#include "paillier/serial_util.hpp"
#include "stats/rng.hpp"

namespace dubhe {
namespace {

using bigint::BigUint;

// --- core::ParallelRuntime ---------------------------------------------------

TEST(ParallelRuntime, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                    std::size_t{0}}) {
    std::vector<int> hits(100, 0);
    core::parallel_for(hits.size(), threads, [&](std::size_t i) { ++hits[i]; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelRuntime, EmptyRangeIsNoop) {
  bool called = false;
  core::parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelRuntime, MoreThreadsThanItems) {
  std::vector<int> hits(3, 0);
  core::parallel_for(hits.size(), 16, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ParallelRuntime, PropagatesTheFirstException) {
  EXPECT_THROW(core::parallel_for(
                   8, 4,
                   [](std::size_t i) {
                     if (i % 2 == 1) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ParallelRuntime, NestedCallsRunInlineWithoutDeadlock) {
  std::atomic<int> total{0};
  core::parallel_for(4, 4, [&](std::size_t) {
    core::parallel_for(8, 4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelRuntime, SharedInstanceHasWorkers) {
  EXPECT_GE(core::ParallelRuntime::instance().worker_count(), 1u);
}

// --- seed derivation ---------------------------------------------------------

TEST(DeriveSeed, StatsConventionMatchesBigintConvention) {
  // stats::derive_seed forwards to bigint::derive_seed; both must stay one
  // convention.
  for (std::uint64_t master : {0ull, 42ull, 0xdeadbeefdeadbeefull}) {
    for (std::uint64_t stream : {0ull, 1ull, 999ull}) {
      EXPECT_EQ(stats::derive_seed(master, stream),
                bigint::derive_seed(master, stream));
    }
  }
  EXPECT_NE(bigint::derive_seed(1, 0), bigint::derive_seed(1, 1));
  EXPECT_NE(bigint::derive_seed(1, 0), bigint::derive_seed(2, 0));
}

// --- batch Paillier APIs -----------------------------------------------------

const he::Keypair& test_keypair() {
  static const he::Keypair kp = [] {
    bigint::Xoshiro256ss rng(1234);
    return he::Keypair::generate(rng, 256);
  }();
  return kp;
}

std::vector<std::uint64_t> test_values() {
  std::vector<std::uint64_t> v(23);
  std::iota(v.begin(), v.end(), 100);
  return v;
}

/// Per-item stream states drawn the way both vector forms draw them.
std::vector<he::PublicKey::StreamState> stream_states(std::uint64_t seed, std::size_t count) {
  bigint::Xoshiro256ss rng(seed);
  return he::detail::draw_stream_states(rng, count);
}

TEST(BatchPaillier, EncryptBatchIsThreadCountInvariant) {
  const he::Keypair& kp = test_keypair();
  std::vector<BigUint> ms;
  for (const auto v : test_values()) ms.emplace_back(v);
  const auto states = stream_states(77, ms.size());

  const auto serial = kp.pub.encrypt_batch(ms, states, {.threads = 1});
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}, std::size_t{0}}) {
    const auto parallel = kp.pub.encrypt_batch(ms, states, {.threads = threads});
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
  // Different stream states must change the randomization.
  EXPECT_NE(serial, kp.pub.encrypt_batch(ms, stream_states(78, ms.size()), {.threads = 1}));
  // And every ciphertext decrypts to its message.
  const auto decrypted = kp.prv.decrypt_batch(serial, {.threads = 4});
  ASSERT_EQ(decrypted.size(), ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) EXPECT_EQ(decrypted[i], ms[i]);
}

TEST(BatchPaillier, EncryptedVectorBytesAreThreadCountInvariant) {
  const he::Keypair& kp = test_keypair();
  const auto values = test_values();

  bigint::Xoshiro256ss rng1(55), rng2(55), rng7(55);
  const auto v1 = he::EncryptedVector::encrypt(kp.pub, values, rng1, {.threads = 1});
  const auto v2 = he::EncryptedVector::encrypt(kp.pub, values, rng2, {.threads = 2});
  const auto v7 = he::EncryptedVector::encrypt(kp.pub, values, rng7, {.threads = 7});
  EXPECT_EQ(v1.serialize_bytes(), v2.serialize_bytes());
  EXPECT_EQ(v1.serialize_bytes(), v7.serialize_bytes());
  EXPECT_EQ(v1.decrypt(kp.prv, {.threads = 3}), values);
}

TEST(BatchPaillier, PackedEncryptIsThreadCountInvariant) {
  const he::Keypair& kp = test_keypair();
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 16);
  const auto values = test_values();

  bigint::Xoshiro256ss rng1(56), rng7(56);
  auto a = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng1,
                                              {.threads = 1});
  auto b = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng7,
                                              {.threads = 7});
  EXPECT_EQ(a.decrypt(kp.prv), b.decrypt(kp.prv));
  EXPECT_EQ(a.decrypt(kp.prv, {.threads = 5}), values);
}

// --- key-holder CRT encryption -----------------------------------------------

/// Encrypts m on both paths from identically seeded streams and checks the
/// ciphertexts are equal and both streams consumed the same words.
void expect_same_ciphertext(const he::Keypair& kp, const BigUint& m, std::uint64_t seed) {
  bigint::Xoshiro256ss pub_stream(seed), prv_stream(seed);
  const he::Ciphertext via_pub = kp.pub.encrypt(m, pub_stream);
  const he::Ciphertext via_prv = kp.prv.encrypt(m, prv_stream);
  EXPECT_EQ(via_prv, via_pub) << "key_bits=" << kp.pub.key_bits();
  EXPECT_EQ(prv_stream.next_u64(), pub_stream.next_u64()) << "stream drift";
  EXPECT_EQ(kp.prv.decrypt(via_prv), m);
}

TEST(KeyHolderEncrypt, MatchesPublicKeyPathAtBothEnds) {
  bigint::Xoshiro256ss rng(4242);
  // A limb-multiple key, an odd-width key (p and q of different widths),
  // and the paper's 2048-bit deployment size.
  for (const std::size_t bits : {std::size_t{128}, std::size_t{129}, std::size_t{2048}}) {
    const he::Keypair kp = he::Keypair::generate(rng, bits);
    ASSERT_EQ(kp.pub.key_bits(), bits);
    const BigUint n_minus_1 = kp.pub.n() - BigUint{1};
    for (std::uint64_t seed = 1; seed <= (bits > 256 ? 1u : 8u); ++seed) {
      expect_same_ciphertext(kp, BigUint{}, seed);
      expect_same_ciphertext(kp, n_minus_1, seed);
    }
    bigint::Xoshiro256ss s(1);
    EXPECT_THROW((void)kp.prv.encrypt(kp.pub.n(), s), std::out_of_range);
  }
}

TEST(KeyHolderEncrypt, VectorsSerializeByteEqualToPublicKeyOverloads) {
  const he::Keypair& kp = test_keypair();
  const auto values = test_values();
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 16);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    bigint::Xoshiro256ss r3(58), r4(58);
    const auto packed_pub =
        he::PackedEncryptedVector::encrypt(kp.pub, codec, values, r3, {.threads = threads});
    const auto packed_prv =
        he::PackedEncryptedVector::encrypt(kp.prv, codec, values, r4, {.threads = threads});
    EXPECT_EQ(he::serialize(packed_prv), he::serialize(packed_pub)) << "threads=" << threads;
    EXPECT_EQ(r3.next_u64(), r4.next_u64());
    EXPECT_EQ(packed_prv.decrypt(kp.prv), values);
  }
}

TEST(KeyHolderEncrypt, BatchIsThreadCountInvariant) {
  const he::Keypair& kp = test_keypair();
  std::vector<BigUint> ms;
  for (const auto v : test_values()) ms.emplace_back(v);
  std::vector<he::PublicKey::StreamState> states(ms.size());
  for (std::size_t i = 0; i < states.size(); ++i) states[i] = {i, 2 * i + 1, 3, 4};

  const auto reference = kp.pub.encrypt_batch(ms, states, {.threads = 1});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    EXPECT_EQ(kp.prv.encrypt_batch(ms, states, {.threads = threads}), reference)
        << "threads=" << threads;
  }
  EXPECT_THROW((void)kp.prv.encrypt_batch(ms, std::span(states).first(3)),
               std::invalid_argument);
}

TEST(KeyHolderEncrypt, HalvesRoundTripInsideAnOuterParallelFor) {
  // Nested under an outer parallel_for the 2-way halves run inline; the
  // answers must not depend on where they ran.
  const he::Keypair& kp = test_keypair();
  const auto values = test_values();
  std::vector<he::Ciphertext> cts(values.size());
  std::vector<BigUint> plain(values.size());
  core::parallel_for(values.size(), 4, [&](std::size_t i) {
    bigint::Xoshiro256ss stream(bigint::derive_seed(9, i));
    cts[i] = kp.prv.encrypt(BigUint{values[i]}, stream);
    plain[i] = kp.prv.decrypt(cts[i]);
  });
  for (std::size_t i = 0; i < values.size(); ++i) {
    bigint::Xoshiro256ss stream(bigint::derive_seed(9, i));
    EXPECT_EQ(cts[i], kp.pub.encrypt(BigUint{values[i]}, stream));
    EXPECT_EQ(plain[i], BigUint{values[i]});
  }
}

TEST(KeyHolderEncrypt, ConcurrentCallersShareThePool) {
  // Session shape: several client threads each drive their own 2-way
  // halves through the one shared pool at the same time.
  const he::Keypair& kp = test_keypair();
  constexpr std::size_t kCallers = 4, kOps = 6;
  std::vector<std::vector<he::Ciphertext>> got(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      bigint::Xoshiro256ss stream(100 + c);
      for (std::size_t k = 0; k < kOps; ++k) {
        got[c].push_back(kp.prv.encrypt(BigUint{c * kOps + k}, stream));
        EXPECT_EQ(kp.prv.decrypt(got[c].back()), BigUint{c * kOps + k});
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    bigint::Xoshiro256ss stream(100 + c);
    for (std::size_t k = 0; k < kOps; ++k) {
      EXPECT_EQ(got[c][k], kp.pub.encrypt(BigUint{c * kOps + k}, stream));
    }
  }
}

// --- secure session over the shared runtime ----------------------------------

TEST(SecureSessionRuntime, DefaultConfigAgreesWithPlaintext) {
  data::PartitionConfig pcfg;
  pcfg.num_classes = 10;
  pcfg.num_clients = 8;
  pcfg.samples_per_client = 64;
  pcfg.rho = 5;
  pcfg.emd_avg = 1.2;
  pcfg.seed = 4;
  const auto dists = data::make_partition(pcfg).client_dists;
  const core::RegistryCodec codec(10, {1, 2, 10});

  core::SecureConfig cfg;
  cfg.key_bits = 256;
  bigint::Xoshiro256ss rng(2025);
  core::SecureSelectionSession session(codec, {0.7, 0.1, 0.0}, cfg, dists.size(), rng);
  const auto outcome = session.run_registration(dists);
  std::uint64_t total = 0;
  for (const auto v : outcome.overall_registry) total += v;
  EXPECT_EQ(total, dists.size());
}

}  // namespace
}  // namespace dubhe
