// The shared crypto runtime: core::ParallelRuntime determinism, the vector
// encrypt stream contract (each ciphertext from its own 256-bit stream
// state, four words of the caller's source per item), the key-holder CRT
// encryption path (byte-identical to the public-key path, its two halves on
// the shared pool, nested and concurrent use), and the pooled span decrypt
// and vector encrypt on keys either side of he::kParallelKeyBitsCutoff.
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

// --- vector encryption -----------------------------------------------------

/// A 256-bit key: below he::kParallelKeyBitsCutoff, so every Paillier site
/// runs inline.
const he::Keypair& test_keypair() {
  static const he::Keypair kp = [] {
    bigint::Xoshiro256ss rng(1234);
    return he::Keypair::generate(rng, 256);
  }();
  return kp;
}

/// A 512-bit key from two fixed 256-bit primes: at the cutoff, so vector
/// encrypts, span decrypts and the key-holder halves go to the pool. Fixed
/// primes keep the suite free of a keygen under the sanitizers.
const he::Keypair& pooled_keypair() {
  static const he::Keypair kp = [] {
    he::PrivateKey prv(
        BigUint::from_hex("edc1821f5ad8097384e376c09385bf11322b8252081f925658d3d6d8e2db72ff"),
        BigUint::from_hex("f8050e4fd1aacc172cf5e975ed78c69192242ce598a55a82957b698e7c0892c1"));
    he::PublicKey pub = prv.public_key();
    return he::Keypair{std::move(pub), std::move(prv)};
  }();
  return kp;
}

TEST(PooledKeys, TheTwoTestKeysStraddleTheCutoff) {
  EXPECT_LT(test_keypair().pub.key_bits(), he::kParallelKeyBitsCutoff);
  EXPECT_GE(pooled_keypair().pub.key_bits(), he::kParallelKeyBitsCutoff);
  EXPECT_EQ(he::paillier_threads(test_keypair().pub.key_bits()), 1u);
  EXPECT_EQ(he::paillier_threads(pooled_keypair().pub.key_bits()), 0u);
}

std::vector<std::uint64_t> test_values() {
  std::vector<std::uint64_t> v(23);
  std::iota(v.begin(), v.end(), 100);
  return v;
}

/// Checks the vector encrypt stream contract: cts[i] is
/// key.encrypt(pts[i], Xoshiro256ss(state_i)) with state_i words 4i..4i+3
/// of a fresh Xoshiro256ss(seed), and `used` (the caller's source after the
/// encrypt) stands exactly 4 * pts.size() words ahead of it.
template <class Key>
void expect_stream_contract(const Key& key, std::span<const BigUint> pts,
                            std::span<const he::Ciphertext> cts, std::uint64_t seed,
                            bigint::Xoshiro256ss& used) {
  ASSERT_EQ(cts.size(), pts.size());
  bigint::Xoshiro256ss source(seed);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bigint::Xoshiro256ss stream(he::detail::StreamState{
        source.next_u64(), source.next_u64(), source.next_u64(), source.next_u64()});
    EXPECT_EQ(cts[i], key.encrypt(pts[i], stream)) << "item " << i;
  }
  EXPECT_EQ(used.next_u64(), source.next_u64()) << "source not 4 words per item ahead";
}

/// Both vector forms, under both overloads, against the stream contract.
void expect_vector_stream_contracts(const he::Keypair& kp) {
  const auto values = test_values();
  const std::vector<BigUint> slot_pts(values.begin(), values.end());
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 32);
  const std::vector<BigUint> packed_pts = codec.encode(values);
  ASSERT_GT(packed_pts.size(), 1u);

  bigint::Xoshiro256ss r1(55);
  const auto slots = he::EncryptedVector::encrypt(kp.pub, values, r1);
  expect_stream_contract(kp.pub, slot_pts, slots.slots(), 55, r1);
  EXPECT_EQ(slots.decrypt(kp.prv), values);

  bigint::Xoshiro256ss r2(56);
  const auto packed_pub = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, r2);
  expect_stream_contract(kp.pub, packed_pts, packed_pub.ciphertexts(), 56, r2);
  EXPECT_EQ(packed_pub.decrypt(kp.prv), values);

  bigint::Xoshiro256ss r3(57);
  const auto packed_prv = he::PackedEncryptedVector::encrypt(kp.prv, codec, values, r3);
  expect_stream_contract(kp.prv, packed_pts, packed_prv.ciphertexts(), 57, r3);
  EXPECT_EQ(packed_prv.decrypt(kp.prv), values);

  // A different source changes the randomization.
  bigint::Xoshiro256ss other(58);
  EXPECT_NE(he::EncryptedVector::encrypt(kp.pub, values, other).slots(), slots.slots());
}

TEST(StreamContract, CiphertextIUsesWordsFourIOfTheCallersSource) {
  for (const he::Keypair* key : {&test_keypair(), &pooled_keypair()}) {
    SCOPED_TRACE(key->pub.key_bits());
    expect_vector_stream_contracts(*key);
  }
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
  for (const he::Keypair* kp : {&test_keypair(), &pooled_keypair()}) {
    const auto values = test_values();
    const he::PackedCodec codec(kp->pub.key_bits() - 1, 16);
    bigint::Xoshiro256ss r3(58), r4(58);
    const auto packed_pub = he::PackedEncryptedVector::encrypt(kp->pub, codec, values, r3);
    const auto packed_prv = he::PackedEncryptedVector::encrypt(kp->prv, codec, values, r4);
    EXPECT_EQ(he::serialize(packed_prv), he::serialize(packed_pub));
    EXPECT_EQ(r3.next_u64(), r4.next_u64());
    EXPECT_EQ(packed_prv.decrypt(kp->prv), values);
  }
}

TEST(KeyHolderEncrypt, HalvesRoundTripInsideAnOuterParallelFor) {
  // Nested under an outer parallel_for the 2-way halves run inline; the
  // answers must not depend on where they ran.
  const he::Keypair& kp = pooled_keypair();
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
  const he::Keypair& kp = pooled_keypair();
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

// --- pooled span decrypt and vector encrypt ----------------------------------

/// `count` ciphertexts of distinct plaintexts below n under `kp`.
std::vector<he::Ciphertext> sample_ciphertexts(const he::Keypair& kp, std::size_t count,
                                               std::uint64_t seed) {
  bigint::Xoshiro256ss rng(seed);
  std::vector<he::Ciphertext> cts;
  for (std::size_t i = 0; i < count; ++i) {
    cts.push_back(kp.pub.encrypt(bigint::random_below(rng, kp.pub.n()), rng));
  }
  return cts;
}

TEST(SpanDecrypt, MatchesTextbookDecryptAboveAndBelowTheCutoff) {
  for (const he::Keypair* kp : {&test_keypair(), &pooled_keypair()}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{13}, std::size_t{64}}) {
      const auto cts = sample_ciphertexts(*kp, n, 700 + n);
      const std::vector<BigUint> got = kp->prv.decrypt(cts);
      ASSERT_EQ(got.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], kp->prv.decrypt_textbook(cts[i]))
            << "key_bits=" << kp->pub.key_bits() << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SpanDecrypt, OneOutOfRangeCiphertextAnywhereThrows) {
  for (const he::Keypair* kp : {&test_keypair(), &pooled_keypair()}) {
    const auto good = sample_ciphertexts(*kp, 5, 71);
    for (std::size_t bad = 0; bad < good.size(); ++bad) {
      auto cts = good;
      cts[bad] = he::Ciphertext{kp->pub.n_squared()};
      EXPECT_THROW((void)kp->prv.decrypt(cts), std::out_of_range)
          << "key_bits=" << kp->pub.key_bits() << " bad=" << bad;
    }
    EXPECT_THROW((void)kp->prv.decrypt(he::Ciphertext{kp->pub.n_squared()}),
                 std::out_of_range);
  }
}

/// The packed encrypt of `values` rebuilt as a serial loop of
/// key.encrypt(m_i, Xoshiro256ss(state_i)) over words 4i..4i+3 of
/// Xoshiro256ss(seed).
he::PackedEncryptedVector serial_packed_encrypt(const he::PrivateKey& prv,
                                                const he::PackedCodec& codec,
                                                std::span<const std::uint64_t> values,
                                                std::uint64_t seed) {
  bigint::Xoshiro256ss source(seed);
  std::vector<he::Ciphertext> cts;
  for (const BigUint& m : codec.encode(values)) {
    bigint::Xoshiro256ss stream(he::detail::StreamState{
        source.next_u64(), source.next_u64(), source.next_u64(), source.next_u64()});
    cts.push_back(prv.encrypt(m, stream));
  }
  return he::PackedEncryptedVector(prv.public_key(), codec, values.size(), std::move(cts));
}

/// 13 ciphertexts' worth of 19-bit slot values under `codec`.
std::vector<std::uint64_t> update_values(const he::PackedCodec& codec) {
  std::vector<std::uint64_t> values(codec.slots_per_plaintext() * 13);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = (i * 7919) % (1u << 19);
  return values;
}

TEST(PooledEncrypt, PackedVectorIsByteEqualToTheSerialLoop) {
  const he::Keypair& kp = pooled_keypair();
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 19);
  const auto values = update_values(codec);
  bigint::Xoshiro256ss rng(88);
  const auto pooled = he::PackedEncryptedVector::encrypt(kp.prv, codec, values, rng);
  ASSERT_EQ(pooled.ciphertext_count(), 13u);
  EXPECT_EQ(he::serialize(pooled),
            he::serialize(serial_packed_encrypt(kp.prv, codec, values, 88)));
  EXPECT_EQ(pooled.decrypt(kp.prv), values);
}

TEST(PooledEncrypt, AgentDecryptWhileThreeClientsEncrypt) {
  // Session shape: the agent decrypts an update sum on the pool while three
  // client threads pool their own update encrypts through it.
  const he::Keypair& kp = pooled_keypair();
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 19);
  const auto values = update_values(codec);
  const auto sum_cts = sample_ciphertexts(kp, 13, 90);
  std::vector<BigUint> expected_sum;
  for (const he::Ciphertext& ct : sum_cts) expected_sum.push_back(kp.prv.decrypt_textbook(ct));

  constexpr std::size_t kClients = 3;
  std::vector<std::vector<std::uint8_t>> client_bytes(kClients);
  std::vector<BigUint> agent_got;
  std::vector<std::thread> threads;
  threads.emplace_back([&] { agent_got = kp.prv.decrypt(sum_cts); });
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      bigint::Xoshiro256ss rng(300 + c);
      client_bytes[c] =
          he::serialize(he::PackedEncryptedVector::encrypt(kp.prv, codec, values, rng));
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(agent_got, expected_sum);
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(client_bytes[c],
              he::serialize(serial_packed_encrypt(kp.prv, codec, values, 300 + c)))
        << "client " << c;
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
