// Generators, prime sieve, Miller–Rabin and the parallel prime search.
//
// This file is also compiled a second time with DUBHE_NO_INT128 (target
// test_prime_random_portable): trial division divides multi-limb values by
// word-sized group products, the synthesized 2-by-1 division's widest
// divisors, and the golden keys must come out the same there.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "bigint/prime.hpp"
#include "bigint/random.hpp"
#include "core/parallel.hpp"
#include "paillier/paillier.hpp"

namespace dubhe::bigint {
namespace {

/// FNV-1a over the big-endian bytes: a compact golden for a large integer.
std::uint64_t fnv1a(const BigUint& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : v.to_bytes_be()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The serial search random_prime must reproduce word for word: the first
/// candidate that passes is_probable_prime. A candidate that passes round 1
/// and then meets a witness is counted in `late_witnesses`; splitting the
/// rounds this way draws the same words as one is_probable_prime call.
BigUint serial_random_prime(EntropySource& rng, std::size_t bits, int rounds,
                            int* late_witnesses = nullptr) {
  for (;;) {
    BigUint candidate = random_exact_bits(rng, bits);
    if (!candidate.is_odd()) candidate += BigUint{1};
    if (candidate.bit_length() != bits) continue;
    if (rounds < 2) {
      if (is_probable_prime(candidate, rng, rounds)) return candidate;
      continue;
    }
    if (!is_probable_prime(candidate, rng, 1)) continue;
    if (is_probable_prime(candidate, rng, rounds - 1)) return candidate;
    if (late_witnesses != nullptr) ++*late_witnesses;
  }
}

/// Yields `script`, then the words of Xoshiro256ss(0): a stream with chosen
/// candidates and bases at its head.
class ScriptedSource final : public EntropySource {
 public:
  explicit ScriptedSource(std::vector<std::uint64_t> script) : script_(std::move(script)) {}
  std::uint64_t next_u64() override {
    return pos_ < script_.size() ? script_[pos_++] : tail_.next_u64();
  }
  [[nodiscard]] std::unique_ptr<EntropySource> clone() const override {
    return std::make_unique<ScriptedSource>(*this);
  }

 private:
  std::vector<std::uint64_t> script_;
  std::size_t pos_ = 0;
  Xoshiro256ss tail_{0};
};

/// Per-prime trial division as the sieve once ran it, one remainder pass
/// per prime in ascending order.
TrialDivision reference_trial_divide(const BigUint& n) {
  for (const std::uint32_t p : small_primes()) {
    if (n.fits_u64() && n.to_u64() == p) return TrialDivision::kSmallPrime;
    if (n.mod_u64(p) == 0) return TrialDivision::kComposite;
  }
  return TrialDivision::kNoSmallFactor;
}

TEST(SplitMix64, KnownFirstOutputs) {
  // Reference values for seed 0 from the published splitmix64 algorithm.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next_u64(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next_u64(), 0x6e789e6aa1b965f4ULL);
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256ss a(42), b(42), c(43);
  for (int i = 0; i < 10; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  bool differs = false;
  Xoshiro256ss a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256ss rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256ss rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Xoshiro, NextBelowCoversRange) {
  Xoshiro256ss rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

template <typename Gen>
void expect_clone_replays(Gen original) {
  for (int i = 0; i < 7; ++i) original.next_u64();
  Gen untouched = original;
  const auto clone = original.clone();
  // The clone yields the original's next 100 words.
  std::vector<std::uint64_t> from_clone;
  for (int i = 0; i < 100; ++i) from_clone.push_back(clone->next_u64());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(original.next_u64(), from_clone[i]) << i;
  // Advancing a clone leaves its original where it was.
  const auto other = untouched.clone();
  for (int i = 0; i < 1000; ++i) other->next_u64();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(untouched.next_u64(), from_clone[i]) << i;
}

TEST(EntropyClone, SeededGeneratorsReplayTheirStream) {
  expect_clone_replays(SplitMix64(31));
  expect_clone_replays(Xoshiro256ss(32));
  expect_clone_replays(Xoshiro256ss(std::array<std::uint64_t, 4>{1, 2, 3, 4}));
}

TEST(EntropyClone, SystemSourceClonesToAFreshReader) {
  SystemEntropySource os;
  const auto clone = os.clone();
  ASSERT_NE(clone, nullptr);
  // Two 128-bit reads of OS entropy collide with probability 2^-128.
  const std::uint64_t a0 = os.next_u64(), a1 = os.next_u64();
  const std::uint64_t b0 = clone->next_u64(), b1 = clone->next_u64();
  EXPECT_FALSE(a0 == b0 && a1 == b1);
}

TEST(RandomBits, SizesAndDeterminism) {
  Xoshiro256ss rng(9);
  EXPECT_TRUE(random_bits(rng, 0).is_zero());
  for (const std::size_t bits : {1u, 31u, 32u, 33u, 64u, 100u, 1000u}) {
    const BigUint v = random_bits(rng, bits);
    EXPECT_LE(v.bit_length(), bits);
  }
  Xoshiro256ss r1(77), r2(77);
  EXPECT_EQ(random_bits(r1, 256), random_bits(r2, 256));
}

TEST(RandomExactBits, TopBitForced) {
  Xoshiro256ss rng(10);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(random_exact_bits(rng, 128).bit_length(), 128u);
  }
}

TEST(RandomBelow, UniformSupport) {
  Xoshiro256ss rng(11);
  const BigUint n{10};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const BigUint v = random_below(rng, n);
    EXPECT_LT(v, n);
    seen.insert(v.to_u64());
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_THROW(random_below(rng, BigUint{}), std::invalid_argument);
}

TEST(SmallPrimes, StartsCorrectly) {
  const auto primes = small_primes();
  ASSERT_EQ(primes.size(), 1028u);
  EXPECT_EQ(primes[0], 2u);
  EXPECT_EQ(primes[1], 3u);
  EXPECT_EQ(primes[2], 5u);
  EXPECT_EQ(primes[3], 7u);
  EXPECT_EQ(primes[4], 11u);
  EXPECT_EQ(primes.back(), 8191u);
}

TEST(SmallPrimes, GroupsPartitionTheSieveIntoWordProducts) {
  const auto primes = small_primes();
  const auto groups = small_prime_groups();
  std::size_t next = 0;
  for (const SmallPrimeGroup& g : groups) {
    ASSERT_EQ(g.first, next);
    ASSERT_GT(g.count, 0u);
    BigUint product{1};
    for (std::size_t i = g.first; i < g.first + g.count; ++i) product *= BigUint{primes[i]};
    ASSERT_TRUE(product.fits_u64());
    EXPECT_EQ(product.to_u64(), g.product);
    // Greedy: the next prime would not have fit.
    if (g.first + g.count < primes.size()) {
      EXPECT_FALSE((product * BigUint{primes[g.first + g.count]}).fits_u64());
    }
    next = g.first + g.count;
  }
  EXPECT_EQ(next, primes.size());
  EXPECT_EQ(groups.size(), 199u);
}

TEST(TrialDivision, GroupedMatchesPerPrime) {
  const auto primes = small_primes();
  std::vector<BigUint> inputs;
  Xoshiro256ss rng(16);
  for (std::size_t bits = 64; bits <= 1024; bits += 8) {
    for (int i = 0; i < 4; ++i) {
      BigUint v = random_exact_bits(rng, bits);
      if (!v.is_odd()) v += BigUint{1};
      inputs.push_back(v);
      // A multiple of a random sieve prime, to reach every group.
      inputs.push_back(v * BigUint{primes[rng.next_below(primes.size())]});
    }
  }
  for (std::size_t i = 0; i < primes.size(); ++i) {
    inputs.emplace_back(primes[i]);
    if (i + 1 < primes.size()) inputs.push_back(BigUint{primes[i]} * BigUint{primes[i + 1]});
  }
  for (int i = 0; i < 500; ++i) {
    inputs.push_back(BigUint{primes[rng.next_below(primes.size())]} *
                     BigUint{primes[rng.next_below(primes.size())]});
  }
  inputs.push_back(BigUint{primes.back()} * BigUint{primes.back()});
  for (const SmallPrimeGroup& g : small_prime_groups()) {
    inputs.emplace_back(g.product);
    inputs.push_back(BigUint{g.product} + BigUint{1});
  }
  for (const char* c : {"561", "41041", "825265"}) inputs.push_back(BigUint::from_dec(c));
  for (std::uint64_t v = 2; v < 20000; ++v) inputs.emplace_back(v);
  for (const BigUint& n : inputs) {
    ASSERT_EQ(trial_divide(n), reference_trial_divide(n)) << n.to_dec();
  }
}

TEST(MillerRabin, KnownPrimes) {
  Xoshiro256ss rng(12);
  for (const char* p : {"2", "3", "65537", "1000000007",
                        "170141183460469231731687303715884105727" /* 2^127-1 */}) {
    EXPECT_TRUE(is_probable_prime(BigUint::from_dec(p), rng)) << p;
  }
}

TEST(MillerRabin, KnownComposites) {
  Xoshiro256ss rng(13);
  // Includes Carmichael numbers (561, 41041, 825265), which fool Fermat
  // tests but not Miller-Rabin.
  for (const char* c : {"0", "1", "4", "561", "41041", "825265",
                        "1000000008", "340282366920938463463374607431768211457"}) {
    EXPECT_FALSE(is_probable_prime(BigUint::from_dec(c), rng)) << c;
  }
}

TEST(MillerRabin, ProductOfTwoPrimes) {
  Xoshiro256ss rng(14);
  const BigUint p = random_prime(rng, 64);
  const BigUint q = random_prime(rng, 64);
  EXPECT_FALSE(is_probable_prime(p * q, rng));
}

class RandomPrimeBits : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomPrimeBits, ExactBitLengthAndPrimality) {
  Xoshiro256ss rng(GetParam());
  const BigUint p = random_prime(rng, GetParam());
  EXPECT_EQ(p.bit_length(), GetParam());
  EXPECT_TRUE(p.is_odd() || p.to_u64() == 2);
  Xoshiro256ss check(999);
  EXPECT_TRUE(is_probable_prime(p, check));
}

INSTANTIATE_TEST_SUITE_P(Widths, RandomPrimeBits,
                         ::testing::Values(16, 24, 32, 48, 64, 128, 256, 512));

TEST(RandomPrime, MatchesTheSerialSearchWordForWord) {
  // Every width from the sieve-prime answers (n <= 8191, no round runs)
  // up, at round counts 0, 1, 2 and the default; the generator's next word
  // after the search pins how many words it took.
  for (std::size_t bits = 2; bits <= 160; bits += (bits < 40 ? 1 : 24)) {
    for (const int rounds : {0, 1, 2, 24}) {
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Xoshiro256ss parallel(seed * 1000 + bits), serial(seed * 1000 + bits);
        const BigUint p = random_prime(parallel, bits, rounds);
        ASSERT_EQ(p, serial_random_prime(serial, bits, rounds))
            << bits << " bits, " << rounds << " rounds, seed " << seed;
        ASSERT_EQ(parallel.next_u64(), serial.next_u64());
      }
    }
  }
}

TEST(RandomPrime, LateWitnessResumesTheSerialSearch) {
  // n = 8287 * 16573 has no factor in the sieve, and 7 is a strong liar for
  // it while 47 is a witness. Script n as the first candidate, 7 as its
  // round-1 base and 47 as its round-2 base: round 1 passes, round 2 finds
  // the witness, and the search must resume exactly where the serial one
  // does, after the witness's base. Read as a candidate, the witness's word
  // is the prime 2^27 + 45, so a search that resumed one draw early would
  // return it.
  const std::uint64_t n = 8287ULL * 16573ULL;
  const std::size_t bits = 28;
  ASSERT_EQ(BigUint{n}.bit_length(), bits);
  ASSERT_EQ(trial_divide(BigUint{n}), TrialDivision::kNoSmallFactor);
  // One word per draw, its top `bits` bits the value: n as the candidate,
  // base - 2 for random_below(n - 3).
  const auto word = [](std::uint64_t v) { return v << (64 - bits); };
  const std::vector<std::uint64_t> script{word(n), word(7 - 2), word(47 - 2)};
  for (const int rounds : {2, 3, 24}) {
    ScriptedSource parallel(script), serial(script);
    int late = 0;
    const BigUint p = random_prime(parallel, bits, rounds);
    EXPECT_EQ(p, serial_random_prime(serial, bits, rounds, &late)) << rounds;
    EXPECT_EQ(late, 1) << rounds;
    EXPECT_NE(p.to_u64(), n);
    EXPECT_EQ(parallel.next_u64(), serial.next_u64()) << rounds;
  }
}

/// One golden: the hash of the value a seed yields and the generator's next
/// word afterwards, captured from the serial search.
struct Golden {
  std::size_t bits;
  std::uint64_t seed;
  std::uint64_t value_fnv;
  std::uint64_t next_word;
};

constexpr Golden kKeypairGoldens[] = {
    {256, 1000, 0xeb33e58cbc0be158ULL, 0xc49f338fbc884ddfULL},
    {256, 1001, 0x5e5403f7fdf08828ULL, 0xd1d8c13e3fe0f987ULL},
    {256, 1002, 0x86e171396a5a1af1ULL, 0xdf49fc605e54fd79ULL},
    {512, 1000, 0x9bc4a797b368cfd2ULL, 0x324741bb977d4752ULL},
    {512, 1001, 0x647bb2c12f5ba066ULL, 0x7b3499dcb5ff66c6ULL},
    {512, 1002, 0x527222ae6ec292d3ULL, 0xc8a9c34321d5949dULL},
    {1024, 1000, 0x10a48926e09b8cb1ULL, 0xe5a439f32fff2124ULL},
    {1024, 1001, 0x17105cce625b19e6ULL, 0x61198f4f529c7aeeULL},
    {1024, 1002, 0x1dbfdc5bfb8b6c33ULL, 0x9b73c545745ed4a7ULL},
};

constexpr Golden kPrimeGoldens[] = {
    {1024, 1000, 0x47fc8d4e179ea18aULL, 0x6b4a7488654c5ae6ULL},
    {1024, 1001, 0xcdd47b71f92a9ec5ULL, 0x6e9b2a0fa81c926fULL},
    {1024, 1002, 0xe89d719091827c4cULL, 0xc46885742bf1cb7eULL},
};

/// Checks every golden; with `in_pool_task`, each runs inside a
/// core::parallel_for task, where the search's own parallel_for runs inline.
void expect_goldens(bool in_pool_task) {
  const auto run = [in_pool_task](std::size_t count, const auto& fn) {
    if (in_pool_task) {
      core::parallel_for(count, 0, fn);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(i);
    }
  };
  std::vector<Golden> got(std::size(kKeypairGoldens));
  run(got.size(), [&got](std::size_t i) {
    const Golden& g = kKeypairGoldens[i];
    Xoshiro256ss rng(g.seed);
    const he::Keypair kp = he::Keypair::generate(rng, g.bits);
    got[i] = {g.bits, g.seed, fnv1a(kp.pub.n()), rng.next_u64()};
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].value_fnv, kKeypairGoldens[i].value_fnv) << got[i].bits << "/" << got[i].seed;
    EXPECT_EQ(got[i].next_word, kKeypairGoldens[i].next_word) << got[i].bits << "/" << got[i].seed;
  }
  got.assign(std::size(kPrimeGoldens), Golden{});
  run(got.size(), [&got](std::size_t i) {
    const Golden& g = kPrimeGoldens[i];
    Xoshiro256ss rng(g.seed);
    const BigUint p = random_prime(rng, g.bits);
    got[i] = {g.bits, g.seed, fnv1a(p), rng.next_u64()};
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].value_fnv, kPrimeGoldens[i].value_fnv) << got[i].seed;
    EXPECT_EQ(got[i].next_word, kPrimeGoldens[i].next_word) << got[i].seed;
  }
}

TEST(RandomPrime, KeysAndGeneratorStateMatchGoldens) { expect_goldens(false); }

TEST(RandomPrime, GoldensHoldInsideAPoolTask) { expect_goldens(true); }

TEST(RandomPrime, SplitMixKeysMatchGoldens) {
  constexpr Golden kSplitMix[] = {
      {512, 1000, 0xdd29a4f4581bdc32ULL, 0xf0cb28b014354bc1ULL},
      {512, 1001, 0xd37d05b3dd102743ULL, 0x1462c01043443e26ULL},
      {512, 1002, 0xf2502f6378046774ULL, 0x470fad400457a198ULL},
  };
  for (const Golden& g : kSplitMix) {
    SplitMix64 rng(g.seed);
    const he::Keypair kp = he::Keypair::generate(rng, g.bits);
    EXPECT_EQ(fnv1a(kp.pub.n()), g.value_fnv) << g.seed;
    EXPECT_EQ(rng.next_u64(), g.next_word) << g.seed;
  }
}

TEST(RandomPrime, RejectsTinyRequest) {
  Xoshiro256ss rng(15);
  EXPECT_THROW(random_prime(rng, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dubhe::bigint
