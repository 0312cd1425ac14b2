#include "paillier/paillier.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "paillier/encrypted_vector.hpp"

namespace dubhe::he {
namespace {

/// Shared fixture: key generation is the slow part, do it once per width.
class PaillierParam : public ::testing::TestWithParam<std::size_t> {
 protected:
  static Keypair make_keypair(std::size_t bits) {
    bigint::Xoshiro256ss rng(bits * 131 + 7);
    return Keypair::generate(rng, bits);
  }
  void SetUp() override {
    static std::map<std::size_t, Keypair>* cache = new std::map<std::size_t, Keypair>();
    auto it = cache->find(GetParam());
    if (it == cache->end()) {
      it = cache->emplace(GetParam(), make_keypair(GetParam())).first;
    }
    kp_ = &it->second;
    rng_ = std::make_unique<bigint::Xoshiro256ss>(GetParam() + 3);
  }
  const Keypair* kp_ = nullptr;
  std::unique_ptr<bigint::Xoshiro256ss> rng_;
};

TEST_P(PaillierParam, ModulusHasRequestedBits) {
  EXPECT_EQ(kp_->pub.key_bits(), GetParam());
  EXPECT_EQ(kp_->pub.n_squared(), kp_->pub.n() * kp_->pub.n());
}

TEST_P(PaillierParam, EncryptDecryptRoundTrip) {
  for (const std::uint64_t m : {0ULL, 1ULL, 2ULL, 999ULL, 123456789ULL}) {
    const Ciphertext ct = kp_->pub.encrypt(BigUint{m}, *rng_);
    EXPECT_EQ(kp_->prv.decrypt(ct).to_u64(), m);
  }
}

TEST_P(PaillierParam, CrtAndTextbookDecryptionsAgree) {
  for (int i = 0; i < 5; ++i) {
    const BigUint m = bigint::random_below(*rng_, kp_->pub.n());
    const Ciphertext ct = kp_->pub.encrypt(m, *rng_);
    EXPECT_EQ(kp_->prv.decrypt(ct), m);
    EXPECT_EQ(kp_->prv.decrypt_textbook(ct), m);
  }
}

TEST_P(PaillierParam, HomomorphicAdditionProperty) {
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t a = rng_->next_u64() % 100000, b = rng_->next_u64() % 100000;
    const Ciphertext ca = kp_->pub.encrypt(BigUint{a}, *rng_);
    const Ciphertext cb = kp_->pub.encrypt(BigUint{b}, *rng_);
    EXPECT_EQ(kp_->prv.decrypt(kp_->pub.add(ca, cb)).to_u64(), a + b);
  }
}

TEST_P(PaillierParam, AdditionWrapsModN) {
  const BigUint big = kp_->pub.n() - BigUint{1};
  const Ciphertext ct = kp_->pub.encrypt(big, *rng_);
  const Ciphertext sum = kp_->pub.add(ct, kp_->pub.encrypt(BigUint{2}, *rng_));
  EXPECT_EQ(kp_->prv.decrypt(sum).to_u64(), 1u);  // (n-1) + 2 = 1 mod n
}

TEST_P(PaillierParam, MulPlain) {
  const Ciphertext ct = kp_->pub.encrypt(BigUint{1000}, *rng_);
  EXPECT_EQ(kp_->prv.decrypt(kp_->pub.mul_plain(ct, BigUint{7})).to_u64(), 7000u);
  EXPECT_EQ(kp_->prv.decrypt(kp_->pub.mul_plain(ct, BigUint{})).to_u64(), 0u);
}

TEST_P(PaillierParam, RerandomizePreservesPlaintextChangesCiphertext) {
  const Ciphertext ct = kp_->pub.encrypt(BigUint{5555}, *rng_);
  const Ciphertext rr = kp_->pub.rerandomize(ct, *rng_);
  EXPECT_NE(ct.c, rr.c);
  EXPECT_EQ(kp_->prv.decrypt(rr).to_u64(), 5555u);
}

TEST_P(PaillierParam, ProbabilisticEncryptionDiffers) {
  const Ciphertext a = kp_->pub.encrypt(BigUint{42}, *rng_);
  const Ciphertext b = kp_->pub.encrypt(BigUint{42}, *rng_);
  EXPECT_NE(a.c, b.c);  // semantic security: same plaintext, fresh randomness
}

TEST_P(PaillierParam, PlaintextOutOfRangeThrows) {
  EXPECT_THROW(kp_->pub.encrypt(kp_->pub.n(), *rng_), std::out_of_range);
  EXPECT_THROW(kp_->pub.encrypt_deterministic(kp_->pub.n() + BigUint{1}),
               std::out_of_range);
}

TEST_P(PaillierParam, CiphertextOutOfRangeThrows) {
  EXPECT_THROW(kp_->prv.decrypt(Ciphertext{kp_->pub.n_squared()}), std::out_of_range);
}

TEST_P(PaillierParam, SerializationRoundTripAndSize) {
  const Ciphertext ct = kp_->pub.encrypt(BigUint{777}, *rng_);
  const auto bytes = serialize(ct, kp_->pub);
  EXPECT_EQ(bytes.size(), 4 + kp_->pub.ciphertext_bytes());
  EXPECT_EQ(deserialize_ciphertext(bytes), ct);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierParam, ::testing::Values(128, 256, 512));

TEST(Paillier, Paper2048BitConfiguration) {
  // One full-size check matching the paper's deployment (slow; run once).
  bigint::Xoshiro256ss rng(2048);
  const Keypair kp = Keypair::generate(rng, 2048);
  EXPECT_EQ(kp.pub.key_bits(), 2048u);
  EXPECT_EQ(kp.pub.ciphertext_bytes(), 512u);
  const Ciphertext ct = kp.pub.encrypt(BigUint{314159}, rng);
  EXPECT_EQ(kp.prv.decrypt(ct).to_u64(), 314159u);
}

TEST(Paillier, PrivateKeyRejectsBadPrimes) {
  EXPECT_THROW(PrivateKey(BigUint{7}, BigUint{7}), std::invalid_argument);
  EXPECT_THROW(PrivateKey(BigUint{8}, BigUint{7}), std::invalid_argument);
}

TEST(Paillier, PrivateKeyRejectsDegenerateInputsAsInvalidArgument) {
  // Each of these used to escape as another exception type (underflow in
  // l_function, domain_error from mod_inverse) instead of invalid_argument.
  EXPECT_THROW(PrivateKey(BigUint{1}, BigUint{7}), std::invalid_argument);
  EXPECT_THROW(PrivateKey(BigUint{7}, BigUint{1}), std::invalid_argument);
  EXPECT_THROW(PrivateKey(BigUint{}, BigUint{7}), std::invalid_argument);
  EXPECT_THROW(PrivateKey(BigUint{15}, BigUint{21}), std::invalid_argument);  // gcd 3
  EXPECT_THROW(PrivateKey(BigUint{3}, BigUint{7}), std::invalid_argument);    // 3 | q-1
  EXPECT_NO_THROW(PrivateKey(BigUint{3}, BigUint{5}));
}

TEST(Paillier, KeygenRejectsTinyKeys) {
  bigint::Xoshiro256ss rng(1);
  EXPECT_THROW(Keypair::generate(rng, 8), std::invalid_argument);
}

TEST(Paillier, DeserializeRejectsTruncatedBuffers) {
  const std::vector<std::uint8_t> tiny{0, 0};
  EXPECT_THROW(deserialize_ciphertext(tiny), std::invalid_argument);
  const std::vector<std::uint8_t> lying{0, 0, 1, 0, 42};  // claims 256 bytes
  EXPECT_THROW(deserialize_ciphertext(lying), std::invalid_argument);
}

TEST(EncryptedVector, SlotwiseAggregation) {
  bigint::Xoshiro256ss rng(31);
  const Keypair kp = Keypair::generate(rng, 256);
  const std::vector<std::uint64_t> a{1, 0, 5, 7, 0}, b{2, 3, 0, 1, 0};
  auto ea = EncryptedVector::encrypt(kp.pub, a, rng);
  const auto eb = EncryptedVector::encrypt(kp.pub, b, rng);
  ea += eb;
  EXPECT_EQ(ea.decrypt(kp.prv), (std::vector<std::uint64_t>{3, 3, 5, 8, 0}));
}

TEST(EncryptedVector, ZerosIsAdditiveIdentity) {
  bigint::Xoshiro256ss rng(32);
  const Keypair kp = Keypair::generate(rng, 256);
  const std::vector<std::uint64_t> a{9, 8, 7};
  auto sum = EncryptedVector::zeros(kp.pub, 3);
  sum += EncryptedVector::encrypt(kp.pub, a, rng);
  EXPECT_EQ(sum.decrypt(kp.prv), a);
}

TEST(EncryptedVector, ManyClientOneHotSum) {
  // The registration pattern: 30 one-hot registries summing to a histogram.
  bigint::Xoshiro256ss rng(33);
  const Keypair kp = Keypair::generate(rng, 256);
  const std::size_t len = 8;
  auto sum = EncryptedVector::zeros(kp.pub, len);
  std::vector<std::uint64_t> expected(len, 0);
  for (int k = 0; k < 30; ++k) {
    std::vector<std::uint64_t> onehot(len, 0);
    const std::size_t slot = rng.next_below(len);
    onehot[slot] = 1;
    ++expected[slot];
    sum += EncryptedVector::encrypt(kp.pub, onehot, rng);
  }
  EXPECT_EQ(sum.decrypt(kp.prv), expected);
}

TEST(EncryptedVector, MismatchThrows) {
  bigint::Xoshiro256ss rng(34);
  const Keypair kp = Keypair::generate(rng, 256);
  const Keypair kp2 = Keypair::generate(rng, 256);
  auto a = EncryptedVector::encrypt(kp.pub, std::vector<std::uint64_t>{1, 2}, rng);
  const auto short_vec =
      EncryptedVector::encrypt(kp.pub, std::vector<std::uint64_t>{1}, rng);
  EXPECT_THROW(a += short_vec, std::invalid_argument);
  const auto other_key =
      EncryptedVector::encrypt(kp2.pub, std::vector<std::uint64_t>{1, 2}, rng);
  EXPECT_THROW(a += other_key, std::invalid_argument);
}

TEST(EncryptedVector, ByteSizeMatchesSerialization) {
  bigint::Xoshiro256ss rng(35);
  const Keypair kp = Keypair::generate(rng, 256);
  const auto v = EncryptedVector::encrypt(kp.pub, std::vector<std::uint64_t>{1, 2, 3}, rng);
  EXPECT_EQ(v.byte_size(), v.serialize_bytes().size());
  EXPECT_EQ(v.byte_size(), 3 * (4 + kp.pub.ciphertext_bytes()));
}

}  // namespace
}  // namespace dubhe::he
