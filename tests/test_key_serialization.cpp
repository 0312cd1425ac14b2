#include <gtest/gtest.h>

#include "paillier/paillier.hpp"

namespace dubhe::he {
namespace {

Keypair test_keypair() {
  bigint::Xoshiro256ss rng(77);
  return Keypair::generate(rng, 256);
}

TEST(KeySerialization, PublicKeyRoundTrip) {
  const Keypair kp = test_keypair();
  const auto bytes = serialize(kp.pub);
  EXPECT_EQ(bytes[0], 'P');
  const PublicKey restored = deserialize_public_key(bytes);
  EXPECT_EQ(restored, kp.pub);
  EXPECT_EQ(restored.n_squared(), kp.pub.n_squared());
}

TEST(KeySerialization, RestoredPublicKeyEncrypts) {
  const Keypair kp = test_keypair();
  const PublicKey restored = deserialize_public_key(serialize(kp.pub));
  bigint::Xoshiro256ss rng(3);
  const Ciphertext ct = restored.encrypt(BigUint{909}, rng);
  EXPECT_EQ(kp.prv.decrypt(ct).to_u64(), 909u);
}

TEST(KeySerialization, PrivateKeyRoundTrip) {
  const Keypair kp = test_keypair();
  const auto bytes = serialize(kp.prv);
  EXPECT_EQ(bytes[0], 'S');
  const PrivateKey restored = deserialize_private_key(bytes);
  EXPECT_EQ(restored.p(), kp.prv.p());
  EXPECT_EQ(restored.q(), kp.prv.q());
  bigint::Xoshiro256ss rng(4);
  const Ciphertext ct = kp.pub.encrypt(BigUint{31337}, rng);
  EXPECT_EQ(restored.decrypt(ct).to_u64(), 31337u);
  EXPECT_EQ(restored.decrypt_textbook(ct).to_u64(), 31337u);
}

TEST(KeySerialization, RejectsWrongTag) {
  const Keypair kp = test_keypair();
  auto pub_bytes = serialize(kp.pub);
  EXPECT_THROW(deserialize_private_key(pub_bytes), std::invalid_argument);
  auto prv_bytes = serialize(kp.prv);
  EXPECT_THROW(deserialize_public_key(prv_bytes), std::invalid_argument);
}

TEST(KeySerialization, RejectsTruncated) {
  const Keypair kp = test_keypair();
  auto bytes = serialize(kp.prv);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_private_key(bytes), std::invalid_argument);
  EXPECT_THROW(deserialize_public_key(std::vector<std::uint8_t>{}),
               std::invalid_argument);
  EXPECT_THROW(deserialize_public_key(std::vector<std::uint8_t>{'P', 0, 0}),
               std::invalid_argument);
}

TEST(KeySerialization, BoundsTheKeyFieldWidth) {
  // n, p and q share one field reader, capped at 16,384 bits (8x the
  // paper's key) before any n^2 or Montgomery context is built.
  bigint::Xoshiro256ss rng(6);
  const auto odd_modulus = [&rng](std::size_t bits) {
    BigUint n = bigint::random_exact_bits(rng, bits);
    if (!n.is_odd()) n += BigUint{1};
    return n;
  };
  const PublicKey widest(odd_modulus(16384));
  ASSERT_EQ(widest.key_bits(), 16384u);
  EXPECT_EQ(deserialize_public_key(serialize(widest)), widest);

  auto bytes = serialize(PublicKey(odd_modulus(16392)));
  EXPECT_THROW(deserialize_public_key(bytes), std::invalid_argument);
  bytes[0] = 'S';  // the same field as a private key's p
  EXPECT_THROW(deserialize_private_key(bytes), std::invalid_argument);
}

TEST(KeySerialization, AgentDispatchScenario) {
  // The §5.1 flow in bytes: the agent serializes the keypair, every client
  // deserializes it, encrypts its registry slot, and the sum decrypts
  // correctly with an independently restored private key.
  const Keypair kp = test_keypair();
  const auto pub_wire = serialize(kp.pub);
  const auto prv_wire = serialize(kp.prv);

  bigint::Xoshiro256ss rng(5);
  Ciphertext sum = deserialize_public_key(pub_wire).encrypt_deterministic(BigUint{});
  for (int client = 0; client < 10; ++client) {
    const PublicKey pk = deserialize_public_key(pub_wire);
    sum = pk.add(sum, pk.encrypt(BigUint{1}, rng));
  }
  EXPECT_EQ(deserialize_private_key(prv_wire).decrypt(sum).to_u64(), 10u);
}

TEST(KeySerialization, GeneratedKeyMatchesGolden) {
  // The agent's 2048-bit key for one seed, as FNV-1a over n's bytes, and
  // the generator's next word: captured from the serial prime search, so
  // the pooled search must produce the same key and leave the session's
  // stream where the serial one did.
  bigint::Xoshiro256ss rng(1000);
  const Keypair kp = Keypair::generate(rng, 2048);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : kp.pub.n().to_bytes_be()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(kp.pub.key_bits(), 2048u);
  EXPECT_EQ(h, 0x72b944df773d1598ULL);
  EXPECT_EQ(rng.next_u64(), 0xebe298eb7456612eULL);
}

}  // namespace
}  // namespace dubhe::he
