// The wire codec under friendly and hostile input: round-trip property
// tests over randomized payloads of every message type, adversarial decodes
// (truncation, bad magic/version/flags, corrupted CRC, oversized length
// prefix) asserting *typed* failures, the incremental FrameReader, the
// payload codecs (including bit-exact float transport, the
// EncryptedVector / PackedEncryptedVector serialization round trips and the
// packed decode's binding to the session key), the LoopbackTransport
// contract with exact byte accounting, and net::Link's frame numbering
// across the u16 wrap.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <thread>

#include "core/selective.hpp"
#include "net/codec.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "paillier/encrypted_vector.hpp"
#include "stats/rng.hpp"

namespace dubhe {
namespace {

using net::Frame;
using net::MsgType;
using net::WireErrc;
using net::WireError;

std::vector<std::uint8_t> random_payload(stats::Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

WireErrc code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const WireError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a WireError";
  return WireErrc::kBadPayload;
}

TEST(Crc32, KnownVector) {
  const std::string s = "123456789";
  EXPECT_EQ(net::crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}),
            0xCBF43926u);
  EXPECT_EQ(net::crc32({}), 0u);
}

/// The slice-by-8 implementation must compute exactly the classic
/// byte-at-a-time CRC for every length (all 8 tail residues included) —
/// same polynomial, same checksum on every frame ever encoded.
TEST(Crc32, SliceBy8MatchesBytewiseReference) {
  const auto reference = [](std::span<const std::uint8_t> bytes) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : bytes) {
      c ^= b;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  stats::Rng rng(40);
  const auto big = random_payload(rng, 4096 + 5);
  for (std::size_t len = 0; len <= 64; ++len) {
    const auto p = random_payload(rng, len);
    EXPECT_EQ(net::crc32(p), reference(p)) << "len " << len;
  }
  // Unaligned starts exercise the word-composition path at every offset.
  for (std::size_t off = 0; off < 8; ++off) {
    const std::span<const std::uint8_t> s{big.data() + off, big.size() - off};
    EXPECT_EQ(net::crc32(s), reference(s)) << "offset " << off;
  }
}

TEST(WireFrame, RoundTripEveryTypeAndSize) {
  stats::Rng rng(41);
  for (std::uint8_t t = 1; t <= 15; ++t) {
    if (!net::is_valid(static_cast<MsgType>(t))) continue;  // 5 is retired
    for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                   std::size_t{1024}, std::size_t{65536}}) {
      const Frame frame{static_cast<MsgType>(t), random_payload(rng, size)};
      const auto bytes = net::encode_frame(frame);
      EXPECT_EQ(bytes.size(), net::frame_wire_size(size));
      EXPECT_EQ(net::decode_frame(bytes), frame);
    }
  }
}

TEST(WireFrame, ReaderReassemblesByteByByte) {
  stats::Rng rng(42);
  std::vector<Frame> frames;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 5; ++i) {
    frames.push_back({MsgType::kModelDown, random_payload(rng, 100 + 37 * i),
                      static_cast<std::uint16_t>(i)});
    const auto bytes = net::encode_frame(frames.back());
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  net::FrameReader reader;
  std::vector<Frame> seen;
  for (const std::uint8_t b : stream) {
    reader.feed({&b, 1});
    while (auto f = reader.next()) seen.push_back(std::move(*f));
  }
  EXPECT_EQ(seen, frames);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireFrame, AdversarialDecodesFailTyped) {
  stats::Rng rng(43);
  const Frame good{MsgType::kRegistryUpload, random_payload(rng, 64)};
  const auto bytes = net::encode_frame(good);

  // Short buffer.
  EXPECT_EQ(code_of([&] {
              (void)net::decode_frame({bytes.data(), net::kFrameHeaderBytes - 1});
            }),
            WireErrc::kShortBuffer);
  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_EQ(code_of([&] { (void)net::decode_frame(bad); }), WireErrc::kBadMagic);
  // Bad version.
  bad = bytes;
  bad[4] = 99;
  EXPECT_EQ(code_of([&] { (void)net::decode_frame(bad); }), WireErrc::kBadVersion);
  // Unknown type.
  bad = bytes;
  bad[5] = 200;
  EXPECT_EQ(code_of([&] { (void)net::decode_frame(bad); }), WireErrc::kBadType);
  // The retired kRegistrationInfo value (5) is reserved, not accepted.
  bad = bytes;
  bad[5] = 5;
  EXPECT_EQ(code_of([&] { (void)net::decode_frame(bad); }), WireErrc::kBadType);
  // Bytes 6..7 are the v4 sequence field (they were must-be-zero flags in
  // v1-3): any value decodes, recomputing nothing else. Replay enforcement
  // is the session driver's job, not the codec's.
  {
    Frame seqd = good;
    seqd.seq = 0xBEEF;
    const auto seq_bytes = net::encode_frame(seqd);
    EXPECT_EQ(seq_bytes[6], 0xBE);
    EXPECT_EQ(seq_bytes[7], 0xEF);
    EXPECT_EQ(net::decode_frame(seq_bytes), seqd);
    EXPECT_NE(net::decode_frame(seq_bytes), good);  // seq participates in ==
  }
  // Oversized length prefix: 2^26 + 1 is refused before the payload is
  // looked for.
  bad = bytes;
  bad[8] = 0x04;
  bad[9] = 0x00;
  bad[10] = 0x00;
  bad[11] = 0x01;
  static_assert(net::kMaxPayload == (std::size_t{1} << 26));
  EXPECT_EQ(code_of([&] { (void)net::decode_frame(bad); }), WireErrc::kOversized);
  // Truncated payload.
  EXPECT_EQ(code_of([&] { (void)net::decode_frame({bytes.data(), bytes.size() - 1}); }),
            WireErrc::kTruncated);
  // Corrupted payload -> CRC mismatch.
  bad = bytes;
  bad[net::kFrameHeaderBytes + 10] ^= 0x40;
  EXPECT_EQ(code_of([&] { (void)net::decode_frame(bad); }), WireErrc::kBadCrc);
  // Corrupted checksum field itself.
  bad = bytes;
  bad[13] ^= 0x01;
  EXPECT_EQ(code_of([&] { (void)net::decode_frame(bad); }), WireErrc::kBadCrc);
  // Trailing bytes.
  bad = bytes;
  bad.push_back(0);
  EXPECT_EQ(code_of([&] { (void)net::decode_frame(bad); }), WireErrc::kBadPayload);
  // Oversized at the encoder.
  EXPECT_EQ(code_of([&] {
              (void)net::encode_frame(
                  Frame{MsgType::kShutdown, std::vector<std::uint8_t>(net::kMaxPayload + 1)});
            }),
            WireErrc::kOversized);

  // A reader fed garbage throws (and the connection is then unusable).
  net::FrameReader reader;
  std::vector<std::uint8_t> garbage(net::kFrameHeaderBytes, 0xEE);
  reader.feed(garbage);
  EXPECT_THROW((void)reader.next(), WireError);
}

TEST(PayloadCodec, ControlMessagesRoundTrip) {
  const net::ClientHello ch{0x1234567890ABCDEFull, net::kWireVersion};
  EXPECT_EQ(net::decode<net::ClientHello>(net::encode<net::ClientHello>(ch)), ch);

  const net::ServerHello sh{0xDEADBEEFCAFEF00Dull, 50, 7};
  EXPECT_EQ(net::decode<net::ServerHello>(net::encode<net::ServerHello>(sh)), sh);

  const net::SeedRequest rr{0xA5A5A5A55A5A5A5Aull, 3};
  EXPECT_EQ(net::decode<net::SeedRequest>(
                net::encode<net::SeedRequest>(MsgType::kDistributionRequest, rr),
                MsgType::kDistributionRequest),
            rr);

  const net::RoundBegin rb{0xFEDCBA9876543210ull};
  EXPECT_EQ(net::decode<net::RoundBegin>(net::encode<net::RoundBegin>(rb)), rb);

  const net::Participation part{17, 4, {1, 0, 1}};
  EXPECT_EQ(net::decode<net::Participation>(net::encode<net::Participation>(part)), part);

  // Wrong-type parse and malformed payloads are typed failures.
  EXPECT_EQ(code_of([&] {
              (void)net::decode<net::ServerHello>(net::encode<net::ClientHello>(ch));
            }),
            WireErrc::kBadPayload);
}

TEST(PayloadCodec, ParticipationAdversarialDecodes) {
  const net::Participation part{3, 9, {0, 1, 0, 1}};
  const Frame good = net::encode<net::Participation>(part);

  // Trailing byte after the declared draw count.
  Frame evil = good;
  evil.payload.push_back(1);
  EXPECT_EQ(code_of([&] { (void)net::decode<net::Participation>(evil); }), WireErrc::kBadPayload);
  // Truncated draws.
  evil = good;
  evil.payload.pop_back();
  EXPECT_EQ(code_of([&] { (void)net::decode<net::Participation>(evil); }), WireErrc::kBadPayload);
  // A draw must be a bit: a "join twice" byte is rejected, not truncated
  // into a bool.
  evil = good;
  evil.payload.back() = 2;
  EXPECT_EQ(code_of([&] { (void)net::decode<net::Participation>(evil); }), WireErrc::kBadPayload);
  // The encoder refuses non-bit draws too.
  EXPECT_EQ(code_of([&] {
              (void)net::encode<net::Participation>(net::Participation{0, 0, {0, 7}});
            }),
            WireErrc::kBadPayload);
  // Truncated round-begin.
  Frame rb = net::encode<net::RoundBegin>({5});
  rb.payload.pop_back();
  EXPECT_EQ(code_of([&] { (void)net::decode<net::RoundBegin>(rb); }), WireErrc::kBadPayload);
  // Round-begin with trailing bytes.
  rb = net::encode<net::RoundBegin>({5});
  rb.payload.push_back(0);
  EXPECT_EQ(code_of([&] { (void)net::decode<net::RoundBegin>(rb); }), WireErrc::kBadPayload);
}

TEST(PayloadCodec, WeightsAreBitExact) {
  net::WeightsMsg msg;
  msg.seed = 99;
  msg.weights = {0.0f, -0.0f, 1.5f, -3.25e-38f,
                 std::numeric_limits<float>::infinity(),
                 -std::numeric_limits<float>::infinity(),
                 std::numeric_limits<float>::quiet_NaN(),
                 std::numeric_limits<float>::denorm_min()};
  const auto parsed =
      net::decode<net::WeightsMsg>(net::encode<net::WeightsMsg>(MsgType::kModelUpdate, msg), MsgType::kModelUpdate);
  EXPECT_EQ(parsed.seed, msg.seed);
  ASSERT_EQ(parsed.weights.size(), msg.weights.size());
  EXPECT_EQ(std::memcmp(parsed.weights.data(), msg.weights.data(),
                        msg.weights.size() * sizeof(float)),
            0);
  EXPECT_EQ(net::encode<net::WeightsMsg>(MsgType::kModelUpdate, msg).payload.size() +
                net::kFrameHeaderBytes,
            net::wire_size(msg).frame);

  Frame evil = net::encode<net::WeightsMsg>(MsgType::kModelDown, msg);
  evil.payload.pop_back();
  EXPECT_EQ(code_of([&] { (void)net::decode<net::WeightsMsg>(evil, MsgType::kModelDown); }),
            WireErrc::kBadPayload);
}

class EncryptedPayloads : public ::testing::Test {
 protected:
  void SetUp() override {
    bigint::Xoshiro256ss rng(2718);
    kp_ = he::Keypair::generate(rng, 128);
  }
  he::Keypair kp_;
};

TEST_F(EncryptedPayloads, KeyMaterialRoundTrip) {
  const Frame f = net::encode<net::KeyMaterial>({kp_.prv});
  EXPECT_EQ(net::frame_wire_size(f.payload.size()), net::wire_size(net::KeyMaterial{kp_.prv}).frame);
  const net::KeyMaterial parsed = net::decode<net::KeyMaterial>(f);
  EXPECT_EQ(parsed.prv.public_key(), kp_.pub);
  EXPECT_EQ(parsed.prv.p(), kp_.prv.p());
  EXPECT_EQ(parsed.prv.q(), kp_.prv.q());

  Frame evil = f;
  evil.payload[0] = 'X';
  EXPECT_EQ(code_of([&] { (void)net::decode<net::KeyMaterial>(evil); }), WireErrc::kBadPayload);
}

/// A kKeyMaterial frame carrying the private (p, q) verbatim, built field
/// by field because PrivateKey refuses degenerate primes.
Frame raw_key_material(const bigint::BigUint& p, const bigint::BigUint& q) {
  std::vector<std::uint8_t> payload{'S'};
  for (const bigint::BigUint* v : {&p, &q}) {
    const std::vector<std::uint8_t> mag = v->to_bytes_be();
    for (int shift = 24; shift >= 0; shift -= 8) {
      payload.push_back(static_cast<std::uint8_t>(mag.size() >> shift));
    }
    payload.insert(payload.end(), mag.begin(), mag.end());
  }
  return Frame{MsgType::kKeyMaterial, payload};
}

TEST(KeyMaterial, DegeneratePrimesAreTypedBadPayload) {
  // p = 1 used to escape as std::underflow_error and p = 15, q = 21 (shared
  // factor 3) as std::domain_error; both must be typed wire errors.
  using bigint::BigUint;
  EXPECT_EQ(code_of([&] { (void)net::decode<net::KeyMaterial>(raw_key_material(BigUint{1}, BigUint{7})); }),
            WireErrc::kBadPayload);
  EXPECT_EQ(code_of([&] { (void)net::decode<net::KeyMaterial>(raw_key_material(BigUint{15}, BigUint{21})); }),
            WireErrc::kBadPayload);
  // The hand-built form itself is sound: valid primes parse.
  EXPECT_EQ(net::decode<net::KeyMaterial>(raw_key_material(BigUint{11}, BigUint{13})).prv.p(),
            BigUint{11});
}

TEST_F(EncryptedPayloads, EncryptedVectorRoundTrip) {
  bigint::Xoshiro256ss rng(3);
  const std::vector<std::uint64_t> values{0, 1, 7, 42, 0, 13};
  const auto v = he::EncryptedVector::encrypt(kp_.pub, values, rng);
  const auto bytes = he::serialize(v);
  EXPECT_EQ(bytes.size(), he::serialized_size(kp_.pub, values.size()));
  const auto back = he::deserialize_encrypted_vector(bytes);
  EXPECT_EQ(back.public_key(), v.public_key());
  EXPECT_EQ(back.slots(), v.slots());  // ciphertext-level equality
  EXPECT_EQ(back.decrypt(kp_.prv), values);
  EXPECT_EQ(he::serialize(back), bytes);  // canonical re-encode

  // Truncation and tag corruption are typed failures.
  auto evil = bytes;
  evil.resize(evil.size() - 3);
  EXPECT_THROW((void)he::deserialize_encrypted_vector(evil), std::invalid_argument);
  evil = bytes;
  evil[0] = 'W';
  EXPECT_THROW((void)he::deserialize_encrypted_vector(evil), std::invalid_argument);
}

TEST_F(EncryptedPayloads, PerSlotFormIsATypedWireError) {
  // Wire v6 retired the per-slot 'V' form: wherever a ciphertext travels —
  // a client upload, the registry broadcast, a shard's partial sum — a 'V'
  // payload is a typed kBadPayload that carries no ciphertext bytes.
  bigint::Xoshiro256ss rng(5);
  const std::vector<std::uint64_t> values{3, 1, 4};
  const auto per_slot = he::serialize(he::EncryptedVector::encrypt(kp_.pub, values, rng));
  for (const MsgType type : {MsgType::kRegistryUpload, MsgType::kRegistryBroadcast,
                             MsgType::kDistributionUpload}) {
    const Frame f{type, per_slot};
    EXPECT_EQ(code_of([&] { (void)net::decode<he::PackedEncryptedVector>(f, type, kp_.pub); }),
              WireErrc::kBadPayload);
    EXPECT_EQ(net::encrypted_payload_bytes(f), 0u);
  }

  // Each partial carrying a ciphertext, with its packed tail swapped for
  // the 'V' bytes.
  const he::PackedCodec codec(kp_.pub.key_bits() - 1, 32);
  const auto packed = he::PackedEncryptedVector::encrypt(kp_.pub, codec, values, rng);
  const std::size_t tail = he::serialize(packed).size();
  const auto per_slot_tail = [&](Frame f) {
    f.payload.resize(f.payload.size() - tail);
    f.payload.insert(f.payload.end(), per_slot.begin(), per_slot.end());
    EXPECT_EQ(net::encrypted_payload_bytes(f), 0u);
    return f;
  };
  net::PartialRegistry pr;
  pr.contributors = 2;
  pr.ciphertext = packed;
  const Frame reg = per_slot_tail(net::encode<net::PartialRegistry>(pr));
  EXPECT_EQ(code_of([&] { (void)net::decode<net::PartialRegistry>(reg, kp_.pub); }),
            WireErrc::kBadPayload);
  net::PartialPopulation pop;
  pop.contributors = 2;
  pop.ciphertext = packed;
  const Frame popf = per_slot_tail(net::encode<net::PartialPopulation>(pop));
  EXPECT_EQ(code_of([&] { (void)net::decode<net::PartialPopulation>(popf, kp_.pub); }),
            WireErrc::kBadPayload);
  net::PartialUpdate pu;
  pu.mode = 1;
  pu.contributors = 2;
  pu.plain_sums = {7, 0};
  pu.ciphertext = packed;
  const Frame upd = per_slot_tail(net::encode<net::PartialUpdate>(pu));
  EXPECT_EQ(code_of([&] { (void)net::decode<net::PartialUpdate>(upd, kp_.pub); }),
            WireErrc::kBadPayload);
}

/// The packed decode is bound to the receiver's session key, a 2048-bit
/// one here as in the paper's setup: each ciphertext must be exactly as
/// wide as the key's and lie in its Z_{n^2}.
const he::Keypair& session_keypair() {
  static const he::Keypair kp = [] {
    bigint::Xoshiro256ss rng(4096);
    return he::Keypair::generate(rng, 2048);
  }();
  return kp;
}

/// A one-ciphertext distribution upload (10 values, 32-bit slots).
Frame upload(const he::PublicKey& pk) {
  bigint::Xoshiro256ss rng(9);
  const he::PackedCodec codec(pk.key_bits() - 1, 32);
  const std::vector<std::uint64_t> values(10, 7);
  return net::encode(MsgType::kDistributionUpload,
                     he::PackedEncryptedVector::encrypt(pk, codec, values, rng));
}

WireErrc decode_code(const Frame& f) {
  return code_of([&] {
    (void)net::decode<he::PackedEncryptedVector>(f, MsgType::kDistributionUpload,
                                                 session_keypair().pub);
  });
}

TEST(KeyBoundDecode, UploadUnderANarrowerKeyIsBadPayload) {
  const he::Keypair& session = session_keypair();
  const Frame honest = upload(session.pub);
  EXPECT_EQ(net::decode<he::PackedEncryptedVector>(honest, MsgType::kDistributionUpload,
                                                   session.pub)
                .decrypt(session.prv),
            std::vector<std::uint64_t>(10, 7));
  // 1024-bit ciphertexts are 256 bytes, the session's 512.
  bigint::Xoshiro256ss rng(1024);
  EXPECT_EQ(decode_code(upload(he::Keypair::generate(rng, 1024).pub)), WireErrc::kBadPayload);
}

TEST(KeyBoundDecode, CiphertextOutsideTheSessionZn2IsBadPayload) {
  const he::PublicKey& pk = session_keypair().pub;
  const he::PackedCodec codec(pk.key_bits() - 1, 32);
  const auto with_ciphertext = [&](const bigint::BigUint& c) {
    return Frame{MsgType::kDistributionUpload,
                 he::serialize(he::PackedEncryptedVector(pk, codec, 10, {he::Ciphertext{c}}))};
  };
  const bigint::BigUint one{1};
  EXPECT_EQ(decode_code(with_ciphertext(pk.n_squared())), WireErrc::kBadPayload);
  // The largest value of the canonical width, 2^4096 - 1.
  EXPECT_EQ(decode_code(with_ciphertext((one << (8 * pk.ciphertext_bytes())) - one)),
            WireErrc::kBadPayload);
  const Frame last = with_ciphertext(pk.n_squared() - one);
  EXPECT_EQ(net::decode<he::PackedEncryptedVector>(last, MsgType::kDistributionUpload, pk)
                .ciphertexts()[0]
                .c,
            pk.n_squared() - one);
}

TEST(KeyBoundDecode, V6EmbeddedModulusIsRefusedFast) {
  // Wire v6 put the sender's public key between the 'K' header and the
  // ciphertexts, and its decoder built n^2 and a Montgomery context for
  // whatever modulus a client wrote there. The v6 layout with a
  // 1,048,576-bit modulus and one ciphertext under it is refused from the
  // payload length alone.
  const auto be32 = [](std::vector<std::uint8_t>& out, std::size_t v) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  };
  constexpr std::size_t kModulusBytes = 1048576 / 8;
  const Frame honest = upload(session_keypair().pub);
  std::vector<std::uint8_t> payload(honest.payload.begin(),
                                    honest.payload.begin() + 17);  // 'K' + geometry
  payload.push_back('P');
  be32(payload, kModulusBytes);
  payload.push_back(0x80);
  payload.insert(payload.end(), kModulusBytes - 2, 0x00);
  payload.push_back(0x01);  // odd n with exactly 1,048,576 bits
  be32(payload, 2 * kModulusBytes);
  payload.insert(payload.end(), 2 * kModulusBytes - 1, 0x00);
  payload.push_back(0x01);  // the ciphertext 1 < n^2
  const Frame f{MsgType::kDistributionUpload, payload};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(decode_code(f), WireErrc::kBadPayload);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(50));
}

TEST_F(EncryptedPayloads, PackedEncryptedVectorRoundTrip) {
  bigint::Xoshiro256ss rng(4);
  const he::PackedCodec codec(kp_.pub.key_bits() - 1, 20);
  const std::vector<std::uint64_t> values{5, 0, 1, 999999, 3, 77, 123456, 0, 1};
  const auto v = he::PackedEncryptedVector::encrypt(kp_.pub, codec, values, rng);
  const auto bytes = he::serialize(v);
  EXPECT_EQ(bytes.size(), he::serialized_size(kp_.pub, codec, values.size()));
  const auto back = he::deserialize_packed_encrypted_vector(bytes, kp_.pub);
  EXPECT_EQ(back.logical_size(), values.size());
  EXPECT_EQ(back.ciphertexts(), v.ciphertexts());
  EXPECT_EQ(back.decrypt(kp_.prv), values);
  EXPECT_EQ(he::serialize(back), bytes);

  const Frame f = net::encode(MsgType::kDistributionUpload, v);
  EXPECT_EQ(net::decode<he::PackedEncryptedVector>(f, MsgType::kDistributionUpload, kp_.pub)
                .ciphertexts(),
            v.ciphertexts());
  EXPECT_EQ(net::frame_wire_size(f.payload.size()),
            net::wire_size(net::packed_shape(kp_.pub, codec, values.size())).frame);

  auto evil = bytes;
  evil[6] ^= 0xFF;  // geometry field
  EXPECT_THROW((void)he::deserialize_packed_encrypted_vector(evil, kp_.pub), std::invalid_argument);
}

/// A representative kModelUpdateSparse: n = 12 coordinates, the top k = 4
/// encrypted (mask {1, 3, 6, 10}), 16-bit quantization. Built through the
/// same core::selective helpers the session endpoints use.
class SparseUpdatePayloads : public EncryptedPayloads {
 protected:
  net::ModelUpdateSparse make_update() {
    bigint::Xoshiro256ss rng(31337);
    net::ModelUpdateSparse m;
    m.client_id = 0xC0FFEE;
    m.total_count = kN;
    m.quant_bits = 16;
    m.bitmap = core::make_update_bitmap(kMask, kN);
    m.plain_values = {7, 65535, 0, 32768, 1, 2, 3, 4};  // n - k = 8 values
    m.encrypted = he::PackedEncryptedVector::encrypt(
        kp_.pub, codec(), std::vector<std::uint64_t>{40000, 1, 65535, 12345}, rng);
    return m;
  }
  he::PackedCodec codec(std::size_t logical = 4) const {
    (void)logical;
    return he::PackedCodec(kp_.pub.key_bits() - 1, core::update_slot_bits(8));
  }
  static constexpr std::size_t kN = 12;
  static constexpr std::uint32_t kMaskArr[4] = {1, 3, 6, 10};
  static constexpr std::span<const std::uint32_t> kMask{kMaskArr};
};

TEST_F(SparseUpdatePayloads, RoundTripAndExactPredictedSize) {
  const net::ModelUpdateSparse m = make_update();
  const Frame f = net::encode<net::ModelUpdateSparse>(m);
  EXPECT_EQ(f.type, MsgType::kModelUpdateSparse);

  // wire_size predicts the encoded frame byte-for-byte from the shape alone.
  EXPECT_EQ(net::frame_wire_size(f.payload.size()),
            net::wire_size(net::ModelUpdateSparse{0, kN, 16, {}, {}, net::packed_shape(kp_.pub, codec(), 4)}).frame);

  // The ciphertext-material share the ledger records is exactly the packed
  // section's raw ciphertext bytes, predicted without building the frame.
  EXPECT_EQ(net::encrypted_payload_bytes(f),
            net::wire_size(net::packed_shape(kp_.pub, codec(), 4)).ciphertext);
  EXPECT_GT(net::encrypted_payload_bytes(f), 0u);
  EXPECT_LT(net::encrypted_payload_bytes(f), f.payload.size());

  const net::ModelUpdateSparse back = net::decode<net::ModelUpdateSparse>(f, kp_.pub);
  EXPECT_EQ(back.client_id, m.client_id);
  EXPECT_EQ(back.total_count, m.total_count);
  EXPECT_EQ(back.quant_bits, m.quant_bits);
  EXPECT_EQ(back.bitmap, m.bitmap);
  EXPECT_EQ(back.plain_values, m.plain_values);
  EXPECT_EQ(back.encrypted.ciphertexts(), m.encrypted.ciphertexts());
  EXPECT_EQ(back.encrypted.decrypt(kp_.prv), m.encrypted.decrypt(kp_.prv));
  EXPECT_EQ(net::account_kind(MsgType::kModelUpdateSparse), fl::MessageKind::kModelWeights);
}

TEST_F(SparseUpdatePayloads, AdversarialDecodesFailTyped) {
  const net::ModelUpdateSparse m = make_update();
  const Frame good = net::encode<net::ModelUpdateSparse>(m);
  // Header is 8 + 4 + 4 + 1 = 17 bytes, bitmap ceil(12/8) = 2 bytes, then
  // 8 plaintext values at 2 bytes each => the embedded 'K' starts at 35.
  const std::size_t k_off = 17 + 2 + 16;
  ASSERT_EQ(good.payload[k_off], 'K');

  // Truncated inside the bitmap.
  Frame evil = good;
  evil.payload.resize(17 + 1);
  EXPECT_EQ(code_of([&] { (void)net::decode<net::ModelUpdateSparse>(evil, kp_.pub); }),
            WireErrc::kBadPayload);
  // Bitmap popcount disagrees with the declared encrypted count.
  evil = good;
  evil.payload[17] |= 0x01;  // coordinate 0 was plaintext; now 5 bits set
  EXPECT_EQ(code_of([&] { (void)net::decode<net::ModelUpdateSparse>(evil, kp_.pub); }),
            WireErrc::kBadPayload);
  // Set a tail bit past n: bit 13 of a 12-coordinate bitmap must be clear.
  evil = good;
  evil.payload[18] ^= 0x24;  // clear bit 10 (in-mask), set bit 13 — popcount kept
  EXPECT_EQ(code_of([&] { (void)net::decode<net::ModelUpdateSparse>(evil, kp_.pub); }),
            WireErrc::kBadPayload);
  // Encrypted count out of range (k > n).
  evil = good;
  evil.payload[15] = 13;  // k field is the BE u32 at offset 12
  EXPECT_EQ(code_of([&] { (void)net::decode<net::ModelUpdateSparse>(evil, kp_.pub); }),
            WireErrc::kBadPayload);
  // k = 0 is the plaintext path's job, never a sparse frame.
  evil = good;
  evil.payload[15] = 0;
  EXPECT_EQ(code_of([&] { (void)net::decode<net::ModelUpdateSparse>(evil, kp_.pub); }),
            WireErrc::kBadPayload);
  // Slot-count mismatch: the packed section's logical size must equal k.
  net::ModelUpdateSparse wrong = m;
  {
    bigint::Xoshiro256ss rng(31338);
    wrong.encrypted = he::PackedEncryptedVector::encrypt(
        kp_.pub, codec(), std::vector<std::uint64_t>{1, 2, 3}, rng);  // 3 slots, k = 4
  }
  EXPECT_EQ(code_of([&] { (void)net::encode<net::ModelUpdateSparse>(wrong); }),
            WireErrc::kBadPayload);
  evil = good;
  evil.payload[k_off + 4] = 3;  // lie about the embedded logical size instead
  EXPECT_EQ(code_of([&] { (void)net::decode<net::ModelUpdateSparse>(evil, kp_.pub); }),
            WireErrc::kBadPayload);
  // Non-canonical ciphertext width: grow the first ciphertext's length
  // prefix and pad a leading zero byte — same value, different encoding.
  evil = good;
  {
    const std::size_t ct_len_off = k_off + 17;
    evil.payload[ct_len_off + 3] += 1;  // ciphertext lengths are < 255 here
    evil.payload.insert(evil.payload.begin() +
                            static_cast<std::ptrdiff_t>(ct_len_off + 4),
                        0x00);
    EXPECT_EQ(code_of([&] { (void)net::decode<net::ModelUpdateSparse>(evil, kp_.pub); }),
              WireErrc::kBadPayload);
    // The accounting peek must never throw, even on this hostile frame.
    EXPECT_NO_THROW((void)net::encrypted_payload_bytes(evil));
  }
  // Plaintext value overflowing quant_bits is refused at the encoder.
  wrong = m;
  wrong.plain_values[0] = 65536;
  EXPECT_EQ(code_of([&] { (void)net::encode<net::ModelUpdateSparse>(wrong); }),
            WireErrc::kBadPayload);
  // Trailing garbage after the packed section.
  evil = good;
  evil.payload.push_back(0);
  EXPECT_EQ(code_of([&] { (void)net::decode<net::ModelUpdateSparse>(evil, kp_.pub); }),
            WireErrc::kBadPayload);
  // Truncated frames yield 0 from the peek, not an exception.
  evil = good;
  evil.payload.resize(10);
  EXPECT_EQ(net::encrypted_payload_bytes(evil), 0u);
}

TEST(Loopback, OrderedDeliveryCloseAndAccounting) {
  auto [server_end, client_end] = net::LoopbackTransport::make_pair();
  fl::ChannelAccountant channel;
  server_end->set_accountant(&channel, fl::Direction::kServerToClient);

  stats::Rng rng(5);
  const Frame down{MsgType::kModelDown, random_payload(rng, 4096)};
  const Frame up{MsgType::kModelUpdate, random_payload(rng, 2048)};
  const Frame ctrl{MsgType::kShutdown, {}};

  std::thread peer([&, client = client_end] {
    EXPECT_EQ(client->receive(), down);
    client->send(up);
    client->send(ctrl);
    client->close();
  });
  server_end->send(down);
  EXPECT_EQ(server_end->receive(), up);
  EXPECT_EQ(server_end->receive(), ctrl);
  EXPECT_EQ(server_end->receive(), std::nullopt);  // peer closed
  peer.join();
  EXPECT_THROW(server_end->send(down), net::TransportError);

  // Exact frame sizes, aggregator perspective, request/response directions.
  const fl::ChannelLedger ledger = channel.snapshot();
  EXPECT_EQ(ledger.bytes(fl::MessageKind::kModelWeights, fl::Direction::kServerToClient),
            net::frame_wire_size(4096));
  EXPECT_EQ(ledger.bytes(fl::MessageKind::kModelWeights, fl::Direction::kClientToServer),
            net::frame_wire_size(2048));
  EXPECT_EQ(ledger.messages(fl::MessageKind::kControl, fl::Direction::kClientToServer), 1u);
}

TEST(Link, SequenceWrapsBothWaysAndStaysStrict) {
  // net::Link alone numbers frames, so the u16 wrap is pinned here once for
  // every endpoint. Each end sends 65,540 frames, so both counters wrap and
  // every frame must arrive as the exact successor. After the wrap a
  // pre-wrap number and a skipped number are both replays.
  constexpr std::uint32_t kFrames = 65540;
  auto [a_end, b_end] = net::LoopbackTransport::make_pair();
  net::Link a(*a_end);
  net::Link b(*b_end);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    a.send(Frame{MsgType::kShutdown, {}});
    b.send(Frame{MsgType::kShutdown, {}});
  }
  std::uint32_t in_order = 0;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const std::optional<Frame> at_b = b.receive();
    const std::optional<Frame> at_a = a.receive();
    if (at_a && at_b && at_a->seq == static_cast<std::uint16_t>(i) && at_b->seq == at_a->seq) {
      ++in_order;
    }
  }
  EXPECT_EQ(in_order, kFrames);

  // Both links now expect 65,540 mod 2^16 = 4.
  const auto expect_replay = [](net::Link& link) {
    try {
      (void)link.receive();
      ADD_FAILURE() << "an out-of-sequence frame was accepted";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), WireErrc::kReplayed);
    }
  };
  a_end->send(Frame{MsgType::kShutdown, {}, 65535});  // frame 65,535, before the wrap
  expect_replay(b);
  b_end->send(Frame{MsgType::kShutdown, {}, 5});  // one past the successor
  expect_replay(a);
}

/// c10k-path stress: 32 client connections sharded over 4 event-loop workers,
/// each flooding frames faster than the server drains them so every inbox
/// crosses the high-water mark and the worker parks/resumes POLLIN. Asserts
/// exact per-connection frame count, per-frame byte-identical payloads (i.e.
/// in-order delivery survives the parked/resumed reads), and a clean EOF.
/// This test is in the TSan suite: it is the data-race certificate for the
/// listener -> worker adoption handoff and the cross-thread send/notify path.
TEST(TcpFlood, MultiWorkerBackpressuredFloodDeliversEverything) {
  constexpr std::size_t kConns = 32;
  constexpr std::size_t kFramesPerConn = 400;
  constexpr std::size_t kPayload = 512;  // > kInboxHighWater frames in flight

  net::TcpServer server(0, 4);
  ASSERT_EQ(server.worker_count(), 4u);

  const auto payload_for = [](std::size_t conn, std::size_t frame) {
    std::vector<std::uint8_t> p(kPayload);
    for (std::size_t k = 0; k < kPayload; ++k) {
      p[k] = static_cast<std::uint8_t>(conn * 131 + frame * 7 + k);
    }
    return p;
  };

  std::atomic<int> client_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (std::size_t i = 0; i < kConns; ++i) {
    clients.emplace_back([&, i] {
      try {
        auto link = net::TcpTransport::connect("127.0.0.1", server.port());
        for (std::size_t f = 0; f < kFramesPerConn; ++f) {
          link->send(Frame{MsgType::kModelUpdate, payload_for(i, f)});
        }
        link->close();
      } catch (...) {
        client_failures.fetch_add(1);
      }
    });
  }

  std::vector<std::shared_ptr<net::Transport>> links;
  links.reserve(kConns);
  for (std::size_t i = 0; i < kConns; ++i) {
    auto link = server.accept();
    ASSERT_NE(link, nullptr);
    links.push_back(std::move(link));
  }
  // Let the floods pile up against the inbox high-water mark before any
  // consumer drains — the whole point is to exercise the parked-read path.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Consumers cannot recover the client index from accept order; the first
  // frame's leading bytes identify the sender (payload_for is injective in
  // conn for frame 0: p[0] = conn * 131 mod 256, distinct for conn < 32).
  std::atomic<std::size_t> total_frames{0};
  std::atomic<int> consumer_failures{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConns);
  for (auto& link : links) {
    consumers.emplace_back([&, link] {
      std::optional<Frame> first = link->receive();
      if (!first || first->payload.size() != kPayload) {
        consumer_failures.fetch_add(1);
        return;
      }
      std::size_t conn = kConns;
      for (std::size_t c = 0; c < kConns; ++c) {  // 131 is odd => injective mod 256
        if (first->payload[0] == static_cast<std::uint8_t>(c * 131)) conn = c;
      }
      if (conn >= kConns || *first != Frame{MsgType::kModelUpdate, payload_for(conn, 0)}) {
        consumer_failures.fetch_add(1);
        return;
      }
      std::size_t got = 1;
      while (auto f = link->receive()) {
        if (*f != Frame{MsgType::kModelUpdate, payload_for(conn, got)}) {
          consumer_failures.fetch_add(1);
          return;
        }
        ++got;
      }
      total_frames.fetch_add(got);
    });
  }
  for (auto& t : consumers) t.join();
  for (auto& t : clients) t.join();
  server.stop();

  EXPECT_EQ(client_failures.load(), 0);
  EXPECT_EQ(consumer_failures.load(), 0);
  EXPECT_EQ(total_frames.load(), kConns * kFramesPerConn);
}

}  // namespace
}  // namespace dubhe
