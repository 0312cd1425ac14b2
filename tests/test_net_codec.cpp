// The payload codec as a property: every frame a mutation of a valid frame
// produces either fails to decode with a typed WireError or decodes to a
// message that re-encodes to exactly the mutated bytes — and the accounting
// walk (encrypted_payload_bytes) never throws and, on every frame that
// decodes, counts exactly the decoded ciphertexts. Plus the bounded list
// read pinned against over-allocation.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/selective.hpp"
#include "net/codec.hpp"
#include "paillier/packing.hpp"

namespace dubhe {
namespace {

using net::Frame;
using net::MsgType;

std::size_t ciphertext_bytes(const he::PackedEncryptedVector& v) {
  return v.ciphertext_count() * v.public_key().ciphertext_bytes();
}

template <class M>
std::size_t ciphertext_bytes(const M& m) {
  if constexpr (requires { m.ciphertext; }) {
    return ciphertext_bytes(m.ciphertext);
  } else if constexpr (requires { m.encrypted; }) {
    return ciphertext_bytes(m.encrypted);
  } else {
    return 0;
  }
}

/// Payload byte ranges [begin, end) of the ciphertext bodies of the packed
/// vector `v` serialized at the end of `payload`: after the 'K' header
/// (17 bytes), each ciphertext is a u32 length prefix and then its body.
std::vector<std::pair<std::size_t, std::size_t>> body_ranges(
    const std::vector<std::uint8_t>& payload, const he::PackedEncryptedVector& v) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (v.ciphertext_count() == 0) return out;
  const std::size_t body = v.public_key().ciphertext_bytes();
  std::size_t at = payload.size() - he::serialize(v).size() + 17;
  for (std::size_t i = 0; i < v.ciphertext_count(); ++i, at += 4 + body) {
    out.emplace_back(at + 4, at + 4 + body);
  }
  return out;
}

/// One valid frame and the property check for its payload type.
struct Case {
  std::string name;
  Frame frame;
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  std::function<void(const Frame&, const std::string&)> check;
};

/// The session keypair every case's ciphertexts are under; the receiver
/// decodes a payload with a packed field under its public half.
const he::Keypair& session_keys() {
  static const he::Keypair kp = [] {
    bigint::Xoshiro256ss rng(2718);
    return he::Keypair::generate(rng, 128);
  }();
  return kp;
}

template <class M>
Case make_case(const std::string& name, MsgType type, const M& m) {
  Case c{name, net::encode(type, m), {}, {}};
  if constexpr (requires { m.ciphertext; }) {
    c.bodies = body_ranges(c.frame.payload, m.ciphertext);
  } else if constexpr (requires { m.encrypted; }) {
    c.bodies = body_ranges(c.frame.payload, m.encrypted);
  } else if constexpr (std::is_same_v<M, he::PackedEncryptedVector>) {
    c.bodies = body_ranges(c.frame.payload, m);
  }
  c.check = [type](const Frame& f, const std::string& what) {
    std::size_t walked = 0;
    try {
      walked = net::encrypted_payload_bytes(f);
    } catch (...) {
      ADD_FAILURE() << what << ": encrypted_payload_bytes threw";
    }
    std::optional<M> back;
    try {
      back = net::decode<M>(f, type, session_keys().pub);
    } catch (const net::WireError&) {
      return;  // a typed rejection
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped decode failure: " << e.what();
      return;
    }
    EXPECT_EQ(net::encode(type, *back).payload, f.payload) << what << ": not canonical";
    EXPECT_EQ(walked, ciphertext_bytes(*back)) << what;
  };
  return c;
}

std::vector<Case> every_message_type() {
  bigint::Xoshiro256ss rng(2718);
  const he::Keypair& kp = session_keys();
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 20);
  const auto vec = he::PackedEncryptedVector::encrypt(
      kp.pub, codec, std::vector<std::uint64_t>{5, 0, 1, 999999, 3, 77, 123456, 0, 1}, rng);
  const he::PackedCodec sum_codec(kp.pub.key_bits() - 1, 32);
  const auto sum = he::PackedEncryptedVector::encrypt(kp.pub, sum_codec,
                                                      std::vector<std::uint64_t>{3, 0, 9}, rng);
  const std::vector<net::QuarantineRecord> records = {
      {net::QuarantineRecord::kUnknownClient, net::QuarantineRecord::kSetupRound,
       net::SessionPhase::kHello, net::QuarantineReason::kTimeout},
      {7, 2, net::SessionPhase::kUpdate, net::QuarantineReason::kBadCiphertext}};

  net::ModelUpdateSparse sparse;
  sparse.client_id = 0xC0FFEE;
  sparse.total_count = 12;
  sparse.quant_bits = 16;
  const std::uint32_t mask[] = {1, 3, 6, 10};
  sparse.bitmap = core::make_update_bitmap(mask, 12);
  sparse.plain_values = {7, 65535, 0, 32768, 1, 2, 3, 4};
  sparse.encrypted = he::PackedEncryptedVector::encrypt(
      kp.pub, he::PackedCodec(kp.pub.key_bits() - 1, core::update_slot_bits(16, 8)),
      std::vector<std::uint64_t>{40000, 1, 65535, 12345}, rng);

  const net::WeightsMsg weights{99,
                                {0.0f, -0.0f, 1.5f, -3.25e-38f,
                                 std::numeric_limits<float>::infinity(),
                                 std::numeric_limits<float>::quiet_NaN(),
                                 std::numeric_limits<float>::denorm_min()}};

  net::PartialRegistry registry{2, 3, records, sum};
  net::PartialParticipation participation{1, 3, records, {{5, 3, {1, 0, 1}}, {6, 3, {0, 0, 0}}}};
  net::PartialPopulation population{0, 3, 2, 2, true, records, sum};
  net::PartialUpdate forwarded{1, 3, 0, records, {{9, {0.5f, 1.25f}}, {5, {-3.0f, 0.0f}}}, 0, {}, {}};
  net::PartialUpdate summed{1, 3, 1, records, {}, 2, {10, 0, 77}, sum};

  return {
      make_case("ClientHello", MsgType::kClientHello,
                net::ClientHello{0x1234567890ABCDEFull, net::kWireVersion}),
      make_case("ServerHello", MsgType::kServerHello,
                net::ServerHello{0xDEADBEEFCAFEF00Dull, 50, 7}),
      make_case("KeyMaterial", MsgType::kKeyMaterial, net::KeyMaterial{kp.prv}),
      make_case("RegistrationRequest", MsgType::kRegistrationRequest,
                net::SeedRequest{0xA5A5A5A55A5A5A5Aull, 0}),
      make_case("RegistryUpload", MsgType::kRegistryUpload, vec),
      make_case("RegistryBroadcast", MsgType::kRegistryBroadcast, vec),
      make_case("DistributionRequest", MsgType::kDistributionRequest,
                net::SeedRequest{0xA5A5A5A55A5A5A5Aull, 3}),
      make_case("DistributionUpload", MsgType::kDistributionUpload, vec),
      make_case("ModelDown", MsgType::kModelDown, weights),
      make_case("ModelUpdate", MsgType::kModelUpdate, weights),
      make_case("Shutdown", MsgType::kShutdown, net::Shutdown{}),
      make_case("RoundBegin", MsgType::kRoundBegin, net::RoundBegin{0xFEDCBA9876543210ull}),
      make_case("Participation", MsgType::kParticipation, net::Participation{17, 4, {1, 0, 1}}),
      make_case("ModelUpdateSparse", MsgType::kModelUpdateSparse, sparse),
      make_case("ShardHello", MsgType::kShardHello,
                net::ShardHello{1, 4, 25, 25, 100, net::kWireVersion}),
      make_case("ShardRoundBegin", MsgType::kShardRoundBegin, net::ShardRoundBegin{42}),
      make_case("PartialRegistry", MsgType::kPartialRegistry, registry),
      make_case("PartialParticipation", MsgType::kPartialParticipation, participation),
      make_case("ShardTryBegin", MsgType::kShardTryBegin, net::ShardTryBegin{3, 2, {5, 9, 6}}),
      make_case("PartialPopulation", MsgType::kPartialPopulation, population),
      make_case("ShardUpdateBegin", MsgType::kShardUpdateBegin,
                net::ShardUpdateBegin{3, {5, 9}, {1.5f, -2.25f, 0.0f}}),
      make_case("PartialUpdate/forwarded", MsgType::kPartialUpdate, forwarded),
      make_case("PartialUpdate/summed", MsgType::kPartialUpdate, summed),
  };
}

TEST(CodecProperty, EveryMessageTypeHasACase) {
  std::vector<bool> seen(256, false);
  for (const Case& c : every_message_type()) seen[static_cast<std::size_t>(c.frame.type)] = true;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], net::is_valid(static_cast<MsgType>(t))) << "MsgType " << t;
  }
}

TEST(CodecProperty, MutatedFramesFailTypedOrReencodeExactly) {
  for (const Case& c : every_message_type()) {
    SCOPED_TRACE(c.name);
    c.check(c.frame, "unmodified");
    const std::size_t size = c.frame.payload.size();
    for (std::size_t len = 0; len < size; ++len) {
      Frame f = c.frame;
      f.payload.resize(len);
      c.check(f, "truncated to " + std::to_string(len));
    }
    for (std::size_t i = 0; i < size; ++i) {
      const bool in_body = std::any_of(c.bodies.begin(), c.bodies.end(),
                                       [&](const auto& r) { return i >= r.first && i < r.second; });
      if (in_body) continue;
      for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
        Frame f = c.frame;
        f.payload[i] ^= flip;
        c.check(f, "byte " + std::to_string(i) + " ^ " + std::to_string(flip));
      }
    }
  }
}

/// Exits 0 iff decoding an 8 MiB sparse frame under a 512 MiB address-space
/// limit fails typed. The frame is n = 2^26 coordinates with k = 1
/// encrypted: the header, a bitmap with one bit set, and nothing else. Its
/// header promises 2^26 - 1 plaintext values, which is 512 MiB as u64 to a
/// decoder that allocates before it checks the bytes left.
void decode_huge_sparse_update_under_limit() {
  const he::PublicKey& key = session_keys().pub;
  constexpr rlim_t kLimit = rlim_t{512} << 20;
  const rlimit limit{kLimit, kLimit};
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(4);
  std::vector<std::uint8_t> payload = {0, 0, 0, 0, 0, 0, 0, 1,  // client id
                                       4, 0, 0, 0,              // n = 2^26
                                       0, 0, 0, 1,              // k = 1
                                       16};                     // quant_bits
  payload.resize(payload.size() + (std::size_t{1} << 23), 0);
  payload[17] = 1;
  try {
    (void)net::decode<net::ModelUpdateSparse>(
        Frame{MsgType::kModelUpdateSparse, std::move(payload)}, key);
  } catch (const net::WireError& e) {
    std::_Exit(e.code() == net::WireErrc::kBadPayload ? 0 : 1);
  } catch (...) {
    std::_Exit(2);
  }
  std::_Exit(3);
}

TEST(CodecBounds, SparsePlaintextCountIsBoundedBeforeAllocation) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizers reserve more address space than the limit";
#endif
  // A fresh process, so the address-space limit is not eaten by threads
  // and arenas another test left behind.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(decode_huge_sparse_update_under_limit(), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace dubhe
