#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "net/wire.hpp"
#include "paillier/packing.hpp"

namespace dubhe::net {

/// The payload schema: one struct per payload, each listing its fields
/// once, in wire order, in `static void fields(auto& v, auto& m)`. The codec
/// (net/codec.hpp) and the Sizer below are visitors over these lists.
///
/// Field kinds: scalars (u8, u32, u64, u8 enums, bool as one 0/1 byte, f32
/// as its IEEE-754 bit pattern, so weights round-trip bit-exactly, NaNs
/// included), each as wide as its sizeof and big-endian; std::vector<T>, a
/// bounded list (u32 count, then the entries; v.list takes the entry field
/// list explicitly); v.fixed(list, count, width), entries with no count
/// prefix; v.implied(field, value), set on decode but not on the wire; key
/// material; and the packed vector's 'K' form, which runs to the end of
/// the payload and carries no key: its ciphertexts are read under the
/// receiver's session key (see decode). Semantic rules live in each
/// payload's validate(), which the codec runs before encoding and after
/// decoding.

struct ClientHello {
  static constexpr std::array kTypes{MsgType::kClientHello};
  std::uint64_t client_id = 0;
  std::uint32_t protocol = kWireVersion;

  bool operator==(const ClientHello&) const = default;
  static void fields(auto& v, auto& m) { v(m.client_id, m.protocol); }
};

struct ServerHello {
  static constexpr std::array kTypes{MsgType::kServerHello};
  std::uint64_t session_seed = 0;
  std::uint32_t num_clients = 0;
  std::uint32_t cohort_index = 0;  // the id the server bound this link to

  bool operator==(const ServerHello&) const = default;
  static void fields(auto& v, auto& m) { v(m.session_seed, m.num_clients, m.cohort_index); }
};

/// The agent's key dispatch (paper §5.1: the agent generates the session
/// keypair and distributes it to the cohort). Only p and q travel; the
/// receiver's session key is prv.public_key(), the one key every packed
/// payload of the session is decoded under.
struct KeyMaterial {
  static constexpr std::array kTypes{MsgType::kKeyMaterial};
  he::PrivateKey prv;

  static void fields(auto& v, auto& m) { v(m.prv); }
};

/// Registration and distribution requests share one shape: an RNG seed for
/// the client's encryption stream plus a tag (0 for registration, the
/// tentative-try index h for distribution requests).
struct SeedRequest {
  static constexpr std::array kTypes{MsgType::kRegistrationRequest,
                                     MsgType::kDistributionRequest};
  std::uint64_t seed = 0;
  std::uint32_t tag = 0;

  bool operator==(const SeedRequest&) const = default;
  static void fields(auto& v, auto& m) { v(m.seed, m.tag); }
};

/// Round begin (S->C): the index of the global round whose loop body
/// follows. The client answers with its kParticipation draws.
struct RoundBegin {
  static constexpr std::array kTypes{MsgType::kRoundBegin};
  std::uint64_t round = 0;

  bool operator==(const RoundBegin&) const = default;
  static void fields(auto& v, auto& m) { v(m.round); }
};

/// Proactive participation (C->S): the client's own Bernoulli draws for one
/// round — one 0/1 byte per tentative try, drawn client-side from the
/// (session seed, client id, round) stream against the Eq. 6 probability
/// the client computed from the decrypted registry broadcast. This is what
/// replaced the retired kRegistrationInfo plaintext entry: the server
/// learns only the check-in bits, never the registration itself.
struct Participation {
  static constexpr std::array kTypes{MsgType::kParticipation};
  std::uint64_t client_id = 0;
  std::uint64_t round = 0;
  std::vector<std::uint8_t> draws;  // draws[h] in {0, 1}, one per try

  bool operator==(const Participation&) const = default;
  static void fields(auto& v, auto& m) { v(m.client_id, m.round, m.draws); }
  void validate() const;
};

/// Model weights down (seed = the client's training seed for this round) or
/// up (seed field carries the client id instead). Same wire size both ways,
/// which keeps §6.4's up/down accounting symmetric.
struct WeightsMsg {
  static constexpr std::array kTypes{MsgType::kModelDown, MsgType::kModelUpdate};
  std::uint64_t seed = 0;
  std::vector<float> weights;

  bool operator==(const WeightsMsg&) const = default;
  static void fields(auto& v, auto& m) { v(m.seed, m.weights); }
};

/// Selectively encrypted model update (wire v3, kModelUpdateSparse): the
/// client quantizes its weight delta to `quant_bits`-bit biased-unsigned
/// values, encrypts the top-k coordinates (by global-weight magnitude, a
/// mask both ends derive identically) as one packed vector, and ships the
/// remaining n-k coordinates as plaintext behind an index bitmap (bit i set
/// = coordinate i encrypted; bits >= n must be clear). The plaintext values
/// ride in ascending index order at ceil(quant_bits/8) bytes each.
struct ModelUpdateSparse {
  static constexpr std::array kTypes{MsgType::kModelUpdateSparse};
  std::uint64_t client_id = 0;
  std::uint32_t total_count = 0;
  std::uint8_t quant_bits = 0;
  std::vector<std::uint8_t> bitmap;         // ceil(total_count / 8) bytes
  std::vector<std::uint64_t> plain_values;  // unmasked coords, ascending index
  he::PackedEncryptedVector encrypted;      // logical size = popcount(bitmap)

  static void fields(auto& v, auto& m) {
    // The encrypted count k travels as a field of its own. Decoding reads
    // n - k plaintext values for it, so validate() checking that count
    // against the packed vector's size pins the wire's k as well.
    auto k = static_cast<std::uint32_t>(m.encrypted.logical_size());
    v(m.client_id, m.total_count, k, m.quant_bits);
    v.fixed(m.bitmap, (std::uint64_t{m.total_count} + 7) / 8, 1);
    v.fixed(m.plain_values, std::uint64_t{m.total_count} - k, (m.quant_bits + 7) / 8);
    v(m.encrypted);
  }
  void validate() const;
};

/// kShutdown: the session is over; no payload.
struct Shutdown {
  static constexpr std::array kTypes{MsgType::kShutdown};

  static void fields(auto&, auto&) {}
};

/// --- the shard plane (wire v5): root <-> shard-aggregator payloads. ------
/// A shard aggregator owns the contiguous client range [first_client,
/// first_client + num_clients) of a cohort of total_clients, split across
/// num_shards shards. Partial messages carry the shard's quarantine records
/// since its previous report (so churn reaches the root transcript intact)
/// and, where ciphertext flows, the shard's homomorphic partial sum — on
/// the wire in the packed 'K' form, present iff contributors > 0 (one
/// canonical encoding per partial). The root decodes it under the session
/// key and checks its geometry before it joins the global sum, exactly as
/// a cohort checks a client upload. The partials are also the replies of
/// the aggregator engine's children (net/engine.hpp), in or out of process.

struct ShardHello {
  static constexpr std::array kTypes{MsgType::kShardHello};
  std::uint32_t shard_id = 0;
  std::uint32_t num_shards = 0;
  std::uint64_t first_client = 0;
  std::uint64_t num_clients = 0;    // clients this shard owns
  std::uint64_t total_clients = 0;  // cohort size across all shards
  std::uint32_t protocol = kWireVersion;

  bool operator==(const ShardHello&) const = default;
  static void fields(auto& v, auto& m) {
    v(m.shard_id, m.num_shards, m.first_client, m.num_clients, m.total_clients, m.protocol);
  }
  void validate() const;
};

struct ShardRoundBegin {
  static constexpr std::array kTypes{MsgType::kShardRoundBegin};
  std::uint64_t round = 0;

  bool operator==(const ShardRoundBegin&) const = default;
  static void fields(auto& v, auto& m) { v(m.round); }
};

/// Partial registry sum: `contributors` clients' validated uploads summed
/// homomorphically shard-side. `ciphertext` holds no ciphertexts iff
/// contributors == 0 (a canonical-encoding rule both codec ends enforce).
struct PartialRegistry {
  static constexpr std::array kTypes{MsgType::kPartialRegistry};
  std::uint32_t shard_id = 0;
  std::uint32_t contributors = 0;
  std::vector<QuarantineRecord> quarantined;
  he::PackedEncryptedVector ciphertext;

  static void fields(auto& v, auto& m) {
    v(m.shard_id, m.contributors, m.quarantined);
    if (m.contributors > 0) v(m.ciphertext);
  }
  void validate() const;
};

/// The shard's surviving clients' validated participation draws for one
/// round (entries strictly ascending by client id — canonical encoding).
/// round == QuarantineRecord::kSetupRound marks the shutdown drain report,
/// which carries only the final quarantine flush (entries must be empty).
struct PartialParticipation {
  static constexpr std::array kTypes{MsgType::kPartialParticipation};
  std::uint32_t shard_id = 0;
  std::uint64_t round = 0;
  std::vector<QuarantineRecord> quarantined;
  std::vector<Participation> entries;

  bool operator==(const PartialParticipation&) const = default;
  static void fields(auto& v, auto& m) {
    v(m.shard_id, m.round, m.quarantined);
    // Every entry is for the partial's round, so the round is not repeated.
    v.list(m.entries, [&m](auto& ev, auto& e) {
      ev.implied(e.round, m.round);
      ev(e.client_id, e.draws);
    });
  }
  void validate() const;
};

/// One tentative try for a shard: the selected clients this shard owns, in
/// global selection order. The shard runs the unchanged per-client
/// distribution sweep over them.
struct ShardTryBegin {
  static constexpr std::array kTypes{MsgType::kShardTryBegin};
  std::uint64_t round = 0;
  std::uint32_t try_index = 0;             // h
  std::vector<std::uint64_t> selected;     // global client ids

  bool operator==(const ShardTryBegin&) const = default;
  static void fields(auto& v, auto& m) { v(m.round, m.try_index, m.selected); }
};

/// Partial population sum for one try. `failed` mirrors the flat driver's
/// restart trigger: a selected client died or misbehaved during the sweep
/// (the sweep still completed, the offenders are in `quarantined`), so the
/// root must restart the whole determination over the survivors.
struct PartialPopulation {
  static constexpr std::array kTypes{MsgType::kPartialPopulation};
  std::uint32_t shard_id = 0;
  std::uint64_t round = 0;
  std::uint32_t try_index = 0;
  std::uint32_t contributors = 0;
  bool failed = false;
  std::vector<QuarantineRecord> quarantined;
  he::PackedEncryptedVector ciphertext;  // no ciphertexts iff contributors == 0

  static void fields(auto& v, auto& m) {
    v(m.shard_id, m.round, m.try_index, m.contributors, m.failed, m.quarantined);
    if (m.contributors > 0) v(m.ciphertext);
  }
  void validate() const;
};

/// Update phase for a shard: its recipients (global selection order) and
/// the global weights to train from.
struct ShardUpdateBegin {
  static constexpr std::array kTypes{MsgType::kShardUpdateBegin};
  std::uint64_t round = 0;
  std::vector<std::uint64_t> recipients;  // global client ids
  std::vector<float> weights;

  bool operator==(const ShardUpdateBegin&) const = default;
  static void fields(auto& v, auto& m) { v(m.round, m.recipients, m.weights); }
};

/// One forwarded plaintext update inside a PartialUpdate (mode 0).
struct ShardUpdateEntry {
  std::uint64_t client_id = 0;
  std::vector<float> weights;

  bool operator==(const ShardUpdateEntry&) const = default;
  static void fields(auto& v, auto& m) { v(m.client_id, m.weights); }
};

/// The shard's update-phase result. Two modes, because float FedAvg is
/// order-sensitive while the quantized/encrypted path is exact:
///   mode 0 (update_he_rate == 0): the raw per-client float updates are
///     forwarded, tagged with their ids, so the root can reassemble them in
///     flat selection order before the FedAvg accumulation — summing floats
///     shard-side would re-associate the adds and drift the transcript.
///   mode 1 (update_he_rate > 0): genuine partial aggregation — exact u64
///     sums over the plaintext coordinates (ascending plan order) plus the
///     homomorphic partial sum of the packed top-k ciphertexts; u64
///     wrap-around addition and Paillier addition are both associative, so
///     re-parenthesizing across shards is bit-identical.
struct PartialUpdate {
  static constexpr std::array kTypes{MsgType::kPartialUpdate};
  std::uint32_t shard_id = 0;
  std::uint64_t round = 0;
  std::uint8_t mode = 0;  // 0 = forwarded updates, 1 = sparse partial sums
  std::vector<QuarantineRecord> quarantined;
  std::vector<ShardUpdateEntry> updates;   // mode 0
  std::uint32_t contributors = 0;          // mode 1
  std::vector<std::uint64_t> plain_sums;   // mode 1, ascending plan order
  he::PackedEncryptedVector ciphertext;    // mode 1, none iff contributors == 0

  static void fields(auto& v, auto& m) {
    v(m.shard_id, m.round, m.mode, m.quarantined);
    if (m.mode == 0) {
      v(m.updates);
    } else {
      v(m.contributors, m.plain_sums);
      if (m.contributors > 0) v(m.ciphertext);
    }
  }
  void validate() const;
};

/// The MsgTypes that carry payload M. The bare packed vector is the whole
/// payload of the three encrypted-vector messages (registry upload and
/// broadcast, distribution upload); wire v6 retired the per-slot 'V' form,
/// so a 'V' payload is a typed kBadPayload like any other malformation.
template <class M>
inline constexpr auto kTypesOf = M::kTypes;
template <>
inline constexpr std::array kTypesOf<he::PackedEncryptedVector>{
    MsgType::kRegistryUpload, MsgType::kRegistryBroadcast, MsgType::kDistributionUpload};

template <class T>
concept WireScalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

/// The field list of one entry of a std::vector<T> field: the scalar
/// itself, or T's own field list.
template <class T>
inline constexpr auto entry_fields = [](auto& v, auto& e) {
  if constexpr (WireScalar<T>) {
    v(e);
  } else {
    T::fields(v, e);
  }
};

/// Runs visitor `v` over payload `m`'s field list (for the bare packed
/// vector, over the vector itself).
template <class V, class M>
void visit_fields(V& v, M& m) {
  if constexpr (std::is_same_v<std::remove_const_t<M>, he::PackedEncryptedVector>) {
    v(m);
  } else {
    std::remove_const_t<M>::fields(v, m);
  }
}

/// The visitor that counts what a message encodes to, without encoding it:
/// `payload` bytes in total, `ciphertext` of them Paillier ciphertext
/// material. Ciphertext lengths are canonical (every serialized ciphertext
/// is exactly pk.ciphertext_bytes() long), so both counts are exact.
struct Sizer {
  std::size_t payload = 0;
  std::size_t ciphertext = 0;

  template <class... T>
  void operator()(const T&... f) {
    (field(f), ...);
  }
  void fixed(const auto&, std::uint64_t count, std::size_t width) { payload += count * width; }
  template <class T, class Entry>
  void list(const std::vector<T>& list, const Entry& entry) {
    payload += 4;
    for (const T& e : list) entry(*this, e);
  }
  void implied(const auto&, const auto&) {}

 private:
  template <WireScalar T>
  void field(const T&) {
    payload += sizeof(T);
  }
  template <class T>
  void field(const std::vector<T>& l) {
    list(l, entry_fields<T>);
  }
  void field(const he::PrivateKey& k) { payload += he::serialized_size(k); }
  void field(const he::PackedEncryptedVector& x) {
    payload += he::serialized_size(x.public_key(), x.codec(), x.logical_size());
    ciphertext += x.ciphertext_count() * x.public_key().ciphertext_bytes();
  }
};

/// Exact wire size of `m`: the whole frame, header included, and the
/// ciphertext-material share of it (the ledger's encrypted_bytes column —
/// what net::encrypted_payload_bytes measures on the encoded frame).
struct WireSize {
  std::size_t frame = 0;
  std::size_t ciphertext = 0;
};

template <class M>
[[nodiscard]] WireSize wire_size(const M& m) {
  Sizer s;
  visit_fields(s, m);
  return {frame_wire_size(s.payload), s.ciphertext};
}

/// A packed vector of `logical` values under pk + codec whose ciphertexts
/// are all zero: what a path that prices an upload it never builds hands
/// to wire_size (sizes depend on the shape, never on ciphertext values).
[[nodiscard]] inline he::PackedEncryptedVector packed_shape(const he::PublicKey& pk,
                                                           const he::PackedCodec& codec,
                                                           std::size_t logical) {
  return he::PackedEncryptedVector(pk, codec, logical,
                                   std::vector<he::Ciphertext>(codec.plaintexts_for(logical)));
}

}  // namespace dubhe::net
