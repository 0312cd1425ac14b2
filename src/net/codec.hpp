#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fl/channel.hpp"
#include "net/sizes.hpp"
#include "net/wire.hpp"
#include "paillier/packing.hpp"

namespace dubhe::net {

/// Typed payloads for every MsgType, with make_*/parse_* codec pairs. Parse
/// functions verify the frame's type tag, reject trailing bytes, and throw
/// WireError{kBadPayload} on any malformation, so a frame that decodes is
/// fully validated. Multi-byte integers are big-endian; floats travel as
/// their IEEE-754 bit patterns (big-endian u32), so weight tensors
/// round-trip bit-exactly — including NaNs.

struct ClientHello {
  std::uint64_t client_id = 0;
  std::uint32_t protocol = kWireVersion;

  bool operator==(const ClientHello&) const = default;
};

struct ServerHello {
  std::uint64_t session_seed = 0;
  std::uint32_t num_clients = 0;
  std::uint32_t cohort_index = 0;  // the id the server bound this link to

  bool operator==(const ServerHello&) const = default;
};

/// The agent's key dispatch (paper §5.1: the agent generates the session
/// keypair and distributes it to the cohort).
struct KeyMaterial {
  he::PublicKey pub;
  he::PrivateKey prv;
};

/// Registration and distribution requests share one shape: an RNG seed for
/// the client's encryption stream plus a tag (0 for registration, the
/// tentative-try index h for distribution requests).
struct SeedRequest {
  std::uint64_t seed = 0;
  std::uint32_t tag = 0;

  bool operator==(const SeedRequest&) const = default;
};

/// Round begin (S->C): the index of the global round whose loop body
/// follows. The client answers with its kParticipation draws.
struct RoundBegin {
  std::uint64_t round = 0;

  bool operator==(const RoundBegin&) const = default;
};

/// Proactive participation (C->S): the client's own Bernoulli draws for one
/// round — one 0/1 byte per tentative try, drawn client-side from the
/// (session seed, client id, round) stream against the Eq. 6 probability
/// the client computed from the decrypted registry broadcast. This is what
/// replaced the retired kRegistrationInfo plaintext entry: the server
/// learns only the check-in bits, never the registration itself.
struct Participation {
  std::uint64_t client_id = 0;
  std::uint64_t round = 0;
  std::vector<std::uint8_t> draws;  // draws[h] in {0, 1}, one per try

  bool operator==(const Participation&) const = default;
};

/// Model weights down (seed = the client's training seed for this round) or
/// up (seed field carries the client id instead). Same wire size both ways,
/// which keeps §6.4's up/down accounting symmetric.
struct WeightsMsg {
  std::uint64_t seed = 0;
  std::vector<float> weights;

  bool operator==(const WeightsMsg&) const = default;
};

Frame make_client_hello(const ClientHello& m);
ClientHello parse_client_hello(const Frame& f);

Frame make_server_hello(const ServerHello& m);
ServerHello parse_server_hello(const Frame& f);

Frame make_key_material(const KeyMaterial& m);
KeyMaterial parse_key_material(const Frame& f);

Frame make_seed_request(MsgType type, const SeedRequest& m);  // registration/distribution
SeedRequest parse_seed_request(const Frame& f, MsgType expected);

Frame make_round_begin(const RoundBegin& m);
RoundBegin parse_round_begin(const Frame& f);

Frame make_participation(const Participation& m);
Participation parse_participation(const Frame& f);

/// Encrypted-vector payloads (registry upload/broadcast, distribution
/// upload) carry the packed paillier wire form ('K'-tagged
/// PackedEncryptedVector). The per-slot 'V' form was retired in wire v6: a
/// 'V' payload is a typed kBadPayload like any other malformation.
Frame make_encrypted_vector(MsgType type, const he::PackedEncryptedVector& v);
he::PackedEncryptedVector parse_packed_encrypted_vector(const Frame& f, MsgType expected);

Frame make_weights(MsgType type, const WeightsMsg& m);  // kModelDown / kModelUpdate
WeightsMsg parse_weights(const Frame& f, MsgType expected);

/// Selectively encrypted model update (wire v3, kModelUpdateSparse): the
/// client quantizes its weight delta to `quant_bits`-bit biased-unsigned
/// values, encrypts the top-k coordinates (by global-weight magnitude, a
/// mask both ends derive identically) as one packed vector, and ships the
/// remaining n-k coordinates as plaintext behind an index bitmap. Wire
/// layout (big-endian): u64 client_id, u32 total_count, u32
/// encrypted_count, u8 quant_bits, ceil(n/8) bitmap bytes (bit i set =
/// coordinate i encrypted; bits >= n must be clear), the n-k plaintext
/// values at ceil(quant_bits/8) bytes each in ascending index order, then
/// the packed vector in its self-tagged 'K' form.
struct ModelUpdateSparse {
  std::uint64_t client_id = 0;
  std::uint32_t total_count = 0;
  std::uint8_t quant_bits = 0;
  std::vector<std::uint8_t> bitmap;         // ceil(total_count / 8) bytes
  std::vector<std::uint64_t> plain_values;  // unmasked coords, ascending index
  he::PackedEncryptedVector encrypted;      // logical size = popcount(bitmap)
};

Frame make_model_update_sparse(const ModelUpdateSparse& m);
ModelUpdateSparse parse_model_update_sparse(const Frame& f);

Frame make_shutdown();

/// --- the shard plane (wire v5): root <-> shard-aggregator payloads. ------
/// A shard aggregator owns the contiguous client range [first_client,
/// first_client + num_clients) of a cohort of total_clients, split across
/// num_shards shards. Partial messages carry the shard's quarantine records
/// since its previous report (so churn reaches the root transcript intact)
/// and, where ciphertext flows, the shard's homomorphic partial sum — on
/// the wire in the packed 'K' form, present iff contributors > 0 (one
/// canonical encoding per partial). The root validates it against the
/// session key and geometry before it joins the global sum, exactly as a
/// cohort validates a client upload. The partials are also the replies of
/// the aggregator engine's children (net/engine.hpp), in or out of process.

struct ShardHello {
  std::uint32_t shard_id = 0;
  std::uint32_t num_shards = 0;
  std::uint64_t first_client = 0;
  std::uint64_t num_clients = 0;    // clients this shard owns
  std::uint64_t total_clients = 0;  // cohort size across all shards
  std::uint32_t protocol = kWireVersion;

  bool operator==(const ShardHello&) const = default;
};

struct ShardRoundBegin {
  std::uint64_t round = 0;

  bool operator==(const ShardRoundBegin&) const = default;
};

/// Partial registry sum: `contributors` clients' validated uploads summed
/// homomorphically shard-side. `ciphertext` holds no ciphertexts iff
/// contributors == 0 (a canonical-encoding rule both codec ends enforce).
struct PartialRegistry {
  std::uint32_t shard_id = 0;
  std::uint32_t contributors = 0;
  std::vector<QuarantineRecord> quarantined;
  he::PackedEncryptedVector ciphertext;
};

/// The shard's surviving clients' validated participation draws for one
/// round (entries strictly ascending by client id — canonical encoding).
/// round == QuarantineRecord::kSetupRound marks the shutdown drain report,
/// which carries only the final quarantine flush (entries must be empty).
struct PartialParticipation {
  std::uint32_t shard_id = 0;
  std::uint64_t round = 0;
  std::vector<QuarantineRecord> quarantined;
  std::vector<Participation> entries;

  bool operator==(const PartialParticipation&) const = default;
};

/// One tentative try for a shard: the selected clients this shard owns, in
/// global selection order. The shard runs the unchanged per-client
/// distribution sweep over them.
struct ShardTryBegin {
  std::uint64_t round = 0;
  std::uint32_t try_index = 0;             // h
  std::vector<std::uint64_t> selected;     // global client ids

  bool operator==(const ShardTryBegin&) const = default;
};

/// Partial population sum for one try. `failed` mirrors the flat driver's
/// restart trigger: a selected client died or misbehaved during the sweep
/// (the sweep still completed, the offenders are in `quarantined`), so the
/// root must restart the whole determination over the survivors.
struct PartialPopulation {
  std::uint32_t shard_id = 0;
  std::uint64_t round = 0;
  std::uint32_t try_index = 0;
  std::uint32_t contributors = 0;
  bool failed = false;
  std::vector<QuarantineRecord> quarantined;
  he::PackedEncryptedVector ciphertext;  // no ciphertexts iff contributors == 0
};

/// Update phase for a shard: its recipients (global selection order) and
/// the global weights to train from.
struct ShardUpdateBegin {
  std::uint64_t round = 0;
  std::vector<std::uint64_t> recipients;  // global client ids
  std::vector<float> weights;

  bool operator==(const ShardUpdateBegin&) const = default;
};

/// One forwarded plaintext update inside a PartialUpdate (mode 0).
struct ShardUpdateEntry {
  std::uint64_t client_id = 0;
  std::vector<float> weights;

  bool operator==(const ShardUpdateEntry&) const = default;
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
  std::uint32_t shard_id = 0;
  std::uint64_t round = 0;
  std::uint8_t mode = 0;  // 0 = forwarded updates, 1 = sparse partial sums
  std::vector<QuarantineRecord> quarantined;
  std::vector<ShardUpdateEntry> updates;   // mode 0
  std::uint32_t contributors = 0;          // mode 1
  std::vector<std::uint64_t> plain_sums;   // mode 1, ascending plan order
  he::PackedEncryptedVector ciphertext;    // mode 1, none iff contributors == 0
};

Frame make_shard_hello(const ShardHello& m);
ShardHello parse_shard_hello(const Frame& f);

Frame make_shard_round_begin(const ShardRoundBegin& m);
ShardRoundBegin parse_shard_round_begin(const Frame& f);

Frame make_partial_registry(const PartialRegistry& m);
PartialRegistry parse_partial_registry(const Frame& f);

Frame make_partial_participation(const PartialParticipation& m);
PartialParticipation parse_partial_participation(const Frame& f);

Frame make_shard_try_begin(const ShardTryBegin& m);
ShardTryBegin parse_shard_try_begin(const Frame& f);

Frame make_partial_population(const PartialPopulation& m);
PartialPopulation parse_partial_population(const Frame& f);

Frame make_shard_update_begin(const ShardUpdateBegin& m);
ShardUpdateBegin parse_shard_update_begin(const Frame& f);

Frame make_partial_update(const PartialUpdate& m);
PartialUpdate parse_partial_update(const Frame& f);

/// Ciphertext-material bytes inside a frame's payload: the raw Paillier
/// ciphertext bytes of a packed encrypted-vector payload or of the packed
/// section of a kModelUpdateSparse payload — excluding framing, length
/// prefixes, bitmaps, plaintext values, and public-key echoes. Never
/// throws: returns 0 for messages that carry no ciphertext and for
/// malformed payloads (which the typed parsers reject separately). This is
/// what the transports feed the ledger's plaintext/encrypted byte split.
[[nodiscard]] std::size_t encrypted_payload_bytes(const Frame& f);

/// Exact wire sizes of the §6.4-accounted messages live in net/sizes.hpp
/// (re-exported via the include above), so `core`/`fl` can use them without
/// depending on this header's core/fl includes.

/// Which §6.4 ledger a message type lands in.
[[nodiscard]] fl::MessageKind account_kind(MsgType type);

}  // namespace dubhe::net
