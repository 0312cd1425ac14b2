#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace dubhe::net {

/// Everything the Dubhe protocol puts on a wire travels inside one frame
/// format (see src/net/README.md for the byte-layout table):
///
///   [0..3]   magic "DUBH"
///   [4]      wire version (kWireVersion)
///   [5]      message type (MsgType)
///   [6..7]   frame sequence number, big-endian u16 (flags in versions 1-3,
///            where it had to be zero)
///   [8..11]  payload length, big-endian u32
///   [12..15] CRC32 (IEEE) of the payload, big-endian u32
///   [16..]   payload
///
/// Integers inside payloads are big-endian too, matching the length-prefixed
/// big-endian convention of the paillier serialization layer underneath.

inline constexpr std::array<std::uint8_t, 4> kMagic{'D', 'U', 'B', 'H'};
/// Version 2: multi-round sessions (kRoundBegin / kParticipation appended)
/// and the kRegistrationInfo experiment-plane shortcut retired — clients
/// Bernoulli-draw their own participation from the decrypted registry
/// broadcast. A version-1 peer is refused at the first frame (kBadVersion).
/// Version 3: kModelUpdateSparse appended — top-k selectively encrypted
/// model updates (quantized, packed ciphertexts for the top-k coordinates
/// plus a plaintext remainder behind an index bitmap). A version-2 peer is
/// refused at the first frame (kBadVersion).
/// Version 4: the reserved flags field becomes a per-connection frame
/// sequence number (u16, wraps). Each endpoint numbers its outbound frames
/// 0, 1, 2, ... per connection; the session driver rejects any frame whose
/// sequence is not the expected successor (kReplayed), so a replayed
/// kParticipation or model-update frame is a typed quarantine, never a
/// silent duplicate merge. A version-3 peer is refused at the first frame.
/// Version 5: the shard plane appended (kShardHello .. kPartialUpdate) —
/// the root <-> shard-aggregator messages of the 2-level aggregation tree.
/// A shard owns a disjoint slice of the cohort, runs the unchanged
/// per-client protocol against it, and ships homomorphic partial sums (and
/// quarantine records) up to the root, which finishes the Eq. 6 reductions.
/// The client-facing messages are untouched, so a client cannot tell a
/// shard from a flat aggregator. A version-4 peer is refused at the first
/// frame.
/// Version 6: one ciphertext wire form. Every encrypted-vector payload is
/// the packed 'K' PackedEncryptedVector; the per-slot 'V' form (one
/// ciphertext per slot) is retired and rejected as kBadPayload wherever a
/// ciphertext travels — client uploads, the registry broadcast, and the
/// shard-plane partial sums. A version-5 peer is refused at the first
/// frame.
/// Version 7: the session key crosses the wire once. kKeyMaterial carries
/// only the private (p, q), and the packed 'K' form no longer embeds the
/// public key: every packed payload is decoded under the receiver's
/// session key. A version-6 peer is refused at the first frame.
inline constexpr std::uint8_t kWireVersion = 7;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Ceiling on a single frame's payload, enforced by encoder and decoder
/// alike. Frames whose length prefix exceeds this are rejected before any
/// allocation, so a corrupted (or hostile) length field cannot make the
/// receiver reserve gigabytes.
inline constexpr std::size_t kMaxPayload = std::size_t{1} << 26;  // 64 MiB

/// Every message the client <-> aggregator protocol exchanges. Values are
/// wire-stable: append new types, never renumber. Retired values stay
/// reserved forever (a receiver rejects them as kBadType).
enum class MsgType : std::uint8_t {
  kClientHello = 1,          // C->S: client id + protocol version
  kServerHello = 2,          // S->C: session seed + cohort shape
  kKeyMaterial = 3,          // S->C: Paillier keypair dispatch (agent role)
  kRegistrationRequest = 4,  // S->C: encrypt-your-registry order + stream seed
  // 5 was kRegistrationInfo (plaintext registration entry) — retired in
  // version 2: the entry stays client-side and participation is drawn by
  // the client itself. The value is reserved, never reuse it.
  kRegistryUpload = 6,       // C->S: encrypted one-hot registry
  kRegistryBroadcast = 7,    // S->C: encrypted registry sum R_A
  kDistributionRequest = 8,  // S->C: encrypt-your-p_l order (one per tentative try)
  kDistributionUpload = 9,   // C->S: encrypted fixed-point label distribution
  kModelDown = 10,           // S->C: global model weights + training seed
  kModelUpdate = 11,         // C->S: locally trained weights
  kShutdown = 12,            // S->C: session over, close the connection
  kRoundBegin = 13,          // S->C: a global round starts (carries its index)
  kParticipation = 14,       // C->S: the client's own per-try Bernoulli draws
  kModelUpdateSparse = 15,   // C->S: quantized update, top-k coords encrypted
  // --- the shard plane (wire v5): root (R) <-> shard aggregator (A). A
  // shard speaks the client-facing types above to its slice of the cohort
  // and these to the root. Partials carry the shard's quarantine records
  // since its previous report, so churn is visible in the root transcript.
  kShardHello = 16,           // A->R: shard id + owned client range
  kShardRoundBegin = 17,      // R->A: begin round r over the shard's cohort
  kPartialRegistry = 18,      // A->R: homomorphic partial sum of registry uploads
  kPartialParticipation = 19, // A->R: surviving clients' validated draws
  kShardTryBegin = 20,        // R->A: one tentative try: h + selected members
  kPartialPopulation = 21,    // A->R: partial population sum for one try
  kShardUpdateBegin = 22,     // R->A: update phase: recipients + global weights
  kPartialUpdate = 23,        // A->R: forwarded updates / partial update sums
};

[[nodiscard]] bool is_valid(MsgType type);
[[nodiscard]] std::string to_string(MsgType type);

/// Why a frame (or payload) was rejected. Each enumerator corresponds to one
/// adversarial-decode test in tests/test_net_wire.cpp.
enum class WireErrc {
  kShortBuffer,  // one-shot decode: buffer smaller than a frame header
  kBadMagic,
  kBadVersion,
  kBadType,
  kOversized,  // payload or length prefix exceeds kMaxPayload
  kTruncated,  // header promises more payload bytes than are present
  kBadCrc,
  kBadPayload,  // frame intact, payload malformed for its type
  kReplayed,    // frame sequence is not the expected successor (replay /
                // reordering on an ordered channel — session driver check)
};

[[nodiscard]] std::string to_string(WireErrc code);

namespace detail {
/// Telemetry tap: bumps dubhe_wire_errors_total{code=...} (out-of-band, a
/// no-op unless telemetry is enabled). Every WireError construction is a
/// decode/encode rejection, so the constructor is the one counting site.
void note_wire_error(WireErrc code);
}  // namespace detail

class WireError : public std::runtime_error {
 public:
  WireError(WireErrc code, const std::string& what)
      : std::runtime_error(to_string(code) + ": " + what), code_(code) {
    detail::note_wire_error(code);
  }

  [[nodiscard]] WireErrc code() const { return code_; }

 private:
  WireErrc code_;
};

/// One decoded message: type tag, opaque payload bytes, and the
/// per-connection sequence number. The payload codecs in net/codec.hpp give
/// these a typed meaning. `seq` travels in the header's former flags field;
/// the session driver assigns it on send (0, 1, 2, ... per connection and
/// direction, wrapping at 2^16) and verifies it on receive. It sits last so
/// codecs can keep aggregate-initializing `{type, payload}` (seq is a
/// connection concern, stamped at the send boundary).
struct Frame {
  MsgType type = MsgType::kShutdown;
  std::vector<std::uint8_t> payload;
  std::uint16_t seq = 0;

  bool operator==(const Frame&) const = default;
};

/// Why the session driver dropped a client into quarantine instead of
/// aborting the session (the robustness contract: a misbehaving client
/// costs the cohort one participant, not the round). Each value corresponds
/// to one injectable fault family in net/fault.hpp and one column of the
/// fault matrix in tests/test_net_faults.cpp.
enum class QuarantineReason : std::uint8_t {
  kTimeout = 1,        // the per-phase deadline expired
  kDisconnect,         // peer closed / transport error mid-phase
  kBadFrame,           // malformed or out-of-protocol frame / payload
  kBadCiphertext,      // not a packed vector, or not the session's shape/geometry
  kBadParticipation,   // participation bits with wrong shape/round/values
  kReplay,             // frame sequence violation (duplicate / replayed)
};

/// Which protocol phase a client was in when it was quarantined (also the
/// trigger vocabulary of net::FaultPlan).
enum class SessionPhase : std::uint8_t {
  kHello = 1,      // client hello / id binding
  kRegistration,   // key dispatch + encrypted registry upload/broadcast
  kParticipation,  // round begin + proactive draw collection
  kDistribution,   // per-try encrypted distribution upload
  kUpdate,         // model down / trained update up
  kShutdown,       // session teardown drain
};

[[nodiscard]] std::string to_string(QuarantineReason reason);
[[nodiscard]] std::string to_string(SessionPhase phase);

/// One quarantined client: who, when (round + phase), and why. A
/// misbehaving client costs the cohort one participant, never the round —
/// the session driver records the drop here and proceeds with the
/// survivors. Lives in the wire header (not node.hpp) because the shard
/// plane's partial messages carry these records up the aggregation tree
/// verbatim.
struct QuarantineRecord {
  /// client_id when the failure happened before the hello bound an id.
  static constexpr std::uint64_t kUnknownClient = ~std::uint64_t{0};
  /// round for failures outside the round loop (hello, registration,
  /// shutdown drain).
  static constexpr std::uint64_t kSetupRound = ~std::uint64_t{0};

  std::uint64_t client_id = kUnknownClient;
  std::uint64_t round = kSetupRound;
  SessionPhase phase = SessionPhase::kHello;
  QuarantineReason reason = QuarantineReason::kDisconnect;

  bool operator==(const QuarantineRecord&) const = default;
  /// Wire field list (see net/schema.hpp): 18 bytes per record.
  static void fields(auto& v, auto& m) { v(m.client_id, m.round, m.phase, m.reason); }
};

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), the integrity check
/// carried by every frame, computed slice-by-8: eight table lookups per
/// eight input bytes, portable to every host. (The x86 SSE4.2 `crc32`
/// instruction is no substitute: it hard-wires the Castagnoli polynomial,
/// which would change every stored checksum.)
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Total on-wire size of a frame carrying `payload_bytes` of payload.
[[nodiscard]] constexpr std::size_t frame_wire_size(std::size_t payload_bytes) {
  return kFrameHeaderBytes + payload_bytes;
}

/// Encodes one frame. Throws WireError{kOversized} if the payload exceeds
/// kMaxPayload (senders enforce the same ceiling receivers do, so an
/// oversized message fails loudly at the producer instead of poisoning the
/// stream).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Encodes only the 16-byte header for `payload` (same validation and
/// CRC as encode_frame). The scatter-gather transports send this header
/// and the payload as two iovecs of one writev, so a frame goes out in a
/// single syscall without ever being copied into one contiguous buffer.
[[nodiscard]] std::array<std::uint8_t, kFrameHeaderBytes> encode_frame_header(
    MsgType type, std::span<const std::uint8_t> payload, std::uint16_t seq = 0);

/// One-shot decode of a buffer holding exactly one frame (trailing bytes are
/// rejected as kBadPayload). Throws WireError on any malformation.
[[nodiscard]] Frame decode_frame(std::span<const std::uint8_t> bytes);

/// Incremental decoder for a byte stream: feed() whatever the socket
/// delivered, then drain next() until it returns nullopt. Malformed input
/// throws WireError and leaves the reader unusable (a framing error on a
/// stream is unrecoverable — the connection must be dropped).
class FrameReader {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  /// Next complete frame, or nullopt if more bytes are needed.
  std::optional<Frame> next();
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace dubhe::net
