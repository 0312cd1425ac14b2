#include "net/wire.hpp"

#include <algorithm>

#include "core/telemetry.hpp"

namespace dubhe::net {

namespace {

/// Big-endian u32 helpers shared by the header fields.
void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return (static_cast<std::uint32_t>(in[0]) << 24) |
         (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) | static_cast<std::uint32_t>(in[3]);
}

/// Slice-by-8 tables for the reflected IEEE polynomial: t[0] is the classic
/// byte-at-a-time table; t[j][b] is the CRC of byte b followed by j zero
/// bytes, so eight input bytes fold into the state with eight independent
/// lookups per iteration instead of an 8-long serial chain. Same polynomial,
/// same values — the pinned test vectors and every stored frame stay valid.
struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  constexpr Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t j = 1; j < 8; ++j) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[j][i] = c;
      }
    }
  }
};
constexpr Crc32Tables kCrcTable;

/// Validates a complete 16-byte header and returns the payload length it
/// promises. Truncation is the caller's concern: decode_frame treats
/// missing payload bytes as an error, FrameReader as "wait for more".
std::size_t check_header(std::span<const std::uint8_t> h) {
  if (!std::equal(kMagic.begin(), kMagic.end(), h.begin())) {
    throw WireError(WireErrc::kBadMagic, "frame does not start with DUBH");
  }
  if (h[4] != kWireVersion) {
    throw WireError(WireErrc::kBadVersion,
                    "wire version " + std::to_string(h[4]) + " (expected " +
                        std::to_string(kWireVersion) + ")");
  }
  if (!is_valid(static_cast<MsgType>(h[5]))) {
    throw WireError(WireErrc::kBadType, "unknown message type " + std::to_string(h[5]));
  }
  // Bytes 6..7 carry the frame sequence (any value is valid); the session
  // driver, not the codec, enforces monotonicity.
  const std::size_t len = get_u32(h.data() + 8);
  if (len > kMaxPayload) {
    throw WireError(WireErrc::kOversized, "payload length " + std::to_string(len) +
                                              " exceeds limit " +
                                              std::to_string(kMaxPayload));
  }
  return len;
}

/// The frame behind a header check_header accepted and its `len` payload
/// bytes, which must match the header's checksum.
Frame checked_frame(const std::uint8_t* h, std::size_t len) {
  Frame frame;
  frame.type = static_cast<MsgType>(h[5]);
  frame.seq = static_cast<std::uint16_t>((h[6] << 8) | h[7]);
  frame.payload.assign(h + kFrameHeaderBytes, h + kFrameHeaderBytes + len);
  if (crc32(frame.payload) != get_u32(h + 12)) {
    throw WireError(WireErrc::kBadCrc, "payload does not match its checksum");
  }
  return frame;
}

}  // namespace

bool is_valid(MsgType type) {
  const auto v = static_cast<std::uint8_t>(type);
  constexpr auto kRetiredRegistrationInfo = std::uint8_t{5};
  return v >= static_cast<std::uint8_t>(MsgType::kClientHello) &&
         v <= static_cast<std::uint8_t>(MsgType::kPartialUpdate) &&
         v != kRetiredRegistrationInfo;
}

std::string to_string(MsgType type) {
  switch (type) {
    case MsgType::kClientHello: return "client_hello";
    case MsgType::kServerHello: return "server_hello";
    case MsgType::kKeyMaterial: return "key_material";
    case MsgType::kRegistrationRequest: return "registration_request";
    case MsgType::kRegistryUpload: return "registry_upload";
    case MsgType::kRegistryBroadcast: return "registry_broadcast";
    case MsgType::kDistributionRequest: return "distribution_request";
    case MsgType::kDistributionUpload: return "distribution_upload";
    case MsgType::kModelDown: return "model_down";
    case MsgType::kModelUpdate: return "model_update";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kRoundBegin: return "round_begin";
    case MsgType::kParticipation: return "participation";
    case MsgType::kModelUpdateSparse: return "model_update_sparse";
    case MsgType::kShardHello: return "shard_hello";
    case MsgType::kShardRoundBegin: return "shard_round_begin";
    case MsgType::kPartialRegistry: return "partial_registry";
    case MsgType::kPartialParticipation: return "partial_participation";
    case MsgType::kShardTryBegin: return "shard_try_begin";
    case MsgType::kPartialPopulation: return "partial_population";
    case MsgType::kShardUpdateBegin: return "shard_update_begin";
    case MsgType::kPartialUpdate: return "partial_update";
  }
  return "msg_type(" + std::to_string(static_cast<int>(type)) + ")";
}

namespace detail {

namespace {
/// snake_case label values for the wire-error counter series.
const char* errc_label(WireErrc code) {
  switch (code) {
    case WireErrc::kShortBuffer: return "short_buffer";
    case WireErrc::kBadMagic: return "bad_magic";
    case WireErrc::kBadVersion: return "bad_version";
    case WireErrc::kBadType: return "bad_type";
    case WireErrc::kOversized: return "oversized";
    case WireErrc::kTruncated: return "truncated";
    case WireErrc::kBadCrc: return "bad_crc";
    case WireErrc::kBadPayload: return "bad_payload";
    case WireErrc::kReplayed: return "replayed";
  }
  return "unknown";
}
}  // namespace

void note_wire_error(WireErrc code) {
  if (!telemetry::enabled()) return;
  telemetry::counter(std::string{"dubhe_wire_errors_total{code=\""} +
                     errc_label(code) + "\"}")
      .inc();
}

}  // namespace detail

std::string to_string(WireErrc code) {
  switch (code) {
    case WireErrc::kShortBuffer: return "short buffer";
    case WireErrc::kBadMagic: return "bad magic";
    case WireErrc::kBadVersion: return "bad version";
    case WireErrc::kBadType: return "bad message type";
    case WireErrc::kOversized: return "oversized frame";
    case WireErrc::kTruncated: return "truncated frame";
    case WireErrc::kBadCrc: return "crc mismatch";
    case WireErrc::kBadPayload: return "bad payload";
    case WireErrc::kReplayed: return "replayed frame";
  }
  return "wire error";
}

std::string to_string(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kTimeout: return "timeout";
    case QuarantineReason::kDisconnect: return "disconnect";
    case QuarantineReason::kBadFrame: return "bad_frame";
    case QuarantineReason::kBadCiphertext: return "bad_ciphertext";
    case QuarantineReason::kBadParticipation: return "bad_participation";
    case QuarantineReason::kReplay: return "replay";
  }
  return "quarantine_reason(" + std::to_string(static_cast<int>(reason)) + ")";
}

std::string to_string(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kHello: return "hello";
    case SessionPhase::kRegistration: return "registration";
    case SessionPhase::kParticipation: return "participation";
    case SessionPhase::kDistribution: return "distribution";
    case SessionPhase::kUpdate: return "update";
    case SessionPhase::kShutdown: return "shutdown";
  }
  return "phase(" + std::to_string(static_cast<int>(phase)) + ")";
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const auto& t = kCrcTable.t;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // Bytes are composed into words explicitly (little-endian order, matching
  // the reflected polynomial), so the hot loop is byte-order portable and
  // free of alignment assumptions.
  while (n >= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  (static_cast<std::uint32_t>(p[1]) << 8) |
                                  (static_cast<std::uint32_t>(p[2]) << 16) |
                                  (static_cast<std::uint32_t>(p[3]) << 24));
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             (static_cast<std::uint32_t>(p[5]) << 8) |
                             (static_cast<std::uint32_t>(p[6]) << 16) |
                             (static_cast<std::uint32_t>(p[7]) << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n != 0; --n) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  const auto header = encode_frame_header(frame.type, frame.payload, frame.seq);
  std::vector<std::uint8_t> out(kFrameHeaderBytes + frame.payload.size());
  std::copy(header.begin(), header.end(), out.begin());
  std::copy(frame.payload.begin(), frame.payload.end(), out.begin() + kFrameHeaderBytes);
  return out;
}

std::array<std::uint8_t, kFrameHeaderBytes> encode_frame_header(
    MsgType type, std::span<const std::uint8_t> payload, std::uint16_t seq) {
  if (!is_valid(type)) {
    throw WireError(WireErrc::kBadType, "refusing to encode an unknown message type");
  }
  if (payload.size() > kMaxPayload) {
    throw WireError(WireErrc::kOversized,
                    "payload of " + std::to_string(payload.size()) + " bytes");
  }
  std::array<std::uint8_t, kFrameHeaderBytes> out{};
  std::copy(kMagic.begin(), kMagic.end(), out.begin());
  out[4] = kWireVersion;
  out[5] = static_cast<std::uint8_t>(type);
  out[6] = static_cast<std::uint8_t>(seq >> 8);
  out[7] = static_cast<std::uint8_t>(seq & 0xFF);
  put_u32(out.data() + 8, static_cast<std::uint32_t>(payload.size()));
  put_u32(out.data() + 12, crc32(payload));
  return out;
}

Frame decode_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw WireError(WireErrc::kShortBuffer,
                    std::to_string(bytes.size()) + " bytes is smaller than a header");
  }
  const std::size_t len = check_header(bytes.first(kFrameHeaderBytes));
  if (bytes.size() < kFrameHeaderBytes + len) {
    throw WireError(WireErrc::kTruncated,
                    "header promises " + std::to_string(len) + " payload bytes, " +
                        std::to_string(bytes.size() - kFrameHeaderBytes) + " present");
  }
  if (bytes.size() != kFrameHeaderBytes + len) {
    throw WireError(WireErrc::kBadPayload,
                    std::to_string(bytes.size() - kFrameHeaderBytes - len) +
                        " trailing bytes after the frame");
  }
  return checked_frame(bytes.data(), len);
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  // Compact before growing: drop the already-consumed prefix once it
  // dominates the buffer, so a long-lived connection does not accrete its
  // whole history.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameReader::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;
  const std::size_t len = check_header({h, kFrameHeaderBytes});
  if (avail < kFrameHeaderBytes + len) return std::nullopt;
  // Slice the payload straight out of the buffer (the header was just
  // validated; re-running decode_frame would copy the payload twice on
  // every received frame — this is the transport hot path).
  pos_ += kFrameHeaderBytes + len;
  return checked_frame(h, len);
}

}  // namespace dubhe::net
