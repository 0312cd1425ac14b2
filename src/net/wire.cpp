#include "net/wire.hpp"

#include <algorithm>

#include "core/cpu.hpp"
#include "core/telemetry.hpp"

// The PCLMUL tier needs carry-less multiply intrinsics. It is compiled only
// in SIMD-enabled builds on x86 with a compiler that supports per-function
// target attributes; the simd-off preset ships pure slice-by-8.
#if defined(DUBHE_SIMD_ENABLED) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DUBHE_CRC32_PCLMUL 1
#include <wmmintrin.h>
#else
#define DUBHE_CRC32_PCLMUL 0
#endif

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

/// Slice-by-8 over raw (pre-inverted) CRC state: callers own the initial and
/// final ~ inversions, so the hardware tier can hand this the tail bytes it
/// did not fold without double-inverting in between.
std::uint32_t slice8_update(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const auto& t = kCrcTable.t;
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
  return c;
}

#if DUBHE_CRC32_PCLMUL

/// PCLMUL-folded CRC32 over the reflected IEEE polynomial (the classic
/// "Fast CRC Computation Using PCLMULQDQ" construction). Folds four 128-bit
/// lanes of input per iteration with carry-less multiplies, then reduces
/// 512 -> 128 -> 64 -> 32 bits with Barrett reduction. Raw state in, raw
/// state out, same convention as slice8_update. Requires n >= 64 and
/// n % 16 == 0 — the dispatcher rounds the span down and slices the rest.
__attribute__((target("pclmul,sse2"))) std::uint32_t pclmul_update(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  // Folding constants for the reflected polynomial 0xEDB88320:
  //   k1 = x^(4*128+32) mod P, k2 = x^(4*128-32) mod P   (4-lane fold)
  //   k3 = x^(128+32)  mod P, k4 = x^(128-32)  mod P     (1-lane fold)
  //   k5 = x^64 mod P                                     (final fold)
  //   P' = reflected polynomial, u = x^64 / P             (Barrett)
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_set_epi32(0, ~0, 0, ~0);

  const auto* q = reinterpret_cast<const __m128i*>(p);
  __m128i x0 = _mm_loadu_si128(q + 0);
  __m128i x1 = _mm_loadu_si128(q + 1);
  __m128i x2 = _mm_loadu_si128(q + 2);
  __m128i x3 = _mm_loadu_si128(q + 3);
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(static_cast<int>(crc)));
  q += 4;
  n -= 64;

  while (n >= 64) {
    __m128i y0 = _mm_clmulepi64_si128(x0, k1k2, 0x00);
    __m128i y1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    __m128i y2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    __m128i y3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    x0 = _mm_clmulepi64_si128(x0, k1k2, 0x11);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x0 = _mm_xor_si128(_mm_xor_si128(x0, y0), _mm_loadu_si128(q + 0));
    x1 = _mm_xor_si128(_mm_xor_si128(x1, y1), _mm_loadu_si128(q + 1));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, y2), _mm_loadu_si128(q + 2));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, y3), _mm_loadu_si128(q + 3));
    q += 4;
    n -= 64;
  }

  // Fold the four lanes into one.
  __m128i y = _mm_clmulepi64_si128(x0, k3k4, 0x00);
  x0 = _mm_clmulepi64_si128(x0, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, y), x0);
  y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x2 = _mm_xor_si128(_mm_xor_si128(x2, y), x1);
  y = _mm_clmulepi64_si128(x2, k3k4, 0x00);
  x2 = _mm_clmulepi64_si128(x2, k3k4, 0x11);
  x3 = _mm_xor_si128(_mm_xor_si128(x3, y), x2);
  __m128i x = x3;

  // Fold any remaining whole 16-byte blocks.
  while (n >= 16) {
    y = _mm_clmulepi64_si128(x, k3k4, 0x00);
    x = _mm_clmulepi64_si128(x, k3k4, 0x11);
    x = _mm_xor_si128(_mm_xor_si128(x, y), _mm_loadu_si128(q));
    ++q;
    n -= 16;
  }

  // 128 -> 64 bits.
  y = _mm_clmulepi64_si128(x, k3k4, 0x10);
  x = _mm_srli_si128(x, 8);
  x = _mm_xor_si128(x, y);

  // 64 -> 32 bits.
  y = _mm_srli_si128(x, 4);
  x = _mm_and_si128(x, mask32);
  x = _mm_clmulepi64_si128(x, k5, 0x00);
  x = _mm_xor_si128(x, y);

  // Barrett reduction to the final 32-bit remainder.
  y = _mm_and_si128(x, mask32);
  y = _mm_clmulepi64_si128(y, poly, 0x10);
  y = _mm_and_si128(y, mask32);
  y = _mm_clmulepi64_si128(y, poly, 0x00);
  x = _mm_xor_si128(x, y);
  return static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#endif  // DUBHE_CRC32_PCLMUL

/// Large inputs only: PCLMUL's fixed fold/reduce preamble costs more than it
/// saves below this size, and the folder itself needs >= 64 bytes.
constexpr std::size_t kPclmulMinBytes = 64;

bool pclmul_usable() {
#if DUBHE_CRC32_PCLMUL
  return core::cpu::has(core::cpu::kPclmul);
#else
  return false;
#endif
}

/// Validates a complete 16-byte header and returns the payload length it
/// promises. Truncation is the caller's concern: decode_frame treats
/// missing payload bytes as an error, FrameReader as "wait for more".
std::size_t check_header(std::span<const std::uint8_t> h, std::size_t max_payload) {
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
  if (len > max_payload) {
    throw WireError(WireErrc::kOversized, "payload length " + std::to_string(len) +
                                              " exceeds limit " +
                                              std::to_string(max_payload));
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
    case WireErrc::kBadFlags: return "bad_flags";
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
    case WireErrc::kBadFlags: return "bad flags";
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
  static telemetry::Counter& slice8_calls =
      telemetry::counter("dubhe_crc32_calls_total{tier=\"slice8\"}");
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
#if DUBHE_CRC32_PCLMUL
  // The enabled-set check is per call (one relaxed atomic load), so tests
  // and benches flipping tiers through core::cpu::set_enabled take effect
  // immediately instead of fighting a cached function pointer.
  if (n >= kPclmulMinBytes && pclmul_usable()) {
    static telemetry::Counter& pclmul_calls =
        telemetry::counter("dubhe_crc32_calls_total{tier=\"pclmul\"}");
    const std::size_t chunk = n & ~std::size_t{15};  // whole 16-byte blocks
    c = pclmul_update(c, p, chunk);
    p += chunk;
    n -= chunk;
    pclmul_calls.inc();
    return slice8_update(c, p, n) ^ 0xFFFFFFFFu;
  }
#endif
  slice8_calls.inc();
  return slice8_update(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_portable(std::span<const std::uint8_t> bytes) {
  return slice8_update(0xFFFFFFFFu, bytes.data(), bytes.size()) ^ 0xFFFFFFFFu;
}

const char* crc32_backend_name() { return pclmul_usable() ? "pclmul" : "slice8"; }

std::vector<std::uint8_t> encode_frame(const Frame& frame, std::size_t max_payload) {
  const auto header = encode_frame_header(frame.type, frame.payload, frame.seq, max_payload);
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

std::array<std::uint8_t, kFrameHeaderBytes> encode_frame_header(
    MsgType type, std::span<const std::uint8_t> payload, std::uint16_t seq,
    std::size_t max_payload) {
  if (!is_valid(type)) {
    throw WireError(WireErrc::kBadType, "refusing to encode an unknown message type");
  }
  if (payload.size() > max_payload || payload.size() > std::size_t{0xFFFFFFFF}) {
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

Frame decode_frame(std::span<const std::uint8_t> bytes, std::size_t max_payload) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw WireError(WireErrc::kShortBuffer,
                    std::to_string(bytes.size()) + " bytes is smaller than a header");
  }
  const std::size_t len = check_header(bytes.first(kFrameHeaderBytes), max_payload);
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
  const std::size_t len = check_header({h, kFrameHeaderBytes}, max_payload_);
  if (avail < kFrameHeaderBytes + len) return std::nullopt;
  // Slice the payload straight out of the buffer (the header was just
  // validated; re-running decode_frame would copy the payload twice on
  // every received frame — this is the transport hot path).
  pos_ += kFrameHeaderBytes + len;
  return checked_frame(h, len);
}

}  // namespace dubhe::net
