#include "net/codec.hpp"

#include <bit>
#include <cstring>

namespace dubhe::net {

namespace {

/// Minimal big-endian payload writer/reader. The reader throws
/// WireError{kBadPayload} on underflow, and parse functions call finish()
/// so trailing bytes are rejected — a payload either parses exactly or not
/// at all.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void u32_size(std::size_t v, const char* what) {
    if (v > std::size_t{0xFFFFFFFF}) {
      throw WireError(WireErrc::kBadPayload, std::string(what) + " exceeds u32");
    }
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> b) { out_.insert(out_.end(), b.begin(), b.end()); }
  std::vector<std::uint8_t> take() { return std::move(out_); }
  void reserve(std::size_t n) { out_.reserve(n); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = (static_cast<std::uint32_t>(bytes_[0]) << 24) |
                            (static_cast<std::uint32_t>(bytes_[1]) << 16) |
                            (static_cast<std::uint32_t>(bytes_[2]) << 8) |
                            static_cast<std::uint32_t>(bytes_[3]);
    bytes_ = bytes_.subspan(4);
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  std::span<const std::uint8_t> rest() {
    const auto r = bytes_;
    bytes_ = bytes_.subspan(bytes_.size());
    return r;
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    need(n);
    const auto r = bytes_.first(n);
    bytes_ = bytes_.subspan(n);
    return r;
  }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size(); }
  void finish() const {
    if (!bytes_.empty()) {
      throw WireError(WireErrc::kBadPayload,
                      std::to_string(bytes_.size()) + " trailing payload bytes");
    }
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() < n) {
      throw WireError(WireErrc::kBadPayload, "payload underflow");
    }
  }
  std::span<const std::uint8_t> bytes_;
};

void check_type(const Frame& f, MsgType expected) {
  if (f.type != expected) {
    throw WireError(WireErrc::kBadPayload, "expected " + to_string(expected) +
                                               ", got " + to_string(f.type));
  }
}

/// Adapter: rethrow the paillier layer's std::invalid_argument as a typed
/// wire error, so transports surface one error family.
template <typename Fn>
auto as_payload_error(Fn&& fn) {
  try {
    return fn();
  } catch (const std::invalid_argument& e) {
    throw WireError(WireErrc::kBadPayload, e.what());
  }
}

}  // namespace

Frame make_client_hello(const ClientHello& m) {
  Writer w;
  w.u64(m.client_id);
  w.u32(m.protocol);
  return Frame{MsgType::kClientHello, w.take()};
}

ClientHello parse_client_hello(const Frame& f) {
  check_type(f, MsgType::kClientHello);
  Reader r(f.payload);
  ClientHello m;
  m.client_id = r.u64();
  m.protocol = r.u32();
  r.finish();
  return m;
}

Frame make_server_hello(const ServerHello& m) {
  Writer w;
  w.u64(m.session_seed);
  w.u32(m.num_clients);
  w.u32(m.cohort_index);
  return Frame{MsgType::kServerHello, w.take()};
}

ServerHello parse_server_hello(const Frame& f) {
  check_type(f, MsgType::kServerHello);
  Reader r(f.payload);
  ServerHello m;
  m.session_seed = r.u64();
  m.num_clients = r.u32();
  m.cohort_index = r.u32();
  r.finish();
  return m;
}

Frame make_key_material(const KeyMaterial& m) {
  const auto pub = he::serialize(m.pub);
  const auto prv = he::serialize(m.prv);
  Writer w;
  w.reserve(pub.size() + prv.size());
  w.bytes(pub);
  w.bytes(prv);
  return Frame{MsgType::kKeyMaterial, w.take()};
}

KeyMaterial parse_key_material(const Frame& f) {
  check_type(f, MsgType::kKeyMaterial);
  return as_payload_error([&] {
    std::span<const std::uint8_t> bytes = f.payload;
    KeyMaterial m;
    m.pub = he::deserialize_public_key_prefix(bytes);
    m.prv = he::deserialize_private_key_prefix(bytes);
    if (!bytes.empty()) {
      throw std::invalid_argument("key material: trailing bytes");
    }
    if (!(m.prv.public_key() == m.pub)) {
      throw std::invalid_argument("key material: p*q does not match n");
    }
    return m;
  });
}

Frame make_seed_request(MsgType type, const SeedRequest& m) {
  if (type != MsgType::kRegistrationRequest && type != MsgType::kDistributionRequest) {
    throw WireError(WireErrc::kBadType, "seed request must be a request type");
  }
  Writer w;
  w.u64(m.seed);
  w.u32(m.tag);
  return Frame{type, w.take()};
}

SeedRequest parse_seed_request(const Frame& f, MsgType expected) {
  check_type(f, expected);
  Reader r(f.payload);
  SeedRequest m;
  m.seed = r.u64();
  m.tag = r.u32();
  r.finish();
  return m;
}

Frame make_round_begin(const RoundBegin& m) {
  Writer w;
  w.u64(m.round);
  return Frame{MsgType::kRoundBegin, w.take()};
}

RoundBegin parse_round_begin(const Frame& f) {
  check_type(f, MsgType::kRoundBegin);
  Reader r(f.payload);
  RoundBegin m;
  m.round = r.u64();
  r.finish();
  return m;
}

Frame make_participation(const Participation& m) {
  for (const std::uint8_t d : m.draws) {
    if (d > 1) throw WireError(WireErrc::kBadPayload, "participation draw not a bit");
  }
  Writer w;
  w.reserve(20 + m.draws.size());
  w.u64(m.client_id);
  w.u64(m.round);
  w.u32_size(m.draws.size(), "draw count");
  w.bytes(m.draws);
  return Frame{MsgType::kParticipation, w.take()};
}

Participation parse_participation(const Frame& f) {
  check_type(f, MsgType::kParticipation);
  Reader r(f.payload);
  Participation m;
  m.client_id = r.u64();
  m.round = r.u64();
  const std::size_t count = r.u32();
  if (count != r.remaining()) {
    throw WireError(WireErrc::kBadPayload, "participation draw count mismatch");
  }
  const auto bits = r.take(count);
  m.draws.assign(bits.begin(), bits.end());
  for (const std::uint8_t d : m.draws) {
    if (d > 1) {
      throw WireError(WireErrc::kBadPayload, "participation draw not a bit");
    }
  }
  r.finish();
  return m;
}

Frame make_encrypted_vector(MsgType type, const he::PackedEncryptedVector& v) {
  return Frame{type, he::serialize(v)};
}

he::PackedEncryptedVector parse_packed_encrypted_vector(const Frame& f, MsgType expected) {
  check_type(f, expected);
  return as_payload_error(
      [&] { return he::deserialize_packed_encrypted_vector(f.payload); });
}

Frame make_weights(MsgType type, const WeightsMsg& m) {
  if (type != MsgType::kModelDown && type != MsgType::kModelUpdate) {
    throw WireError(WireErrc::kBadType, "weights must be a model message");
  }
  Writer w;
  w.reserve(12 + 4 * m.weights.size());
  w.u64(m.seed);
  w.u32_size(m.weights.size(), "weight count");
  for (const float x : m.weights) w.u32(std::bit_cast<std::uint32_t>(x));
  return Frame{type, w.take()};
}

WeightsMsg parse_weights(const Frame& f, MsgType expected) {
  check_type(f, expected);
  Reader r(f.payload);
  WeightsMsg m;
  m.seed = r.u64();
  const std::size_t count = r.u32();
  if (count * 4 != r.remaining()) {
    throw WireError(WireErrc::kBadPayload, "weight count mismatch");
  }
  m.weights.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    m.weights.push_back(std::bit_cast<float>(r.u32()));
  }
  r.finish();
  return m;
}

namespace {

/// Shared validation of a sparse update's fixed header fields; returns the
/// plaintext-value byte width. `k` is the encrypted coordinate count.
std::size_t check_sparse_header(std::size_t n, std::size_t k, std::uint8_t quant_bits) {
  if (n == 0) {
    throw WireError(WireErrc::kBadPayload, "sparse update: empty update");
  }
  if (k == 0 || k > n) {
    throw WireError(WireErrc::kBadPayload,
                    "sparse update: encrypted count " + std::to_string(k) +
                        " outside [1, " + std::to_string(n) + "]");
  }
  if (quant_bits < 2 || quant_bits > 32) {
    throw WireError(WireErrc::kBadPayload, "sparse update: quant_bits " +
                                               std::to_string(quant_bits) +
                                               " outside [2, 32]");
  }
  return (static_cast<std::size_t>(quant_bits) + 7) / 8;
}

/// Validates a sparse update's index bitmap against its header: exact
/// length, popcount == k, and no bits set at indices >= n (a non-canonical
/// encoding would otherwise let two distinct byte strings mean the same
/// update).
void check_sparse_bitmap(std::span<const std::uint8_t> bitmap, std::size_t n,
                         std::size_t k) {
  if (bitmap.size() != (n + 7) / 8) {
    throw WireError(WireErrc::kBadPayload, "sparse update: bitmap length mismatch");
  }
  std::size_t ones = 0;
  for (const std::uint8_t b : bitmap) ones += static_cast<std::size_t>(std::popcount(b));
  if (ones != k) {
    throw WireError(WireErrc::kBadPayload,
                    "sparse update: bitmap popcount " + std::to_string(ones) +
                        " does not match encrypted count " + std::to_string(k));
  }
  if (n % 8 != 0) {
    const std::uint8_t tail_mask =
        static_cast<std::uint8_t>(0xFFu << (n % 8));  // bits >= n in the last byte
    if ((bitmap.back() & tail_mask) != 0) {
      throw WireError(WireErrc::kBadPayload,
                      "sparse update: bitmap bit set past the last coordinate");
    }
  }
}

}  // namespace

Frame make_model_update_sparse(const ModelUpdateSparse& m) {
  const std::size_t n = m.total_count;
  const std::size_t k = m.encrypted.logical_size();
  const std::size_t width = check_sparse_header(n, k, m.quant_bits);
  check_sparse_bitmap(m.bitmap, n, k);
  if (m.plain_values.size() != n - k) {
    throw WireError(WireErrc::kBadPayload, "sparse update: plaintext count mismatch");
  }
  const std::uint64_t cap = std::uint64_t{1} << m.quant_bits;
  for (const std::uint64_t v : m.plain_values) {
    if (v >= cap) {
      throw WireError(WireErrc::kBadPayload, "sparse update: plaintext value overflows " +
                                                 std::to_string(m.quant_bits) + " bits");
    }
  }
  const auto packed = he::serialize(m.encrypted);
  Writer w;
  w.reserve(17 + m.bitmap.size() + width * m.plain_values.size() + packed.size());
  w.u64(m.client_id);
  w.u32(m.total_count);
  w.u32_size(k, "encrypted count");
  w.u8(m.quant_bits);
  w.bytes(m.bitmap);
  for (const std::uint64_t v : m.plain_values) {
    for (std::size_t b = width; b-- > 0;) {
      w.u8(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
  w.bytes(packed);
  return Frame{MsgType::kModelUpdateSparse, w.take()};
}

ModelUpdateSparse parse_model_update_sparse(const Frame& f) {
  check_type(f, MsgType::kModelUpdateSparse);
  Reader r(f.payload);
  ModelUpdateSparse m;
  m.client_id = r.u64();
  m.total_count = r.u32();
  const std::size_t k = r.u32();
  const auto qb = static_cast<std::uint8_t>(r.take(1)[0]);
  m.quant_bits = qb;
  const std::size_t n = m.total_count;
  const std::size_t width = check_sparse_header(n, k, qb);
  const auto bitmap = r.take((n + 7) / 8);
  check_sparse_bitmap(bitmap, n, k);
  m.bitmap.assign(bitmap.begin(), bitmap.end());
  m.plain_values.reserve(n - k);
  const std::uint64_t cap = std::uint64_t{1} << qb;
  for (std::size_t i = 0; i < n - k; ++i) {
    const auto raw = r.take(width);
    std::uint64_t v = 0;
    for (const std::uint8_t byte : raw) v = (v << 8) | byte;
    if (v >= cap) {
      throw WireError(WireErrc::kBadPayload,
                      "sparse update: plaintext value overflows quant_bits");
    }
    m.plain_values.push_back(v);
  }
  m.encrypted = as_payload_error(
      [&] { return he::deserialize_packed_encrypted_vector(r.rest()); });
  if (m.encrypted.logical_size() != k) {
    throw WireError(WireErrc::kBadPayload,
                    "sparse update: packed vector logical size " +
                        std::to_string(m.encrypted.logical_size()) +
                        " does not match encrypted count " + std::to_string(k));
  }
  r.finish();
  return m;
}

Frame make_shutdown() { return Frame{MsgType::kShutdown, {}}; }

namespace {

/// Quarantine-record list section shared by every shard-plane partial:
/// u32 count, then per record u64 client_id, u64 round, u8 phase, u8
/// reason. Phase/reason bytes outside their enum ranges are rejected — a
/// record that parses is safe to splice into the root transcript verbatim.
void write_quarantine_list(Writer& w, std::span<const QuarantineRecord> records) {
  w.u32_size(records.size(), "quarantine record count");
  for (const QuarantineRecord& q : records) {
    w.u64(q.client_id);
    w.u64(q.round);
    w.u8(static_cast<std::uint8_t>(q.phase));
    w.u8(static_cast<std::uint8_t>(q.reason));
  }
}

std::vector<QuarantineRecord> read_quarantine_list(Reader& r) {
  const std::size_t count = r.u32();
  if (count * 18 > r.remaining()) {
    throw WireError(WireErrc::kBadPayload, "quarantine record count mismatch");
  }
  std::vector<QuarantineRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    QuarantineRecord q;
    q.client_id = r.u64();
    q.round = r.u64();
    const auto phase = r.take(1)[0];
    const auto reason = r.take(1)[0];
    if (phase < static_cast<std::uint8_t>(SessionPhase::kHello) ||
        phase > static_cast<std::uint8_t>(SessionPhase::kShutdown)) {
      throw WireError(WireErrc::kBadPayload, "quarantine record: bad phase byte");
    }
    if (reason < static_cast<std::uint8_t>(QuarantineReason::kTimeout) ||
        reason > static_cast<std::uint8_t>(QuarantineReason::kReplay)) {
      throw WireError(WireErrc::kBadPayload, "quarantine record: bad reason byte");
    }
    q.phase = static_cast<SessionPhase>(phase);
    q.reason = static_cast<QuarantineReason>(reason);
    records.push_back(q);
  }
  return records;
}

/// The partial-sum section that ends a partial payload: the packed 'K'
/// vector iff contributors > 0 (one canonical encoding per partial).
void write_partial_sum(Writer& w, std::uint32_t contributors,
                       const he::PackedEncryptedVector& ct) {
  if ((contributors == 0) != (ct.ciphertext_count() == 0)) {
    throw WireError(WireErrc::kBadPayload,
                    "partial sum: contributor count and ciphertext disagree");
  }
  if (contributors > 0) w.bytes(he::serialize(ct));
}

he::PackedEncryptedVector read_partial_sum(Reader& r, std::uint32_t contributors) {
  const auto ct = r.rest();
  if ((contributors == 0) != ct.empty()) {
    throw WireError(WireErrc::kBadPayload,
                    "partial sum: contributor count and ciphertext disagree");
  }
  if (ct.empty()) return {};
  return as_payload_error([&] { return he::deserialize_packed_encrypted_vector(ct); });
}

}  // namespace

Frame make_shard_hello(const ShardHello& m) {
  Writer w;
  w.u32(m.shard_id);
  w.u32(m.num_shards);
  w.u64(m.first_client);
  w.u64(m.num_clients);
  w.u64(m.total_clients);
  w.u32(m.protocol);
  return Frame{MsgType::kShardHello, w.take()};
}

ShardHello parse_shard_hello(const Frame& f) {
  check_type(f, MsgType::kShardHello);
  Reader r(f.payload);
  ShardHello m;
  m.shard_id = r.u32();
  m.num_shards = r.u32();
  m.first_client = r.u64();
  m.num_clients = r.u64();
  m.total_clients = r.u64();
  m.protocol = r.u32();
  r.finish();
  if (m.num_shards == 0 || m.shard_id >= m.num_shards) {
    throw WireError(WireErrc::kBadPayload, "shard hello: shard id outside shard count");
  }
  if (m.num_clients > m.total_clients ||
      m.first_client > m.total_clients - m.num_clients) {
    throw WireError(WireErrc::kBadPayload, "shard hello: client range outside cohort");
  }
  return m;
}

Frame make_shard_round_begin(const ShardRoundBegin& m) {
  Writer w;
  w.u64(m.round);
  return Frame{MsgType::kShardRoundBegin, w.take()};
}

ShardRoundBegin parse_shard_round_begin(const Frame& f) {
  check_type(f, MsgType::kShardRoundBegin);
  Reader r(f.payload);
  ShardRoundBegin m;
  m.round = r.u64();
  r.finish();
  return m;
}

Frame make_partial_registry(const PartialRegistry& m) {
  Writer w;
  w.u32(m.shard_id);
  w.u32(m.contributors);
  write_quarantine_list(w, m.quarantined);
  write_partial_sum(w, m.contributors, m.ciphertext);
  return Frame{MsgType::kPartialRegistry, w.take()};
}

PartialRegistry parse_partial_registry(const Frame& f) {
  check_type(f, MsgType::kPartialRegistry);
  Reader r(f.payload);
  PartialRegistry m;
  m.shard_id = r.u32();
  m.contributors = r.u32();
  m.quarantined = read_quarantine_list(r);
  m.ciphertext = read_partial_sum(r, m.contributors);
  return m;
}

Frame make_partial_participation(const PartialParticipation& m) {
  Writer w;
  w.u32(m.shard_id);
  w.u64(m.round);
  write_quarantine_list(w, m.quarantined);
  w.u32_size(m.entries.size(), "participation entry count");
  for (const Participation& e : m.entries) {
    for (const std::uint8_t d : e.draws) {
      if (d > 1) throw WireError(WireErrc::kBadPayload, "participation draw not a bit");
    }
    w.u64(e.client_id);
    w.u32_size(e.draws.size(), "draw count");
    w.bytes(e.draws);
  }
  return Frame{MsgType::kPartialParticipation, w.take()};
}

PartialParticipation parse_partial_participation(const Frame& f) {
  check_type(f, MsgType::kPartialParticipation);
  Reader r(f.payload);
  PartialParticipation m;
  m.shard_id = r.u32();
  m.round = r.u64();
  m.quarantined = read_quarantine_list(r);
  const std::size_t count = r.u32();
  // Every entry is at least a u64 id and a u32 draw count.
  if (count * 12 > r.remaining()) {
    throw WireError(WireErrc::kBadPayload, "partial participation: entry count mismatch");
  }
  m.entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Participation e;
    e.client_id = r.u64();
    e.round = m.round;
    const std::size_t draws = r.u32();
    if (draws > r.remaining()) {
      throw WireError(WireErrc::kBadPayload, "partial participation: draw count mismatch");
    }
    const auto bits = r.take(draws);
    e.draws.assign(bits.begin(), bits.end());
    for (const std::uint8_t d : e.draws) {
      if (d > 1) {
        throw WireError(WireErrc::kBadPayload, "participation draw not a bit");
      }
    }
    // Strictly ascending ids: one canonical encoding per set of survivors,
    // and no client can appear (and be counted) twice.
    if (i > 0 && e.client_id <= m.entries.back().client_id) {
      throw WireError(WireErrc::kBadPayload,
                      "partial participation: entries not strictly ascending");
    }
    m.entries.push_back(std::move(e));
  }
  r.finish();
  if (m.round == QuarantineRecord::kSetupRound && !m.entries.empty()) {
    throw WireError(WireErrc::kBadPayload, "drain report carries participation entries");
  }
  return m;
}

Frame make_shard_try_begin(const ShardTryBegin& m) {
  Writer w;
  w.reserve(16 + 8 * m.selected.size());
  w.u64(m.round);
  w.u32(m.try_index);
  w.u32_size(m.selected.size(), "selected count");
  for (const std::uint64_t id : m.selected) w.u64(id);
  return Frame{MsgType::kShardTryBegin, w.take()};
}

ShardTryBegin parse_shard_try_begin(const Frame& f) {
  check_type(f, MsgType::kShardTryBegin);
  Reader r(f.payload);
  ShardTryBegin m;
  m.round = r.u64();
  m.try_index = r.u32();
  const std::size_t count = r.u32();
  if (count * 8 != r.remaining()) {
    throw WireError(WireErrc::kBadPayload, "shard try begin: selected count mismatch");
  }
  m.selected.reserve(count);
  for (std::size_t i = 0; i < count; ++i) m.selected.push_back(r.u64());
  r.finish();
  return m;
}

Frame make_partial_population(const PartialPopulation& m) {
  Writer w;
  w.u32(m.shard_id);
  w.u64(m.round);
  w.u32(m.try_index);
  w.u32(m.contributors);
  w.u8(m.failed ? 1 : 0);
  write_quarantine_list(w, m.quarantined);
  write_partial_sum(w, m.contributors, m.ciphertext);
  return Frame{MsgType::kPartialPopulation, w.take()};
}

PartialPopulation parse_partial_population(const Frame& f) {
  check_type(f, MsgType::kPartialPopulation);
  Reader r(f.payload);
  PartialPopulation m;
  m.shard_id = r.u32();
  m.round = r.u64();
  m.try_index = r.u32();
  m.contributors = r.u32();
  const auto failed = r.take(1)[0];
  if (failed > 1) {
    throw WireError(WireErrc::kBadPayload, "partial population: failed flag not a bit");
  }
  m.failed = failed == 1;
  m.quarantined = read_quarantine_list(r);
  m.ciphertext = read_partial_sum(r, m.contributors);
  return m;
}

Frame make_shard_update_begin(const ShardUpdateBegin& m) {
  Writer w;
  w.reserve(16 + 8 * m.recipients.size() + 4 * m.weights.size());
  w.u64(m.round);
  w.u32_size(m.recipients.size(), "recipient count");
  for (const std::uint64_t id : m.recipients) w.u64(id);
  w.u32_size(m.weights.size(), "weight count");
  for (const float x : m.weights) w.u32(std::bit_cast<std::uint32_t>(x));
  return Frame{MsgType::kShardUpdateBegin, w.take()};
}

ShardUpdateBegin parse_shard_update_begin(const Frame& f) {
  check_type(f, MsgType::kShardUpdateBegin);
  Reader r(f.payload);
  ShardUpdateBegin m;
  m.round = r.u64();
  const std::size_t rcount = r.u32();
  if (rcount * 8 > r.remaining()) {
    throw WireError(WireErrc::kBadPayload, "shard update begin: recipient count mismatch");
  }
  m.recipients.reserve(rcount);
  for (std::size_t i = 0; i < rcount; ++i) m.recipients.push_back(r.u64());
  const std::size_t wcount = r.u32();
  if (wcount * 4 != r.remaining()) {
    throw WireError(WireErrc::kBadPayload, "shard update begin: weight count mismatch");
  }
  m.weights.reserve(wcount);
  for (std::size_t i = 0; i < wcount; ++i) {
    m.weights.push_back(std::bit_cast<float>(r.u32()));
  }
  r.finish();
  return m;
}

Frame make_partial_update(const PartialUpdate& m) {
  if (m.mode > 1) {
    throw WireError(WireErrc::kBadPayload, "partial update: unknown mode");
  }
  Writer w;
  w.u32(m.shard_id);
  w.u64(m.round);
  w.u8(m.mode);
  write_quarantine_list(w, m.quarantined);
  if (m.mode == 0) {
    w.u32_size(m.updates.size(), "update entry count");
    for (const ShardUpdateEntry& e : m.updates) {
      w.u64(e.client_id);
      w.u32_size(e.weights.size(), "weight count");
      for (const float x : e.weights) w.u32(std::bit_cast<std::uint32_t>(x));
    }
  } else {
    if (m.contributors == 0 && !m.plain_sums.empty()) {
      throw WireError(WireErrc::kBadPayload,
                      "partial update: plain sums without contributors");
    }
    w.u32(m.contributors);
    w.u32_size(m.plain_sums.size(), "plain sum count");
    for (const std::uint64_t v : m.plain_sums) w.u64(v);
    write_partial_sum(w, m.contributors, m.ciphertext);
  }
  return Frame{MsgType::kPartialUpdate, w.take()};
}

PartialUpdate parse_partial_update(const Frame& f) {
  check_type(f, MsgType::kPartialUpdate);
  Reader r(f.payload);
  PartialUpdate m;
  m.shard_id = r.u32();
  m.round = r.u64();
  m.mode = r.take(1)[0];
  if (m.mode > 1) {
    throw WireError(WireErrc::kBadPayload, "partial update: unknown mode");
  }
  m.quarantined = read_quarantine_list(r);
  if (m.mode == 0) {
    const std::size_t count = r.u32();
    // Every entry is at least a u64 id and a u32 weight count.
    if (count * 12 > r.remaining()) {
      throw WireError(WireErrc::kBadPayload, "partial update: entry count mismatch");
    }
    m.updates.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      ShardUpdateEntry e;
      e.client_id = r.u64();
      // Entries ride in the shard's recipient order, which is a subsequence
      // of the global selection order — not necessarily ascending — so only
      // duplicates are rejected (same id twice would double-count a client
      // in the FedAvg reassembly).
      for (const ShardUpdateEntry& seen : m.updates) {
        if (seen.client_id == e.client_id) {
          throw WireError(WireErrc::kBadPayload, "partial update: duplicate client id");
        }
      }
      const std::size_t wcount = r.u32();
      if (wcount * 4 > r.remaining()) {
        throw WireError(WireErrc::kBadPayload, "partial update: weight count mismatch");
      }
      e.weights.reserve(wcount);
      for (std::size_t j = 0; j < wcount; ++j) {
        e.weights.push_back(std::bit_cast<float>(r.u32()));
      }
      m.updates.push_back(std::move(e));
    }
    r.finish();
  } else {
    m.contributors = r.u32();
    const std::size_t pcount = r.u32();
    if (pcount * 8 > r.remaining()) {
      throw WireError(WireErrc::kBadPayload, "partial update: plain sum count mismatch");
    }
    m.plain_sums.reserve(pcount);
    for (std::size_t i = 0; i < pcount; ++i) m.plain_sums.push_back(r.u64());
    m.ciphertext = read_partial_sum(r, m.contributors);
    if (m.contributors == 0 && !m.plain_sums.empty()) {
      throw WireError(WireErrc::kBadPayload,
                      "partial update: plain sums without contributors");
    }
  }
  return m;
}

namespace {

/// Bounds-checked big-endian u32 peek used by encrypted_payload_bytes.
bool peek_u32(std::span<const std::uint8_t> p, std::size_t off, std::uint64_t& out) {
  if (p.size() < off + 4) return false;
  out = (static_cast<std::uint64_t>(p[off]) << 24) |
        (static_cast<std::uint64_t>(p[off + 1]) << 16) |
        (static_cast<std::uint64_t>(p[off + 2]) << 8) |
        static_cast<std::uint64_t>(p[off + 3]);
  return true;
}

/// Ciphertext bytes of a packed encrypted-vector payload: total minus the
/// 'K' header (tag, u32 logical, u32 slot_bits, u32 slots_per_pt, u32
/// ct_count), the embedded public key ('P' + u32 length + magnitude), and
/// the per-ciphertext u32 length prefixes. 0 on any malformation.
std::uint64_t encrypted_vector_payload_bytes(std::span<const std::uint8_t> p) {
  if (p.empty() || p[0] != 'K') return 0;
  const std::size_t count_off = 13;
  const std::size_t pk_off = count_off + 4;
  std::uint64_t count = 0;
  std::uint64_t n_len = 0;
  if (!peek_u32(p, count_off, count)) return 0;
  if (p.size() < pk_off + 5 || p[pk_off] != 'P') return 0;
  if (!peek_u32(p, pk_off + 1, n_len)) return 0;
  const std::uint64_t header = pk_off + 5 + n_len + 4 * count;
  if (p.size() < header) return 0;
  return p.size() - header;
}

}  // namespace

std::size_t encrypted_payload_bytes(const Frame& f) {
  switch (f.type) {
    case MsgType::kRegistryUpload:
    case MsgType::kRegistryBroadcast:
    case MsgType::kDistributionUpload:
      return static_cast<std::size_t>(encrypted_vector_payload_bytes(f.payload));
    case MsgType::kModelUpdateSparse: {
      // Skip the fixed header, bitmap, and plaintext section; what is left
      // is the embedded 'K' packed vector.
      const std::span<const std::uint8_t> p = f.payload;
      std::uint64_t n = 0;
      std::uint64_t k = 0;
      if (!peek_u32(p, 8, n) || !peek_u32(p, 12, k) || p.size() < 17 || k > n) return 0;
      const std::uint64_t width = (static_cast<std::uint64_t>(p[16]) + 7) / 8;
      const std::uint64_t prefix = 17 + (n + 7) / 8 + (n - k) * width;
      if (p.size() <= prefix) return 0;
      return static_cast<std::size_t>(
          encrypted_vector_payload_bytes(p.subspan(static_cast<std::size_t>(prefix))));
    }
    case MsgType::kPartialRegistry: {
      // shard_id, contributors, quarantine list, then the 'K' vector.
      const std::span<const std::uint8_t> p = f.payload;
      std::uint64_t qcount = 0;
      if (!peek_u32(p, 8, qcount)) return 0;
      const std::uint64_t off = 12 + 18 * qcount;
      if (p.size() <= off) return 0;
      return static_cast<std::size_t>(
          encrypted_vector_payload_bytes(p.subspan(static_cast<std::size_t>(off))));
    }
    case MsgType::kPartialPopulation: {
      // shard_id, round, try_index, contributors, failed byte, quarantine
      // list, then the 'K' vector.
      const std::span<const std::uint8_t> p = f.payload;
      std::uint64_t qcount = 0;
      if (!peek_u32(p, 21, qcount)) return 0;
      const std::uint64_t off = 25 + 18 * qcount;
      if (p.size() <= off) return 0;
      return static_cast<std::size_t>(
          encrypted_vector_payload_bytes(p.subspan(static_cast<std::size_t>(off))));
    }
    case MsgType::kPartialUpdate: {
      // Only mode 1 (partial sums) carries ciphertext: shard_id, round,
      // mode byte, quarantine list, contributors, plain sums, 'K' vector.
      const std::span<const std::uint8_t> p = f.payload;
      if (p.size() < 13 || p[12] != 1) return 0;
      std::uint64_t qcount = 0;
      std::uint64_t pcount = 0;
      if (!peek_u32(p, 13, qcount)) return 0;
      if (!peek_u32(p, 21 + 18 * qcount, pcount)) return 0;
      const std::uint64_t off = 25 + 18 * qcount + 8 * pcount;
      if (p.size() <= off) return 0;
      return static_cast<std::size_t>(
          encrypted_vector_payload_bytes(p.subspan(static_cast<std::size_t>(off))));
    }
    default:
      // kKeyMaterial ships key material, not ciphertext; everything else is
      // control-plane or plaintext weights.
      return 0;
  }
}

fl::MessageKind account_kind(MsgType type) {
  switch (type) {
    case MsgType::kKeyMaterial: return fl::MessageKind::kKeyMaterial;
    case MsgType::kRegistryUpload:
    case MsgType::kRegistryBroadcast: return fl::MessageKind::kRegistry;
    case MsgType::kDistributionUpload: return fl::MessageKind::kDistribution;
    case MsgType::kModelDown:
    case MsgType::kModelUpdate:
    case MsgType::kModelUpdateSparse: return fl::MessageKind::kModelWeights;
    // Shard plane: partial sums account under the phase they aggregate, so
    // flat and tree deployments are comparable row by row.
    case MsgType::kPartialRegistry: return fl::MessageKind::kRegistry;
    case MsgType::kPartialPopulation: return fl::MessageKind::kDistribution;
    case MsgType::kShardUpdateBegin:
    case MsgType::kPartialUpdate: return fl::MessageKind::kModelWeights;
    default: return fl::MessageKind::kControl;
  }
}

}  // namespace dubhe::net
