#include "net/codec.hpp"

#include <tuple>

namespace dubhe::net {

using detail::bad_payload;

namespace {

/// Counts the ciphertext bytes of a payload's packed field without decoding
/// it: scalars land in a scratch message (later counts depend on them),
/// lists are skipped, only the 'K' header is read, and key material ends
/// the walk. Never throws; a payload its fields overrun walks to 0.
class Walker {
 public:
  explicit Walker(std::span<const std::uint8_t> bytes) : rest_(bytes) {}

  template <class... T>
  void operator()(T&... f) {
    (field(f), ...);
  }
  void fixed(const auto&, std::uint64_t count, std::size_t width) { skip(count, width); }
  template <class T, class Entry>
  void list(std::vector<T>&, const Entry& entry) {
    std::uint64_t count = 0;
    if (!get(4, count) || !fits(count, detail::min_entry_size<T>(entry))) return;
    for (std::uint64_t i = 0; i < count && ok_; ++i) {
      T e{};
      entry(*this, e);
    }
  }
  void implied(const auto&, const auto&) {}
  [[nodiscard]] std::size_t ciphertext() const { return ok_ ? ciphertext_ : 0; }

 private:
  bool fits(std::uint64_t count, std::size_t width) {
    ok_ = ok_ && width > 0 && count <= rest_.size() / width;
    return ok_;
  }
  bool get(std::size_t width, std::uint64_t& v) {
    if (!fits(1, width)) return false;
    v = 0;
    for (std::size_t i = 0; i < width; ++i) v = (v << 8) | rest_[i];
    rest_ = rest_.subspan(width);
    return true;
  }
  void skip(std::uint64_t count, std::size_t width) {
    if (fits(count, width)) rest_ = rest_.subspan(static_cast<std::size_t>(count * width));
  }

  template <WireScalar T>
  void field(T& x) {
    std::uint64_t bits = 0;
    if (get(sizeof(T), bits)) x = detail::from_bits<T>(bits);
  }
  template <class T>
  void field(std::vector<T>& l) {
    if constexpr (WireScalar<T>) {
      std::uint64_t count = 0;
      if (get(4, count)) skip(count, sizeof(T));  // no entry to look at
    } else {
      list(l, entry_fields<T>);
    }
  }
  void field(const he::PublicKey&) { ok_ = false; }
  void field(const he::PrivateKey&) { ok_ = false; }
  void field(const he::PackedEncryptedVector&) {
    if (ok_) ciphertext_ = he::packed_ciphertext_bytes(rest_);
    rest_ = {};
  }

  std::span<const std::uint8_t> rest_;
  std::size_t ciphertext_ = 0;
  bool ok_ = true;
};

/// Every payload of the schema, for dispatch on a frame's MsgType.
using Payloads = std::tuple<ClientHello, ServerHello, KeyMaterial, SeedRequest, RoundBegin,
                            Participation, he::PackedEncryptedVector, WeightsMsg,
                            ModelUpdateSparse, Shutdown, ShardHello, ShardRoundBegin,
                            PartialRegistry, PartialParticipation, ShardTryBegin,
                            PartialPopulation, ShardUpdateBegin, PartialUpdate>;

void check_draws(std::span<const std::uint8_t> draws) {
  for (const std::uint8_t d : draws) {
    if (d > 1) throw bad_payload("participation draw not a bit");
  }
}

/// Phase/reason bytes outside their enum ranges are rejected — a record
/// that decodes is safe to splice into the root transcript verbatim.
void check_records(std::span<const QuarantineRecord> records) {
  for (const QuarantineRecord& q : records) {
    if (q.phase < SessionPhase::kHello || q.phase > SessionPhase::kShutdown) {
      throw bad_payload("quarantine record: bad phase byte");
    }
    if (q.reason < QuarantineReason::kTimeout || q.reason > QuarantineReason::kReplay) {
      throw bad_payload("quarantine record: bad reason byte");
    }
  }
}

/// A partial's packed sum is present iff contributors > 0 (one canonical
/// encoding per partial).
void check_partial_sum(std::uint32_t contributors, const he::PackedEncryptedVector& ct) {
  if ((contributors == 0) != (ct.ciphertext_count() == 0)) {
    throw bad_payload("partial sum: contributor count and ciphertext disagree");
  }
}

}  // namespace

void KeyMaterial::validate() const {
  if (!(prv.public_key() == pub)) throw bad_payload("key material: p*q does not match n");
}

void Participation::validate() const { check_draws(draws); }

void ModelUpdateSparse::validate() const {
  const std::size_t n = total_count;
  const std::size_t k = encrypted.logical_size();
  if (n == 0) throw bad_payload("sparse update: empty update");
  if (k == 0 || k > n) {
    throw bad_payload("sparse update: encrypted count " + std::to_string(k) + " outside [1, " +
                      std::to_string(n) + "]");
  }
  if (quant_bits < 2 || quant_bits > 32) {
    throw bad_payload("sparse update: quant_bits " + std::to_string(quant_bits) +
                      " outside [2, 32]");
  }
  // The index bitmap: exact length, popcount == k, and no bits set at
  // indices >= n (a non-canonical encoding would otherwise let two
  // distinct byte strings mean the same update).
  if (bitmap.size() != (n + 7) / 8) throw bad_payload("sparse update: bitmap length mismatch");
  std::size_t ones = 0;
  for (const std::uint8_t b : bitmap) ones += static_cast<std::size_t>(std::popcount(b));
  if (ones != k) {
    throw bad_payload("sparse update: bitmap popcount " + std::to_string(ones) +
                      " does not match encrypted count " + std::to_string(k));
  }
  const auto tail_mask = static_cast<std::uint8_t>(0xFFu << (n % 8));  // bits >= n
  if (n % 8 != 0 && (bitmap.back() & tail_mask) != 0) {
    throw bad_payload("sparse update: bitmap bit set past the last coordinate");
  }
  if (plain_values.size() != n - k) {
    throw bad_payload("sparse update: plaintext count mismatch");
  }
  const std::uint64_t cap = std::uint64_t{1} << quant_bits;
  for (const std::uint64_t v : plain_values) {
    if (v >= cap) {
      throw bad_payload("sparse update: plaintext value overflows " +
                        std::to_string(quant_bits) + " bits");
    }
  }
}

void ShardHello::validate() const {
  if (num_shards == 0 || shard_id >= num_shards) {
    throw bad_payload("shard hello: shard id outside shard count");
  }
  if (num_clients > total_clients || first_client > total_clients - num_clients) {
    throw bad_payload("shard hello: client range outside cohort");
  }
}

void PartialRegistry::validate() const {
  check_records(quarantined);
  check_partial_sum(contributors, ciphertext);
}

void PartialParticipation::validate() const {
  check_records(quarantined);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    check_draws(entries[i].draws);
    // Strictly ascending ids: one canonical encoding per set of survivors,
    // and no client can appear (and be counted) twice.
    if (i > 0 && entries[i].client_id <= entries[i - 1].client_id) {
      throw bad_payload("partial participation: entries not strictly ascending");
    }
  }
  if (round == QuarantineRecord::kSetupRound && !entries.empty()) {
    throw bad_payload("drain report carries participation entries");
  }
}

void PartialPopulation::validate() const {
  check_records(quarantined);
  check_partial_sum(contributors, ciphertext);
}

void PartialUpdate::validate() const {
  check_records(quarantined);
  if (mode > 1) throw bad_payload("partial update: unknown mode");
  if (mode == 0) {
    // Entries ride in the shard's recipient order, which is a subsequence
    // of the global selection order — not necessarily ascending — so only
    // duplicates are rejected (same id twice would double-count a client
    // in the FedAvg reassembly). Sorting a copy keeps this O(n log n).
    std::vector<std::uint64_t> ids(updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) ids[i] = updates[i].client_id;
    std::ranges::sort(ids);
    if (std::ranges::adjacent_find(ids) != ids.end()) {
      throw bad_payload("partial update: duplicate client id");
    }
    return;
  }
  if (contributors == 0 && !plain_sums.empty()) {
    throw bad_payload("partial update: plain sums without contributors");
  }
  check_partial_sum(contributors, ciphertext);
}

std::size_t encrypted_payload_bytes(const Frame& f) {
  Walker w(f.payload);
  const auto walk = [&]<class M>(M scratch) { visit_fields(w, scratch); return true; };
  [&]<class... M>(std::tuple<M...>*) {
    (void)((detail::carries<M>(f.type) && walk(M{})) || ...);
  }(static_cast<Payloads*>(nullptr));
  return w.ciphertext();
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
