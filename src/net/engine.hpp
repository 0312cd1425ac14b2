#pragma once

/// The aggregator engine: the one implementation of the aggregator side of
/// the session protocol, shared by all three aggregator roles.
///
/// The engine runs every phase — hello/bind, registration (sum, broadcast,
/// agent decrypt), per-round participation, the §5.3 determination with
/// restart on failure, the model update, drain and the canonical quarantine
/// sort — over a list of *children*. A child owns a contiguous slice of the
/// cohort and answers each phase with a validated partial: the shard-plane
/// structs of net/codec.hpp (PartialRegistry, PartialParticipation,
/// PartialPopulation, PartialUpdate), each carrying its quarantine records.
///
///   flat server        engine over one CohortChild covering [0, N)
///   tree root          engine over A RemoteShard children (net/shard.cpp)
///   shard aggregator   serve_shard: answers each root frame through its
///                      own CohortChild and encodes the partial upward
///
/// Internal to the net layer — nothing here is part of the public session
/// API in net/node.hpp and net/shard.hpp.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/multitime.hpp"
#include "core/secure.hpp"
#include "core/telemetry.hpp"
#include "net/codec.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "net/transport.hpp"
#include "stats/rng.hpp"

namespace dubhe::net::detail {

constexpr std::uint64_t kUnknown = QuarantineRecord::kUnknownClient;
constexpr std::uint64_t kSetup = QuarantineRecord::kSetupRound;

/// Wire-parsed ciphertexts are untrusted. Decoding under the session key
/// (net/codec.hpp) puts every one in that key's Z_{n^2}; before a vector
/// joins a homomorphic sum it must also have the expected shape and
/// packing geometry, otherwise a misbehaving client could silently corrupt
/// the aggregate. Clients apply the same check to the registry broadcast,
/// and the engine to every child's partial sum. Throws
/// WireError{kBadPayload}.
void check_encrypted(const he::PackedEncryptedVector& v, std::size_t want_logical,
                     const he::PackedCodec& want_codec);

/// Per-phase wall-clock histograms. Telemetry is strictly out-of-band:
/// nothing here touches the RNG streams, payloads, or control flow, so
/// transcripts stay byte-identical with telemetry on or off. (The registry
/// is keyed by series name, so every role lands in the same histograms.)
telemetry::Histogram& phase_hist(SessionPhase phase);

/// Geometry of one round's selectively encrypted updates (wire v3,
/// kModelUpdateSparse), derived identically on every endpoint from data
/// they already share: the global weights broadcast in kModelDown, the
/// session's SecureConfig, and the cohort size N. Zero mask bytes cross
/// the wire, all clients' packed ciphertext slots line up for homomorphic
/// addition, and the aggregator can reject an upload whose bitmap
/// disagrees.
struct SparseUpdatePlan {
  std::size_t n = 0;                     // total coordinates
  std::size_t k = 0;                     // encrypted coordinates
  std::vector<std::uint32_t> mask;       // encrypted indices, ascending
  std::vector<std::uint32_t> plain_idx;  // the complement, ascending
  std::vector<std::uint8_t> bitmap;
  he::PackedCodec codec{1, 1};
};

SparseUpdatePlan sparse_plan(std::span<const float> global, const core::SecureConfig& sc,
                             std::size_t num_clients);

/// Both execution modes run the §5.3.1 determination through the single
/// authoritative core::multi_time_select loop (only the selection and
/// aggregation steps differ); this just copies its outcome into the record.
void fill_from_outcome(RoundRecord& r, core::MultiTimeOutcome&& mt);

/// Server half of one tentative try: the volunteered bits of the clients
/// in `ids` for try h, resolved to exactly K with the replenish stream, as
/// client ids. Both execution modes call this one helper — the
/// byte-identical-transcript contract depends on them consuming the stream
/// identically.
std::vector<std::size_t> resolve_try(const std::vector<std::vector<std::uint8_t>>& draws,
                                     std::span<const std::size_t> ids, std::size_t h,
                                     std::size_t K, stats::Rng& rng);

/// Rejects K == 0, K > N, zero rounds, and packed slots too narrow for the
/// session's homomorphic sums (core::require_slot_capacity). Every session
/// entry point calls it before its first frame.
void check_session_params(const SessionParams& params, std::size_t N);

/// The update phase as a child sees it: its recipients (global selection
/// order) and the global weights to train from, held by reference so the
/// flat server sends its model without an extra copy. `plan` is the
/// round's sparse plan when the poster already derived it (mode 1); a
/// child that needs one and gets nullptr derives it from `weights`.
struct UpdateRequest {
  std::uint64_t round = 0;
  std::vector<std::uint64_t> recipients;
  std::span<const float> weights;
  const SparseUpdatePlan* plan = nullptr;
};

/// One child of the engine: a slice of the cohort that answers every phase
/// with a validated partial. Each phase is split in two so the engine can
/// fan a request out to all of its children before it waits on any of
/// them: post() hands the request down, the matching take_*() returns the
/// partial that answers it. Tries are the one request a child holds
/// several of at once: the engine posts all H tries of a determination
/// before it takes the first, and take_population() answers them oldest
/// first. Every other phase has one request in flight per child.
class Child {
 public:
  explicit Child(ShardRange range) : range_(range) {}
  virtual ~Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// The global client ids this child owns.
  [[nodiscard]] const ShardRange& range() const { return range_; }
  [[nodiscard]] bool owns(std::uint64_t client) const {
    return client >= range_.first && client - range_.first < range_.count;
  }

  virtual void post(const KeyMaterial& keys) = 0;        // -> take_registry
  virtual void post(const Frame& broadcast) = 0;         // -> take_participation (setup flush)
  virtual void post(const ShardRoundBegin& begin) = 0;   // -> take_participation
  virtual void post(const ShardTryBegin& begin) = 0;     // -> take_population
  virtual void post(const UpdateRequest& update) = 0;    // -> take_update
  virtual void post_shutdown() = 0;                      // -> take_participation (drain flush)

  virtual PartialRegistry take_registry() = 0;
  virtual PartialParticipation take_participation() = 0;
  virtual PartialPopulation take_population() = 0;
  virtual PartialUpdate take_update() = 0;

 private:
  ShardRange range_;
};

/// A child made of client links: the one implementation of every
/// per-client sweep. Any per-client failure — timeout, disconnect,
/// malformed frame, a replay its Link reports, an upload that does not
/// match the session — drops that client (typed record in global client
/// ids, link closed) instead of aborting the session. A try's post only
/// sends its requests and queues the try; take_population() runs the
/// receive sweep of the oldest queued try. Every other post runs the whole
/// sweep and the matching take hands back its partial. Either way the
/// frames every client sees (payload, per-link sequence number, send order)
/// are the same whether the engine or a root drives the sweep, and however
/// many tries are in flight.
class CohortChild final : public Child {
 public:
  /// The clients `range` of `total_clients`; `id` is the shard id the
  /// partials carry (0 when the cohort child is the flat server's only
  /// child).
  CohortChild(std::uint32_t id, ShardRange range, std::size_t total_clients,
              const SessionParams& params);

  /// The client-facing hello: binds each of the unbound `links` to the id
  /// its kClientHello announces, then answers every bound client with its
  /// kServerHello. A link without a valid hello (its first frame, so seq 0)
  /// has no id yet: it is closed and recorded under kUnknownClient.
  void hello(std::span<const std::shared_ptr<Transport>> links, std::uint64_t session_seed);

  void post(const KeyMaterial& keys) override;
  void post(const Frame& broadcast) override;
  void post(const ShardRoundBegin& begin) override;
  void post(const ShardTryBegin& begin) override;
  void post(const UpdateRequest& update) override;
  void post_shutdown() override;

  PartialRegistry take_registry() override { return std::move(registry_); }
  PartialParticipation take_participation() override { return std::move(participation_); }
  PartialPopulation take_population() override;
  PartialUpdate take_update() override { return std::move(update_); }

 private:
  [[nodiscard]] bool alive(std::size_t i) const { return links_[i].has_value(); }
  /// Local index of a client the driver named; a client this cohort does
  /// not own is the driver's bug, never churn.
  [[nodiscard]] std::size_t local(std::uint64_t client) const;
  void quarantine(std::size_t i, std::uint64_t round, SessionPhase phase,
                  QuarantineReason reason);
  /// Sends on the client's link; a dead channel quarantines the client
  /// (kDisconnect) and returns false.
  bool send(std::size_t i, Frame frame, std::uint64_t round, SessionPhase phase);
  /// One frame of the expected type under the phase deadline. Any failure
  /// quarantines and returns nullopt; a replayed frame is kReplay, never a
  /// silent duplicate.
  std::optional<Frame> recv(std::size_t i, MsgType want, std::chrono::milliseconds deadline,
                            std::uint64_t round, SessionPhase phase);
  /// recv() decoded as M: a frame that does not parse is kBadFrame.
  template <class M, class Key = NoKey>
  std::optional<M> recv_msg(std::size_t i, MsgType want, std::chrono::milliseconds deadline,
                            std::uint64_t round, SessionPhase phase, const Key& key = {});
  /// recv() of a packed-vector upload, validated against the session: a
  /// payload that is not a packed vector at all is kBadCiphertext, a packed
  /// vector that does not parse under the session key kBadFrame, one of the
  /// wrong shape kBadCiphertext.
  std::optional<he::PackedEncryptedVector> recv_upload(std::size_t i, MsgType want,
                                                       std::chrono::milliseconds deadline,
                                                       std::size_t logical,
                                                       std::uint64_t round,
                                                       SessionPhase phase);
  /// The zombie guard: reads the raw transport and discards until the peer
  /// closes or the drain deadline expires (a straggler's sequence number no
  /// longer matters).
  void drain(std::size_t i);
  /// The quarantine records since the previous partial.
  std::vector<QuarantineRecord> flush();

  std::vector<std::optional<Link>> links_;  // nullopt once quarantined
  std::uint32_t id_;
  std::size_t total_;
  const SessionParams& params_;
  he::PackedCodec packed_;
  std::uint64_t session_seed_ = 0;
  he::PublicKey key_;
  std::uint64_t round_ = kSetup;
  std::vector<QuarantineRecord> records_;
  std::size_t flushed_ = 0;
  PartialRegistry registry_;
  PartialParticipation participation_;
  /// A try whose requests went out and whose uploads are not read yet.
  struct PendingTry {
    std::uint64_t round;
    std::uint32_t try_index;
    std::vector<std::uint64_t> members;
    bool send_failed;  // a request could not be sent: the try fails
  };
  std::deque<PendingTry> tries_;
  PartialUpdate update_;
};

/// The role's hello: binds the engine's links into children sorted by
/// range and answers their hellos. Runs inside the engine's hello phase,
/// after keygen, so it can hand out the session seed.
using BindChildren =
    std::function<std::vector<std::unique_ptr<Child>>(std::uint64_t session_seed)>;

/// Drives one secure session over the children `bind` makes of `links`
/// (the engine's own links: client links for the flat server, shard links
/// for the root). Owns the session keypair and the agent role. A
/// session-local accountant sits on `links` for the duration — the
/// transcript's per-round ledgers — and is merged into `channel` at the
/// end. Throws TransportError when every client is gone or a child fails.
SessionTranscript run_engine(std::span<const std::shared_ptr<Transport>> links,
                             const BindChildren& bind,
                             const data::FederatedDataset& dataset,
                             const nn::Sequential& prototype, const SessionParams& params,
                             fl::ChannelAccountant* channel);

}  // namespace dubhe::net::detail
