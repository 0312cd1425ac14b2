#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/secure.hpp"
#include "data/federated.hpp"
#include "fl/trainer.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "nn/sequential.hpp"

namespace dubhe::net {

/// Per-phase receive deadlines of the session driver (0 = wait forever).
/// Defaults are generous — they exist to bound a *silent* peer, not to race
/// an honest one, so they never fire on the happy path (which keeps the
/// empty-fault-plan transcript byte-identical to the deadline-free driver)
/// and stay safe under sanitizer slowdowns.
struct SessionTimeouts {
  std::chrono::milliseconds registration{30000};  // hello + registry upload
  std::chrono::milliseconds upload{30000};   // participation / per-try distribution
  std::chrono::milliseconds update{120000};  // model update (covers local training)
  std::chrono::milliseconds drain{5000};     // shutdown drain (zombie guard)

  bool operator==(const SessionTimeouts&) const = default;
};

/// Everything both ends of the protocol must agree on before a session:
/// registry codebook, crypto parameters, training hyperparameters, and the
/// seeds that make a session reproducible. In the multi-process deployment
/// (tools/dubhe_node) every process derives this from the same CLI flags;
/// in tests both sides share the struct.
struct SessionParams {
  std::size_t num_classes = 10;
  std::vector<std::size_t> reference_set{1, 2, 10};
  std::vector<double> sigma{0.7, 0.1, 0.0};
  core::SecureConfig secure;
  fl::TrainConfig train;
  std::size_t K = 4;       // participants per round
  std::size_t H = 3;       // tentative tries (multi-time selection, §5.3)
  std::size_t rounds = 1;  // global rounds per session (one connection)
  std::uint64_t he_seed = 5;      // keygen + session entropy
  std::uint64_t select_seed = 9;  // the server's replenish/trim stream
  std::uint64_t round_seed = 1;   // per-(round, client) training seeds derive from this
  bool evaluate = true;
  SessionTimeouts timeouts;  // server-side per-phase receive deadlines
};

/// QuarantineRecord lives in net/wire.hpp since wire v5 (the shard plane
/// ships the records up the aggregation tree), re-exported here via the
/// transport include.

/// One global round of a session, with every field deterministic given
/// (dataset, prototype, SessionParams). Equality and the formatted
/// transcript cover the protocol-visible content only; `ledger` is a
/// measurement side channel (control framing exists only where a wire is
/// materialized, so direct and transport ledgers legitimately differ on the
/// control row).
struct RoundRecord {
  std::vector<double> try_emds;  // || p_{o,h} - p_u ||_1 per try
  std::size_t best_try = 0;
  std::vector<std::size_t> selected;  // S_{h*}
  stats::Distribution population;     // p_o of the winning try (secure aggregate)
  double emd_star = 0;
  std::vector<float> global_weights;  // after this round's FedAvg
  double accuracy = 0;                // balanced-test-set top-1 (0 if !evaluate)
  /// Clients quarantined during this round (ascending ids; empty on the
  /// happy path). FedAvg reweights over the updates that actually arrived.
  std::vector<std::uint64_t> dropped;
  /// §6.4 traffic attributable to this round, at exact encoded frame sizes.
  fl::ChannelLedger ledger;

  bool operator==(const RoundRecord& o) const {
    return try_emds == o.try_emds && best_try == o.best_try && selected == o.selected &&
           population == o.population && emd_star == o.emd_star &&
           global_weights == o.global_weights && accuracy == o.accuracy &&
           dropped == o.dropped;
  }
};

/// The result of one full secure session: registration once, then R rounds
/// over the same connection. The acceptance contract of the net layer:
/// direct in-process calls, LoopbackTransport, and TcpTransport all produce
/// bitwise-equal transcripts (ledgers excluded from equality — see
/// RoundRecord).
struct SessionTranscript {
  std::vector<std::uint64_t> overall_registry;  // R_A
  std::vector<RoundRecord> rounds;
  /// Every client the session dropped, sorted by (client_id, round, phase,
  /// reason) — the churn half of the acceptance contract: for a seeded
  /// fault plan these records are identical across loopback and TCP.
  std::vector<QuarantineRecord> quarantined;
  /// Traffic of the per-connection setup phase (hello, key dispatch,
  /// registration + registry broadcast) — everything before round 0.
  fl::ChannelLedger setup_ledger;

  bool operator==(const SessionTranscript& o) const {
    return overall_registry == o.overall_registry && rounds == o.rounds &&
           quarantined == o.quarantined;
  }
};

/// FNV-1a over the weight bytes — the compact fingerprint the multi-process
/// smoke test compares across processes.
[[nodiscard]] std::uint64_t weights_fingerprint(std::span<const float> w);

/// Renders a transcript as stable text (hex floats, one field per line, one
/// block per round) so two transcripts can be diffed across process
/// boundaries. Ledgers are not rendered (see RoundRecord).
[[nodiscard]] std::string format_transcript(const SessionTranscript& t);

/// Aggregator side: drives one secure session over `links` (one established
/// Transport per client; links[i] need not be client i — the hello exchange
/// binds ids). Registration, key dispatch and the encrypted registry
/// reduction happen once, then `params.rounds` global rounds (round begin →
/// client-side participation draws → H tentative tries with per-try
/// encrypted population aggregation → model down / train / update up →
/// FedAvg + eval) run over the same connections before shutdown. Blocks
/// until every client was told to shut down. `dataset` provides the
/// prototype's evaluation set; client data stays on the client endpoints.
/// A misbehaving or silent peer does not abort the session: it is
/// quarantined (typed record in the transcript, link closed) under the
/// per-phase deadlines in `params.timeouts`, and the round proceeds over
/// the survivors. The driver only throws when the entire cohort is gone.
SessionTranscript run_server_session(std::span<const std::shared_ptr<Transport>> links,
                                     const data::FederatedDataset& dataset,
                                     const nn::Sequential& prototype,
                                     const SessionParams& params,
                                     fl::ChannelAccountant* channel = nullptr);

/// Client side: serves one session over `link` as client `client_id` —
/// hello, key receipt, registration (Algorithm 1 + encrypted upload),
/// registry-broadcast decryption, then per round: its own proactive
/// Bernoulli draws (Eq. 6 against the decrypted R_A, seeded from
/// (session seed, client id, round)), per-try distribution uploads and
/// local training — until the server's shutdown frame. The client touches
/// only its own shard of `dataset`.
void serve_client(Transport& link, std::size_t client_id,
                  const data::FederatedDataset& dataset, const nn::Sequential& prototype,
                  const SessionParams& params);

/// The reference path: the same session executed through direct in-process
/// calls (SecureSelectionSession + FederatedTrainer, participation drawn
/// from the same per-(client, round) streams the client endpoints use), no
/// frames involved. Transport implementations are correct exactly when
/// their transcript equals this one.
SessionTranscript run_session_direct(const data::FederatedDataset& dataset,
                                     const nn::Sequential& prototype,
                                     const SessionParams& params,
                                     fl::ChannelAccountant* channel = nullptr);

/// In-process session harnesses for tests, benches and the selftest. Each
/// runs one whole session in this process: the caller's thread is the
/// aggregator, every client (and, in a tree, every shard aggregator) gets
/// its own thread, and all four share one implementation, so only the
/// topology and the transport differ:
///   - run_loopback_session: run_server_session over loopback pairs;
///   - run_tcp_session: the same over a TcpServer with `workers` event-loop
///     shards on an ephemeral 127.0.0.1 port, clients dialing through
///     TcpTransport (the hello exchange binds ids, so accept order and
///     worker sharding cannot move the transcript);
///   - run_tree_session / run_tree_tcp_session (net/shard.hpp): the 2-level
///     tree, one listener per shard plus one for the root.
/// `plans` is empty (everyone honest) or holds one FaultPlan per client:
/// client i's endpoint then runs behind a FaultyTransport with `plans[i]`
/// (kNone = honest). A client with an enabled plan is expected to die
/// mid-session; its exception is swallowed and the quarantine records are
/// the observable outcome. `channel`, if given, accounts the top
/// aggregator's links: the client links when flat, the shard uplinks in a
/// tree. A bad shard count or a `plans.size()` other than the cohort size
/// throws std::invalid_argument before any thread or socket exists. Any
/// other endpoint failure is rethrown after every thread was joined.
SessionTranscript run_loopback_session(const data::FederatedDataset& dataset,
                                       const nn::Sequential& prototype,
                                       const SessionParams& params,
                                       std::span<const FaultPlan> plans = {},
                                       fl::ChannelAccountant* channel = nullptr);

SessionTranscript run_tcp_session(const data::FederatedDataset& dataset,
                                  const nn::Sequential& prototype,
                                  const SessionParams& params, std::size_t workers = 1,
                                  std::span<const FaultPlan> plans = {},
                                  fl::ChannelAccountant* channel = nullptr);

}  // namespace dubhe::net
