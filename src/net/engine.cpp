#include "net/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/registry.hpp"
#include "core/selection.hpp"
#include "core/selective.hpp"
#include "fl/server.hpp"

namespace dubhe::net::detail {

namespace {

/// Thrown inside a round's determination when a selected client failed its
/// try: that try's sweep is finished first, the offenders are quarantined,
/// and every later try — already in flight — is taken without a decrypt, so
/// every sent request has its response consumed and the per-connection
/// queues stay balanced. The whole determination then re-runs over the
/// survivors, with the replenish stream (sel_rng) restored to where it
/// stood just after the failed try's selection. That restart point is a
/// deterministic function of the fault plan, which keeps churn transcripts
/// identical across transports and tree shapes.
struct RestartRound {
  std::size_t try_index;
};

/// What a failed receive on a client link costs that client: the one map
/// from the exception in flight (call only from a catch block) to a
/// quarantine reason. A WireError is the Link's sequence check or
/// transport-level decode garbage (bad CRC, framing cut mid-stream).
QuarantineReason receive_failure() {
  try {
    throw;
  } catch (const TransportTimeout&) {
    return QuarantineReason::kTimeout;
  } catch (const TransportError&) {
    return QuarantineReason::kDisconnect;
  } catch (const WireError& e) {
    return e.code() == WireErrc::kReplayed ? QuarantineReason::kReplay
                                           : QuarantineReason::kBadFrame;
  }
}

/// Folds `v` into the running homomorphic sum of `terms` earlier vectors.
/// Paillier addition is ciphertext multiplication mod n² — associative and
/// commutative — so any parenthesization gives the same integers.
void fold(he::PackedEncryptedVector& sum, std::uint32_t& terms, he::PackedEncryptedVector&& v) {
  if (terms++ == 0) {
    sum = std::move(v);
  } else {
    sum += v;
  }
}

SessionTranscript engine_impl(const BindChildren& bind, const data::FederatedDataset& dataset,
                              const nn::Sequential& prototype, const SessionParams& params,
                              fl::ChannelAccountant& acct) {
  const std::size_t N = dataset.num_clients();
  const core::RegistryCodec codec(params.num_classes, params.reference_set);
  const he::PackedCodec packed(params.secure.key_bits - 1, params.secure.packing_slot_bits);

  bigint::Xoshiro256ss he_rng(params.he_seed);
  core::SecureSelectionSession session(codec, params.sigma, params.secure, N, he_rng);

  SessionTranscript t;
  if (telemetry::enabled()) {
    // Pre-register every quarantine series so a scrape always exposes the
    // family (zero-valued until an event) — dashboards and the smoke test's
    // mid-session grep must not depend on a fault having fired yet.
    for (const auto reason :
         {QuarantineReason::kTimeout, QuarantineReason::kDisconnect,
          QuarantineReason::kBadFrame, QuarantineReason::kBadCiphertext,
          QuarantineReason::kBadParticipation, QuarantineReason::kReplay}) {
      telemetry::counter("dubhe_quarantine_total{reason=\"" + to_string(reason) + "\"}");
    }
  }

  std::vector<std::unique_ptr<Child>> kids;
  {
    telemetry::Span hello_span("phase:hello", &phase_hist(SessionPhase::kHello));
    kids = bind(session.session_seed());
  }
  // Children report quarantine records in global client ids; they splice
  // into the transcript verbatim (the canonical sort at the end makes
  // arrival order irrelevant).
  const auto merge = [&](const std::vector<QuarantineRecord>& records) {
    t.quarantined.insert(t.quarantined.end(), records.begin(), records.end());
  };
  const auto child_of = [&](std::size_t client) {
    for (std::size_t c = 0; c < kids.size(); ++c) {
      if (kids[c]->owns(client)) return c;
    }
    throw TransportError("session: client id outside every child");
  };
  // A partial sum is validated exactly like a client upload before it joins
  // the global sum; a bad one is fatal, since a child is infrastructure.
  const auto fold_partial = [&](he::PackedEncryptedVector& sum, std::uint32_t& terms,
                                he::PackedEncryptedVector& part, std::size_t logical,
                                const he::PackedCodec& geometry) {
    try {
      check_encrypted(part, logical, geometry);
    } catch (const WireError& e) {
      throw TransportError(std::string("session: invalid partial sum: ") + e.what());
    }
    fold(sum, terms, std::move(part));
  };

  // --- §5.1 (once per session): key dispatch + registration. The engine
  // only ever adds ciphertexts; the agent (co-located here) decrypts the
  // sum, and every surviving client receives the encrypted sum broadcast
  // (and decrypts it itself — that is what its proactive draws feed on).
  {
    telemetry::Span reg_span("phase:registration", &phase_hist(SessionPhase::kRegistration));
    const KeyMaterial keys{session.keypair().prv};
    for (auto& kid : kids) kid->post(keys);
    he::PackedEncryptedVector sum;
    std::uint32_t terms = 0;
    for (auto& kid : kids) {
      PartialRegistry pr = kid->take_registry();
      merge(pr.quarantined);
      if (pr.contributors > 0) fold_partial(sum, terms, pr.ciphertext, codec.length(), packed);
    }
    if (terms == 0) throw TransportError("session: every client was quarantined during setup");
    const Frame bcast = encode(MsgType::kRegistryBroadcast, sum);
    for (auto& kid : kids) kid->post(bcast);
    t.overall_registry = session.reduce_registry({&sum, 1});
    // Failures while the broadcast went out are setup records and land
    // before round 0's quarantine mark.
    for (auto& kid : kids) merge(kid->take_participation().quarantined);
  }
  t.setup_ledger = acct.snapshot();

  // --- the per-round loop over the same persistent connections. -------------
  fl::Server server(prototype);
  stats::Rng sel_rng(params.select_seed);
  t.rounds.reserve(params.rounds);
  for (std::size_t r = 0; r < params.rounds; ++r) {
    const fl::ChannelLedger before = acct.snapshot();
    const std::size_t qmark = t.quarantined.size();
    RoundRecord rec;

    // Round begin + the clients' own participation draws. The engine never
    // computes an Eq. 6 probability — it only resolves the volunteered bits
    // to exactly K with its replenish stream (§5.2 server half). This
    // round's alive set is exactly "clients that reported draws", shrunk by
    // every quarantine a later partial reports.
    std::vector<std::vector<std::uint8_t>> draws(N);
    std::vector<char> alive(N, 0);
    const auto merge_and_kill = [&](const std::vector<QuarantineRecord>& records) {
      for (const QuarantineRecord& q : records) {
        if (q.client_id < N) alive[q.client_id] = 0;
      }
      merge(records);
    };
    {
      telemetry::Span part_span("phase:participation",
                                &phase_hist(SessionPhase::kParticipation));
      for (auto& kid : kids) kid->post(ShardRoundBegin{r});
      for (auto& kid : kids) {
        PartialParticipation pp = kid->take_participation();
        merge(pp.quarantined);
        for (Participation& e : pp.entries) {
          draws[e.client_id] = std::move(e.draws);
          alive[e.client_id] = 1;
        }
      }
    }

    // --- §5.3: multi-time determination with per-try encrypted aggregation.
    // All H tries go out before the first partial is taken, so the agent
    // decrypts try h while clients still encrypt the later ones. Each try
    // fans out to the children owning a selected client (members in global
    // selection order), and their partial sums multiply back together in
    // child order. A selected client that fails its try costs the whole
    // determination (RestartRound): it re-runs over the survivors with K
    // capped at the cohort that is left.
    {
      telemetry::Span dist_span("phase:distribution", &phase_hist(SessionPhase::kDistribution));
      for (;;) {
        std::vector<std::size_t> ids;
        for (std::size_t id = 0; id < N; ++id) {
          if (alive[id]) ids.push_back(id);
        }
        if (ids.empty()) {
          throw TransportError("session: every client was quarantined by round " +
                               std::to_string(r));
        }
        const std::size_t Keff = std::min(params.K, ids.size());
        // Per posted try: the children it went to, and sel_rng just after
        // its selection (the restart point should it fail).
        std::vector<std::vector<std::size_t>> posted;
        std::vector<stats::Rng> restart_at;
        try {
          fill_from_outcome(
              rec,
              core::multi_time_select(
                  params.num_classes, params.H,
                  [&](std::size_t h) {
                    std::vector<std::size_t> sel = resolve_try(draws, ids, h, Keff, sel_rng);
                    restart_at.push_back(sel_rng);
                    std::vector<ShardTryBegin> tries(
                        kids.size(), ShardTryBegin{r, static_cast<std::uint32_t>(h), {}});
                    for (const std::size_t k : sel) tries[child_of(k)].selected.push_back(k);
                    std::vector<std::size_t>& to = posted.emplace_back();
                    for (std::size_t c = 0; c < kids.size(); ++c) {
                      if (tries[c].selected.empty()) continue;
                      kids[c]->post(tries[c]);
                      to.push_back(c);
                    }
                    return sel;
                  },
                  [&](std::size_t h, std::span<const std::size_t>) {
                    bool failed = false;
                    he::PackedEncryptedVector sum;
                    std::uint32_t terms = 0;
                    for (const std::size_t c : posted[h]) {
                      PartialPopulation pp = kids[c]->take_population();
                      merge_and_kill(pp.quarantined);
                      failed = failed || pp.failed;
                      if (pp.contributors > 0) {
                        fold_partial(sum, terms, pp.ciphertext, params.num_classes, packed);
                      }
                    }
                    if (failed) throw RestartRound{h};
                    if (terms == 0) throw TransportError("session: a try without contributors");
                    return session.reduce_population({&sum, 1});
                  }));
          break;
        } catch (const RestartRound& restart) {
          for (std::size_t h = restart.try_index + 1; h < posted.size(); ++h) {
            for (const std::size_t c : posted[h]) {
              merge_and_kill(kids[c]->take_population().quarantined);
            }
          }
          sel_rng = restart_at[restart.try_index];
          rec = RoundRecord{};
        }
      }
    }

    // --- training round over the winning set (FedAvg over what arrives).
    // Recipients fan out in selection-order subsequences with the global
    // weights; what comes back depends on the mode — raw updates the engine
    // reassembles in selection order (float FedAvg is order-sensitive), or
    // exact partial sums.
    {
      telemetry::Span upd_span("phase:update", &phase_hist(SessionPhase::kUpdate));
      const std::vector<float>& global = server.global_weights();
      std::optional<SparseUpdatePlan> sparse;
      if (params.secure.update_he_rate > 0.0) sparse = sparse_plan(global, params.secure, N);
      std::vector<UpdateRequest> updates(
          kids.size(), UpdateRequest{r, {}, global, sparse ? &*sparse : nullptr});
      for (const std::size_t k : rec.selected) updates[child_of(k)].recipients.push_back(k);
      std::vector<std::size_t> polled;
      for (std::size_t c = 0; c < kids.size(); ++c) {
        if (updates[c].recipients.empty()) continue;
        kids[c]->post(updates[c]);
        polled.push_back(c);
      }
      static telemetry::Histogram& fedavg_hist = telemetry::histogram("dubhe_fedavg_seconds");
      if (sparse) {
        // Wire v3 selective encryption: the top-k coordinates arrive as
        // homomorphic sums the engine never sees in the clear, the rest as
        // exact u64 plain sums; the agent decrypts only the aggregate before
        // the FedAvg merge, which reweights over the m updates that actually
        // arrived. If none did, the round keeps the previous global model.
        const SparseUpdatePlan& plan = *sparse;
        std::size_t m = 0;
        std::vector<std::uint64_t> sums(plan.n, 0);
        he::PackedEncryptedVector enc_sum;
        std::uint32_t terms = 0;
        for (const std::size_t c : polled) {
          PartialUpdate pu = kids[c]->take_update();
          merge(pu.quarantined);
          if (pu.contributors == 0) continue;
          if (pu.plain_sums.size() != plan.plain_idx.size()) {
            throw TransportError("session: partial update plan mismatch");
          }
          // u64 wrap-around addition is associative: adding partial sums
          // equals the client-order accumulation exactly.
          for (std::size_t j = 0; j < plan.plain_idx.size(); ++j) {
            sums[plan.plain_idx[j]] += pu.plain_sums[j];
          }
          fold_partial(enc_sum, terms, pu.ciphertext, plan.k, plan.codec);
          m += pu.contributors;
        }
        if (m > 0) {
          const std::vector<std::uint64_t> enc_sums = session.reduce_registry({&enc_sum, 1});
          for (std::size_t j = 0; j < plan.k; ++j) sums[plan.mask[j]] = enc_sums[j];
          telemetry::ScopedTimer fedavg_timer(fedavg_hist);
          server.set_global_weights(core::merge_quantized_updates(global, sums, m));
        }
      } else {
        std::vector<std::vector<float>> collected(N);
        std::vector<char> has(N, 0);
        for (const std::size_t c : polled) {
          PartialUpdate pu = kids[c]->take_update();
          merge(pu.quarantined);
          for (ShardUpdateEntry& e : pu.updates) {
            has[e.client_id] = 1;
            collected[e.client_id] = std::move(e.weights);
          }
        }
        // Reassemble in selection order before the FedAvg accumulation —
        // this keeps the order-sensitive float sum bit-identical for every
        // tree shape.
        std::vector<std::vector<float>> ups;
        ups.reserve(rec.selected.size());
        for (const std::size_t k : rec.selected) {
          if (has[k]) ups.push_back(std::move(collected[k]));
        }
        if (!ups.empty()) {
          telemetry::ScopedTimer fedavg_timer(fedavg_hist);
          server.aggregate(ups);
        }
      }
    }
    rec.global_weights = server.global_weights();
    if (params.evaluate) rec.accuracy = server.evaluate(dataset);
    for (std::size_t i = qmark; i < t.quarantined.size(); ++i) {
      rec.dropped.push_back(t.quarantined[i].client_id);
    }
    std::sort(rec.dropped.begin(), rec.dropped.end());
    rec.ledger = fl::ledger_delta(acct.snapshot(), before);
    t.rounds.push_back(std::move(rec));
    static telemetry::Counter& rounds_total = telemetry::counter("dubhe_rounds_total");
    rounds_total.inc();
  }

  // --- shutdown: every surviving client acknowledges by closing; the drain
  // deadline is the zombie guard. Each child reports what its drain
  // quarantined.
  {
    telemetry::Span drain_span("phase:drain", &phase_hist(SessionPhase::kShutdown));
    for (auto& kid : kids) kid->post_shutdown();
    for (auto& kid : kids) merge(kid->take_participation().quarantined);
  }

  // Hello order (and with it record order) can depend on accept order and
  // partial arrival order; the canonical sort makes the quarantine list — and
  // the transcript — a function of the fault plan alone.
  std::sort(t.quarantined.begin(), t.quarantined.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) {
              return std::tie(a.client_id, a.round, a.phase, a.reason) <
                     std::tie(b.client_id, b.round, b.phase, b.reason);
            });
  return t;
}

}  // namespace

void check_encrypted(const he::PackedEncryptedVector& v, std::size_t want_logical,
                     const he::PackedCodec& want_codec) {
  // Both geometry fields matter: a forged slots_per_plaintext can keep the
  // ciphertext count identical while shifting every slot boundary.
  if (v.logical_size() != want_logical ||
      v.codec().slot_bits() != want_codec.slot_bits() ||
      v.codec().slots_per_plaintext() != want_codec.slots_per_plaintext()) {
    throw WireError(WireErrc::kBadPayload,
                    "packed encrypted payload does not match the session");
  }
}

telemetry::Histogram& phase_hist(SessionPhase phase) {
  static telemetry::Histogram& hello =
      telemetry::histogram("dubhe_phase_seconds{phase=\"hello\"}");
  static telemetry::Histogram& registration =
      telemetry::histogram("dubhe_phase_seconds{phase=\"registration\"}");
  static telemetry::Histogram& participation =
      telemetry::histogram("dubhe_phase_seconds{phase=\"participation\"}");
  static telemetry::Histogram& distribution =
      telemetry::histogram("dubhe_phase_seconds{phase=\"distribution\"}");
  static telemetry::Histogram& update =
      telemetry::histogram("dubhe_phase_seconds{phase=\"update\"}");
  static telemetry::Histogram& shutdown =
      telemetry::histogram("dubhe_phase_seconds{phase=\"drain\"}");
  switch (phase) {
    case SessionPhase::kHello: return hello;
    case SessionPhase::kRegistration: return registration;
    case SessionPhase::kParticipation: return participation;
    case SessionPhase::kDistribution: return distribution;
    case SessionPhase::kUpdate: return update;
    case SessionPhase::kShutdown: return shutdown;
  }
  return hello;
}

SparseUpdatePlan sparse_plan(std::span<const float> global, const core::SecureConfig& sc,
                             std::size_t num_clients) {
  SparseUpdatePlan plan;
  plan.n = global.size();
  plan.k = core::update_encrypted_count(plan.n, sc.update_he_rate);
  plan.mask = core::topk_mask_indices(global, plan.k);
  plan.bitmap = core::make_update_bitmap(plan.mask, plan.n);
  plan.plain_idx.reserve(plan.n - plan.k);
  for (std::uint32_t i = 0; i < plan.n; ++i) {
    if ((plan.bitmap[i / 8] & (1u << (i % 8))) == 0) plan.plain_idx.push_back(i);
  }
  plan.codec = he::PackedCodec(sc.key_bits - 1, core::update_slot_bits(num_clients));
  return plan;
}

void fill_from_outcome(RoundRecord& r, core::MultiTimeOutcome&& mt) {
  r.try_emds = std::move(mt.try_emds);
  r.best_try = mt.best_try;
  r.selected = std::move(mt.selected);
  r.population = std::move(mt.population);
  r.emd_star = mt.emd_star;
}

std::vector<std::size_t> resolve_try(const std::vector<std::vector<std::uint8_t>>& draws,
                                     std::span<const std::size_t> ids, std::size_t h,
                                     std::size_t K, stats::Rng& rng) {
  std::vector<std::uint8_t> bits(ids.size(), 0);
  for (std::size_t i = 0; i < ids.size(); ++i) bits[i] = draws[ids[i]][h];
  std::vector<std::size_t> sel = core::resolve_participation(bits, K, rng);
  for (std::size_t& s : sel) s = ids[s];
  return sel;
}

void check_session_params(const SessionParams& params, std::size_t N) {
  if (params.K == 0) throw std::invalid_argument("session: K == 0");
  if (params.K > N) throw std::invalid_argument("session: K > N");
  if (params.rounds == 0) throw std::invalid_argument("session: rounds == 0");
  core::require_slot_capacity(params.secure, N, params.K);
}

// --- CohortChild ------------------------------------------------------------

CohortChild::CohortChild(std::uint32_t id, ShardRange range, std::size_t total_clients,
                         const SessionParams& params)
    : Child(range),
      links_(range.count),
      id_(id),
      total_(total_clients),
      params_(params),
      packed_(params.secure.key_bits - 1, params.secure.packing_slot_bits) {}

void CohortChild::hello(std::span<const std::shared_ptr<Transport>> links,
                        std::uint64_t session_seed) {
  session_seed_ = session_seed;
  for (const auto& t : links) {
    Link link(*t);
    QuarantineReason bad = QuarantineReason::kBadFrame;
    try {
      auto frame = link.receive(params_.timeouts.registration);
      if (!frame) {
        bad = QuarantineReason::kDisconnect;
      } else if (frame->type == MsgType::kClientHello) {
        const ClientHello h = decode<ClientHello>(*frame);
        if (h.protocol == kWireVersion && owns(h.client_id) &&
            !alive(h.client_id - range().first)) {
          links_[h.client_id - range().first] = link;
          continue;
        }
      }
    } catch (const std::exception&) {
      bad = receive_failure();
    }
    t->close();
    quarantine(kUnknown, kSetup, SessionPhase::kHello, bad);
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    send(i,
         encode<ServerHello>({session_seed_, static_cast<std::uint32_t>(total_),
                              static_cast<std::uint32_t>(range().first + i)}),
         kSetup, SessionPhase::kHello);
  }
}

void CohortChild::post(const KeyMaterial& keys) {
  key_ = keys.prv.public_key();
  const Frame key_frame = encode(keys);
  for (std::size_t i = 0; i < links_.size(); ++i) {
    send(i, key_frame, kSetup, SessionPhase::kRegistration);
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    send(i,
         encode<SeedRequest>(MsgType::kRegistrationRequest,
                             {core::registration_stream_seed(session_seed_, range().first + i), 0}),
         kSetup, SessionPhase::kRegistration);
  }
  // Only the ciphertext crosses the wire: the plaintext registration entry
  // stays on the client, so no aggregator learns any client's category.
  const std::size_t length =
      core::RegistryCodec(params_.num_classes, params_.reference_set).length();
  registry_ = {id_, 0, {}, {}};
  for (std::size_t i = 0; i < links_.size(); ++i) {
    auto v = recv_upload(i, MsgType::kRegistryUpload, params_.timeouts.registration, length,
                         kSetup, SessionPhase::kRegistration);
    if (v) fold(registry_.ciphertext, registry_.contributors, std::move(*v));
  }
  registry_.quarantined = flush();
}

void CohortChild::post(const Frame& broadcast) {
  // The payload is the global sum, so each surviving client receives the
  // exact frame a flat aggregator would send it.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    send(i, broadcast, kSetup, SessionPhase::kRegistration);
  }
  participation_ = {id_, kSetup, flush(), {}};
}

void CohortChild::post(const ShardRoundBegin& begin) {
  round_ = begin.round;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    send(i, encode<RoundBegin>({round_}), round_, SessionPhase::kParticipation);
  }
  participation_ = {id_, round_, {}, {}};
  for (std::size_t i = 0; i < links_.size(); ++i) {
    auto part = recv_msg<Participation>(i, MsgType::kParticipation, params_.timeouts.upload,
                                        round_, SessionPhase::kParticipation);
    if (!part) continue;
    // A parsable frame but nonsensical volunteering — wrong (client, round)
    // binding or wrong try count — is its own category.
    if (part->client_id != range().first + i || part->round != round_ ||
        part->draws.size() != params_.H) {
      quarantine(i, round_, SessionPhase::kParticipation, QuarantineReason::kBadParticipation);
      continue;
    }
    participation_.entries.push_back(*std::move(part));
  }
  participation_.quarantined = flush();
}

void CohortChild::post(const ShardTryBegin& begin) {
  if (begin.round != round_) {
    throw TransportError("session: try begin for a round this cohort is not in");
  }
  const std::uint64_t try_slot = begin.round * params_.H + begin.try_index;
  PendingTry& pending =
      tries_.emplace_back(PendingTry{begin.round, begin.try_index, begin.selected, false});
  for (const std::uint64_t k : begin.selected) {
    const SeedRequest req{core::distribution_stream_seed(session_seed_, total_, try_slot, k),
                          begin.try_index};
    if (!send(local(k), encode(MsgType::kDistributionRequest, req), round_,
              SessionPhase::kDistribution)) {
      pending.send_failed = true;
    }
  }
}

PartialPopulation CohortChild::take_population() {
  if (tries_.empty()) throw TransportError("session: population taken for a try never posted");
  PendingTry pending = std::move(tries_.front());
  tries_.pop_front();
  PartialPopulation out{id_, pending.round, pending.try_index, 0, pending.send_failed, {}, {}};
  for (const std::uint64_t k : pending.members) {
    auto v = recv_upload(local(k), MsgType::kDistributionUpload, params_.timeouts.upload,
                         params_.num_classes, pending.round, SessionPhase::kDistribution);
    if (v) {
      fold(out.ciphertext, out.contributors, std::move(*v));
    } else {
      out.failed = true;
    }
  }
  out.quarantined = flush();
  return out;
}

void CohortChild::post(const UpdateRequest& update) {
  if (update.round != round_) {
    throw TransportError("session: update begin for a round this cohort is not in");
  }
  const std::uint64_t round_seed = stats::derive_seed(params_.round_seed, round_);
  std::vector<std::uint64_t> recipients;
  recipients.reserve(update.recipients.size());
  for (const std::uint64_t k : update.recipients) {
    const WeightsMsg down{stats::derive_seed(round_seed, k + 1),
                          {update.weights.begin(), update.weights.end()}};
    if (send(local(k), encode(MsgType::kModelDown, down), round_, SessionPhase::kUpdate)) {
      recipients.push_back(k);
    }
  }
  const auto deadline = params_.timeouts.update;
  update_ = PartialUpdate{};
  update_.shard_id = id_;
  update_.round = round_;
  if (params_.secure.update_he_rate > 0.0) {
    // Each participant ships a kModelUpdateSparse: quantized, top-k
    // coordinates packed into ciphertexts, the rest plaintext.
    update_.mode = 1;
    std::optional<SparseUpdatePlan> own;
    if (update.plan == nullptr) own = sparse_plan(update.weights, params_.secure, total_);
    const SparseUpdatePlan& plan = update.plan != nullptr ? *update.plan : *own;
    constexpr auto qb = static_cast<std::uint8_t>(core::kUpdateQuantBits);
    std::vector<std::uint64_t> sums(plan.plain_idx.size(), 0);
    for (const std::uint64_t k : recipients) {
      const std::size_t i = local(k);
      auto up = recv_msg<ModelUpdateSparse>(i, MsgType::kModelUpdateSparse, deadline, round_,
                                            SessionPhase::kUpdate, key_);
      if (!up) continue;
      if (up->client_id != k) {
        quarantine(i, round_, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
        continue;
      }
      bool ok = up->total_count == plan.n && up->quant_bits == qb && up->bitmap == plan.bitmap;
      try {
        if (ok) check_encrypted(up->encrypted, plan.k, plan.codec);
      } catch (const WireError&) {
        ok = false;
      }
      if (!ok) {
        quarantine(i, round_, SessionPhase::kUpdate, QuarantineReason::kBadCiphertext);
        continue;
      }
      for (std::size_t j = 0; j < sums.size(); ++j) sums[j] += up->plain_values[j];
      fold(update_.ciphertext, update_.contributors, std::move(up->encrypted));
    }
    if (update_.contributors > 0) update_.plain_sums = std::move(sums);
  } else {
    for (const std::uint64_t k : recipients) {
      const std::size_t i = local(k);
      auto up = recv_msg<WeightsMsg>(i, MsgType::kModelUpdate, deadline, round_,
                                     SessionPhase::kUpdate);
      if (!up) continue;
      if (up->seed != k) {
        quarantine(i, round_, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
        continue;
      }
      update_.updates.push_back({k, std::move(up->weights)});
    }
  }
  update_.quarantined = flush();
}

void CohortChild::post_shutdown() {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    send(i, encode(Shutdown{}), kSetup, SessionPhase::kShutdown);
  }
  for (std::size_t i = 0; i < links_.size(); ++i) drain(i);
  participation_ = {id_, kSetup, flush(), {}};
}

std::size_t CohortChild::local(std::uint64_t client) const {
  if (!owns(client)) {
    throw TransportError("session: driver named a client this cohort does not own");
  }
  return client - range().first;
}

void CohortChild::quarantine(std::size_t i, std::uint64_t round, SessionPhase phase,
                             QuarantineReason reason) {
  if (telemetry::enabled()) {
    // Quarantines are rare (fault paths only), so the per-call registry
    // lookup for the label is fine here — no cached ref needed.
    telemetry::counter("dubhe_quarantine_total{reason=\"" + to_string(reason) + "\"}").inc();
  }
  records_.push_back({i == kUnknown ? kUnknown : range().first + i, round, phase, reason});
  if (i < links_.size() && alive(i)) {
    // Close immediately: a quarantined client's late frames must never be
    // read (they would desynchronize the per-phase receive sweeps).
    links_[i]->transport().close();
    links_[i].reset();
  }
}

bool CohortChild::send(std::size_t i, Frame frame, std::uint64_t round, SessionPhase phase) {
  if (!alive(i)) return false;
  try {
    links_[i]->send(std::move(frame));
  } catch (const TransportError&) {
    quarantine(i, round, phase, QuarantineReason::kDisconnect);
    return false;
  }
  return true;
}

std::optional<Frame> CohortChild::recv(std::size_t i, MsgType want,
                                       std::chrono::milliseconds deadline, std::uint64_t round,
                                       SessionPhase phase) {
  if (!alive(i)) return std::nullopt;
  QuarantineReason bad = QuarantineReason::kBadFrame;
  try {
    auto frame = links_[i]->receive(deadline);
    if (!frame) {
      bad = QuarantineReason::kDisconnect;
    } else if (frame->type == want) {
      return frame;
    }
  } catch (const std::exception&) {
    bad = receive_failure();
  }
  quarantine(i, round, phase, bad);
  return std::nullopt;
}

template <class M, class Key>
std::optional<M> CohortChild::recv_msg(std::size_t i, MsgType want,
                                       std::chrono::milliseconds deadline, std::uint64_t round,
                                       SessionPhase phase, const Key& key) {
  auto f = recv(i, want, deadline, round, phase);
  if (!f) return std::nullopt;
  try {
    return decode<M>(*f, want, key);
  } catch (const WireError&) {
    quarantine(i, round, phase, QuarantineReason::kBadFrame);
    return std::nullopt;
  }
}

std::optional<he::PackedEncryptedVector> CohortChild::recv_upload(
    std::size_t i, MsgType want, std::chrono::milliseconds deadline, std::size_t logical,
    std::uint64_t round, SessionPhase phase) {
  auto f = recv(i, want, deadline, round, phase);
  if (!f) return std::nullopt;
  he::PackedEncryptedVector v;
  try {
    v = decode<he::PackedEncryptedVector>(*f, want, key_);
  } catch (const WireError&) {
    // Not tagged as a packed vector at all (garbage, or the per-slot 'V'
    // form wire v6 retired): a ciphertext that cannot join the sum.
    const bool tagged = !f->payload.empty() && f->payload[0] == 'K';
    quarantine(i, round, phase,
               tagged ? QuarantineReason::kBadFrame : QuarantineReason::kBadCiphertext);
    return std::nullopt;
  }
  try {
    check_encrypted(v, logical, packed_);
  } catch (const WireError&) {
    quarantine(i, round, phase, QuarantineReason::kBadCiphertext);
    return std::nullopt;
  }
  return v;
}

void CohortChild::drain(std::size_t i) {
  if (!alive(i)) return;
  Transport& t = links_[i]->transport();
  try {
    while (t.receive(params_.timeouts.drain)) {
    }
    t.close();
    links_[i].reset();
  } catch (const std::exception&) {
    quarantine(i, kSetup, SessionPhase::kShutdown, receive_failure());
  }
}

std::vector<QuarantineRecord> CohortChild::flush() {
  std::vector<QuarantineRecord> out(records_.begin() + static_cast<std::ptrdiff_t>(flushed_),
                                    records_.end());
  flushed_ = records_.size();
  return out;
}

// --- the engine ---------------------------------------------------------------

SessionTranscript run_engine(std::span<const std::shared_ptr<Transport>> links,
                             const BindChildren& bind,
                             const data::FederatedDataset& dataset,
                             const nn::Sequential& prototype, const SessionParams& params,
                             fl::ChannelAccountant* channel) {
  check_session_params(params, dataset.num_clients());
  // Accounting lives on the transports (exact frame sizes, aggregator
  // perspective). A session-local accountant is always attached so the
  // transcript's per-round ledgers exist even without a caller channel; it
  // is detached on every exit path (the links may outlive this call).
  fl::ChannelAccountant acct;
  const auto attach = [&](fl::ChannelAccountant* a) {
    for (const auto& link : links) link->set_accountant(a, fl::Direction::kServerToClient);
  };
  attach(&acct);
  SessionTranscript t;
  try {
    t = engine_impl(bind, dataset, prototype, params, acct);
  } catch (...) {
    attach(nullptr);
    throw;
  }
  attach(nullptr);
  if (channel != nullptr) channel->add(acct.snapshot());
  return t;
}

}  // namespace dubhe::net::detail
