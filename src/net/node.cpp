#include "net/node.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/multitime.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "core/registration.hpp"
#include "core/selection.hpp"
#include "core/selective.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "net/codec.hpp"
#include "net/cohort.hpp"
#include "net/tcp.hpp"
#include "stats/rng.hpp"

namespace dubhe::net {

namespace {

// The cohort/quarantine machinery, upload validation, and sparse-update
// plans are shared with the tree drivers (net/shard.cpp) via net/cohort.hpp.
using detail::check_encrypted;
using detail::check_session_params;
using detail::fill_from_outcome;
using detail::kSetup;
using detail::kUnknown;
using detail::phase_hist;
using detail::RestartRound;
using detail::ServerCohort;
using detail::sparse_plan;
using detail::SparseUpdatePlan;

/// Client-side encryption of one upload (registry one-hot or quantized
/// distribution) under the session's packing mode, seeded from the server's
/// request — the same stream derivation the in-process session uses. The
/// client holds the private key (§5.1), so it takes the key-holder CRT path:
/// byte-identical ciphertexts to the session's public-key reference path.
Frame encrypt_upload(MsgType type, const he::PrivateKey& prv, const SessionParams& p,
                     std::span<const std::uint64_t> values, std::uint64_t seed) {
  bigint::Xoshiro256ss rng(seed);
  if (p.secure.use_packing) {
    const he::PackedCodec packed(p.secure.key_bits - 1, p.secure.packing_slot_bits);
    return make_encrypted_vector(type,
                                 he::PackedEncryptedVector::encrypt(prv, packed, values, rng));
  }
  return make_encrypted_vector(type, he::EncryptedVector::encrypt(prv, values, rng));
}

/// Client half: split a quantized update along the plan's mask, encrypt
/// the top-k portion (key-holder path) under the round's derived stream,
/// frame the rest as plaintext behind the bitmap.
Frame make_sparse_update(std::uint64_t client_id, const SparseUpdatePlan& plan,
                         std::span<const std::uint64_t> quantized,
                         const he::PrivateKey& prv, std::uint8_t quant_bits,
                         std::uint64_t seed) {
  std::vector<std::uint64_t> enc_vals(plan.k);
  for (std::size_t j = 0; j < plan.k; ++j) enc_vals[j] = quantized[plan.mask[j]];
  ModelUpdateSparse m;
  m.client_id = client_id;
  m.total_count = static_cast<std::uint32_t>(plan.n);
  m.quant_bits = quant_bits;
  m.bitmap = plan.bitmap;
  m.plain_values.resize(plan.plain_idx.size());
  for (std::size_t j = 0; j < plan.plain_idx.size(); ++j) {
    m.plain_values[j] = quantized[plan.plain_idx[j]];
  }
  bigint::Xoshiro256ss rng(seed);
  m.encrypted = he::PackedEncryptedVector::encrypt(prv, plan.codec, enc_vals, rng);
  return make_model_update_sparse(m);
}

/// The client's proactive draws for one round: H Bernoulli bits against the
/// Eq. 6 probability, from the (session seed, client id, round) stream. The
/// direct reference path and the wire client endpoint both call this — one
/// implementation, so the streams cannot drift apart.
std::vector<std::uint8_t> proactive_draws(std::uint64_t session_seed, std::uint64_t round,
                                          std::uint64_t client_id, double probability,
                                          std::size_t H) {
  stats::Rng rng(core::participation_seed(session_seed, round, client_id));
  std::vector<std::uint8_t> draws(H, 0);
  for (std::size_t h = 0; h < H; ++h) draws[h] = rng.bernoulli(probability) ? 1 : 0;
  return draws;
}

/// Server half of one tentative try: transpose the clients' per-round draw
/// bits for try h and resolve them to exactly K with the replenish stream.
/// Both execution modes call this one helper — the byte-identical-transcript
/// contract depends on them consuming the stream identically.
std::vector<std::size_t> resolve_try(const std::vector<std::vector<std::uint8_t>>& draws,
                                     std::size_t h, std::size_t K, stats::Rng& rng) {
  std::vector<std::uint8_t> bits(draws.size(), 0);
  for (std::size_t k = 0; k < draws.size(); ++k) bits[k] = draws[k][h];
  return core::resolve_participation(bits, K, rng);
}

SessionTranscript server_session_impl(std::span<const std::shared_ptr<Transport>> links,
                                      const data::FederatedDataset& dataset,
                                      const nn::Sequential& prototype,
                                      const SessionParams& params,
                                      fl::ChannelAccountant& acct) {
  const std::size_t N = links.size();
  const core::RegistryCodec codec(params.num_classes, params.reference_set);
  const SessionTimeouts& to = params.timeouts;

  bigint::Xoshiro256ss he_rng(params.he_seed);
  core::SecureSelectionSession session(codec, params.sigma, params.secure, N, he_rng,
                                       nullptr);

  SessionTranscript t;
  ServerCohort cohort(N, t.quarantined);

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

  // --- hello: bind links to client ids. A link that cannot produce a valid
  // hello has no id yet, so its record carries kUnknownClient; the link is
  // closed and never joins the cohort.
  {
  telemetry::Span hello_span("phase:hello", &phase_hist(SessionPhase::kHello));
  for (const auto& link : links) {
    try {
      auto frame = link->receive(to.registration);
      QuarantineReason bad = QuarantineReason::kBadFrame;
      if (!frame) {
        bad = QuarantineReason::kDisconnect;
      } else if (frame->seq != 0) {
        bad = QuarantineReason::kReplay;
      } else if (frame->type == MsgType::kClientHello) {
        const ClientHello hello = parse_client_hello(*frame);
        if (hello.protocol == kWireVersion && hello.client_id < N &&
            !cohort.alive(hello.client_id)) {
          cohort.bind(hello.client_id, link);
          continue;
        }
      }
      link->close();
      cohort.quarantine(kUnknown, kSetup, SessionPhase::kHello, bad);
    } catch (const TransportTimeout&) {
      link->close();
      cohort.quarantine(kUnknown, kSetup, SessionPhase::kHello, QuarantineReason::kTimeout);
    } catch (const TransportError&) {
      link->close();
      cohort.quarantine(kUnknown, kSetup, SessionPhase::kHello,
                        QuarantineReason::kDisconnect);
    } catch (const WireError&) {
      link->close();
      cohort.quarantine(kUnknown, kSetup, SessionPhase::kHello, QuarantineReason::kBadFrame);
    }
  }
  for (std::size_t id = 0; id < N; ++id) {
    cohort.send(id,
                make_server_hello({session.session_seed(), static_cast<std::uint32_t>(N),
                                   static_cast<std::uint32_t>(id)}),
                kSetup, SessionPhase::kHello);
  }
  }

  // --- §5.1 (once per connection): key dispatch + registration. -------------
  const he::PackedCodec session_packed(params.secure.key_bits - 1,
                                       params.secure.packing_slot_bits);
  {
  telemetry::Span reg_span("phase:registration",
                           &phase_hist(SessionPhase::kRegistration));
  const Frame key_frame =
      make_key_material({session.keypair().pub, session.keypair().prv});
  for (std::size_t id = 0; id < N; ++id) {
    cohort.send(id, key_frame, kSetup, SessionPhase::kRegistration);
  }
  for (std::size_t id = 0; id < N; ++id) {
    cohort.send(id,
                make_seed_request(MsgType::kRegistrationRequest,
                                  {session.registration_seed(id), 0}),
                kSetup, SessionPhase::kRegistration);
  }

  std::vector<he::EncryptedVector> uploads;
  std::vector<he::PackedEncryptedVector> packed_uploads;
  for (std::size_t id = 0; id < N; ++id) {
    // Only the ciphertext crosses the wire: the plaintext registration entry
    // stays on the client (the retired kRegistrationInfo shortcut used to
    // ship it here), so this aggregator never learns any client's category.
    // An upload that does not parse is a framing failure; one that parses
    // but does not match the session (key, shape, packing geometry) is a
    // ciphertext failure.
    auto up = cohort.recv(id, MsgType::kRegistryUpload, to.registration, kSetup,
                          SessionPhase::kRegistration);
    if (!up) continue;
    bool mode_ok = false;
    try {
      mode_ok = payload_is_packed(*up) == params.secure.use_packing;
    } catch (const WireError&) {
      // not an encrypted-vector payload at all — still a ciphertext problem
    }
    if (!mode_ok) {
      cohort.quarantine(id, kSetup, SessionPhase::kRegistration,
                        QuarantineReason::kBadCiphertext);
      continue;
    }
    bool parsed = false;
    try {
      if (params.secure.use_packing) {
        auto v = parse_packed_encrypted_vector(*up, MsgType::kRegistryUpload);
        parsed = true;
        check_encrypted(v, session.public_key(), codec.length(), session_packed);
        packed_uploads.push_back(std::move(v));
      } else {
        auto v = parse_encrypted_vector(*up, MsgType::kRegistryUpload);
        parsed = true;
        check_encrypted(v, session.public_key(), codec.length());
        uploads.push_back(std::move(v));
      }
    } catch (const WireError&) {
      cohort.quarantine(id, kSetup, SessionPhase::kRegistration,
                        parsed ? QuarantineReason::kBadCiphertext
                               : QuarantineReason::kBadFrame);
    }
  }
  if (packed_uploads.empty() && uploads.empty()) {
    throw TransportError("run_server_session: every client was quarantined during setup");
  }
  // The server only ever adds ciphertexts; the agent (co-located here)
  // decrypts the sum, and every surviving client receives the encrypted sum
  // broadcast (and decrypts it itself — that is what its proactive draws
  // feed on). The registry is the survivors' registry: a quarantined client
  // contributes nothing.
  if (params.secure.use_packing) {
    he::PackedEncryptedVector sum = packed_uploads[0];
    for (std::size_t k = 1; k < packed_uploads.size(); ++k) sum += packed_uploads[k];
    const Frame bcast = make_encrypted_vector(MsgType::kRegistryBroadcast, sum);
    for (std::size_t id = 0; id < N; ++id) {
      cohort.send(id, bcast, kSetup, SessionPhase::kRegistration);
    }
    t.overall_registry = session.reduce_registry({&sum, 1});
  } else {
    he::EncryptedVector sum = uploads[0];
    for (std::size_t k = 1; k < uploads.size(); ++k) sum += uploads[k];
    const Frame bcast = make_encrypted_vector(MsgType::kRegistryBroadcast, sum);
    for (std::size_t id = 0; id < N; ++id) {
      cohort.send(id, bcast, kSetup, SessionPhase::kRegistration);
    }
    t.overall_registry = session.reduce_registry({&sum, 1});
  }
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

    // Round begin + the clients' own participation draws. The server never
    // computes an Eq. 6 probability — it only resolves the volunteered bits
    // to exactly K with its replenish stream (§5.2 server half).
    std::vector<std::vector<std::uint8_t>> draws(N);
    {
    telemetry::Span part_span("phase:participation",
                              &phase_hist(SessionPhase::kParticipation));
    for (std::size_t id = 0; id < N; ++id) {
      cohort.send(id, make_round_begin({static_cast<std::uint64_t>(r)}), r,
                  SessionPhase::kParticipation);
    }
    for (std::size_t id = 0; id < N; ++id) {
      if (!cohort.alive(id)) continue;
      auto f = cohort.recv(id, MsgType::kParticipation, to.upload, r,
                           SessionPhase::kParticipation);
      if (!f) continue;
      Participation part;
      try {
        part = parse_participation(*f);
      } catch (const WireError&) {
        cohort.quarantine(id, r, SessionPhase::kParticipation,
                          QuarantineReason::kBadFrame);
        continue;
      }
      // Parsable frame but nonsensical volunteering — wrong (client, round)
      // binding, wrong try count, or non-bit draws — is its own category.
      bool ok = part.client_id == id && part.round == r && part.draws.size() == params.H;
      for (const std::uint8_t d : part.draws) ok = ok && d <= 1;
      if (!ok) {
        cohort.quarantine(id, r, SessionPhase::kParticipation,
                          QuarantineReason::kBadParticipation);
        continue;
      }
      draws[id] = std::move(part.draws);
    }
    }

    // --- §5.3: multi-time determination with per-try encrypted aggregation.
    // A selected client that fails its sweep costs the whole determination:
    // the sweep finishes first (every surviving response consumed, queues
    // balanced), the offender is already quarantined, and the determination
    // re-runs over the survivors with K capped at the cohort that is left.
    {
    telemetry::Span dist_span("phase:distribution",
                              &phase_hist(SessionPhase::kDistribution));
    for (;;) {
      const std::vector<std::size_t> ids = cohort.alive_ids();
      if (ids.empty()) {
        throw TransportError("run_server_session: every client was quarantined by round " +
                             std::to_string(r));
      }
      const std::size_t Keff = std::min(params.K, ids.size());
      try {
        fill_from_outcome(
            rec,
            core::multi_time_select(
                params.num_classes, params.H,
                [&](std::size_t h) {
                  // The survivors' volunteered bits, resolved to exactly
                  // Keff; positions map back to real client ids.
                  std::vector<std::uint8_t> bits(ids.size(), 0);
                  for (std::size_t i = 0; i < ids.size(); ++i) bits[i] = draws[ids[i]][h];
                  std::vector<std::size_t> sel =
                      core::resolve_participation(bits, Keff, sel_rng);
                  for (std::size_t& s : sel) s = ids[s];
                  return sel;
                },
                [&](std::size_t h, std::span<const std::size_t> sel) {
                  const std::size_t try_slot = r * params.H + h;
                  bool failed = false;
                  for (const std::size_t k : sel) {
                    if (!cohort.send(k,
                                     make_seed_request(
                                         MsgType::kDistributionRequest,
                                         {session.distribution_seed(try_slot, k),
                                          static_cast<std::uint32_t>(h)}),
                                     r, SessionPhase::kDistribution)) {
                      failed = true;
                    }
                  }
                  std::vector<he::PackedEncryptedVector> packed_ups;
                  std::vector<he::EncryptedVector> plain_ups;
                  for (const std::size_t k : sel) {
                    auto up = cohort.recv(k, MsgType::kDistributionUpload, to.upload, r,
                                          SessionPhase::kDistribution);
                    if (!up) {
                      failed = true;
                      continue;
                    }
                    bool mode_ok = false;
                    try {
                      mode_ok = payload_is_packed(*up) == params.secure.use_packing;
                    } catch (const WireError&) {
                    }
                    if (!mode_ok) {
                      cohort.quarantine(k, r, SessionPhase::kDistribution,
                                        QuarantineReason::kBadCiphertext);
                      failed = true;
                      continue;
                    }
                    bool parsed = false;
                    try {
                      if (params.secure.use_packing) {
                        auto v = parse_packed_encrypted_vector(*up,
                                                               MsgType::kDistributionUpload);
                        parsed = true;
                        check_encrypted(v, session.public_key(), params.num_classes,
                                        session_packed);
                        packed_ups.push_back(std::move(v));
                      } else {
                        auto v = parse_encrypted_vector(*up, MsgType::kDistributionUpload);
                        parsed = true;
                        check_encrypted(v, session.public_key(), params.num_classes);
                        plain_ups.push_back(std::move(v));
                      }
                    } catch (const WireError&) {
                      cohort.quarantine(k, r, SessionPhase::kDistribution,
                                        parsed ? QuarantineReason::kBadCiphertext
                                               : QuarantineReason::kBadFrame);
                      failed = true;
                    }
                  }
                  if (failed) throw RestartRound{};
                  if (params.secure.use_packing) return session.reduce_population(packed_ups);
                  return session.reduce_population(plain_ups);
                }));
        break;
      } catch (const RestartRound&) {
        rec = RoundRecord{};
      }
    }
    }

    // --- training round over the winning set (FedAvg over what arrives). ----
    {
    telemetry::Span upd_span("phase:update", &phase_hist(SessionPhase::kUpdate));
    const std::uint64_t round_seed = stats::derive_seed(params.round_seed, r);
    const std::vector<float>& global = server.global_weights();
    std::vector<std::size_t> recipients;
    recipients.reserve(rec.selected.size());
    for (const std::size_t k : rec.selected) {
      if (cohort.send(k,
                      make_weights(MsgType::kModelDown,
                                   {stats::derive_seed(round_seed, k + 1), global}),
                      r, SessionPhase::kUpdate)) {
        recipients.push_back(k);
      }
    }
    if (params.secure.update_he_rate > 0.0) {
      // Wire v3 selective encryption: each participant ships a
      // kModelUpdateSparse — quantized, top-k coordinates packed into
      // ciphertexts, the rest plaintext. The server homomorphically sums
      // the encrypted portions (it never sees a top-k coordinate in the
      // clear), plain-sums the rest, and the agent decrypts only the
      // aggregate before the FedAvg merge — which reweights over the m
      // updates that actually arrived. If none did, the round keeps the
      // previous global model.
      const SparseUpdatePlan plan = sparse_plan(global, params.secure, N);
      const auto qb = static_cast<std::uint8_t>(params.secure.update_quant_bits);
      std::size_t m = 0;
      std::vector<std::uint64_t> sums(plan.n, 0);
      he::PackedEncryptedVector enc_sum;
      for (const std::size_t k : recipients) {
        auto f = cohort.recv(k, MsgType::kModelUpdateSparse, to.update, r,
                             SessionPhase::kUpdate);
        if (!f) continue;
        ModelUpdateSparse up;
        try {
          up = parse_model_update_sparse(*f);
        } catch (const WireError&) {
          cohort.quarantine(k, r, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
          continue;
        }
        if (up.client_id != k) {
          cohort.quarantine(k, r, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
          continue;
        }
        if (up.total_count != plan.n || up.quant_bits != qb || up.bitmap != plan.bitmap) {
          cohort.quarantine(k, r, SessionPhase::kUpdate,
                            QuarantineReason::kBadCiphertext);
          continue;
        }
        bool shape_ok = true;
        try {
          check_encrypted(up.encrypted, session.public_key(), plan.k, plan.codec);
        } catch (const WireError&) {
          shape_ok = false;
        }
        if (!shape_ok) {
          cohort.quarantine(k, r, SessionPhase::kUpdate, QuarantineReason::kBadCiphertext);
          continue;
        }
        for (std::size_t j = 0; j < plan.plain_idx.size(); ++j) {
          sums[plan.plain_idx[j]] += up.plain_values[j];
        }
        if (m == 0) {
          enc_sum = std::move(up.encrypted);
        } else {
          enc_sum += up.encrypted;
        }
        ++m;
      }
      if (m > 0) {
        const std::vector<std::uint64_t> enc_sums = session.reduce_registry({&enc_sum, 1});
        for (std::size_t j = 0; j < plan.k; ++j) sums[plan.mask[j]] = enc_sums[j];
        static telemetry::Histogram& fedavg_hist =
            telemetry::histogram("dubhe_fedavg_seconds");
        telemetry::ScopedTimer fedavg_timer(fedavg_hist);
        server.set_global_weights(core::merge_quantized_updates(
            global, sums, m, params.secure.update_quant_bits,
            params.secure.update_quant_scale));
      }
    } else {
      std::vector<std::vector<float>> updates;
      updates.reserve(recipients.size());
      for (const std::size_t k : recipients) {
        auto f = cohort.recv(k, MsgType::kModelUpdate, to.update, r, SessionPhase::kUpdate);
        if (!f) continue;
        WeightsMsg up;
        try {
          up = parse_weights(*f, MsgType::kModelUpdate);
        } catch (const WireError&) {
          cohort.quarantine(k, r, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
          continue;
        }
        if (up.seed != k) {
          cohort.quarantine(k, r, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
          continue;
        }
        updates.push_back(std::move(up.weights));
      }
      if (!updates.empty()) {
        static telemetry::Histogram& fedavg_hist =
            telemetry::histogram("dubhe_fedavg_seconds");
        telemetry::ScopedTimer fedavg_timer(fedavg_hist);
        server.aggregate(updates);
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
  // deadline is the zombie guard (a peer that never acknowledges gets a
  // typed record and a closed link instead of wedging teardown).
  {
    telemetry::Span drain_span("phase:drain", &phase_hist(SessionPhase::kShutdown));
    for (std::size_t id = 0; id < N; ++id) {
      cohort.send(id, make_shutdown(), kSetup, SessionPhase::kShutdown);
    }
    for (std::size_t id = 0; id < N; ++id) cohort.shutdown_drain(id, to.drain);
  }

  // Hello order (and with it record order) can depend on TCP accept order;
  // the canonical sort makes the quarantine list — and the transcript —
  // transport-independent for a given fault plan.
  std::sort(t.quarantined.begin(), t.quarantined.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) {
              return std::tie(a.client_id, a.round, a.phase, a.reason) <
                     std::tie(b.client_id, b.round, b.phase, b.reason);
            });
  return t;
}

}  // namespace

std::uint64_t weights_fingerprint(std::span<const float> w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const float x : w) {
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::string format_transcript(const SessionTranscript& t) {
  std::string out;
  char buf[64];
  auto add_u64s = [&](const char* name, const auto& xs) {
    out += name;
    out += '=';
    bool first = true;
    for (const auto x : xs) {
      if (!first) out += ',';
      std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(x));
      out += buf;
      first = false;
    }
    out += '\n';
  };
  auto add_doubles = [&](const char* name, std::span<const double> xs) {
    out += name;
    out += '=';
    bool first = true;
    for (const double x : xs) {
      if (!first) out += ',';
      std::snprintf(buf, sizeof buf, "%a", x);
      out += buf;
      first = false;
    }
    out += '\n';
  };
  add_u64s("overall_registry", t.overall_registry);
  std::snprintf(buf, sizeof buf, "rounds=%zu\n", t.rounds.size());
  out += buf;
  for (std::size_t r = 0; r < t.rounds.size(); ++r) {
    const RoundRecord& rec = t.rounds[r];
    std::snprintf(buf, sizeof buf, "round=%zu\n", r);
    out += buf;
    add_doubles("try_emds", rec.try_emds);
    std::snprintf(buf, sizeof buf, "best_try=%zu\n", rec.best_try);
    out += buf;
    add_u64s("selected", rec.selected);
    add_doubles("population", rec.population);
    std::snprintf(buf, sizeof buf, "emd_star=%a\n", rec.emd_star);
    out += buf;
    std::snprintf(buf, sizeof buf, "weights_fnv1a=0x%016" PRIx64 "\n",
                  weights_fingerprint(rec.global_weights));
    out += buf;
    std::snprintf(buf, sizeof buf, "accuracy=%a\n", rec.accuracy);
    out += buf;
    // Only rendered when churn happened, so a fault-free transcript is
    // byte-identical to the pre-quarantine format.
    if (!rec.dropped.empty()) add_u64s("dropped", rec.dropped);
  }
  for (const QuarantineRecord& q : t.quarantined) {
    out += "quarantined=client:";
    if (q.client_id == QuarantineRecord::kUnknownClient) {
      out += '?';
    } else {
      std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(q.client_id));
      out += buf;
    }
    out += " round:";
    if (q.round == QuarantineRecord::kSetupRound) {
      out += "setup";
    } else {
      std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(q.round));
      out += buf;
    }
    out += " phase:";
    out += to_string(q.phase);
    out += " reason:";
    out += to_string(q.reason);
    out += '\n';
  }
  return out;
}

SessionTranscript run_server_session(std::span<const std::shared_ptr<Transport>> links,
                                     const data::FederatedDataset& dataset,
                                     const nn::Sequential& prototype,
                                     const SessionParams& params,
                                     fl::ChannelAccountant* channel) {
  const std::size_t N = links.size();
  if (N != dataset.num_clients()) {
    throw std::invalid_argument("run_server_session: one link per dataset client required");
  }
  check_session_params(params, N);

  // Accounting lives on the transports (exact frame sizes, aggregator
  // perspective). A session-local accountant is always attached so the
  // transcript's per-round ledgers exist even without a caller channel; it
  // is merged into `channel` at the end and detached on every exit path
  // (the links may outlive this call).
  fl::ChannelAccountant acct;
  for (const auto& link : links) {
    link->set_accountant(&acct, fl::Direction::kServerToClient);
  }
  SessionTranscript t;
  try {
    t = server_session_impl(links, dataset, prototype, params, acct);
  } catch (...) {
    for (const auto& link : links) link->set_accountant(nullptr, fl::Direction::kServerToClient);
    throw;
  }
  for (const auto& link : links) link->set_accountant(nullptr, fl::Direction::kServerToClient);
  if (channel != nullptr) channel->add(acct.snapshot());
  return t;
}

void serve_client(Transport& link, std::size_t client_id,
                  const data::FederatedDataset& dataset, const nn::Sequential& prototype,
                  const SessionParams& params) {
  const core::RegistryCodec codec(params.num_classes, params.reference_set);
  const auto samples = dataset.client_samples(client_id);
  const fl::Client client(client_id, {samples.begin(), samples.end()}, &dataset);
  const stats::Distribution& dist = client.label_distribution();
  // Algorithm 1 runs locally and its result never leaves this endpoint —
  // the registry crosses the wire encrypted, participation as self-drawn
  // bits.
  const core::Registration reg = core::register_client(codec, dist, params.sigma);
  const he::PackedCodec session_packed(params.secure.key_bits - 1,
                                       params.secure.packing_slot_bits);

  // Frame sequencing (wire v4): every outbound frame carries this
  // connection's next sequence number, and every inbound frame must carry
  // the exact successor of the last one seen — a duplicated or reordered
  // server frame is a replay, never a silently accepted repeat.
  std::uint16_t send_seq = 0;
  std::uint16_t recv_seq = 0;
  auto send = [&](Frame f) {
    f.seq = send_seq++;
    link.send(f);
  };

  send(make_client_hello({static_cast<std::uint64_t>(client_id), kWireVersion}));

  he::Keypair keys;
  bool have_key = false;
  std::uint64_t session_seed = 0;
  bool have_hello = false;
  // Eq. 6 probability, computable only once the registry broadcast arrived.
  double probability = 0;
  bool have_registry = false;
  std::uint64_t next_round = 0;
  for (;;) {
    auto frame = link.receive();
    if (!frame) {
      // The session ends with an explicit kShutdown; a bare EOF means the
      // aggregator died mid-session and must not look like success.
      throw TransportError("serve_client: server vanished before shutdown");
    }
    if (frame->seq != recv_seq) {
      throw WireError(WireErrc::kReplayed, "serve_client: server frame out of sequence");
    }
    ++recv_seq;
    switch (frame->type) {
      case MsgType::kServerHello: {
        const ServerHello hello = parse_server_hello(*frame);
        if (hello.cohort_index != client_id) {
          throw TransportError("serve_client: server bound us to the wrong id");
        }
        if (hello.num_clients != dataset.num_clients()) {
          // A cohort-size mismatch means the two processes were launched
          // with different worlds — fail fast instead of completing a
          // session whose transcript can only diverge.
          throw TransportError("serve_client: cohort size mismatch (server says " +
                               std::to_string(hello.num_clients) + ", local dataset has " +
                               std::to_string(dataset.num_clients()) + ")");
        }
        session_seed = hello.session_seed;
        have_hello = true;
        break;
      }
      case MsgType::kKeyMaterial: {
        // The agent dispatches the full keypair (paper §5.1). Every cohort
        // member holds the private half, which is exactly what lets this
        // endpoint decrypt the registry broadcast and draw its own
        // participation — the aggregator is the one party without it.
        const KeyMaterial km = parse_key_material(*frame);
        keys = {km.pub, km.prv};
        have_key = true;
        break;
      }
      case MsgType::kRegistrationRequest: {
        if (!have_key) throw TransportError("serve_client: registration before keys");
        const SeedRequest req = parse_seed_request(*frame, MsgType::kRegistrationRequest);
        send(encrypt_upload(MsgType::kRegistryUpload, keys.prv, params,
                            core::to_onehot(codec, reg), req.seed));
        break;
      }
      case MsgType::kRegistryBroadcast: {
        // R_A arrives encrypted; this cohort member decrypts it and derives
        // its own Eq. 6 participation probability — the client half of §5.2.
        if (!have_key) throw TransportError("serve_client: broadcast before keys");
        std::vector<std::uint64_t> overall;
        if (payload_is_packed(*frame) != params.secure.use_packing) {
          throw WireError(WireErrc::kBadPayload, "packing mode mismatch");
        }
        if (params.secure.use_packing) {
          const auto v = parse_packed_encrypted_vector(*frame, MsgType::kRegistryBroadcast);
          check_encrypted(v, keys.pub, codec.length(), session_packed);
          overall = v.decrypt(keys.prv);
        } else {
          const auto v = parse_encrypted_vector(*frame, MsgType::kRegistryBroadcast);
          check_encrypted(v, keys.pub, codec.length());
          overall = v.decrypt(keys.prv);
        }
        probability = core::proactive_probability(overall, reg.category_index, params.K);
        have_registry = true;
        break;
      }
      case MsgType::kRoundBegin: {
        if (!have_hello || !have_registry) {
          throw TransportError("serve_client: round begin before registration completed");
        }
        const RoundBegin rb = parse_round_begin(*frame);
        if (rb.round != next_round) {
          throw TransportError("serve_client: server skipped to round " +
                               std::to_string(rb.round) + " (expected " +
                               std::to_string(next_round) + ")");
        }
        ++next_round;
        send(make_participation(
            {static_cast<std::uint64_t>(client_id), rb.round,
             proactive_draws(session_seed, rb.round, client_id, probability, params.H)}));
        break;
      }
      case MsgType::kDistributionRequest: {
        if (!have_key) throw TransportError("serve_client: distribution before keys");
        const SeedRequest req = parse_seed_request(*frame, MsgType::kDistributionRequest);
        send(encrypt_upload(
            MsgType::kDistributionUpload, keys.prv, params,
            core::quantize_distribution(dist, params.secure.fixed_point_scale), req.seed));
        break;
      }
      case MsgType::kModelDown: {
        const WeightsMsg down = parse_weights(*frame, MsgType::kModelDown);
        std::vector<float> trained =
            client.train(prototype, down.weights, params.train, down.seed);
        if (params.secure.update_he_rate > 0.0) {
          if (!have_key || !have_hello || next_round == 0) {
            throw TransportError("serve_client: model down before the session is live");
          }
          // The round this kModelDown belongs to is the one whose
          // kRoundBegin we last acknowledged; its index seeds the
          // update-encryption stream both endpoints derive independently.
          const std::uint64_t round = next_round - 1;
          const SparseUpdatePlan plan =
              sparse_plan(down.weights, params.secure, dataset.num_clients());
          const auto q =
              core::quantize_update(down.weights, trained, params.secure.update_quant_bits,
                                    params.secure.update_quant_scale);
          send(make_sparse_update(
              static_cast<std::uint64_t>(client_id), plan, q, keys.prv,
              static_cast<std::uint8_t>(params.secure.update_quant_bits),
              core::update_encryption_seed(session_seed, round, client_id)));
        } else {
          WeightsMsg up;
          up.seed = client_id;
          up.weights = std::move(trained);
          send(make_weights(MsgType::kModelUpdate, up));
        }
        break;
      }
      case MsgType::kShutdown: {
        link.close();
        return;
      }
      default:
        throw WireError(WireErrc::kBadPayload,
                        "client got unexpected " + to_string(frame->type));
    }
  }
}

SessionTranscript run_session_direct(const data::FederatedDataset& dataset,
                                     const nn::Sequential& prototype,
                                     const SessionParams& params,
                                     fl::ChannelAccountant* channel) {
  const std::size_t N = dataset.num_clients();
  check_session_params(params, N);
  const core::RegistryCodec codec(params.num_classes, params.reference_set);
  const auto& dists = dataset.partition().client_dists;
  bigint::Xoshiro256ss he_rng(params.he_seed);
  // The session-local accountant mirrors the transport-backed driver: it
  // exists regardless of `channel`, carries the per-round deltas, and is
  // merged into the caller's channel at the end.
  fl::ChannelAccountant acct;
  core::SecureSelectionSession session(codec, params.sigma, params.secure, N, he_rng,
                                       &acct);

  SessionTranscript t;
  auto reg = session.run_registration(dists);
  t.overall_registry = std::move(reg.overall_registry);
  t.setup_ledger = acct.snapshot();

  // The client half of §5.2, simulated in-process: every client's Eq. 6
  // probability from the (conceptually broadcast-decrypted) R_A and its own
  // registration — numerically identical to what each wire endpoint
  // computes for itself.
  std::vector<double> probability(N, 0.0);
  for (std::size_t k = 0; k < N; ++k) {
    probability[k] = core::proactive_probability(
        t.overall_registry, reg.registrations[k].category_index, params.K);
  }

  fl::FederatedTrainer trainer(dataset, prototype, params.train, params.train_threads,
                               &acct);
  stats::Rng sel_rng(params.select_seed);
  t.rounds.reserve(params.rounds);
  for (std::size_t r = 0; r < params.rounds; ++r) {
    const fl::ChannelLedger before = acct.snapshot();
    RoundRecord rec;
    std::vector<std::vector<std::uint8_t>> draws(N);
    for (std::size_t k = 0; k < N; ++k) {
      draws[k] = proactive_draws(session.session_seed(), r, k, probability[k], params.H);
    }
    fill_from_outcome(rec, core::multi_time_select(
                               params.num_classes, params.H,
                               [&](std::size_t h) { return resolve_try(draws, h, params.K, sel_rng); },
                               [&](std::size_t, std::span<const std::size_t> sel) {
                                 return session.aggregate_population(dists, sel);
                               }));
    if (params.secure.update_he_rate > 0.0) {
      // Reference path for selective encryption. Paillier decryption of a
      // homomorphic sum is exact (update_slot_bits guarantees no slot
      // overflow for up to N additions), so decrypt(sum(encrypt(q_i)))
      // == sum(q_i) and the direct path computes the u64 sums without
      // doing the crypto — value-identical to the wire paths by
      // construction. Traffic is recorded predictively at the exact frame
      // sizes and ciphertext shares the transports would measure.
      const std::vector<float> global = trainer.server().global_weights();
      const SparseUpdatePlan plan = sparse_plan(global, params.secure, N);
      const std::uint64_t round_seed = stats::derive_seed(params.round_seed, r);
      const std::size_t m = rec.selected.size();
      std::vector<std::vector<std::uint64_t>> qs(m);
      core::parallel_for(m, params.train_threads, [&](std::size_t i) {
        const fl::Client& c = trainer.client(rec.selected[i]);
        const auto trained = c.train(prototype, global, params.train,
                                     stats::derive_seed(round_seed, c.id() + 1));
        qs[i] = core::quantize_update(global, trained, params.secure.update_quant_bits,
                                      params.secure.update_quant_scale);
      });
      std::vector<std::uint64_t> sums(plan.n, 0);
      for (const auto& q : qs) {
        for (std::size_t i = 0; i < plan.n; ++i) sums[i] += q[i];
      }
      trainer.server().set_global_weights(core::merge_quantized_updates(
          global, sums, m, params.secure.update_quant_bits,
          params.secure.update_quant_scale));
      const std::size_t down_bytes = net::wire_size_weights(global.size());
      const std::size_t up_bytes = net::wire_size_model_update_sparse(
          session.public_key(), plan.codec, plan.n, plan.k,
          params.secure.update_quant_bits);
      const std::size_t up_ct =
          net::ciphertext_bytes_packed_vector(session.public_key(), plan.codec, plan.k);
      acct.record(fl::MessageKind::kModelWeights, fl::Direction::kServerToClient,
                  down_bytes * m, m);
      acct.record(fl::MessageKind::kModelWeights, fl::Direction::kClientToServer,
                  up_bytes * m, m, up_ct * m);
      rec.global_weights = trainer.server().global_weights();
      if (params.evaluate) rec.accuracy = trainer.server().evaluate(dataset);
    } else {
      const fl::RoundResult rr = trainer.run_round(
          rec.selected, stats::derive_seed(params.round_seed, r), params.evaluate);
      rec.global_weights = trainer.server().global_weights();
      if (params.evaluate) rec.accuracy = rr.test_accuracy;
    }
    rec.ledger = fl::ledger_delta(acct.snapshot(), before);
    t.rounds.push_back(std::move(rec));
  }
  if (channel != nullptr) channel->add(acct.snapshot());
  return t;
}

SessionTranscript run_loopback_session(const data::FederatedDataset& dataset,
                                       const nn::Sequential& prototype,
                                       const SessionParams& params,
                                       fl::ChannelAccountant* channel) {
  return run_loopback_session(dataset, prototype, params, std::span<const FaultPlan>{},
                              channel);
}

SessionTranscript run_loopback_session(const data::FederatedDataset& dataset,
                                       const nn::Sequential& prototype,
                                       const SessionParams& params,
                                       std::span<const FaultPlan> plans,
                                       fl::ChannelAccountant* channel) {
  const std::size_t N = dataset.num_clients();
  if (!plans.empty() && plans.size() != N) {
    throw std::invalid_argument("run_loopback_session: one fault plan per client required");
  }
  std::vector<std::shared_ptr<Transport>> server_side;
  std::vector<std::shared_ptr<Transport>> client_side;
  server_side.reserve(N);
  client_side.reserve(N);
  for (std::size_t id = 0; id < N; ++id) {
    auto [a, b] = LoopbackTransport::make_pair();
    server_side.push_back(std::move(a));
    client_side.push_back(std::move(b));
  }
  // A protocol error on either side must surface as the typed exception,
  // not std::terminate: client endpoints trap their exceptions, and the
  // server side closes every pair (unblocking the endpoints) and joins
  // before rethrowing. A client running an enabled fault plan is *expected*
  // to die mid-session — its exception is swallowed; the server-side
  // quarantine record is the observable outcome.
  std::vector<std::exception_ptr> client_errors(N);
  std::vector<std::thread> clients;
  clients.reserve(N);
  for (std::size_t id = 0; id < N; ++id) {
    clients.emplace_back([&, id] {
      const bool faulty = id < plans.size() && plans[id].enabled();
      std::shared_ptr<Transport> endpoint = client_side[id];
      if (faulty) endpoint = std::make_shared<FaultyTransport>(endpoint, plans[id]);
      try {
        serve_client(*endpoint, id, dataset, prototype, params);
      } catch (...) {
        if (!faulty) client_errors[id] = std::current_exception();
        client_side[id]->close();
      }
    });
  }
  SessionTranscript t;
  try {
    t = run_server_session(server_side, dataset, prototype, params, channel);
  } catch (...) {
    for (auto& link : server_side) link->close();
    for (auto& th : clients) th.join();
    throw;
  }
  for (auto& th : clients) th.join();
  for (auto& err : client_errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
  return t;
}

SessionTranscript run_tcp_session(const data::FederatedDataset& dataset,
                                  const nn::Sequential& prototype,
                                  const SessionParams& params, std::size_t workers,
                                  fl::ChannelAccountant* channel) {
  return run_tcp_session(dataset, prototype, params, std::span<const FaultPlan>{}, workers,
                         channel);
}

SessionTranscript run_tcp_session(const data::FederatedDataset& dataset,
                                  const nn::Sequential& prototype,
                                  const SessionParams& params,
                                  std::span<const FaultPlan> plans, std::size_t workers,
                                  fl::ChannelAccountant* channel) {
  const std::size_t N = dataset.num_clients();
  if (!plans.empty() && plans.size() != N) {
    throw std::invalid_argument("run_tcp_session: one fault plan per client required");
  }
  TcpServer server(0, workers);
  // Same error discipline as the loopback harness: endpoints trap their
  // exceptions and close their link; the server path closes everything and
  // joins before rethrowing; fault-plan clients are expected to die.
  std::vector<std::exception_ptr> client_errors(N);
  std::vector<std::thread> clients;
  clients.reserve(N);
  for (std::size_t id = 0; id < N; ++id) {
    clients.emplace_back([&, id] {
      const bool faulty = id < plans.size() && plans[id].enabled();
      std::shared_ptr<Transport> link;
      try {
        link = TcpTransport::connect("127.0.0.1", server.port());
        std::shared_ptr<Transport> endpoint = link;
        if (faulty) endpoint = std::make_shared<FaultyTransport>(endpoint, plans[id]);
        serve_client(*endpoint, id, dataset, prototype, params);
      } catch (...) {
        if (!faulty) client_errors[id] = std::current_exception();
        if (link != nullptr) link->close();
      }
    });
  }
  SessionTranscript t;
  std::vector<std::shared_ptr<Transport>> links;
  links.reserve(N);
  try {
    for (std::size_t i = 0; i < N; ++i) {
      auto link = server.accept();
      if (link == nullptr) throw TransportError("run_tcp_session: server stopped");
      links.push_back(std::move(link));
    }
    t = run_server_session(links, dataset, prototype, params, channel);
  } catch (...) {
    for (auto& link : links) link->close();
    server.stop();
    for (auto& th : clients) th.join();
    throw;
  }
  for (auto& th : clients) th.join();
  for (auto& err : client_errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
  return t;
}

}  // namespace dubhe::net
