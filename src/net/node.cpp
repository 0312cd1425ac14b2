#include "net/node.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "core/multitime.hpp"
#include "core/parallel.hpp"
#include "core/registration.hpp"
#include "core/selection.hpp"
#include "core/selective.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "net/codec.hpp"
#include "net/engine.hpp"
#include "stats/rng.hpp"

namespace dubhe::net {

namespace {

using detail::check_encrypted;
using detail::check_session_params;
using detail::fill_from_outcome;
using detail::resolve_try;
using detail::sparse_plan;
using detail::SparseUpdatePlan;

/// Client-side encryption of one upload (registry one-hot or quantized
/// distribution) as a packed vector, seeded from the server's request — the
/// same stream derivation the in-process session uses. The client holds the
/// private key (§5.1), so it takes the key-holder CRT path: byte-identical
/// ciphertexts to the session's public-key reference path.
Frame encrypt_upload(MsgType type, const he::PrivateKey& prv, const he::PackedCodec& packed,
                     std::span<const std::uint64_t> values, std::uint64_t seed) {
  bigint::Xoshiro256ss rng(seed);
  return encode(type, he::PackedEncryptedVector::encrypt(prv, packed, values, rng));
}

/// Client half: split a quantized update along the plan's mask, encrypt
/// the top-k portion (key-holder path) under the round's derived stream,
/// frame the rest as plaintext behind the bitmap.
Frame make_sparse_update(std::uint64_t client_id, const SparseUpdatePlan& plan,
                         std::span<const std::uint64_t> quantized,
                         const he::PrivateKey& prv, std::uint64_t seed) {
  std::vector<std::uint64_t> enc_vals(plan.k);
  for (std::size_t j = 0; j < plan.k; ++j) enc_vals[j] = quantized[plan.mask[j]];
  ModelUpdateSparse m;
  m.client_id = client_id;
  m.total_count = static_cast<std::uint32_t>(plan.n);
  m.quant_bits = static_cast<std::uint8_t>(core::kUpdateQuantBits);
  m.bitmap = plan.bitmap;
  m.plain_values.resize(plan.plain_idx.size());
  for (std::size_t j = 0; j < plan.plain_idx.size(); ++j) {
    m.plain_values[j] = quantized[plan.plain_idx[j]];
  }
  bigint::Xoshiro256ss rng(seed);
  m.encrypted = he::PackedEncryptedVector::encrypt(prv, plan.codec, enc_vals, rng);
  return encode(m);
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
  // The flat server is the engine over one cohort child owning every client.
  return detail::run_engine(
      links,
      [&](std::uint64_t session_seed) {
        auto cohort = std::make_unique<detail::CohortChild>(0, ShardRange{0, N}, N, params);
        cohort->hello(links, session_seed);
        std::vector<std::unique_ptr<detail::Child>> children;
        children.push_back(std::move(cohort));
        return children;
      },
      dataset, prototype, params, channel);
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

  send(encode<ClientHello>({static_cast<std::uint64_t>(client_id), kWireVersion}));

  he::PrivateKey prv;
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
        const ServerHello hello = decode<ServerHello>(*frame);
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
        prv = decode<KeyMaterial>(*frame).prv;
        have_key = true;
        break;
      }
      case MsgType::kRegistrationRequest: {
        if (!have_key) throw TransportError("serve_client: registration before keys");
        const SeedRequest req = decode<SeedRequest>(*frame, MsgType::kRegistrationRequest);
        send(encrypt_upload(MsgType::kRegistryUpload, prv, session_packed,
                            core::to_onehot(codec, reg), req.seed));
        break;
      }
      case MsgType::kRegistryBroadcast: {
        // R_A arrives encrypted; this cohort member decrypts it and derives
        // its own Eq. 6 participation probability — the client half of §5.2.
        if (!have_key) throw TransportError("serve_client: broadcast before keys");
        const auto v = decode<he::PackedEncryptedVector>(*frame, MsgType::kRegistryBroadcast,
                                                         prv.public_key());
        check_encrypted(v, codec.length(), session_packed);
        probability =
            core::proactive_probability(v.decrypt(prv), reg.category_index, params.K);
        have_registry = true;
        break;
      }
      case MsgType::kRoundBegin: {
        if (!have_hello || !have_registry) {
          throw TransportError("serve_client: round begin before registration completed");
        }
        const RoundBegin rb = decode<RoundBegin>(*frame);
        if (rb.round != next_round) {
          throw TransportError("serve_client: server skipped to round " +
                               std::to_string(rb.round) + " (expected " +
                               std::to_string(next_round) + ")");
        }
        ++next_round;
        send(encode<Participation>(
            {static_cast<std::uint64_t>(client_id), rb.round,
             proactive_draws(session_seed, rb.round, client_id, probability, params.H)}));
        break;
      }
      case MsgType::kDistributionRequest: {
        if (!have_key) throw TransportError("serve_client: distribution before keys");
        const SeedRequest req = decode<SeedRequest>(*frame, MsgType::kDistributionRequest);
        send(encrypt_upload(
            MsgType::kDistributionUpload, prv, session_packed,
            core::quantize_distribution(dist, params.secure.fixed_point_scale), req.seed));
        break;
      }
      case MsgType::kModelDown: {
        const WeightsMsg down = decode<WeightsMsg>(*frame, MsgType::kModelDown);
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
          const auto q = core::quantize_update(down.weights, trained);
          send(make_sparse_update(static_cast<std::uint64_t>(client_id), plan, q, prv,
                                  core::update_encryption_seed(session_seed, round, client_id)));
        } else {
          WeightsMsg up;
          up.seed = client_id;
          up.weights = std::move(trained);
          send(encode(MsgType::kModelUpdate, up));
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
  core::SecureSelectionSession session(codec, params.sigma, params.secure, N, he_rng);

  // The frames the transports would carry, priced at their exact wire
  // sizes into a session-local accountant that mirrors run_server_session's:
  // it carries the per-round deltas and is merged into the caller's channel
  // at the end.
  fl::ChannelAccountant acct;
  const auto price = [&acct](fl::MessageKind kind, fl::Direction dir, const WireSize& size,
                             std::size_t count) {
    acct.record(kind, dir, size.frame * count, count, size.ciphertext * count);
  };
  const he::PackedCodec packed(params.secure.key_bits - 1, params.secure.packing_slot_bits);
  const WireSize registry_frame =
      wire_size(packed_shape(session.public_key(), packed, codec.length()));
  const WireSize distribution_frame =
      wire_size(packed_shape(session.public_key(), packed, codec.num_classes()));

  SessionTranscript t;
  auto reg = session.run_registration(dists);
  t.overall_registry = std::move(reg.overall_registry);
  // Setup: the agent's key dispatch to every client, every client's
  // registry upload, and the registry broadcast back.
  price(fl::MessageKind::kKeyMaterial, fl::Direction::kServerToClient,
        wire_size(KeyMaterial{session.keypair().prv}), N);
  price(fl::MessageKind::kRegistry, fl::Direction::kClientToServer, registry_frame, N);
  price(fl::MessageKind::kRegistry, fl::Direction::kServerToClient, registry_frame, N);
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

  fl::FederatedTrainer trainer(dataset, prototype, params.train);
  stats::Rng sel_rng(params.select_seed);
  std::vector<std::size_t> everyone(N);
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
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
                               [&](std::size_t h) {
                                 return resolve_try(draws, everyone, h, params.K, sel_rng);
                               },
                               [&](std::size_t, std::span<const std::size_t> sel) {
                                 // One upload per selected client; the sum
                                 // reaches the agent without a frame.
                                 price(fl::MessageKind::kDistribution,
                                       fl::Direction::kClientToServer, distribution_frame,
                                       sel.size());
                                 return session.aggregate_population(dists, sel);
                               }));
    const std::size_t m = rec.selected.size();
    // kModelDown and kModelUpdate frames are the same width (WeightsMsg).
    const WireSize down = wire_size(WeightsMsg{0, trainer.server().global_weights()});
    WireSize up = down;
    if (params.secure.update_he_rate > 0.0) {
      // Reference path for selective encryption. Paillier decryption of a
      // homomorphic sum is exact (update_slot_bits guarantees no slot
      // overflow for up to N additions), so decrypt(sum(encrypt(q_i)))
      // == sum(q_i) and the direct path computes the u64 sums without
      // doing the crypto — value-identical to the wire paths by
      // construction.
      const std::vector<float> global = trainer.server().global_weights();
      const SparseUpdatePlan plan = sparse_plan(global, params.secure, N);
      const std::uint64_t round_seed = stats::derive_seed(params.round_seed, r);
      std::vector<std::vector<std::uint64_t>> qs(m);
      core::parallel_for(m, 0, [&](std::size_t i) {
        const fl::Client& c = trainer.client(rec.selected[i]);
        const auto trained = c.train(prototype, global, params.train,
                                     stats::derive_seed(round_seed, c.id() + 1));
        qs[i] = core::quantize_update(global, trained);
      });
      std::vector<std::uint64_t> sums(plan.n, 0);
      for (const auto& q : qs) {
        for (std::size_t i = 0; i < plan.n; ++i) sums[i] += q[i];
      }
      trainer.server().set_global_weights(core::merge_quantized_updates(global, sums, m));
      up = wire_size(ModelUpdateSparse{
          0, static_cast<std::uint32_t>(plan.n),
          static_cast<std::uint8_t>(core::kUpdateQuantBits), {}, {},
          packed_shape(session.public_key(), plan.codec, plan.k)});
      rec.global_weights = trainer.server().global_weights();
      if (params.evaluate) rec.accuracy = trainer.server().evaluate(dataset);
    } else {
      const fl::RoundResult rr = trainer.run_round(
          rec.selected, stats::derive_seed(params.round_seed, r), params.evaluate);
      rec.global_weights = trainer.server().global_weights();
      if (params.evaluate) rec.accuracy = rr.test_accuracy;
    }
    price(fl::MessageKind::kModelWeights, fl::Direction::kServerToClient, down, m);
    price(fl::MessageKind::kModelWeights, fl::Direction::kClientToServer, up, m);
    rec.ledger = fl::ledger_delta(acct.snapshot(), before);
    t.rounds.push_back(std::move(rec));
  }
  if (channel != nullptr) channel->add(acct.snapshot());
  return t;
}

}  // namespace dubhe::net
