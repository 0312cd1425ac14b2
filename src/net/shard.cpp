#include "net/shard.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/telemetry.hpp"
#include "net/codec.hpp"
#include "net/engine.hpp"

namespace dubhe::net {

namespace {

using detail::kSetup;
using detail::UpdateRequest;

/// Counts every partial result a shard ships upward, labelled by message.
void count_partial(const char* label) {
  if (!telemetry::enabled()) return;
  telemetry::counter(std::string("dubhe_shard_partials_total{msg=\"") + label + "\"}")
      .inc();
}

/// A shard aggregator one link away: the root's child. Each post encodes
/// the request as its shard-plane frame; each take receives, parses and
/// checks the partial answering it. Shards are infrastructure, so every
/// failure — timeout, sequence violation, unexpected type, a malformed or
/// mislabelled partial — is a fatal TransportError, never a quarantine.
class RemoteShard final : public detail::Child {
 public:
  RemoteShard(std::shared_ptr<Transport> t, std::uint32_t id, ShardRange range,
              const SessionParams& params)
      : Child(range), t_(std::move(t)), id_(id), params_(params) {}

  void send(Frame f) {
    f.seq = send_seq_++;
    t_->send(f);
  }

  void post(const KeyMaterial& keys) override {
    expect(kSetup, params_.timeouts.registration);
    send(encode(keys));
  }
  void post(const Frame& broadcast) override {
    expect(kSetup, params_.timeouts.registration);
    send(broadcast);
  }
  void post(const ShardRoundBegin& begin) override {
    expect(begin.round, params_.timeouts.upload);
    send(encode(begin));
  }
  void post(const ShardTryBegin& begin) override {
    expect(begin.round, params_.timeouts.upload);
    try_index_ = begin.try_index;
    send(encode(begin));
  }
  void post(const UpdateRequest& update) override {
    expect(update.round, params_.timeouts.update);
    send(encode<ShardUpdateBegin>(
        {update.round, update.recipients, {update.weights.begin(), update.weights.end()}}));
  }
  void post_shutdown() override {
    expect(kSetup, params_.timeouts.update);
    draining_ = true;
    send(encode(Shutdown{}));
  }

  PartialRegistry take_registry() override {
    PartialRegistry m = take(MsgType::kPartialRegistry, decode<PartialRegistry>);
    check(m.shard_id == id_, "partial registry from the wrong shard");
    return m;
  }
  PartialParticipation take_participation() override {
    PartialParticipation m = take(MsgType::kPartialParticipation, decode<PartialParticipation>);
    check(m.shard_id == id_ && m.round == round_, "partial participation for the wrong round");
    for (const Participation& e : m.entries) {
      check(owns(e.client_id) && e.draws.size() == params_.H, "invalid participation entry");
    }
    if (draining_) t_->close();
    return m;
  }
  PartialPopulation take_population() override {
    PartialPopulation m = take(MsgType::kPartialPopulation, decode<PartialPopulation>);
    check(m.shard_id == id_ && m.round == round_ && m.try_index == try_index_,
          "partial population for the wrong try");
    return m;
  }
  PartialUpdate take_update() override {
    PartialUpdate m = take(MsgType::kPartialUpdate, decode<PartialUpdate>);
    const std::uint8_t mode = params_.secure.update_he_rate > 0.0 ? 1 : 0;
    check(m.shard_id == id_ && m.round == round_ && m.mode == mode, "bad partial update");
    for (const ShardUpdateEntry& e : m.updates) check(owns(e.client_id), "foreign update entry");
    return m;
  }

 private:
  /// A shard's reply always follows its own client sweep under the shard's
  /// per-client deadlines, so the root waits the phase deadline scaled by
  /// the shard's cohort size (+1 slack) — generous enough to never race an
  /// honest shard, bounded enough that a zombie shard cannot wedge the tree.
  void expect(std::uint64_t round, std::chrono::milliseconds phase_deadline) {
    round_ = round;
    deadline_ = phase_deadline * static_cast<std::int64_t>(range().count + 1);
  }

  template <typename Partial>
  Partial take(MsgType want, Partial (*parse)(const Frame&)) {
    std::optional<Frame> f;
    try {
      f = t_->receive(deadline_);
    } catch (const TransportTimeout&) {
      throw TransportError("run_root_session: shard did not answer in time");
    }
    check(f.has_value(), "shard link closed mid-session");
    check(f->seq == recv_seq_++, "shard frame out of sequence");
    check(f->type == want, "shard sent an unexpected message");
    try {
      return parse(*f);
    } catch (const WireError& e) {
      throw TransportError(std::string("run_root_session: malformed partial: ") + e.what());
    }
  }

  static void check(bool ok, const char* what) {
    if (!ok) throw TransportError(std::string("run_root_session: ") + what);
  }

  std::shared_ptr<Transport> t_;
  std::uint32_t id_;
  const SessionParams& params_;
  std::uint16_t send_seq_ = 0;
  std::uint16_t recv_seq_ = 1;  // the shard hello (seq 0) was already consumed
  std::uint64_t round_ = kSetup;
  std::uint32_t try_index_ = 0;
  std::chrono::milliseconds deadline_{0};
  bool draining_ = false;
};

/// The root's hello: binds each link to the shard id its kShardHello
/// announces. Unlike the client hello this is all-or-nothing — the
/// announced ranges must exactly partition the cohort, so a single bad
/// hello is a deployment error, not churn.
std::vector<std::unique_ptr<detail::Child>> bind_shards(
    std::span<const std::shared_ptr<Transport>> links, std::size_t N,
    const SessionParams& params, std::uint64_t session_seed) {
  const std::size_t A = links.size();
  std::vector<std::unique_ptr<RemoteShard>> shards(A);
  for (const auto& link : links) {
    auto frame = link->receive(params.timeouts.registration);
    if (!frame) throw TransportError("run_root_session: shard closed before hello");
    if (frame->seq != 0) {
      throw TransportError("run_root_session: shard hello out of sequence");
    }
    const ShardHello hello = decode<ShardHello>(*frame);
    if (hello.protocol != kWireVersion) {
      throw TransportError("run_root_session: shard speaks wire v" +
                           std::to_string(hello.protocol) + ", want v" +
                           std::to_string(kWireVersion));
    }
    if (hello.num_shards != A || hello.total_clients != N) {
      throw TransportError("run_root_session: shard topology mismatch");
    }
    const ShardRange want = shard_range(N, A, hello.shard_id);
    if (hello.first_client != want.first || hello.num_clients != want.count) {
      throw TransportError("run_root_session: shard announced a foreign client range");
    }
    if (shards[hello.shard_id] != nullptr) {
      throw TransportError("run_root_session: duplicate shard id " +
                           std::to_string(hello.shard_id));
    }
    shards[hello.shard_id] = std::make_unique<RemoteShard>(link, hello.shard_id, want, params);
  }
  std::vector<std::unique_ptr<detail::Child>> children;
  for (std::size_t s = 0; s < A; ++s) {
    shards[s]->send(encode<ServerHello>(
        {session_seed, static_cast<std::uint32_t>(N), static_cast<std::uint32_t>(s)}));
    children.push_back(std::move(shards[s]));
  }
  return children;
}

}  // namespace

ShardRange shard_range(std::size_t total, std::size_t num_shards, std::size_t shard) {
  if (num_shards == 0) throw std::invalid_argument("shard_range: num_shards == 0");
  if (shard >= num_shards) throw std::invalid_argument("shard_range: shard out of range");
  const std::size_t base = total / num_shards;
  const std::size_t rem = total % num_shards;
  ShardRange r;
  r.count = base + (shard < rem ? 1 : 0);
  r.first = shard * base + std::min(shard, rem);
  return r;
}

SessionTranscript run_root_session(std::span<const std::shared_ptr<Transport>> shard_links,
                                   const data::FederatedDataset& dataset,
                                   const nn::Sequential& prototype,
                                   const SessionParams& params,
                                   fl::ChannelAccountant* channel) {
  const std::size_t N = dataset.num_clients();
  if (shard_links.empty()) {
    throw std::invalid_argument("run_root_session: at least one shard link required");
  }
  if (shard_links.size() > N) {
    throw std::invalid_argument("run_root_session: more shards than clients");
  }
  if (telemetry::enabled()) {
    telemetry::gauge("dubhe_tree_shards").set(static_cast<std::int64_t>(shard_links.size()));
  }
  // The root is the engine over one RemoteShard child per shard link.
  return detail::run_engine(
      shard_links,
      [&](std::uint64_t session_seed) {
        return bind_shards(shard_links, N, params, session_seed);
      },
      dataset, prototype, params, channel);
}

void serve_shard(Transport& uplink,
                 std::span<const std::shared_ptr<Transport>> client_links,
                 std::uint32_t shard_id, std::uint32_t num_shards,
                 std::size_t total_clients, const SessionParams& params) {
  const ShardRange range = shard_range(total_clients, num_shards, shard_id);
  if (client_links.size() != range.count) {
    throw std::invalid_argument("serve_shard: client link count does not match range");
  }

  // Uplink discipline mirrors serve_client: stamped sequence numbers both
  // ways, and any root-side anomaly is fatal (the root is this process's
  // whole reason to exist).
  std::uint16_t up_send = 0;
  std::uint16_t up_recv = 0;
  auto send_up = [&](Frame f) {
    f.seq = up_send++;
    uplink.send(f);
  };
  auto recv_up = [&](std::optional<MsgType> want = std::nullopt) {
    auto f = uplink.receive();
    if (!f) throw TransportError("serve_shard: root vanished before shutdown");
    if (f->seq != up_recv++) {
      throw WireError(WireErrc::kReplayed, "serve_shard: root frame out of sequence");
    }
    if (want && f->type != *want) {
      throw WireError(WireErrc::kBadPayload,
                      "serve_shard: root sent unexpected " + to_string(f->type));
    }
    return *std::move(f);
  };

  send_up(encode<ShardHello>({shard_id, num_shards, range.first, range.count,
                              total_clients, kWireVersion}));
  const ServerHello root_hello = decode<ServerHello>(recv_up(MsgType::kServerHello));
  if (root_hello.cohort_index != shard_id || root_hello.num_clients != total_clients) {
    throw TransportError("serve_shard: root bound us to the wrong shard");
  }

  // The slice behind this shard: every frame a client sees is the one a
  // flat aggregator would send it (payload and per-link sequence number).
  detail::CohortChild cohort(shard_id, range, total_clients, params);
  {
    telemetry::Span hello_span("phase:hello", &detail::phase_hist(SessionPhase::kHello));
    cohort.hello(client_links, root_hello.session_seed);
  }
  {
    telemetry::Span reg_span("phase:registration",
                             &detail::phase_hist(SessionPhase::kRegistration));
    cohort.post(decode<KeyMaterial>(recv_up(MsgType::kKeyMaterial)));
    send_up(encode(cohort.take_registry()));
    count_partial("partial_registry");
    cohort.post(recv_up(MsgType::kRegistryBroadcast));
    send_up(encode(cohort.take_participation()));
    count_partial("setup_flush");
  }

  // The message-driven main loop: the root drives, the cohort answers, and
  // each partial goes up as the matching shard-plane frame.
  for (;;) {
    const Frame f = recv_up();
    switch (f.type) {
      case MsgType::kShardRoundBegin: {
        telemetry::Span span("phase:participation",
                             &detail::phase_hist(SessionPhase::kParticipation));
        cohort.post(decode<ShardRoundBegin>(f));
        send_up(encode(cohort.take_participation()));
        count_partial("partial_participation");
        break;
      }
      case MsgType::kShardTryBegin: {
        telemetry::Span span("phase:distribution",
                             &detail::phase_hist(SessionPhase::kDistribution));
        cohort.post(decode<ShardTryBegin>(f));
        send_up(encode(cohort.take_population()));
        count_partial("partial_population");
        break;
      }
      case MsgType::kShardUpdateBegin: {
        telemetry::Span span("phase:update", &detail::phase_hist(SessionPhase::kUpdate));
        const ShardUpdateBegin begin = decode<ShardUpdateBegin>(f);
        cohort.post(UpdateRequest{begin.round, begin.recipients, begin.weights});
        send_up(encode(cohort.take_update()));
        count_partial("partial_update");
        break;
      }
      case MsgType::kShutdown: {
        telemetry::Span span("phase:drain", &detail::phase_hist(SessionPhase::kShutdown));
        cohort.post_shutdown();
        send_up(encode(cohort.take_participation()));
        count_partial("drain_flush");
        uplink.close();
        return;
      }
      default:
        throw WireError(WireErrc::kBadPayload,
                        "serve_shard: root sent unexpected " + to_string(f.type));
    }
  }
}

}  // namespace dubhe::net
