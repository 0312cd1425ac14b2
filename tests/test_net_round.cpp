// The net layer's acceptance contract: a full secure session — registration
// once, then R global rounds of proactive participation + multi-time
// selection + training over the same persistent connections — produces
// byte-identical transcripts whether it runs through direct in-process
// calls, a LoopbackTransport pair per client, or real TCP sockets on
// localhost. Participation is drawn client-side (no kRegistrationInfo on
// the wire), and the §6.4 byte accounting agrees per round between the
// transports and (for every payload category) with the frames the direct
// path prices. Every execution mode refuses packed slots too narrow for the
// session's sums before its first frame.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cpu.hpp"
#include "core/registry.hpp"
#include "core/telemetry.hpp"
#include "net/codec.hpp"
#include "net/engine.hpp"
#include "net/fault.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "net/tcp.hpp"
#include "nn/builders.hpp"
#include "paillier/packing.hpp"

namespace dubhe {
namespace {

data::FederatedDataset make_dataset(std::size_t num_clients) {
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = num_clients;
  pc.samples_per_client = 48;
  pc.rho = 8;
  pc.emd_avg = 1.4;
  pc.seed = 21;
  return {data::mnist_like(), pc};
}

net::SessionParams make_params(std::size_t K, std::size_t rounds = 1) {
  net::SessionParams p;
  p.secure.key_bits = 128;  // counts and weights are key-size independent
  p.K = K;
  p.H = 3;
  p.rounds = rounds;
  p.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  return p;
}

void expect_same_round(const net::RoundRecord& a, const net::RoundRecord& b) {
  EXPECT_EQ(a.try_emds, b.try_emds);  // exact double equality, no tolerance
  EXPECT_EQ(a.best_try, b.best_try);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.population, b.population);
  EXPECT_EQ(a.emd_star, b.emd_star);
  ASSERT_EQ(a.global_weights.size(), b.global_weights.size());
  EXPECT_EQ(std::memcmp(a.global_weights.data(), b.global_weights.data(),
                        a.global_weights.size() * sizeof(float)),
            0);
  EXPECT_EQ(a.accuracy, b.accuracy);
}

void expect_same_transcript(const net::SessionTranscript& a,
                            const net::SessionTranscript& b) {
  EXPECT_EQ(a.overall_registry, b.overall_registry);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    expect_same_round(a.rounds[r], b.rounds[r]);
  }
  EXPECT_EQ(net::format_transcript(a), net::format_transcript(b));
}

/// The encrypted payload categories must agree between the frames the
/// direct path prices and the frames that actually crossed a transport.
/// (Control framing exists only where a wire is materialized — see
/// src/net/README.md.)
void expect_encrypted_categories_equal(const fl::ChannelLedger& direct,
                                       const fl::ChannelLedger& wire) {
  using fl::Direction;
  using fl::MessageKind;
  for (const auto kind : {MessageKind::kKeyMaterial, MessageKind::kRegistry,
                          MessageKind::kDistribution, MessageKind::kModelWeights}) {
    EXPECT_EQ(direct.at(kind, Direction::kServerToClient),
              wire.at(kind, Direction::kServerToClient))
        << to_string(kind);
    EXPECT_EQ(direct.at(kind, Direction::kClientToServer),
              wire.at(kind, Direction::kClientToServer))
        << to_string(kind);
  }
}

TEST(NetRound, LoopbackMatchesDirectBitForBit) {
  const auto dataset = make_dataset(8);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(3);

  fl::ChannelAccountant direct_channel;
  const auto direct = net::run_session_direct(dataset, proto, params, &direct_channel);
  fl::ChannelAccountant loop_channel;
  const auto loopback = net::run_loopback_session(dataset, proto, params, {}, &loop_channel);

  expect_same_transcript(direct, loopback);
  ASSERT_EQ(direct.rounds.size(), 1u);
  ASSERT_EQ(direct.rounds[0].selected.size(), 3u);
  EXPECT_GT(direct.rounds[0].accuracy, 0.05);

  // The §6.4 counts on the direct ledger (N = 8, K = 3, H = 3, one round):
  // N key dispatches, N registry frames each way, H·K distribution
  // uploads and no distribution frame back, m model frames each way.
  using fl::Direction;
  using fl::MessageKind;
  const std::size_t N = dataset.num_clients();
  const std::size_t HK = params.H * params.K;
  const std::size_t m = direct.rounds[0].selected.size();
  const fl::ChannelLedger d = direct_channel.snapshot();
  EXPECT_EQ(d.messages(MessageKind::kKeyMaterial, Direction::kServerToClient), N);
  EXPECT_EQ(d.messages(MessageKind::kKeyMaterial, Direction::kClientToServer), 0u);
  // Frame sizes depend on the key's width, never its value.
  bigint::Xoshiro256ss key_rng(1);
  const he::Keypair kp = he::Keypair::generate(key_rng, params.secure.key_bits);
  const core::RegistryCodec codec(params.num_classes, params.reference_set);
  const net::WireSize registry_frame = net::wire_size(net::packed_shape(
      kp.pub, he::PackedCodec(params.secure.key_bits - 1, params.secure.packing_slot_bits),
      codec.length()));
  for (const auto dir : {Direction::kClientToServer, Direction::kServerToClient}) {
    EXPECT_EQ(d.messages(MessageKind::kRegistry, dir), N);
    EXPECT_EQ(d.bytes(MessageKind::kRegistry, dir), N * registry_frame.frame);
    EXPECT_EQ(d.encrypted_bytes(MessageKind::kRegistry, dir), N * registry_frame.ciphertext);
    EXPECT_EQ(d.messages(MessageKind::kModelWeights, dir), m);
  }
  EXPECT_EQ(d.messages(MessageKind::kDistribution, Direction::kClientToServer), HK);
  EXPECT_EQ(d.messages(MessageKind::kDistribution, Direction::kServerToClient), 0u);
  EXPECT_EQ(d.messages(MessageKind::kControl), 0u);

  // Exact-byte agreement between the direct path's ledger and the frames
  // that actually crossed the transports, category by category — both on
  // the aggregate accountants and on the per-phase ledgers the transcript
  // carries.
  const fl::ChannelLedger loop = loop_channel.snapshot();
  expect_encrypted_categories_equal(d, loop);
  expect_encrypted_categories_equal(direct.setup_ledger, loopback.setup_ledger);
  expect_encrypted_categories_equal(direct.rounds[0].ledger, loopback.rounds[0].ledger);
  // The transports saw real control traffic; the direct path has none.
  EXPECT_GT(loop.messages(MessageKind::kControl), 0u);
  // The proactive check-in (kRoundBegin down, kParticipation up) is control
  // traffic: one frame per client per round in each direction at least.
  EXPECT_GE(loopback.rounds[0].ledger.messages(MessageKind::kControl,
                                               Direction::kClientToServer),
            N);
}

TEST(NetRound, TranscriptByteIdenticalWithTelemetryOnAndOff) {
  // The out-of-band contract: flipping collection AND tracing on must not
  // move a single transcript byte — no instrumentation site may touch an
  // RNG stream, a payload, or a control decision. Quarantines included:
  // the fault plan exercises the counting path inside CohortChild.
  const auto dataset = make_dataset(6);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2, 2);
  params.evaluate = false;
  std::vector<net::FaultPlan> plans(6);
  plans[1] = net::parse_fault_plan("disconnect@participation:1");

  telemetry::set_enabled(false);
  telemetry::set_trace_enabled(false);
  const auto off = net::run_loopback_session(dataset, proto, params, plans);

  telemetry::set_enabled(true);
  telemetry::set_trace_enabled(true);
  const auto on = net::run_loopback_session(dataset, proto, params, plans);
  telemetry::set_enabled(false);
  telemetry::set_trace_enabled(false);

  EXPECT_EQ(net::format_transcript(off), net::format_transcript(on));
  expect_same_transcript(off, on);
  ASSERT_EQ(off.quarantined.size(), 1u);

  // And the instrumented run did record: the counting is real, just
  // invisible to the protocol.
  EXPECT_GT(telemetry::counter("dubhe_frames_total{dir=\"in\"}").value(), 0u);
  EXPECT_GT(
      telemetry::counter("dubhe_quarantine_total{reason=\"disconnect\"}").value(), 0u);
  EXPECT_GT(telemetry::histogram("dubhe_phase_seconds{phase=\"registration\"}").count(),
            0u);
  EXPECT_FALSE(telemetry::trace_events().empty());
  telemetry::reset_all();
}

TEST(NetRound, SelectiveUpdateSessionMatchesEverywhere) {
  // he_rate > 0 switches the model uplink to kModelUpdateSparse: top-k
  // coordinates as packed ciphertexts, the rest quantized plaintext behind
  // the shared bitmap. The transcript must stay byte-identical across
  // direct, loopback, and TCP — and the ledger's plaintext/encrypted byte
  // split must agree cell-by-cell between the two transports (Cell equality
  // includes the encrypted_bytes column).
  const std::size_t N = 4;
  const std::size_t R = 2;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2, R);
  params.secure.update_he_rate = 0.5;

  fl::ChannelAccountant tcp_channel;
  const auto tcp = net::run_tcp_session(dataset, proto, params, 1, {}, &tcp_channel);
  fl::ChannelAccountant loop_channel;
  const auto loopback = net::run_loopback_session(dataset, proto, params, {}, &loop_channel);
  const auto direct = net::run_session_direct(dataset, proto, params);

  expect_same_transcript(tcp, loopback);
  expect_same_transcript(tcp, direct);
  ASSERT_EQ(tcp.rounds.size(), R);
  EXPECT_NE(tcp.rounds[0].global_weights, tcp.rounds[R - 1].global_weights);
  EXPECT_GT(tcp.rounds[R - 1].accuracy, 0.05);

  EXPECT_EQ(tcp_channel.snapshot(), loop_channel.snapshot());
  for (std::size_t r = 0; r < R; ++r) {
    EXPECT_EQ(tcp.rounds[r].ledger, loopback.rounds[r].ledger) << "round " << r;
  }

  // The uplink now carries ciphertext material; the model downlink stays
  // plaintext. The direct path's predictive accounting must equal what
  // net::encrypted_payload_bytes measured on the real frames.
  const auto& led = tcp.rounds[0].ledger;
  EXPECT_GT(led.encrypted_bytes(fl::MessageKind::kModelWeights,
                                fl::Direction::kClientToServer),
            0u);
  EXPECT_EQ(led.encrypted_bytes(fl::MessageKind::kModelWeights,
                                fl::Direction::kServerToClient),
            0u);
  for (std::size_t r = 0; r < R; ++r) {
    expect_encrypted_categories_equal(direct.rounds[r].ledger, tcp.rounds[r].ledger);
  }
}

TEST(NetRound, EncryptedUpdateBytesGrowWithHeRate) {
  // The he_rate sweep contract: encrypted uplink bytes are zero at rate 0
  // (bit-for-bit the plaintext path) and grow monotonically with the rate,
  // while the merged model is identical for every rate > 0 — encrypted and
  // plaintext coordinates quantize the same way, so the rate buys privacy,
  // not a different model.
  const auto dataset = make_dataset(4);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  std::uint64_t prev_encrypted = 0;
  std::vector<float> quantized_merge;
  for (const double rate : {0.0, 0.1, 0.5, 1.0}) {
    auto params = make_params(2);
    params.secure.update_he_rate = rate;
    params.evaluate = false;
    fl::ChannelAccountant channel;
    const auto t = net::run_session_direct(dataset, proto, params, &channel);
    const std::uint64_t enc = channel.snapshot().encrypted_bytes(
        fl::MessageKind::kModelWeights, fl::Direction::kClientToServer);
    if (rate == 0.0) {
      EXPECT_EQ(enc, 0u);
    } else {
      EXPECT_GT(enc, prev_encrypted) << "he_rate " << rate;
      if (quantized_merge.empty()) {
        quantized_merge = t.rounds[0].global_weights;
      } else {
        EXPECT_EQ(t.rounds[0].global_weights, quantized_merge) << "he_rate " << rate;
      }
    }
    prev_encrypted = enc;
  }
}

TEST(NetRound, ThreeRoundPersistentSessionMatchesEverywhere) {
  // The multi-round tentpole: 1 in-test server + 4 client threads complete
  // a 3-round session over ONE persistent TCP connection per client —
  // registration and key dispatch happen once, every round re-draws
  // participation client-side — and the transcript is byte-identical to
  // loopback and to the direct in-process path, with per-round ledgers
  // equal cell-by-cell across the two transports.
  const std::size_t N = 4;
  const std::size_t R = 3;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(2, R);

  fl::ChannelAccountant tcp_channel;
  const auto tcp = net::run_tcp_session(dataset, proto, params, 1, {}, &tcp_channel);

  // The same session again at 4 event-loop workers (connections sharded
  // across loops), and once more with epoll masked out of the enabled CPU
  // feature set so every worker runs the portable poll(2) backend. The
  // transcript must be byte-identical in all cases: readiness backend and
  // shard count are pure transport concerns.
  const auto tcp_sharded = net::run_tcp_session(dataset, proto, params, 4);
  expect_same_transcript(tcp_sharded, tcp);
  const std::uint32_t prev_mask =
      core::cpu::set_enabled(core::cpu::enabled() & ~core::cpu::kEpoll);
  const auto tcp_poll = net::run_tcp_session(dataset, proto, params, 4);
  core::cpu::set_enabled(prev_mask);
  expect_same_transcript(tcp_poll, tcp);

  fl::ChannelAccountant loop_channel;
  const auto loopback = net::run_loopback_session(dataset, proto, params, {}, &loop_channel);
  const auto direct = net::run_session_direct(dataset, proto, params);

  ASSERT_EQ(tcp.rounds.size(), R);
  expect_same_transcript(tcp, loopback);
  expect_same_transcript(tcp, direct);

  // Rounds genuinely progress: FedAvg moved the global model each round.
  EXPECT_NE(tcp.rounds[0].global_weights, tcp.rounds[R - 1].global_weights);

  // The two transports must agree on every ledger cell exactly — same
  // frames, same bytes, regardless of the medium — in aggregate and round
  // by round (setup phase included).
  EXPECT_EQ(tcp_channel.snapshot(), loop_channel.snapshot());
  EXPECT_EQ(tcp.setup_ledger, loopback.setup_ledger);
  for (std::size_t r = 0; r < R; ++r) {
    EXPECT_EQ(tcp.rounds[r].ledger, loopback.rounds[r].ledger) << "round " << r;
    // Per-round encrypted categories also match the no-frames reference.
    expect_encrypted_categories_equal(direct.rounds[r].ledger, tcp.rounds[r].ledger);
  }

  // Per-round model traffic: one down + one up per participant per round.
  for (std::size_t r = 0; r < R; ++r) {
    EXPECT_EQ(tcp.rounds[r].ledger.messages(fl::MessageKind::kModelWeights,
                                            fl::Direction::kServerToClient),
              params.K);
    EXPECT_EQ(tcp.rounds[r].ledger.messages(fl::MessageKind::kModelWeights,
                                            fl::Direction::kClientToServer),
              params.K);
  }
}

TEST(NetRound, EveryModeRefusesNarrowSlotsBeforeAnyFrame) {
  // 20-bit slots cannot hold a distribution sum of K = 8 shares at the
  // default fixed-point scale (8 x 10^6 > 2^20). The in-process flow always
  // refused this; a wire session used to run and let class 2 of p_o read
  // 0.161 instead of 0.250, the overflow carried into its neighbour.
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = 8;
  pc.samples_per_client = 48;
  pc.rho = 8;
  pc.emd_avg = 1.8;
  pc.seed = 1;
  const data::FederatedDataset dataset{data::mnist_like(), pc};
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(8);
  params.H = 1;
  params.secure.key_bits = 256;
  params.secure.packing_slot_bits = 20;

  telemetry::reset_all();
  telemetry::set_enabled(true);
  EXPECT_THROW(net::run_session_direct(dataset, proto, params), std::invalid_argument);
  EXPECT_THROW(net::run_loopback_session(dataset, proto, params), std::invalid_argument);
  EXPECT_THROW(net::run_tcp_session(dataset, proto, params, 2), std::invalid_argument);
  EXPECT_THROW(net::run_tree_session(dataset, proto, params, 2), std::invalid_argument);
  EXPECT_THROW(net::run_tree_tcp_session(dataset, proto, params, 2, 1),
               std::invalid_argument);
  telemetry::set_enabled(false);
  EXPECT_EQ(telemetry::counter("dubhe_frames_total{dir=\"out\"}").value(), 0u);
  EXPECT_EQ(telemetry::counter("dubhe_frames_total{dir=\"in\"}").value(), 0u);
  telemetry::reset_all();
}

/// A real CohortChild behind a Child that logs the determination's calls
/// with its index: "P<c>" for each post(ShardTryBegin), "T<c>" for each
/// take_population().
class RecordingChild final : public net::detail::Child {
 public:
  RecordingChild(std::unique_ptr<net::detail::CohortChild> inner, char index, std::string& log)
      : Child(inner->range()), inner_(std::move(inner)), index_(index), log_(log) {}

  void post(const net::KeyMaterial& keys) override { inner_->post(keys); }
  void post(const net::Frame& broadcast) override { inner_->post(broadcast); }
  void post(const net::ShardRoundBegin& begin) override { inner_->post(begin); }
  void post(const net::ShardTryBegin& begin) override {
    (log_ += 'P') += index_;
    inner_->post(begin);
  }
  void post(const net::detail::UpdateRequest& update) override { inner_->post(update); }
  void post_shutdown() override { inner_->post_shutdown(); }

  net::PartialRegistry take_registry() override { return inner_->take_registry(); }
  net::PartialParticipation take_participation() override {
    return inner_->take_participation();
  }
  net::PartialPopulation take_population() override {
    (log_ += 'T') += index_;
    return inner_->take_population();
  }
  net::PartialUpdate take_update() override { return inner_->take_update(); }

 private:
  std::unique_ptr<net::detail::CohortChild> inner_;
  char index_;
  std::string& log_;
};

TEST(NetRound, EngineHasEveryTryInFlightBeforeTakingOne) {
  // The pipelined determination, observed through the Child interface
  // rather than the clock. The engine runs over two cohort children of two
  // clients each; K == N puts both in every try. Client 1 corrupts its
  // first distribution upload, so round 0's first determination fails on
  // try 0 and re-runs, and the tries it had in flight are still taken.
  constexpr std::size_t N = 4;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(N, 2);
  params.evaluate = false;
  std::vector<net::FaultPlan> plans(N);
  plans[1] = net::parse_fault_plan("corrupt@distribution");

  std::vector<std::shared_ptr<net::Transport>> links;
  std::vector<std::thread> clients;
  for (std::size_t id = 0; id < N; ++id) {
    auto [agg, cli] = net::LoopbackTransport::make_pair();
    links.push_back(agg);
    const auto end = std::make_shared<net::FaultyTransport>(cli, plans[id]);
    clients.emplace_back([&, id, end] {
      try {
        net::serve_client(*end, id, dataset, proto, params);
      } catch (const std::exception&) {
        end->close();  // the quarantined client: its link was closed
      }
    });
  }
  std::string log;
  const auto bind = [&](std::uint64_t session_seed) {
    std::vector<std::unique_ptr<net::detail::Child>> kids;
    for (std::uint32_t c = 0; c < 2; ++c) {
      const net::ShardRange range = net::shard_range(N, 2, c);
      auto cohort = std::make_unique<net::detail::CohortChild>(c, range, N, params);
      cohort->hello(std::span(links).subspan(range.first, range.count), session_seed);
      kids.push_back(
          std::make_unique<RecordingChild>(std::move(cohort), static_cast<char>('0' + c), log));
    }
    return kids;
  };
  const auto t = net::detail::run_engine(links, bind, dataset, proto, params, nullptr);
  for (auto& c : clients) c.join();

  ASSERT_EQ(t.quarantined.size(), 1u) << net::format_transcript(t);
  EXPECT_EQ(t.quarantined[0].client_id, 1u);
  EXPECT_EQ(t.quarantined[0].phase, net::SessionPhase::kDistribution);
  // Three determinations — round 0's failed one, its re-run, round 1's —
  // each posting all H = 3 tries to both children before the first take,
  // and each taking every try it posted, oldest first.
  const std::string determination = "P0P1P0P1P0P1T0T1T0T1T0T1";
  EXPECT_EQ(log, determination + determination + determination);
  // Two cohort children under one engine are a tree without the shard hop:
  // the transcript is the flat harness's.
  EXPECT_EQ(net::format_transcript(t),
            net::format_transcript(net::run_loopback_session(dataset, proto, params, plans)));
}

TEST(TcpServerRobustness, BackendSelectionFollowsEnabledFeatures) {
  // Masking epoll out of the enabled set forces the portable backend on any
  // host; with the mask restored, an epoll host selects epoll again.
  const std::uint32_t prev =
      core::cpu::set_enabled(core::cpu::enabled() & ~core::cpu::kEpoll);
  {
    net::TcpServer server(0, 2);
    EXPECT_STREQ(server.backend_name(), "poll");
    EXPECT_EQ(server.worker_count(), 2u);
  }
  core::cpu::set_enabled(prev);
  if (core::cpu::has(core::cpu::kEpoll)) {
    net::TcpServer server(0);
    EXPECT_STREQ(server.backend_name(), "epoll");
  }
}

TEST(TcpServerRobustness, EmfileAcceptShedsInsteadOfHanging) {
  // Regression test for the EMFILE accept path: when the process is out of
  // file descriptors the listener must shed the incoming connection through
  // its reserved emergency fd — accept it, close it, move on — so the
  // client observes a prompt clean close instead of a connection parked
  // forever in the backlog while the listener spins.
  net::TcpServer server(0);

  rlimit old{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &old), 0);
  rlimit tight{};
  tight.rlim_cur = 256;  // far above current usage; the fill loop does the rest
  tight.rlim_max = old.rlim_max;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);

  // Exhaust every allocatable descriptor slot (holes included), then free
  // exactly one: the client socket takes it, leaving accept() to hit EMFILE.
  std::vector<int> fillers;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) break;
    fillers.push_back(fd);
  }
  ASSERT_FALSE(fillers.empty());
  ::close(fillers.back());
  fillers.pop_back();

  // The kernel completes the TCP handshake from the listen backlog, so
  // connect() succeeds even though the server cannot accept. The starved
  // client is raw POSIX on purpose: with zero free descriptors the
  // sanitizer runtimes cannot open /proc/self/maps, so UBSan's vptr check
  // on any virtual Transport call here would misfire — and poll(2) gives
  // the did-it-hang guard without spawning a watchdog thread.
  const int starved = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(starved, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(starved, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  pollfd pfd{};
  pfd.fd = starved;
  pfd.events = POLLIN;  // EOF surfaces as readable-with-zero-bytes
  ASSERT_EQ(::poll(&pfd, 1, 10000), 1)
      << "listener hung instead of shedding the connection under EMFILE";
  char byte = 0;
  EXPECT_EQ(::read(starved, &byte, 1), 0);  // shed = accepted then closed, no data
  ::close(starved);

  for (const int fd : fillers) ::close(fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &old), 0);

  // Capacity restored: the same listener serves real traffic again.
  auto client = net::TcpTransport::connect("127.0.0.1", server.port());
  auto link = server.accept();
  ASSERT_NE(link, nullptr);
  const net::Frame ping{net::MsgType::kShutdown, {1, 2, 3}};
  client->send(ping);
  EXPECT_EQ(link->receive(), ping);
  client->close();
  server.stop();
}

}  // namespace
}  // namespace dubhe
