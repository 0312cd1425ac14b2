// The churn half of the net layer's acceptance contract: a client that
// misbehaves — silently, loudly, or maliciously — costs the cohort one
// participant, never the session. Each matrix row injects one scripted
// fault through net::FaultyTransport and asserts that (a) the session still
// completes every round, (b) the server produced exactly the typed
// quarantine record the fault maps to, and (c) the transcript (quarantine
// records included) is byte-identical across loopback and TCP, because
// faults trigger on frame content, never timing. An empty fault plan must
// leave the transcript byte-identical to the fault-free driver.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "net/codec.hpp"
#include "net/engine.hpp"
#include "net/fault.hpp"
#include "net/node.hpp"
#include "nn/builders.hpp"
#include "paillier/encrypted_vector.hpp"

namespace dubhe {
namespace {

using net::FaultKind;
using net::FaultPlan;
using net::MsgType;
using net::QuarantineReason;
using net::SessionPhase;

constexpr std::uint64_t kNoId = net::QuarantineRecord::kUnknownClient;
constexpr std::uint64_t kSetup = net::QuarantineRecord::kSetupRound;

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

net::SessionParams make_params(std::size_t K, std::size_t rounds = 2) {
  net::SessionParams p;
  p.secure.key_bits = 128;  // churn semantics are key-size independent
  p.K = K;
  p.H = 3;
  p.rounds = rounds;
  p.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  p.evaluate = false;
  return p;
}

std::vector<FaultPlan> plan_for(std::size_t n, std::size_t id, const FaultPlan& plan) {
  std::vector<FaultPlan> plans(n);
  plans[id] = plan;
  return plans;
}

/// Runs one fault-plan spec on both transports and checks the session
/// survived with exactly the expected quarantine record. K == N so the
/// faulty client is deterministically selected whenever it is still alive.
void expect_quarantine(const char* spec, std::uint64_t client, std::uint64_t round,
                       SessionPhase phase, QuarantineReason reason,
                       const net::SessionParams& base_params) {
  SCOPED_TRACE(spec);
  const std::size_t N = 4;
  const std::size_t faulty = 1;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto plans = plan_for(N, faulty, net::parse_fault_plan(spec));

  const auto loop = net::run_loopback_session(dataset, proto, base_params, plans);
  const auto tcp = net::run_tcp_session(dataset, proto, base_params, 1, plans);

  // The whole point: churn transcripts are part of the deterministic
  // acceptance contract, quarantine records included.
  EXPECT_EQ(net::format_transcript(loop), net::format_transcript(tcp));

  // The session completed every round over the survivors.
  ASSERT_EQ(loop.rounds.size(), base_params.rounds);
  for (const auto& rec : loop.rounds) EXPECT_FALSE(rec.selected.empty());

  ASSERT_EQ(loop.quarantined.size(), 1u);
  const net::QuarantineRecord& q = loop.quarantined[0];
  EXPECT_EQ(q.client_id, client);
  EXPECT_EQ(q.round, round);
  EXPECT_EQ(q.phase, phase);
  EXPECT_EQ(q.reason, reason);

  // Per-round drop lists mirror the records: the faulty client appears in
  // the round it died in (if it died inside a round) and nowhere else.
  for (std::size_t r = 0; r < loop.rounds.size(); ++r) {
    if (round != kSetup && r == round) {
      EXPECT_EQ(loop.rounds[r].dropped, std::vector<std::uint64_t>{client});
    } else {
      EXPECT_TRUE(loop.rounds[r].dropped.empty()) << "round " << r;
    }
  }
}

TEST(NetFaults, DisconnectAtHelloQuarantinesUnknownClient) {
  // The link died before the hello bound an id: nothing to name, so the
  // record carries the kUnknownClient sentinel.
  expect_quarantine("disconnect@hello", kNoId, kSetup, SessionPhase::kHello,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, DisconnectAtRegistrationQuarantinesClient) {
  expect_quarantine("disconnect@registration", 1, kSetup, SessionPhase::kRegistration,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, DisconnectAtParticipationRoundOne) {
  // nth:1 fires on the second participation frame — the client survives
  // round 0 and dies in round 1, so round 0 is clean and round 1 proceeds
  // over the three survivors.
  expect_quarantine("disconnect@participation:1", 1, 1, SessionPhase::kParticipation,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, DisconnectAtUpdateReweightsOverArrivals) {
  expect_quarantine("disconnect@update", 1, 0, SessionPhase::kUpdate,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, CorruptRegistryUploadIsBadCiphertext) {
  // The flipped payload tag no longer reads as an encrypted vector: a
  // ciphertext that cannot join the homomorphic sum, not a framing error.
  expect_quarantine("corrupt@registration", 1, kSetup, SessionPhase::kRegistration,
                    QuarantineReason::kBadCiphertext, make_params(4));
}

TEST(NetFaults, CorruptParticipationIsBadParticipation) {
  // The flipped bit lands in the client-id field: the frame parses but the
  // volunteering is bound to the wrong client.
  expect_quarantine("corrupt@participation", 1, 0, SessionPhase::kParticipation,
                    QuarantineReason::kBadParticipation, make_params(4));
}

TEST(NetFaults, CorruptModelUpdateIsBadFrame) {
  // The flipped bit lands in the update's sender field — an out-of-protocol
  // frame, quarantined before it can touch the FedAvg merge.
  expect_quarantine("corrupt@update", 1, 0, SessionPhase::kUpdate,
                    QuarantineReason::kBadFrame, make_params(4));
}

TEST(NetFaults, TruncatedRegistryUploadIsBadFrame) {
  // Half a payload inside a CRC-valid frame: survives the codec, fails the
  // typed parser.
  expect_quarantine("truncate@registration", 1, kSetup, SessionPhase::kRegistration,
                    QuarantineReason::kBadFrame, make_params(4));
}

TEST(NetFaults, ReplayedParticipationTripsSequenceCheck) {
  // The duplicate (same sequence number) sits behind the original and is
  // read where the server next listens to that client — the distribution
  // sweep of round 0, since K == N selects everyone. The sweep finishes,
  // the offender is quarantined as a replay, and the determination re-runs
  // over the survivors.
  expect_quarantine("replay@participation", 1, 0, SessionPhase::kDistribution,
                    QuarantineReason::kReplay, make_params(4));
}

TEST(NetFaults, ClientHelloOutOfSequenceIsReplay) {
  // A connection's first frame carries seq 0. A client whose hello carries
  // 1 is a replay before it has an id: its link is closed, the record names
  // no client, and the session goes on over the other clients.
  const std::size_t N = 3;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(2);
  std::vector<std::shared_ptr<net::Transport>> server_side;
  std::vector<std::thread> clients;
  for (std::size_t id = 0; id < N; ++id) {
    auto [agg, cli] = net::LoopbackTransport::make_pair();
    server_side.push_back(agg);
    clients.emplace_back([&, id, link = cli] {
      try {
        if (id != 2) {
          net::serve_client(*link, id, dataset, proto, params);
          return;
        }
        net::Frame hello = net::encode<net::ClientHello>({id, net::kWireVersion});
        hello.seq = 1;
        link->send(hello);
        while (link->receive()) {
        }
      } catch (...) {
        link->close();
      }
    });
  }
  net::SessionTranscript t;
  std::string error;
  try {
    t = net::run_server_session(server_side, dataset, proto, params);
  } catch (const std::exception& e) {
    error = e.what();
    for (const auto& link : server_side) link->close();
  }
  for (auto& th : clients) th.join();
  ASSERT_EQ(error, "");
  EXPECT_EQ(t.rounds.size(), params.rounds);
  const std::string text = net::format_transcript(t);
  EXPECT_NE(text.find("quarantined=client:? round:setup phase:hello reason:replay\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(t.quarantined.size(), 1u) << text;
}

TEST(NetFaults, StragglerPastDeadlineTimesOut) {
  // The straggle delay (2000 ms) dwarfs the participation deadline (250 ms)
  // by 8x, so the timeout classification is stable under sanitizer
  // slowdowns; no honest client sleeps, so the suite does not wait out the
  // full delay anywhere but the straggler's own thread join.
  auto params = make_params(4);
  params.timeouts.upload = std::chrono::milliseconds(250);
  expect_quarantine("straggle@participation+2000", 1, 0, SessionPhase::kParticipation,
                    QuarantineReason::kTimeout, params);
}

TEST(NetFaults, ZombieAtShutdownCannotWedgeTeardown) {
  // The zombie swallows the shutdown frame and never closes. The drain
  // deadline is the only thing that can unwedge teardown — the zombie gets
  // a typed record and a closed link, and the session returns.
  auto params = make_params(4);
  params.timeouts.drain = std::chrono::milliseconds(250);
  expect_quarantine("zombie@shutdown", 1, kSetup, SessionPhase::kShutdown,
                    QuarantineReason::kTimeout, params);
}

TEST(NetFaults, EmptyPlanIsByteIdenticalToFaultFreeDriver) {
  // All-kNone plans, the no-plan overloads, and the direct in-process path
  // must all render the same bytes: deadlines and quarantine machinery are
  // invisible until a fault actually fires.
  const auto dataset = make_dataset(4);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(2);
  const std::vector<FaultPlan> none(4);

  const auto direct = net::run_session_direct(dataset, proto, params);
  const auto plain = net::run_loopback_session(dataset, proto, params);
  const auto planned = net::run_loopback_session(dataset, proto, params, none);
  const auto tcp = net::run_tcp_session(dataset, proto, params, 2, none);

  EXPECT_TRUE(direct.quarantined.empty());
  EXPECT_TRUE(planned.quarantined.empty());
  EXPECT_EQ(net::format_transcript(direct), net::format_transcript(plain));
  EXPECT_EQ(net::format_transcript(direct), net::format_transcript(planned));
  EXPECT_EQ(net::format_transcript(direct), net::format_transcript(tcp));
}

/// A registry-length vector in the per-slot 'V' form that wire v6 retired.
net::Frame per_slot_registry(MsgType type, const he::PublicKey& pk,
                             const net::SessionParams& params) {
  bigint::Xoshiro256ss rng(11);
  const std::vector<std::uint64_t> values(
      core::RegistryCodec(params.num_classes, params.reference_set).length(), 1);
  return net::Frame{type, he::serialize(he::EncryptedVector::encrypt(pk, values, rng))};
}

TEST(NetFaults, PerSlotRegistryUploadIsBadCiphertext) {
  // A client speaking the retired per-slot form by hand: its upload cannot
  // join the packed sum, so it is quarantined and the session goes on over
  // the other clients.
  const std::size_t N = 3;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(2);
  std::vector<std::shared_ptr<net::Transport>> server_side;
  std::vector<std::thread> clients;
  for (std::size_t id = 0; id < N; ++id) {
    auto [agg, cli] = net::LoopbackTransport::make_pair();
    server_side.push_back(agg);
    clients.emplace_back([&, id, link = cli] {
      try {
        if (id != 2) {
          net::serve_client(*link, id, dataset, proto, params);
          return;
        }
        std::uint16_t seq = 0;
        const auto send = [&](net::Frame f) {
          f.seq = seq++;
          link->send(f);
        };
        send(net::encode<net::ClientHello>({id, net::kWireVersion}));
        (void)link->receive();  // kServerHello
        const net::KeyMaterial keys = net::decode<net::KeyMaterial>(*link->receive());
        (void)link->receive();  // kRegistrationRequest
        send(per_slot_registry(MsgType::kRegistryUpload, keys.prv.public_key(), params));
        while (link->receive()) {
        }
      } catch (...) {
        link->close();
      }
    });
  }
  const auto t = net::run_server_session(server_side, dataset, proto, params);
  for (auto& th : clients) th.join();
  EXPECT_EQ(t.rounds.size(), params.rounds);
  ASSERT_EQ(t.quarantined.size(), 1u);
  EXPECT_EQ(t.quarantined[0].client_id, 2u);
  EXPECT_EQ(t.quarantined[0].round, kSetup);
  EXPECT_EQ(t.quarantined[0].phase, SessionPhase::kRegistration);
  EXPECT_EQ(t.quarantined[0].reason, QuarantineReason::kBadCiphertext);
}

TEST(NetFaults, ClientRejectsPerSlotRegistryBroadcast) {
  // The client end of the same rule: a registry broadcast in the per-slot
  // form is a typed wire error, never decrypted.
  const auto dataset = make_dataset(2);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(1);
  auto [server, client] = net::LoopbackTransport::make_pair();
  std::exception_ptr error;
  std::thread endpoint([&, link = client] {
    try {
      net::serve_client(*link, 0, dataset, proto, params);
    } catch (...) {
      error = std::current_exception();
    }
    link->close();
  });
  std::uint16_t seq = 0;
  const auto send = [&](net::Frame f) {
    f.seq = seq++;
    server->send(f);
  };
  (void)server->receive();  // kClientHello
  bigint::Xoshiro256ss rng(12);
  const he::Keypair kp = he::Keypair::generate(rng, params.secure.key_bits);
  send(net::encode<net::ServerHello>({1, 2, 0}));
  send(net::encode<net::KeyMaterial>({kp.prv}));
  send(net::encode<net::SeedRequest>(MsgType::kRegistrationRequest, {3, 0}));
  (void)server->receive();  // the client's packed kRegistryUpload
  send(per_slot_registry(MsgType::kRegistryBroadcast, kp.pub, params));
  endpoint.join();
  server->close();
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrc::kBadPayload);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a WireError, got: " << e.what();
  }
}

TEST(NetFaults, ClientFrameSequenceSurvivesTheU16Wrap) {
  // Frame::seq is a u16 per connection and direction, so a long session
  // wraps both counters to 0. The exact-successor rule must hold across the
  // wrap: the client accepts the server's wrapped numbers, stamps its own
  // wrapped numbers, and still rejects a pre-wrap number as a replay. The
  // scripted server spends seqs 0-3 on setup (hello, keys, registration
  // request, broadcast), so its counter wraps at round 65,532; the client
  // spends 0-1 (hello, registry upload), so its counter wraps at 65,534.
  const auto dataset = make_dataset(2);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(1);
  bigint::Xoshiro256ss rng(12);
  const he::Keypair kp = he::Keypair::generate(rng, params.secure.key_bits);

  struct Server {
    std::shared_ptr<net::Transport> link;
    std::uint16_t seq = 0;
    void send(net::Frame f) {
      f.seq = seq++;
      link->send(f);
    }
  };
  // Registers one client endpoint (its own upload echoed back as the
  // registry broadcast), hands the server end to `script`, and returns
  // whatever serve_client threw (nullptr = it returned).
  const auto run = [&](const std::function<void(Server&)>& script) {
    auto [server_end, client] = net::LoopbackTransport::make_pair();
    std::exception_ptr error;
    std::thread endpoint([&, link = client] {
      try {
        net::serve_client(*link, 0, dataset, proto, params);
      } catch (...) {
        error = std::current_exception();
      }
      link->close();
    });
    Server server{server_end};
    std::exception_ptr script_error;
    try {
      (void)server.link->receive();  // kClientHello
      server.send(net::encode<net::ServerHello>({1, 2, 0}));
      server.send(net::encode<net::KeyMaterial>({kp.prv}));
      server.send(net::encode<net::SeedRequest>(MsgType::kRegistrationRequest, {3, 0}));
      auto upload = server.link->receive();
      if (!upload) throw net::TransportError("client left before its registry upload");
      upload->type = MsgType::kRegistryBroadcast;
      server.send(*upload);
      script(server);
    } catch (...) {
      script_error = std::current_exception();
      server.link->close();
    }
    endpoint.join();
    server.link->close();
    if (script_error != nullptr) std::rethrow_exception(script_error);
    return error;
  };
  // Pipelines kRoundBegin for rounds [0, rounds), then checks that every
  // answer is round r's kParticipation stamped (2 + r) mod 2^16.
  const auto play_rounds = [](Server& server, std::uint64_t rounds) {
    for (std::uint64_t r = 0; r < rounds; ++r) server.send(net::encode<net::RoundBegin>({r}));
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const auto f = server.link->receive();
      ASSERT_TRUE(f.has_value()) << "client left at round " << r;
      ASSERT_EQ(f->type, MsgType::kParticipation) << "round " << r;
      ASSERT_EQ(f->seq, static_cast<std::uint16_t>(2 + r)) << "round " << r;
      ASSERT_EQ(net::decode<net::Participation>(*f).round, r);
    }
  };

  const std::exception_ptr clean = run([&](Server& server) {
    play_rounds(server, 65540);
    server.send(net::encode(net::Shutdown{}));
  });
  EXPECT_EQ(clean, nullptr) << "serve_client did not return after kShutdown";

  const std::exception_ptr replayed = run([&](Server& server) {
    play_rounds(server, 65534);  // the server's last two frames carry seqs 0 and 1
    net::Frame stale = net::encode<net::RoundBegin>({65534});
    stale.seq = 65535;  // round 65,531's number, from before the wrap
    server.link->send(stale);
    server.link->close();  // a client that accepted the replay fails on EOF, not hangs
  });
  ASSERT_NE(replayed, nullptr);
  try {
    std::rethrow_exception(replayed);
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrc::kReplayed);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a WireError, got: " << e.what();
  }
}

TEST(NetFaults, CohortFrameSequenceSurvivesTheU16Wrap) {
  // The aggregator end of the same rule, on the one implementation of the
  // per-client sweeps (detail::CohortChild, which the flat server and every
  // shard run). The cohort spends seq 0 on its kServerHello and the client
  // spends 0 on its hello, so both counters wrap at round 65,535. A
  // scripted client answers every kRoundBegin with its kParticipation: the
  // cohort must stamp and accept the wrapped numbers with no quarantine,
  // then quarantine a pre-wrap number as a replay.
  constexpr std::uint64_t kRounds = 65540;
  const auto params = make_params(1);
  auto [agg, cli] = net::LoopbackTransport::make_pair();
  std::atomic<bool> in_sequence{true};  // every cohort frame carried the next seq
  std::thread client([&, link = cli] {
    std::uint16_t send_seq = 0;
    std::uint16_t recv_seq = 0;
    try {
      net::Frame hello = net::encode<net::ClientHello>({0, net::kWireVersion});
      hello.seq = send_seq++;
      link->send(hello);
      while (auto f = link->receive()) {
        if (f->seq != recv_seq++) in_sequence = false;
        if (f->type != MsgType::kRoundBegin) continue;
        const std::uint64_t round = net::decode<net::RoundBegin>(*f).round;
        net::Frame part = net::encode<net::Participation>(
            {0, round, std::vector<std::uint8_t>(params.H, 1)});
        // The last round answers with round 65,534's number, from before the wrap.
        part.seq = round == kRounds ? std::uint16_t{65535} : send_seq++;
        link->send(part);
      }
    } catch (const net::TransportError&) {
      in_sequence = false;  // the cohort closed the link mid-sweep
    }
  });
  net::detail::CohortChild cohort(0, {0, 1}, 1, params);
  const std::vector<std::shared_ptr<net::Transport>> links{agg};
  cohort.hello(links, 7);
  std::uint64_t clean = 0;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    cohort.post(net::ShardRoundBegin{r});
    const net::PartialParticipation p = cohort.take_participation();
    if (p.quarantined.empty() && p.entries.size() == 1 && p.entries[0].round == r) ++clean;
  }
  cohort.post(net::ShardRoundBegin{kRounds});
  const net::PartialParticipation replayed = cohort.take_participation();
  agg->close();
  client.join();
  EXPECT_EQ(clean, kRounds);
  EXPECT_TRUE(in_sequence);
  EXPECT_TRUE(replayed.entries.empty());
  EXPECT_EQ(replayed.quarantined,
            (std::vector<net::QuarantineRecord>{
                {0, kRounds, SessionPhase::kParticipation, QuarantineReason::kReplay}}));
}

TEST(NetFaults, SkippedSequenceNumberIsReplay) {
  // A frame numbered one past the successor (as if the frame before it were
  // lost) breaks the sequence as surely as a duplicate does. The scripted
  // client answers round 0 in sequence and skips a number in round 1.
  const auto params = make_params(1);
  auto [agg, cli] = net::LoopbackTransport::make_pair();
  std::thread client([&, link = cli] {
    std::uint16_t send_seq = 0;
    try {
      net::Frame hello = net::encode<net::ClientHello>({0, net::kWireVersion});
      hello.seq = send_seq++;
      link->send(hello);
      while (auto f = link->receive()) {
        if (f->type != MsgType::kRoundBegin) continue;
        const std::uint64_t round = net::decode<net::RoundBegin>(*f).round;
        net::Frame part = net::encode<net::Participation>(
            {0, round, std::vector<std::uint8_t>(params.H, 1)});
        if (round == 1) ++send_seq;
        part.seq = send_seq++;
        link->send(part);
      }
    } catch (const net::TransportError&) {
      // the cohort closed the link after the quarantine
    }
  });
  net::detail::CohortChild cohort(0, {0, 1}, 1, params);
  const std::vector<std::shared_ptr<net::Transport>> links{agg};
  cohort.hello(links, 7);
  cohort.post(net::ShardRoundBegin{0});
  const net::PartialParticipation in_sequence = cohort.take_participation();
  cohort.post(net::ShardRoundBegin{1});
  const net::PartialParticipation skipped = cohort.take_participation();
  agg->close();
  client.join();
  EXPECT_EQ(in_sequence.entries.size(), 1u);
  EXPECT_TRUE(in_sequence.quarantined.empty());
  EXPECT_TRUE(skipped.entries.empty());
  EXPECT_EQ(skipped.quarantined,
            (std::vector<net::QuarantineRecord>{
                {0, 1, SessionPhase::kParticipation, QuarantineReason::kReplay}}));
}

TEST(NetFaults, PlanParserRoundTripsAndRejectsGarbage) {
  const FaultPlan a = net::parse_fault_plan("disconnect@participation:1");
  EXPECT_EQ(a.kind, FaultKind::kDisconnect);
  EXPECT_EQ(a.phase, SessionPhase::kParticipation);
  EXPECT_EQ(a.nth, 1u);
  EXPECT_EQ(a.delay.count(), 0);

  const FaultPlan b = net::parse_fault_plan("straggle@update+2000");
  EXPECT_EQ(b.kind, FaultKind::kStraggle);
  EXPECT_EQ(b.phase, SessionPhase::kUpdate);
  EXPECT_EQ(b.delay.count(), 2000);
  EXPECT_EQ(net::parse_fault_plan(net::to_string(b)), b);

  // A repeating plan round-trips through the `*` to_string writes, with and
  // without a delay.
  FaultPlan every = b;
  every.repeat = true;
  EXPECT_EQ(net::to_string(every), "straggle@update+2000*");
  EXPECT_EQ(net::parse_fault_plan(net::to_string(every)), every);
  FaultPlan every_second = a;
  every_second.repeat = true;
  EXPECT_EQ(net::to_string(every_second), "disconnect@participation:1*");
  EXPECT_EQ(net::parse_fault_plan(net::to_string(every_second)), every_second);
  EXPECT_TRUE(net::parse_fault_plan("straggle@update*").repeat);

  EXPECT_FALSE(FaultPlan{}.enabled());
  // nth and delay are whole non-negative numbers.
  EXPECT_THROW((void)net::parse_fault_plan("disconnect@participation:1junk"),
               std::invalid_argument);
  EXPECT_THROW((void)net::parse_fault_plan("straggle@update+2000ms"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_fault_plan("straggle@update+-500"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_fault_plan("disconnect"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_fault_plan("nonsense@update"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_fault_plan("corrupt@nowhere"), std::invalid_argument);
  // A zombie acts on the inbound shutdown; any other phase is a spec error.
  EXPECT_THROW((void)net::parse_fault_plan("zombie@update"), std::invalid_argument);
}

}  // namespace
}  // namespace dubhe
