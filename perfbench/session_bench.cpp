// The secure-session benchmark: full Dubhe sessions (2048-bit packed keys,
// 4 clients) driven through the public net entry points, timed from the
// outside, and checked against the direct in-process reference.
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Load model: a closed loop. Each of the 4 clients is one in-process thread
// with one connection; it answers the aggregator's request and then waits
// for the next one. The aggregator, the shards and the TcpServer event
// loops are the system under test.
//
// A run repeats whole sessions until --seconds is used up. Session j draws
// its select/round seeds from (--seed, j) and its key from (--seed, j mod
// kKeysPerRun); the dataset and the model's initial weights come from --seed.
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 the first half of the time runs untraced (the baseline of
// trace_overhead) and the second half traced, and the last line carries
// the per-layer metrics. See perfbench/README.md for every definition.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bigint/random.hpp"
#include "core/cpu.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "net/tcp.hpp"
#include "nn/builders.hpp"
#include "paillier/paillier.hpp"
#include "stats/rng.hpp"
#include "taps.hpp"

using namespace dubhe;
using perfbench::Clock;
using perfbench::seconds_between;

namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kKeyBits = 2048;
/// Sessions cycle through this many keys. Generating one key takes from 0.1
/// to 0.7 s (prime search) and dominates setup_s, so with a fresh key per
/// session the median would hinge on how many sessions fit in the run. With
/// a fixed key set, each key set up two or more times, setup_s is the
/// middle key's setup on every run of a seed.
constexpr std::size_t kKeysPerRun = 5;
/// A session that has not finished after this long is torn down and all of
/// its rounds count as failed.
constexpr auto kWatchdog = std::chrono::seconds(60);

enum class Topology { kFlatLoopback, kFlatTcp, kTreeTcp };

struct Workload {
  const char* name;
  Topology topology;
  std::size_t K, H;
  double he_rate;
  std::size_t hidden, samples_per_client, epochs;
  std::size_t workers;  // event loops per TcpServer
  std::size_t shards;   // 0 = flat aggregator
  // Rounds per session: enough that the key-dependent setup is a small share
  // of session_s, few enough that a run holds eight or more sessions.
  std::size_t rounds;
  const char* prediction;
};

const std::array<Workload, 3> kWorkloads{{
    {"select-2048", Topology::kFlatLoopback, 2, 3, 0.0, 16, 48, 1, 0, 0, 10,
     "agg.distribution_s is the largest phase, and client.dist_upload_s (client-side "
     "Paillier encryption) is most of it"},
    {"secure-update-tcp", Topology::kFlatTcp, 3, 3, 0.5, 64, 48, 1, 2, 0, 3,
     "agg.update_s is the largest phase, and client.update_s is encrypt-heavy: less "
     "than half of it is fl.train_s"},
    {"tree-train", Topology::kTreeTcp, 3, 1, 0.0, 512, 2048, 2, 1, 2, 6,
     "agg.update_s is the largest phase, and client.update_s is training-driven: "
     "fl.train_s is at least half of it"},
}};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source = "unknown";
};

struct Inputs {
  data::FederatedDataset dataset;
  nn::Sequential prototype;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = kClients;
  pc.samples_per_client = w.samples_per_client;
  pc.rho = 8;
  pc.emd_avg = 1.4;
  pc.seed = stats::derive_seed(seed, 1);
  data::FederatedDataset dataset(data::mnist_like(), pc);
  nn::Sequential proto =
      nn::make_mlp(dataset.feature_dim(), w.hidden, 10, stats::derive_seed(seed, 2));
  return {std::move(dataset), std::move(proto)};
}

std::uint64_t key_seed(std::uint64_t seed, std::size_t key) {
  return stats::derive_seed(stats::derive_seed(seed, 3), key);
}

net::SessionParams session_params(const Workload& w, std::uint64_t seed, std::size_t session) {
  const std::uint64_t s = stats::derive_seed(seed, 100 + session);
  net::SessionParams p;
  p.secure.key_bits = kKeyBits;
  p.secure.update_he_rate = w.he_rate;
  p.K = w.K;
  p.H = w.H;
  p.rounds = w.rounds;
  p.train = {.batch_size = 8, .epochs = w.epochs, .lr = 1e-3, .use_adam = true};
  p.evaluate = false;
  p.he_seed = key_seed(seed, session % kKeysPerRun);
  p.select_seed = stats::derive_seed(s, 2);
  p.round_seed = stats::derive_seed(s, 3);
  return p;
}

// --- one session -------------------------------------------------------------

/// Every thread, endpoint and server of one session, so the watchdog can tear
/// the session down. Servers are declared first: they outlive the endpoints.
class SessionRig {
 public:
  SessionRig() = default;
  ~SessionRig() { join(); }
  SessionRig(const SessionRig&) = delete;
  SessionRig& operator=(const SessionRig&) = delete;

  /// Call before spawning any thread.
  net::TcpServer& add_server(std::size_t workers) {
    servers_.push_back(std::make_unique<net::TcpServer>(0, workers));
    return *servers_.back();
  }

  void add_endpoint(std::shared_ptr<net::Transport> link) {
    std::lock_guard<std::mutex> lock(mu_);
    endpoints_.push_back(std::move(link));
  }

  void spawn(std::function<void()> body) {
    threads_.emplace_back([this, body = std::move(body)] {
      std::string error;
      try {
        body();
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown exception";
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (!error.empty()) errors_.push_back(std::move(error));
      ++finished_;
      cv_.notify_all();
    });
  }

  /// True once every spawned thread has returned; false at the deadline.
  bool wait(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_until(lock, deadline, [&] { return finished_ == threads_.size(); });
  }

  /// Wakes every blocked receive (a failed driver or shard unblocks its peers).
  void close_endpoints() {
    std::vector<std::shared_ptr<net::Transport>> links;
    {
      std::lock_guard<std::mutex> lock(mu_);
      links = endpoints_;
    }
    for (const auto& link : links) link->close();
  }

  /// The watchdog's teardown; main thread only (TcpServer::stop is not
  /// meant to be raced).
  void abort() {
    close_endpoints();
    for (const auto& server : servers_) server->stop();
  }

  void join() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::vector<std::string> errors() {
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }

 private:
  std::vector<std::unique_ptr<net::TcpServer>> servers_;
  std::mutex mu_;  // guards the four fields below
  std::condition_variable cv_;
  std::vector<std::shared_ptr<net::Transport>> endpoints_;
  std::vector<std::string> errors_;
  std::size_t finished_ = 0;
  std::vector<std::thread> threads_;  // last: joined before anything else goes
};

/// What a traced tap saw, copied out before the session's transports go.
struct TapLog {
  std::optional<std::uint64_t> client_id;
  std::vector<perfbench::FrameEvent> events;
};

struct SessionRun {
  net::SessionParams params;
  bool traced = false;
  bool completed = false;  // every thread returned cleanly before the watchdog
  std::vector<std::string> errors;
  net::SessionTranscript transcript;
  Clock::time_point start, joined;
  std::vector<perfbench::Stamp> stamps;  // rounds + 1 when completed
  // Traced runs only.
  std::vector<TapLog> driver, facing, clients;
  std::size_t facing_aggregators = 1;
};

std::vector<TapLog> logs_of(const std::vector<std::shared_ptr<perfbench::FrameTap>>& taps) {
  std::vector<TapLog> out;
  for (const auto& tap : taps) out.push_back({tap->client_id(), tap->events()});
  return out;
}

SessionRun run_session(const Workload& w, const Inputs& in, const net::SessionParams& params,
                       bool traced) {
  SessionRun run;
  run.params = params;
  run.traced = traced;
  const bool tree = w.topology == Topology::kTreeTcp;
  fl::ChannelAccountant facing;  // client-facing aggregator links
  fl::ChannelAccountant uplink;  // root <-> shard links
  perfbench::Boundaries boundaries(
      tree ? net::MsgType::kShardRoundBegin : net::MsgType::kRoundBegin, &facing,
      tree ? &uplink : nullptr, traced);
  SessionRig rig;
  std::mutex taps_mu;  // guards the three tap lists
  std::vector<std::shared_ptr<perfbench::FrameTap>> driver_taps, facing_taps, client_taps;

  const auto keep = [&](std::vector<std::shared_ptr<perfbench::FrameTap>>& list,
                        std::shared_ptr<perfbench::FrameTap> tap) {
    std::lock_guard<std::mutex> lock(taps_mu);
    list.push_back(tap);
    return tap;
  };
  // The round driver's links: always tapped (round boundaries), accounted
  // on the inner transport.
  const auto driver_link = [&](std::shared_ptr<net::Transport> link,
                               fl::ChannelAccountant& acct) -> std::shared_ptr<net::Transport> {
    rig.add_endpoint(link);
    link->set_accountant(&acct, fl::Direction::kServerToClient);
    return keep(driver_taps, std::make_shared<perfbench::FrameTap>(link, &boundaries, traced));
  };
  // A shard's client links: accounted, tapped only when traced.
  const auto shard_link =
      [&](std::shared_ptr<net::Transport> link) -> std::shared_ptr<net::Transport> {
    rig.add_endpoint(link);
    link->set_accountant(&facing, fl::Direction::kServerToClient);
    if (!traced) return link;
    return keep(facing_taps, std::make_shared<perfbench::FrameTap>(link, nullptr, true));
  };
  const auto serve = [&](std::shared_ptr<net::Transport> link, std::size_t id) {
    rig.add_endpoint(link);
    std::shared_ptr<net::Transport> endpoint = link;
    if (traced) {
      endpoint = keep(client_taps,
                      std::make_shared<perfbench::FrameTap>(link, nullptr, true, id));
    }
    try {
      net::serve_client(*endpoint, id, in.dataset, in.prototype, params);
    } catch (...) {
      link->close();
      throw;
    }
  };
  const auto driver = [&](const std::function<void()>& body) {
    rig.spawn([&, body] {
      try {
        body();
      } catch (...) {
        rig.close_endpoints();
        throw;
      }
    });
  };

  // Threads capture everything they use by value or from this function's
  // scope, which outlives them (rig.join() below).
  const std::size_t A = tree ? w.shards : 1;
  std::vector<net::TcpServer*> servers;  // [0] = aggregator / root, then shards
  if (w.topology != Topology::kFlatLoopback) {
    for (std::size_t i = 0; i < (tree ? 1 + A : 1); ++i) {
      servers.push_back(&rig.add_server(w.workers));
    }
  }
  const auto connect_and_serve = [&](std::uint16_t port, std::size_t id) {
    rig.spawn([&serve, port, id] { serve(net::TcpTransport::connect("127.0.0.1", port), id); });
  };
  const auto accept_n = [](net::TcpServer* server, std::size_t n, const auto& wrap) {
    std::vector<std::shared_ptr<net::Transport>> links;
    for (std::size_t i = 0; i < n; ++i) {
      auto link = server->accept();
      if (link == nullptr) throw net::TransportError("session: server stopped");
      links.push_back(wrap(link));
    }
    return links;
  };

  run.start = Clock::now();
  switch (w.topology) {
    case Topology::kFlatLoopback: {
      std::vector<std::shared_ptr<net::Transport>> links;
      for (std::size_t id = 0; id < kClients; ++id) {
        auto [agg, cli] = net::LoopbackTransport::make_pair();
        links.push_back(driver_link(agg, facing));
        rig.spawn([&serve, cli, id] { serve(cli, id); });
      }
      driver([&, links] {
        run.transcript = net::run_server_session(links, in.dataset, in.prototype, params);
      });
      break;
    }
    case Topology::kFlatTcp: {
      for (std::size_t id = 0; id < kClients; ++id) connect_and_serve(servers[0]->port(), id);
      driver([&] {
        const auto links = accept_n(servers[0], kClients,
                                    [&](auto link) { return driver_link(link, facing); });
        run.transcript = net::run_server_session(links, in.dataset, in.prototype, params);
      });
      break;
    }
    case Topology::kTreeTcp: {
      for (std::size_t s = 0; s < A; ++s) {
        driver([&, s] {
          const auto links =
              accept_n(servers[1 + s], net::shard_range(kClients, A, s).count, shard_link);
          auto up = net::TcpTransport::connect("127.0.0.1", servers[0]->port());
          rig.add_endpoint(up);
          net::serve_shard(*up, links, static_cast<std::uint32_t>(s),
                           static_cast<std::uint32_t>(A), kClients, params);
        });
      }
      for (std::size_t s = 0; s < A; ++s) {
        const net::ShardRange range = net::shard_range(kClients, A, s);
        for (std::size_t id = range.first; id < range.first + range.count; ++id) {
          connect_and_serve(servers[1 + s]->port(), id);
        }
      }
      driver([&] {
        const auto links =
            accept_n(servers[0], A, [&](auto link) { return driver_link(link, uplink); });
        run.transcript = net::run_root_session(links, in.dataset, in.prototype, params);
      });
      run.facing_aggregators = A;
      break;
    }
  }

  const bool finished = rig.wait(run.start + kWatchdog);
  if (!finished) rig.abort();
  rig.join();
  run.joined = Clock::now();
  run.errors = rig.errors();
  if (!finished) run.errors.push_back("watchdog: session did not finish within 60 s");
  run.stamps = boundaries.stamps();
  run.completed = run.errors.empty() && run.transcript.rounds.size() == params.rounds &&
                  run.stamps.size() == params.rounds + 1;
  if (traced) {
    run.driver = logs_of(driver_taps);
    run.facing = tree ? logs_of(facing_taps) : run.driver;
    run.clients = logs_of(client_taps);
  }
  return run;
}

/// Rounds of a session that count as failed: all of them if the session did
/// not complete or quarantined a client during setup, else those that
/// dropped a client.
std::size_t failed_rounds(const SessionRun& s) {
  if (!s.completed) return s.params.rounds;
  for (const auto& q : s.transcript.quarantined) {
    if (q.round == net::QuarantineRecord::kSetupRound) return s.params.rounds;
  }
  std::size_t failed = 0;
  for (const auto& r : s.transcript.rounds) failed += r.dropped.empty() ? 0 : 1;
  return failed;
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples above
/// it (p50 when there are fewer than twenty), nearest-rank.
std::pair<int, double> tail(std::vector<double> v) {
  if (v.empty()) return {50, 0};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const int p : {99, 95, 90, 75, 50}) {
    if (n * (100 - p) / 100.0 >= 10 || p == 50) {
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
      return {p, v[std::max<std::size_t>(rank, 1) - 1]};
    }
  }
  return {50, 0};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- end-to-end metrics ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct EndToEnd {
  std::vector<double> setup, rounds, session;
  double bytes_per_round = 0, enc_bytes_per_round = 0, setup_bytes = 0;
  double uplink_bytes_per_round = 0;
};

EndToEnd end_to_end(const std::vector<SessionRun>& runs) {
  EndToEnd e;
  std::vector<double> bytes, enc, setup_bytes, up;
  for (const SessionRun& s : runs) {
    if (!s.completed) continue;
    e.setup.push_back(seconds_between(s.start, s.stamps.front().at));
    e.session.push_back(seconds_between(s.start, s.joined));
    setup_bytes.push_back(static_cast<double>(s.stamps.front().facing.total_bytes()));
    for (std::size_t r = 0; r + 1 < s.stamps.size(); ++r) {
      e.rounds.push_back(seconds_between(s.stamps[r].at, s.stamps[r + 1].at));
      const auto d = fl::ledger_delta(s.stamps[r + 1].facing, s.stamps[r].facing);
      bytes.push_back(static_cast<double>(d.total_bytes()));
      enc.push_back(static_cast<double>(d.total_encrypted_bytes()));
      up.push_back(static_cast<double>(
          fl::ledger_delta(s.stamps[r + 1].uplink, s.stamps[r].uplink).total_bytes()));
    }
  }
  e.bytes_per_round = mean(bytes);
  e.enc_bytes_per_round = mean(enc);
  e.setup_bytes = median(setup_bytes);
  e.uplink_bytes_per_round = mean(up);
  return e;
}

// --- the traced split ------------------------------------------------------------

constexpr std::array<const char*, 3> kPhases{"agg.participation_s", "agg.distribution_s",
                                             "agg.update_s"};

/// The phase (index into kPhases) that a frame the round driver sends
/// opens, or -1.
int phase_opened_by(net::MsgType t) {
  switch (t) {
    case net::MsgType::kRoundBegin:
    case net::MsgType::kShardRoundBegin:
      return 0;
    case net::MsgType::kDistributionRequest:
    case net::MsgType::kShardTryBegin:
      return 1;
    case net::MsgType::kModelDown:
    case net::MsgType::kShardUpdateBegin:
      return 2;
    default:
      return -1;
  }
}

/// Per-layer sums over the traced rounds; divided by the round count at the
/// end, so every row is a mean per round (and the phase rows stay additive).
class Split {
 public:
  void add(const std::string& name, double v) { sums_[name] += v; }
  void add_round() { ++rounds_; }
  void add_session() { ++sessions_; }
  [[nodiscard]] double per_round(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() || rounds_ == 0 ? 0 : it->second / static_cast<double>(rounds_);
  }
  [[nodiscard]] double per_session(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() || sessions_ == 0 ? 0
                                               : it->second / static_cast<double>(sessions_);
  }
  [[nodiscard]] std::size_t rounds() const { return rounds_; }
  std::vector<double> transit;

 private:
  std::map<std::string, double> sums_;
  std::size_t rounds_ = 0, sessions_ = 0;
};

std::vector<perfbench::FrameEvent> merged(const std::vector<TapLog>& logs) {
  std::vector<perfbench::FrameEvent> all;
  for (const auto& log : logs) all.insert(all.end(), log.events.begin(), log.events.end());
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.t0 < b.t0; });
  return all;
}

void add_traced_session(const SessionRun& s, Split& split) {
  const std::size_t R = s.stamps.size() - 1;
  std::vector<Clock::time_point> bounds;
  for (const auto& st : s.stamps) bounds.push_back(st.at);
  const auto round_of = [&](Clock::time_point t) -> long {
    if (t < bounds.front() || t >= bounds.back()) return -1;
    return static_cast<long>(std::upper_bound(bounds.begin(), bounds.end(), t) -
                             bounds.begin()) - 1;
  };

  // The round driver's phases tile the round: each opens at the first frame
  // of its opening type the driver sends and runs until the next phase
  // opens (or the round ends). The work after a phase's last frame — the
  // last try's decrypt, the agent's decrypt of the update sum, FedAvg —
  // belongs to that phase. agg.other_s is what no phase covers: the stamp
  // before the first opening frame, or a phase that never opened.
  const auto driver = merged(s.driver);
  for (std::size_t r = 0; r < R; ++r) {
    const auto lo = bounds[r], hi = bounds[r + 1];
    std::array<std::optional<Clock::time_point>, kPhases.size()> opens;
    double recv_wait = 0, send_s = 0;
    for (const auto& e : driver) {
      if (e.t0 < lo || e.t0 >= hi) continue;
      (e.sent ? send_s : recv_wait) += seconds_between(e.t0, e.t1);
      const int p = e.sent ? phase_opened_by(e.type) : -1;
      if (p >= 0 && !opens[p]) opens[p] = e.t0;
    }
    double phases = 0;
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      double d = 0;
      if (opens[p]) {
        Clock::time_point end = hi;
        for (std::size_t q = p + 1; q < kPhases.size(); ++q) {
          if (opens[q]) {
            end = *opens[q];
            break;
          }
        }
        d = seconds_between(*opens[p], end);
      }
      split.add(kPhases[p], d);
      phases += d;
    }
    const double wall = seconds_between(lo, hi);
    split.add("agg.round_s", wall);
    split.add("agg.other_s", wall - phases);
    split.add("agg.busy_s", phases - recv_wait);
    split.add("net.agg_recv_wait_s", recv_wait);
    split.add("net.agg_send_s", send_s);

    const auto facing = fl::ledger_delta(s.stamps[r + 1].facing, s.stamps[r].facing);
    const auto up = fl::ledger_delta(s.stamps[r + 1].uplink, s.stamps[r].uplink);
    split.add("net.frames", static_cast<double>(facing.total_messages()));
    split.add("net.uplink_frames", static_cast<double>(up.total_messages()));
    split.add("uplink_bytes_per_round", static_cast<double>(up.total_bytes()));
    const auto& a = s.stamps[r].telemetry;
    const auto& b = s.stamps[r + 1].telemetry;
    split.add("paillier.encrypt_n.plain", b.encrypt_n_plain - a.encrypt_n_plain);
    split.add("paillier.encrypt_n.fixed_base", b.encrypt_n_fixed_base - a.encrypt_n_fixed_base);
    split.add("paillier.encrypt_s", b.encrypt_s - a.encrypt_s);
    split.add("paillier.decrypt_n", b.decrypt_n - a.decrypt_n);
    split.add("paillier.decrypt_s", b.decrypt_s - a.decrypt_s);
    split.add("paillier.add_n", b.add_n - a.add_n);
    split.add("paillier.add_s", b.add_s - a.add_s);
    split.add("fl.fedavg_s", b.fedavg_s - a.fedavg_s);
    split.add("shard.partials", b.shard_partials - a.shard_partials);
    split.add_round();
  }

  // The client-facing tier's receive wait (the shards in a tree, the
  // aggregator itself when flat), per aggregator.
  for (const auto& e : merged(s.facing)) {
    if (!e.sent && round_of(e.t0) >= 0) {
      split.add("shard.recv_wait_s",
                seconds_between(e.t0, e.t1) / static_cast<double>(s.facing_aggregators));
    }
  }

  // Client endpoints: request received -> reply handed to send, slowest
  // client per (round, try); and each client frame's transit to the
  // client-facing aggregator.
  std::map<std::pair<long, std::uint32_t>, double> dist;  // (round, try) -> slowest
  std::map<long, double> update;
  double registry = 0;
  std::map<std::pair<std::uint64_t, std::uint16_t>, Clock::time_point> sent_at;
  for (const TapLog& c : s.clients) {
    perfbench::FrameEvent request;  // the last request this client received
    for (const auto& e : c.events) {
      if (!e.sent) {
        request = e;
        continue;
      }
      sent_at[{*c.client_id, e.seq}] = e.t0;
      const double d = seconds_between(request.t1, e.t0);
      const long r = round_of(request.t1);
      if (e.type == net::MsgType::kDistributionUpload && r >= 0) {
        double& slot = dist[{r, request.tag}];
        slot = std::max(slot, d);
      } else if ((e.type == net::MsgType::kModelUpdate ||
                  e.type == net::MsgType::kModelUpdateSparse) && r >= 0) {
        update[r] = std::max(update[r], d);
      } else if (e.type == net::MsgType::kRegistryUpload) {
        registry = std::max(registry, d);
      }
    }
  }
  for (const auto& [key, d] : dist) split.add("client.dist_upload_s", d);
  for (const auto& [r, d] : update) split.add("client.update_s", d);
  split.add("client.registry_upload_s", registry);
  split.add_session();
  for (const TapLog& f : s.facing) {
    if (!f.client_id) continue;
    for (const auto& e : f.events) {
      if (e.sent) continue;
      const auto it = sent_at.find({*f.client_id, e.seq});
      if (it != sent_at.end()) split.transit.push_back(seconds_between(it->second, e.t1));
    }
  }
}

// --- verification -------------------------------------------------------------

bool same_answer(const net::SessionTranscript& a, const net::SessionTranscript& b) {
  if (net::format_transcript(a) != net::format_transcript(b)) return false;
  if (a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const auto& wa = a.rounds[r].global_weights;
    const auto& wb = b.rounds[r].global_weights;
    if (wa.size() != wb.size()) return false;
    if (std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)) != 0) return false;
  }
  return true;
}

/// Does a harness transcript's setup + per-round ledgers equal what the
/// bench's accountants measured over the same rounds?
bool same_ledgers(const net::SessionTranscript& harness, const SessionRun& s, bool uplink) {
  const auto at = [&](std::size_t i) -> const fl::ChannelLedger& {
    return uplink ? s.stamps[i].uplink : s.stamps[i].facing;
  };
  if (harness.setup_ledger != at(0)) return false;
  for (std::size_t r = 0; r < harness.rounds.size(); ++r) {
    if (harness.rounds[r].ledger != fl::ledger_delta(at(r + 1), at(r))) return false;
  }
  return true;
}

/// Runs the untimed checks on a few threads: every completed session's
/// transcript against run_session_direct, and (once) the bench's traffic
/// counts against an undecorated harness session on session 0's seeds.
struct Verdict {
  std::size_t mismatched_sessions = 0;
  bool ledgers_ok = true;
  std::vector<std::string> notes;
};

Verdict verify(const Workload& w, const Inputs& in, const std::vector<SessionRun>& runs) {
  Verdict v;
  std::mutex mu;  // guards v
  std::vector<std::function<void()>> tasks;
  for (const SessionRun& s : runs) {
    if (!s.completed) continue;
    tasks.emplace_back([&, sp = &s] {
      const auto ref = net::run_session_direct(in.dataset, in.prototype, sp->params);
      if (!same_answer(sp->transcript, ref)) {
        std::lock_guard<std::mutex> lock(mu);
        ++v.mismatched_sessions;
      }
    });
  }
  if (!runs.empty() && runs.front().completed) {
    // The tasks below outlive this block: they capture `check` and `p` by value.
    const SessionRun* s0 = &runs.front();
    net::SessionParams p = s0->params;
    p.rounds = std::min<std::size_t>(p.rounds, 2);
    const auto check = [&mu, &v, s0](const char* what, const net::SessionTranscript& t,
                                     bool uplink) {
      const bool ok = same_ledgers(t, *s0, uplink);
      std::lock_guard<std::mutex> lock(mu);
      v.ledgers_ok = v.ledgers_ok && ok;
      v.notes.push_back(std::string(what) + (ok ? ": equal" : ": DIFFERENT"));
    };
    switch (w.topology) {
      case Topology::kFlatLoopback:
        tasks.emplace_back([&, p, check] {
          check("bytes vs run_loopback_session ledgers",
                net::run_loopback_session(in.dataset, in.prototype, p), false);
        });
        break;
      case Topology::kFlatTcp:
        tasks.emplace_back([&, p, check] {
          check("bytes vs run_tcp_session ledgers",
                net::run_tcp_session(in.dataset, in.prototype, p, w.workers), false);
        });
        break;
      case Topology::kTreeTcp:
        tasks.emplace_back([&, p, check] {
          check("uplink bytes vs run_tree_tcp_session ledgers",
                net::run_tree_tcp_session(in.dataset, in.prototype, p, w.shards, w.workers),
                true);
        });
        tasks.emplace_back([&, p, check] {
          check("client-facing bytes vs run_tcp_session ledgers",
                net::run_tcp_session(in.dataset, in.prototype, p, w.workers), false);
        });
        break;
    }
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < std::min(threads, tasks.size()); ++i) {
    pool.emplace_back([&] {
      for (std::size_t t = next++; t < tasks.size(); t = next++) {
        try {
          tasks[t]();
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          v.ledgers_ok = false;
          v.notes.push_back(std::string("check threw: ") + e.what());
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  return v;
}

// --- output -----------------------------------------------------------------------

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void print_table(const std::vector<Metric>& rows) {
  for (const Metric& m : rows) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
}

int usage(const char* msg) {
  std::cerr << "session_bench: " << msg
            << "\nusage: session_bench --workload <select-2048|secure-update-tcp|tree-train>"
               " --seed <n> --seconds <s> --trace <0|1> [--source <id>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (val == w.name) opt.workload = &w;
        }
        if (opt.workload == nullptr) return usage(("unknown workload " + val).c_str());
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = val == "1";
      } else if (arg == "--source") {
        opt.source = val;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload == nullptr) return usage("--workload is required");
  const Workload& w = *opt.workload;

  std::printf("session_bench workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("source=%s build=%s cpu=\"%s\" nproc=%u\n", opt.source.c_str(),
              PERFBENCH_BUILD_TYPE, core::cpu::feature_string().c_str(),
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  const Inputs in = make_inputs(w, opt.seed);

  // Timed sessions until the budget is spent: another session starts only if
  // the median session so far still fits. In a traced run the first half is
  // untraced (the trace_overhead baseline) and the second half traced.
  std::vector<SessionRun> runs;
  const auto t_begin = Clock::now();
  const auto run_phase = [&](double budget, bool traced) {
    const auto phase_begin = Clock::now();
    std::vector<double> lengths;
    do {
      runs.push_back(run_session(w, in, session_params(w, opt.seed, runs.size()), traced));
      lengths.push_back(seconds_between(runs.back().start, runs.back().joined));
    } while (seconds_between(phase_begin, Clock::now()) + median(lengths) <= budget);
  };
  if (opt.trace) {
    run_phase(opt.seconds / 2, false);
    telemetry::set_enabled(true);
    run_phase(opt.seconds / 2, true);
    telemetry::set_enabled(false);
  } else {
    run_phase(opt.seconds, false);
  }
  const double timed_s = seconds_between(t_begin, Clock::now());
  const double rss = peak_rss_mib();

  std::size_t attempted = 0, failed = 0;
  for (const SessionRun& s : runs) {
    attempted += s.params.rounds;
    failed += failed_rounds(s);
    for (const auto& e : s.errors) std::printf("session error: %s\n", e.c_str());
  }

  const Verdict verdict = verify(w, in, runs);
  for (const auto& note : verdict.notes) std::printf("check: %s\n", note.c_str());
  const std::size_t completed = static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(), [](const SessionRun& s) { return s.completed; }));
  std::printf("check: %zu of %zu completed sessions byte-identical to run_session_direct\n",
              completed - verdict.mismatched_sessions, completed);
  const bool correct = completed > 0 && verdict.mismatched_sessions == 0 && verdict.ledgers_ok;
  if (verdict.mismatched_sessions > 0) failed = attempted;  // a wrong run fails every round

  std::vector<SessionRun> untraced, traced;
  for (auto& s : runs) (s.traced ? traced : untraced).push_back(std::move(s));
  const EndToEnd e2e = end_to_end(untraced);
  const auto [tail_p, tail_v] = tail(e2e.rounds);
  std::printf("%zu sessions (%zu traced) in %.1f s; %zu untraced rounds timed\n",
              untraced.size() + traced.size(), traced.size(), timed_s, e2e.rounds.size());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(e2e.setup), "s"},
        {"round_s_p50", median(e2e.rounds), "s"},
        {"round_s_tail", tail_v, "s"},
        {"session_s", median(e2e.session), "s"},
        {"bytes_per_round", e2e.bytes_per_round, "B"},
        {"enc_bytes_per_round", e2e.enc_bytes_per_round, "B"},
        {"setup_bytes", e2e.setup_bytes, "B"},
        {"ok_ratio", attempted == 0 ? 0 : 1.0 - static_cast<double>(failed) / attempted, "1"},
        {"peak_rss_mb", rss, "MiB"},
    };
    std::printf("end-to-end, %s: round_s_tail is p%d of %zu rounds; fail_ratio is %zu of %zu "
                "rounds\n",
                w.name, tail_p, e2e.rounds.size(), failed, attempted);
    print_table(metrics);
    // Reported, but not in the result object: both read 0 (uplink on the
    // flat workloads), and a result metric must not.
    std::vector<Metric> extra = {
        {"fail_ratio", attempted == 0 ? 0 : static_cast<double>(failed) / attempted, "1"}};
    if (w.topology == Topology::kTreeTcp) {
      extra.push_back({"uplink_bytes_per_round", e2e.uplink_bytes_per_round, "B"});
    }
    print_table(extra);
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // --- traced run: the per-layer split -------------------------------------------
  Split split;
  for (const SessionRun& s : traced) {
    if (s.completed) add_traced_session(s, split);
  }
  std::vector<double> keygen, train;
  for (std::size_t key = 0; key < kKeysPerRun; ++key) {
    bigint::Xoshiro256ss rng(key_seed(opt.seed, key));
    const auto t0 = Clock::now();
    [[maybe_unused]] const auto keys = he::Keypair::generate(rng, kKeyBits);
    keygen.push_back(seconds_between(t0, Clock::now()));
  }
  if (!traced.empty() && traced.front().completed) {
    // One winning client's local training on round 0's inputs.
    const SessionRun& s = traced.front();
    const std::size_t k = s.transcript.rounds.front().selected.front();
    const auto samples = in.dataset.client_samples(k);
    const fl::Client client(k, {samples.begin(), samples.end()}, &in.dataset);
    const fl::Server server(in.prototype);
    const std::uint64_t seed =
        stats::derive_seed(stats::derive_seed(s.params.round_seed, 0), k + 1);
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      [[maybe_unused]] const auto trained =
          client.train(in.prototype, server.global_weights(), s.params.train, seed);
      train.push_back(seconds_between(t0, Clock::now()));
    }
  }
  std::vector<double> traced_rounds;
  for (const SessionRun& s : traced) {
    for (std::size_t r = 0; s.completed && r + 1 < s.stamps.size(); ++r) {
      traced_rounds.push_back(seconds_between(s.stamps[r].at, s.stamps[r + 1].at));
    }
  }
  const double overhead = median(traced_rounds) / median(e2e.rounds) - 1.0;

  const auto R = [&](const char* n) { return split.per_round(n); };
  const std::vector<Metric> layers = {
      {"net.agg_recv_wait_s", R("net.agg_recv_wait_s"), "s"},
      {"net.agg_send_s", R("net.agg_send_s"), "s"},
      {"net.transit_s_p50", median(split.transit), "s"},
      {"net.frames", R("net.frames"), "count"},
      {"agg.participation_s", R("agg.participation_s"), "s"},
      {"agg.distribution_s", R("agg.distribution_s"), "s"},
      {"agg.update_s", R("agg.update_s"), "s"},
      {"agg.other_s", R("agg.other_s"), "s"},
      {"agg.round_s", R("agg.round_s"), "s"},
      {"agg.busy_s", R("agg.busy_s"), "s"},
      {"client.dist_upload_s", R("client.dist_upload_s"), "s"},
      {"client.update_s", R("client.update_s"), "s"},
      {"client.registry_upload_s", split.per_session("client.registry_upload_s"), "s"},
      {"paillier.encrypt_n.plain", R("paillier.encrypt_n.plain"), "count"},
      {"paillier.encrypt_n.fixed_base", R("paillier.encrypt_n.fixed_base"), "count"},
      {"paillier.encrypt_s", R("paillier.encrypt_s"), "s"},
      {"paillier.decrypt_n", R("paillier.decrypt_n"), "count"},
      {"paillier.decrypt_s", R("paillier.decrypt_s"), "s"},
      {"paillier.add_n", R("paillier.add_n"), "count"},
      {"paillier.add_s", R("paillier.add_s"), "s"},
      {"bigint.keygen_s", median(keygen), "s"},
      {"fl.train_s", median(train), "s"},
      {"fl.fedavg_s", R("fl.fedavg_s"), "s"},
      {"shard.recv_wait_s", R("shard.recv_wait_s"), "s"},
      {"shard.partials", R("shard.partials"), "count"},
      {"net.uplink_frames", R("net.uplink_frames"), "count"},
      {"uplink_bytes_per_round", R("uplink_bytes_per_round"), "B"},
      {"trace_overhead", overhead, "1"},
  };

  std::printf("per-layer split, %s: mean per round over %zu traced rounds "
              "(client.registry_upload_s per session)\n",
              w.name, split.rounds());
  print_table(layers);
  const double wall = R("agg.round_s");
  const double other = R("agg.other_s");
  double phases = 0;
  const char* largest = "agg.other_s";
  for (const char* p : kPhases) {
    phases += R(p);
    if (R(p) > R(largest)) largest = p;
  }
  const double other_share = wall > 0 ? other / wall : 0.0;
  std::printf("sum check: phases %.6f + other %.6f = %.6f s vs round wall %.6f s; "
              "other is %.1f%% of the round (%s a tenth)\n",
              phases, other, phases + other, wall, 100.0 * other_share,
              other_share < 0.1 ? "under" : "NOT under");

  // The stated prediction, checked against the trace.
  bool held = false;
  switch (w.topology) {
    case Topology::kFlatLoopback:
      held = std::string(largest) == "agg.distribution_s" &&
             R("client.dist_upload_s") >= 0.5 * R("agg.distribution_s");
      break;
    case Topology::kFlatTcp:
      held = std::string(largest) == "agg.update_s" &&
             median(train) < 0.5 * R("client.update_s");
      break;
    case Topology::kTreeTcp:
      held = std::string(largest) == "agg.update_s" &&
             median(train) >= 0.5 * R("client.update_s");
      break;
  }
  std::printf("prediction: %s\nlargest phase row: %s -> prediction %s\n", w.prediction,
              largest, held ? "HOLDS" : "DOES NOT HOLD");
  print_result(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}
