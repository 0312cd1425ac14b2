// dubhe_node — one Dubhe protocol participant as an OS process. The same
// binary runs the aggregation server or a client, so a secure registration +
// multi-time selection + training round completes over localhost sockets
// across N+1 processes:
//
//   dubhe_node --server --clients 3 --port 0 --port-file /tmp/p --transcript s.txt
//   dubhe_node --client --id 0 --clients 3 --port-file /tmp/p     (x3, any order)
//
// Every process reconstructs the identical synthetic federation from the
// shared flags (the dataset is a deterministic function of its seed), so no
// training data ever crosses a socket — only the protocol messages. The
// server writes a deterministic transcript; `--selftest` produces the same
// transcript through the direct and loopback paths in one process, which is
// what tools/net_smoke.sh diffs against the multi-process run.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/telemetry.hpp"
#include "net/fault.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "net/tcp.hpp"
#include "nn/builders.hpp"

using namespace dubhe;

namespace {

struct Options {
  enum class Mode { kNone, kServer, kClient, kSelftest, kRoot, kShard } mode = Mode::kNone;
  std::size_t clients = 3;
  std::size_t id = 0;
  std::size_t shards = 2;     // --role root/shard: aggregation-tree width
  std::size_t shard_id = 0;   // --role shard: which slice this process owns
  std::string shard_of;       // --role shard: the root's port file
  int port = 45711;
  std::string host = "127.0.0.1";
  std::string port_file;
  std::string transcript_path;
  std::size_t key_bits = 256;
  std::size_t K = 2;
  std::size_t H = 3;
  std::size_t rounds = 1;
  std::uint64_t seed = 21;
  std::size_t workers = 1;
  double he_rate = 0.0;
  std::string fault_plan;        // empty = honest
  std::size_t fault_client = 0;  // which client misbehaves (selftest)
  int metrics_port = -1;         // -1 = no admin endpoint; 0 = ephemeral
  std::string metrics_port_file;
  std::string trace_out;         // Chrome trace_event JSON path; empty = off
};

const char* kUsage = R"(dubhe_node — run one Dubhe FL participant as a process

  dubhe_node --server   --clients N [--port P] [--port-file F] [--transcript F]
  dubhe_node --client   --id K --clients N [--host H] [--port P | --port-file F]
  dubhe_node --selftest --clients N [--transcript F]
  dubhe_node --role root  --clients N --shards A [--port P] [--port-file F]
                          [--transcript F]
  dubhe_node --role shard --shard-id S --shards A --clients N
                          --shard-of ROOT_PORT_FILE [--port P] [--port-file F]

Common options (must match across all processes of one session):
  --clients N    cohort size (default 3)
  --key-bits B   Paillier modulus bits (default 256)
  --k K          participants per round (default 2)
  --h H          tentative tries (default 3)
  --rounds R     global rounds per session (default 1)
  --seed S       partition seed (default 21)
  --he-rate X    fraction of model-update coordinates shipped encrypted
                 (top-k by |global weight|; default 0 = plaintext updates)
Fault injection (churn testing — see src/net/README.md "Failure model"):
  --fault-plan S scripted misbehavior "kind@phase[:nth][+delay_ms][*]", e.g.
                 disconnect@participation:1 or straggle@update+2000*
                 (a trailing * repeats the fault on every later match).
                 On --client: this client runs the plan (its own death is
                 expected and exits 0). On --selftest: the plan is given to
                 client --fault-client and the loopback/TCP transcripts —
                 quarantine records included — are compared byte for byte.
  --fault-client K  which client misbehaves in --selftest (default 0)
Server options:
  --port P       listen port; 0 = ephemeral (default 45711)
  --port-file F  write the bound port to F (atomically) once listening
  --transcript F write the round transcript to F
  --workers W    event-loop worker shards (default 1; DUBHE_CPU=portable
                 forces the poll backend inside each shard)
  --metrics-port P     serve GET /metrics (Prometheus text) and /metrics.json
                       on 127.0.0.1:P; 0 = ephemeral. Turns telemetry
                       collection on. Unauthenticated, loopback-only — see
                       src/net/README.md "Admin endpoint".
  --metrics-port-file F  write the bound metrics port to F (atomically)
Client options:
  --id K         this client's index in [0, N)
  --port-file F  wait for F and read the port from it
Aggregation tree (see docs/architecture.md and src/net/README.md "Wire v5"):
  --role root|shard  run one tier of the 2-level tree instead of the flat
                 aggregator. The root listens for A shard aggregators and
                 finishes every reduction; each shard listens for its slice
                 of ceil(N/A) clients (clients point --port-file at their
                 shard), then dials the root. Transcripts are byte-identical
                 to the flat --server run on the same flags.
  --shards A     shard-aggregator count (default 2; root and shards must agree)
  --shard-id S   this shard's index in [0, A)
  --shard-of F   wait for F and read the *root's* port from it (shard role)
Telemetry (any mode; see src/net/README.md "Telemetry"):
  --trace-out F  record phase spans and write a Chrome trace_event JSON to F
                 at exit (load via chrome://tracing or https://ui.perfetto.dev).
                 Collection is otherwise off unless DUBHE_TELEMETRY=on.
)";

// Checked numeric flag values. Bare strtoull reads "2junk" as 2 and "" as 0
// and wraps "-1" to 2^64-1; bare strtod passes "nan". These reject each.
template <typename T>
bool parse_unsigned(const char* v, T& out, std::uint64_t max = std::numeric_limits<T>::max()) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t x = std::strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE || x > max) return false;
  out = static_cast<T>(x);
  return true;
}

// A TCP port in [0, 65535]; with `allow_off`, also -1 (no endpoint).
bool parse_port(const char* v, int& out, bool allow_off = false) {
  const bool off = allow_off && std::string(v) == "-1";
  if (off) out = -1;
  return off || parse_unsigned(v, out, 65535);
}

bool parse_rate(const char* v, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(v, &end);
  return end != v && *end == '\0' && errno != ERANGE && std::isfinite(out);
}

bool parse_args(int argc, char** argv, Options& opt) {
  bool missing_value = false;
  bool ok = true;  // false once a numeric flag's value fails its check
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
      missing_value = true;
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--server") {
      opt.mode = Options::Mode::kServer;
    } else if (a == "--client") {
      opt.mode = Options::Mode::kClient;
    } else if (a == "--selftest") {
      opt.mode = Options::Mode::kSelftest;
    } else if (a == "--role" && (v = need_value(i))) {
      const std::string role = v;
      if (role == "root") {
        opt.mode = Options::Mode::kRoot;
      } else if (role == "shard") {
        opt.mode = Options::Mode::kShard;
      } else {
        std::fprintf(stderr, "error: --role must be root or shard\n");
        return false;
      }
    } else if (a == "--shards" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.shards);
    } else if (a == "--shard-id" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.shard_id);
    } else if (a == "--shard-of" && (v = need_value(i))) {
      opt.shard_of = v;
    } else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (a == "--clients" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.clients);
    } else if (a == "--id" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.id);
    } else if (a == "--port" && (v = need_value(i))) {
      ok = parse_port(v, opt.port);
    } else if (a == "--host" && (v = need_value(i))) {
      opt.host = v;
    } else if (a == "--port-file" && (v = need_value(i))) {
      opt.port_file = v;
    } else if (a == "--transcript" && (v = need_value(i))) {
      opt.transcript_path = v;
    } else if (a == "--key-bits" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.key_bits);
    } else if (a == "--k" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.K);
    } else if (a == "--h" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.H);
    } else if (a == "--rounds" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.rounds);
    } else if (a == "--seed" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.seed);
    } else if (a == "--he-rate" && (v = need_value(i))) {
      ok = parse_rate(v, opt.he_rate);
    } else if (a == "--workers" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.workers);
    } else if (a == "--fault-plan" && (v = need_value(i))) {
      opt.fault_plan = v;
    } else if (a == "--fault-client" && (v = need_value(i))) {
      ok = parse_unsigned(v, opt.fault_client);
    } else if (a == "--metrics-port" && (v = need_value(i))) {
      ok = parse_port(v, opt.metrics_port, /*allow_off=*/true);
    } else if (a == "--metrics-port-file" && (v = need_value(i))) {
      opt.metrics_port_file = v;
    } else if (a == "--trace-out" && (v = need_value(i))) {
      opt.trace_out = v;
    } else {
      // A matched flag that failed need_value lands here too with v null —
      // the missing-value message already printed, don't call it unknown.
      if (!missing_value) std::fprintf(stderr, "error: unknown flag %s\n", a.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "error: bad %s\n", a.c_str());
      return false;
    }
  }
  if (opt.mode == Options::Mode::kNone) {
    std::fprintf(stderr, "error: one of --server / --client / --selftest required\n");
    return false;
  }
  if (opt.K == 0 || opt.K > opt.clients) {
    std::fprintf(stderr, "error: need 0 < k <= clients\n");
    return false;
  }
  if (opt.rounds == 0) {
    std::fprintf(stderr, "error: need rounds > 0\n");
    return false;
  }
  if (opt.he_rate < 0.0 || opt.he_rate > 1.0) {
    std::fprintf(stderr, "error: need 0 <= he-rate <= 1\n");
    return false;
  }
  if (!opt.fault_plan.empty()) {
    try {
      (void)net::parse_fault_plan(opt.fault_plan);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: bad --fault-plan: %s\n", e.what());
      return false;
    }
  }
  if (opt.fault_client >= opt.clients) {
    std::fprintf(stderr, "error: --fault-client must be < --clients\n");
    return false;
  }
  if (opt.mode == Options::Mode::kRoot || opt.mode == Options::Mode::kShard) {
    if (opt.shards == 0 || opt.shards > opt.clients) {
      std::fprintf(stderr, "error: need 0 < shards <= clients\n");
      return false;
    }
  }
  if (opt.mode == Options::Mode::kShard) {
    if (opt.shard_id >= opt.shards) {
      std::fprintf(stderr, "error: --shard-id must be < --shards\n");
      return false;
    }
    if (opt.shard_of.empty()) {
      std::fprintf(stderr, "error: --role shard needs --shard-of ROOT_PORT_FILE\n");
      return false;
    }
  }
  return true;
}

data::FederatedDataset make_dataset(const Options& opt) {
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = opt.clients;
  pc.samples_per_client = 48;
  pc.rho = 8;
  pc.emd_avg = 1.4;
  pc.seed = opt.seed;
  return {data::mnist_like(), pc};
}

net::SessionParams make_params(const Options& opt) {
  net::SessionParams p;
  p.secure.key_bits = opt.key_bits;
  p.secure.update_he_rate = opt.he_rate;
  p.K = opt.K;
  p.H = opt.H;
  p.rounds = opt.rounds;
  p.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  return p;
}

/// Publishes `content` at `path` atomically (temp file, then rename). An
/// empty path writes nothing; a failure is reported on stderr.
bool write_file(const std::string& path, const std::string& content) {
  if (path.empty()) return true;
  const std::string tmp = path + ".tmp";
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    ok = out && (out << content);
  }
  if (ok && std::rename(tmp.c_str(), path.c_str()) == 0) return true;
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return false;
}

/// Waits for a port file to appear (another process publishes it atomically)
/// and reads the port out of it. Returns 0 on timeout.
int wait_for_port(const std::string& path, std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  int port = 0;
  while (Clock::now() < deadline) {
    std::ifstream in(path);
    if (in && (in >> port) && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return 0;
}

int run_client(const Options& opt) {
  if (opt.id >= opt.clients) {
    std::fprintf(stderr, "error: --id must be < --clients\n");
    return 2;
  }
  const auto dataset = make_dataset(opt);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);

  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  int port = opt.port;
  if (!opt.port_file.empty()) {
    port = wait_for_port(opt.port_file, deadline);
    if (port <= 0) {
      std::fprintf(stderr, "error: no port appeared in %s\n", opt.port_file.c_str());
      return 1;
    }
  }
  // Bounded exponential backoff with per-client jitter: a cohort of clients
  // launched by one script decorrelates its retries against a server that
  // is not listening yet, but any single client's schedule is reproducible.
  net::RetryPolicy retry;
  retry.budget = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  retry.jitter_seed = 0x9e3779b97f4a7c15ull ^ opt.id;
  std::shared_ptr<net::Transport> link =
      net::connect_with_retry(opt.host, static_cast<std::uint16_t>(port), retry);
  std::printf("dubhe_node client %zu: connected to %s\n", opt.id,
              link->peer_name().c_str());
  const bool faulty = !opt.fault_plan.empty();
  if (faulty) {
    link = std::make_shared<net::FaultyTransport>(std::move(link),
                                                  net::parse_fault_plan(opt.fault_plan));
    std::printf("dubhe_node client %zu: running fault plan %s\n", opt.id,
                opt.fault_plan.c_str());
  }
  try {
    net::serve_client(*link, opt.id, dataset, proto, make_params(opt));
  } catch (const std::exception& e) {
    // A client running a fault plan is *scripted* to die mid-session; its
    // exception is the plan working, not a failure of this process.
    if (!faulty) throw;
    std::printf("dubhe_node client %zu: fault fired as planned (%s)\n", opt.id,
                e.what());
    return 0;
  }
  std::printf("dubhe_node client %zu: session complete\n", opt.id);
  return 0;
}

/// The flat server and the tree root: listen, publish the port (and the
/// metrics endpoint), accept one link per child — a client of the flat
/// cohort, or a shard aggregator of the tree — run the session over them,
/// then print and write the transcript.
int run_aggregator(const Options& opt, bool root) {
  const char* role = root ? "root" : "server";
  const std::size_t children = root ? opt.shards : opt.clients;
  const auto dataset = make_dataset(opt);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  net::TcpServer server(static_cast<std::uint16_t>(opt.port), opt.workers);
  if (root) {
    std::printf(
        "dubhe_node root: listening on 127.0.0.1:%u (%s backend), waiting for %zu "
        "shard aggregator%s over %zu clients\n",
        server.port(), server.backend_name(), opt.shards, opt.shards == 1 ? "" : "s",
        opt.clients);
  } else {
    std::printf(
        "dubhe_node server: listening on 127.0.0.1:%u (%s backend, %zu worker%s), "
        "waiting for %zu clients\n",
        server.port(), server.backend_name(), server.worker_count(),
        server.worker_count() == 1 ? "" : "s", opt.clients);
  }
  if (!write_file(opt.port_file, std::to_string(server.port()) + "\n")) return 1;
  if (opt.metrics_port >= 0) {
    telemetry::set_enabled(true);  // an admin endpoint implies collection
    const std::uint16_t mp =
        server.serve_metrics(static_cast<std::uint16_t>(opt.metrics_port));
    std::printf("dubhe_node %s: metrics on http://127.0.0.1:%u/metrics\n", role, mp);
    if (!write_file(opt.metrics_port_file, std::to_string(mp) + "\n")) return 1;
  }
  std::vector<std::shared_ptr<net::Transport>> links;
  links.reserve(children);
  for (std::size_t i = 0; i < children; ++i) {
    auto link = server.accept();
    if (link == nullptr) return 1;
    std::printf("dubhe_node %s: %s connected from %s\n", role, root ? "shard" : "client",
                link->peer_name().c_str());
    links.push_back(std::move(link));
  }
  fl::ChannelAccountant channel;
  const auto t =
      root ? net::run_root_session(links, dataset, proto, make_params(opt), &channel)
           : net::run_server_session(links, dataset, proto, make_params(opt), &channel);
  const std::string text = net::format_transcript(t);
  std::fputs(text.c_str(), stdout);
  std::printf("%s: %llu messages, %llu bytes on the wire\n",
              root ? "channel (root<->shards)" : "channel",
              static_cast<unsigned long long>(channel.total_messages()),
              static_cast<unsigned long long>(channel.total_bytes()));
  return write_file(opt.transcript_path, text) ? 0 : 1;
}

int run_shard(const Options& opt) {
  const net::ShardRange range = net::shard_range(opt.clients, opt.shards, opt.shard_id);
  net::TcpServer server(static_cast<std::uint16_t>(opt.port), opt.workers);
  std::printf(
      "dubhe_node shard %zu/%zu: listening on 127.0.0.1:%u, waiting for clients "
      "[%zu, %zu)\n",
      opt.shard_id, opt.shards, server.port(), range.first, range.first + range.count);
  if (!write_file(opt.port_file, std::to_string(server.port()) + "\n")) return 1;
  std::vector<std::shared_ptr<net::Transport>> links;
  links.reserve(range.count);
  for (std::size_t i = 0; i < range.count; ++i) {
    auto link = server.accept();
    if (link == nullptr) return 1;
    std::printf("dubhe_node shard %zu: client connected from %s\n", opt.shard_id,
                link->peer_name().c_str());
    links.push_back(std::move(link));
  }
  // Clients in hand, dial upward. The root's accept is the rendezvous: it
  // waits for all A shards, so connect order across shards is irrelevant.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const int root_port = wait_for_port(opt.shard_of, deadline);
  if (root_port <= 0) {
    std::fprintf(stderr, "error: no port appeared in %s\n", opt.shard_of.c_str());
    return 1;
  }
  net::RetryPolicy retry;
  retry.budget = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  retry.jitter_seed = 0x9e3779b97f4a7c15ull ^ (0xA000u + opt.shard_id);
  const std::shared_ptr<net::Transport> uplink =
      net::connect_with_retry(opt.host, static_cast<std::uint16_t>(root_port), retry);
  std::printf("dubhe_node shard %zu: uplink to root at %s\n", opt.shard_id,
              uplink->peer_name().c_str());
  net::serve_shard(*uplink, links, static_cast<std::uint32_t>(opt.shard_id),
                   static_cast<std::uint32_t>(opt.shards), opt.clients,
                   make_params(opt));
  std::printf("dubhe_node shard %zu: session complete\n", opt.shard_id);
  return 0;
}

int run_selftest(const Options& opt) {
  const auto dataset = make_dataset(opt);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(opt);
  if (!opt.fault_plan.empty()) {
    // Churn selftest: the faulty client cannot match the fault-free direct
    // path, so the contract becomes loopback == TCP under the same seeded
    // plan — quarantine records included.
    std::vector<net::FaultPlan> plans(opt.clients);
    plans[opt.fault_client] = net::parse_fault_plan(opt.fault_plan);
    const auto loopback = net::run_loopback_session(dataset, proto, params, plans);
    const auto tcp = net::run_tcp_session(dataset, proto, params, opt.workers, plans);
    const std::string text = net::format_transcript(loopback);
    if (!(loopback == tcp)) {
      std::fprintf(stderr,
                   "SELFTEST FAILED: churn transcript diverges across transports\n");
      std::fprintf(stderr, "--- loopback ---\n%s--- tcp ---\n%s", text.c_str(),
                   net::format_transcript(tcp).c_str());
      return 1;
    }
    std::fputs(text.c_str(), stdout);
    std::printf("selftest: loopback == tcp under fault plan %s (client %zu)\n",
                opt.fault_plan.c_str(), opt.fault_client);
    return write_file(opt.transcript_path, text) ? 0 : 1;
  }
  const auto direct = net::run_session_direct(dataset, proto, params);
  const auto loopback = net::run_loopback_session(dataset, proto, params);
  const std::string text = net::format_transcript(direct);
  if (!(direct == loopback)) {
    std::fprintf(stderr, "SELFTEST FAILED: loopback transcript diverges from direct\n");
    std::fprintf(stderr, "--- direct ---\n%s--- loopback ---\n%s", text.c_str(),
                 net::format_transcript(loopback).c_str());
    return 1;
  }
  std::fputs(text.c_str(), stdout);
  std::printf("selftest: direct == loopback, bit for bit\n");
  return write_file(opt.transcript_path, text) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!opt.trace_out.empty()) {
    // Span tracing needs collection on; both stay strictly out-of-band, so
    // transcripts are byte-identical either way.
    telemetry::set_enabled(true);
    telemetry::set_trace_enabled(true);
  }
  int rc = 2;
  try {
    switch (opt.mode) {
      case Options::Mode::kServer: rc = run_aggregator(opt, false); break;
      case Options::Mode::kClient: rc = run_client(opt); break;
      case Options::Mode::kSelftest: rc = run_selftest(opt); break;
      case Options::Mode::kRoot: rc = run_aggregator(opt, true); break;
      case Options::Mode::kShard: rc = run_shard(opt); break;
      case Options::Mode::kNone: break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dubhe_node: fatal: %s\n", e.what());
    return 1;
  }
  if (telemetry::enabled()) {
    const std::string summary = telemetry::Registry::global().render_summary();
    if (!summary.empty()) {
      std::printf("--- telemetry ---\n%s", summary.c_str());
    }
  }
  if (!opt.trace_out.empty()) {
    if (telemetry::write_chrome_trace(opt.trace_out)) {
      std::printf("trace: %zu span(s) -> %s\n", telemetry::trace_events().size(),
                  opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", opt.trace_out.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
