// Micro-benchmarks for the net layer: frame encode/decode throughput, the
// payload codecs, loopback echo, TCP localhost echo at 1/2/4/8 concurrent
// connections, and the c10k connection-scaling sweep (100/1k/10k clients
// multiplexed over a fixed driver pool). The headline tables (frames/sec +
// MB/s) are the standing baselines CHANGES.md records per PR; the
// google-benchmark suite that follows gives per-op latencies.

#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "core/cpu.hpp"
#include "core/telemetry.hpp"
#include "net/codec.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "stats/rng.hpp"

using namespace dubhe;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kPayloadBytes = 16 * 1024;  // a ~4k-weight model frame

net::Frame test_frame(std::size_t payload_bytes) {
  stats::Rng rng(7);
  std::vector<std::uint8_t> payload(payload_bytes);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  return {net::MsgType::kModelDown, std::move(payload)};
}

double secs(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Echo peer: receives frames on `t` and sends each one back until close.
void echo_until_closed(net::Transport& t) {
  while (auto frame = t.receive()) t.send(*frame);
}

struct Rate {
  double frames_per_sec = 0;
  double mb_per_sec = 0;
};

Rate measure(std::size_t frames, std::size_t bytes_per_frame, double seconds) {
  const double total = static_cast<double>(frames);
  return {total / seconds,
          total * static_cast<double>(bytes_per_frame) / (1024.0 * 1024.0) / seconds};
}

void add_row(const char* what, Rate r) {
  std::printf("%-36s %14.0f %12.1f\n", what, r.frames_per_sec, r.mb_per_sec);
}

void print_net_table() {
  std::printf("cpu: %s\n", core::cpu::feature_string().c_str());
  std::printf("== net layer throughput (%zu KiB payload frames) ==\n",
              kPayloadBytes / 1024);
  std::printf("%-36s %14s %12s\n", "path", "frames/sec", "MB/s");

  const net::Frame frame = test_frame(kPayloadBytes);
  const std::size_t wire = net::frame_wire_size(kPayloadBytes);
  constexpr std::size_t kIters = 2000;

  {  // encode
    auto t0 = Clock::now();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < kIters; ++i) sink += net::encode_frame(frame).size();
    benchmark::DoNotOptimize(sink);
    add_row("encode", measure(kIters, wire, secs(t0)));
  }
  {  // decode
    const auto bytes = net::encode_frame(frame);
    auto t0 = Clock::now();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < kIters; ++i) sink += net::decode_frame(bytes).payload.size();
    benchmark::DoNotOptimize(sink);
    add_row("decode", measure(kIters, wire, secs(t0)));
  }
  {  // loopback echo round trip (2 frames of `wire` bytes per echo)
    auto [a, b] = net::LoopbackTransport::make_pair();
    std::thread peer([peer_end = b] { echo_until_closed(*peer_end); });
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      a->send(frame);
      benchmark::DoNotOptimize(a->receive());
    }
    add_row("loopback echo", measure(2 * kIters, wire, secs(t0)));
    a->close();
    peer.join();
  }
  for (const std::size_t conns : {1, 2, 4, 8}) {  // TCP localhost echo
    net::TcpServer server(0);
    std::vector<std::thread> echoers;
    std::vector<std::shared_ptr<net::Transport>> clients;
    for (std::size_t c = 0; c < conns; ++c) {
      clients.push_back(net::TcpTransport::connect("127.0.0.1", server.port()));
      echoers.emplace_back([link = server.accept()] { echo_until_closed(*link); });
    }
    const std::size_t per_conn = kIters / conns;
    auto t0 = Clock::now();
    std::vector<std::thread> drivers;
    for (std::size_t c = 0; c < conns; ++c) {
      drivers.emplace_back([&, c] {
        for (std::size_t i = 0; i < per_conn; ++i) {
          clients[c]->send(frame);
          benchmark::DoNotOptimize(clients[c]->receive());
        }
      });
    }
    for (auto& d : drivers) d.join();
    const double dt = secs(t0);
    for (auto& cl : clients) cl->close();
    for (auto& e : echoers) e.join();
    char label[64];
    std::snprintf(label, sizeof label, "tcp localhost echo, %zu conn%s", conns,
                  conns == 1 ? "" : "s");
    add_row(label, measure(2 * per_conn * conns, wire, dt));
  }
  std::printf("\n");
}

/// Telemetry-overhead row: the same single-thread encode loop (which passes
/// through the instrumented crc32 tier dispatch) with collection off vs on.
/// The contract is <2% on this hot path — a disabled site costs one relaxed
/// atomic-bool load, an enabled one a relaxed fetch_add on a per-thread
/// shard. The DUBHE_TELEMETRY env var flips the same runtime toggle.
void print_telemetry_overhead_table() {
  const bool was_enabled = telemetry::enabled();
  const net::Frame frame = test_frame(kPayloadBytes);
  const std::size_t wire = net::frame_wire_size(kPayloadBytes);
  constexpr std::size_t kIters = 4000;

  const auto encode_pass = [&] {
    auto t0 = Clock::now();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < kIters; ++i) sink += net::encode_frame(frame).size();
    benchmark::DoNotOptimize(sink);
    return secs(t0);
  };

  // Best-of-5 per mode: a single 4000-iteration pass is only a few ms, so
  // allocator and scheduler noise would otherwise swamp a sub-2% delta.
  const auto best_of = [&](int passes) {
    double best = encode_pass();  // first pass doubles as cache warm-up
    for (int p = 1; p < passes; ++p) best = std::min(best, encode_pass());
    return best;
  };

  std::printf("== telemetry overhead (frame encode, %zu KiB payload) ==\n",
              kPayloadBytes / 1024);
  std::printf("%-36s %14s %12s\n", "path", "frames/sec", "MB/s");
  telemetry::set_enabled(false);
  const double off_secs = best_of(5);
  add_row("encode, telemetry off", measure(kIters, wire, off_secs));
  telemetry::set_enabled(true);
  const double on_secs = best_of(5);
  add_row("encode, telemetry on", measure(kIters, wire, on_secs));
  std::printf("%-36s %13.2f%%\n", "overhead (on vs off)",
              (on_secs / off_secs - 1.0) * 100.0);
  telemetry::set_enabled(was_enabled);
  std::printf("\n");
}

// --- connection scaling ------------------------------------------------------

constexpr std::size_t kScalePayload = 4 * 1024;  // per-round protocol frame size
constexpr std::size_t kScaleFrames = 20000;      // echo round trips per row
constexpr std::size_t kDriverThreads = 8;
constexpr std::size_t kScaleWorkers = 4;         // server event-loop shards

/// Raises RLIMIT_NOFILE (soft -> hard) and reports the resulting ceiling.
/// The 10k row needs >= ~20k descriptors (both socket ends live in this
/// process).
rlim_t raise_nofile() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  return rl.rlim_cur;
}

/// One scaling row over loopback pairs: no echo threads at all — each driver
/// thread walks its shard in waves, pushing a frame into every pair's a-side
/// and pulling it out of the b-side (and back), so 10k "clients" cost 10k
/// queue pairs, not 10k threads.
Rate scale_loopback(std::size_t conns, const net::Frame& frame) {
  std::vector<std::shared_ptr<net::Transport>> a(conns), b(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    auto [x, y] = net::LoopbackTransport::make_pair();
    a[i] = std::move(x);
    b[i] = std::move(y);
  }
  const std::size_t rounds = std::max<std::size_t>(1, kScaleFrames / conns);
  const auto t0 = Clock::now();
  std::vector<std::thread> drivers;
  for (std::size_t t = 0; t < kDriverThreads; ++t) {
    drivers.emplace_back([&, t] {
      const std::size_t lo = conns * t / kDriverThreads;
      const std::size_t hi = conns * (t + 1) / kDriverThreads;
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = lo; i < hi; ++i) a[i]->send(frame);
        for (std::size_t i = lo; i < hi; ++i) {
          benchmark::DoNotOptimize(b[i]->receive());
          b[i]->send(frame);
        }
        for (std::size_t i = lo; i < hi; ++i) benchmark::DoNotOptimize(a[i]->receive());
      }
    });
  }
  for (auto& d : drivers) d.join();
  const double dt = secs(t0);
  for (auto& x : a) x->close();
  return measure(2 * rounds * conns, net::frame_wire_size(frame.payload.size()), dt);
}

/// One scaling row over real sockets against a multi-worker TcpServer.
/// The client cohort lives in a forked load-generator process — the real
/// c10k shape, and the only way both sides of 10k connections fit when
/// RLIMIT_NOFILE cannot be raised past ~20k (each process then budgets its
/// own 10k descriptors). The child's driver pool plays the clients in waves
/// (send one frame on every connection of the shard, then collect every
/// reply); the parent's echo pool walks the server-side transports the same
/// way. One in-flight frame per connection keeps every kernel buffer
/// bounded, so the wave pattern cannot deadlock at any cohort size.
Rate scale_tcp(std::size_t conns, const net::Frame& frame) {
  net::TcpServer server(0, kScaleWorkers);
  const std::size_t rounds = std::max<std::size_t>(1, kScaleFrames / conns);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Load generator. _exit (never exit/return): the child inherited the
    // parent's TcpServer object, whose destructor would try to join event
    // loop threads that only exist in the parent.
    std::vector<std::shared_ptr<net::Transport>> clients(conns);
    std::vector<std::thread> drivers;
    for (std::size_t t = 0; t < kDriverThreads; ++t) {
      const std::size_t lo = conns * t / kDriverThreads;
      const std::size_t hi = conns * (t + 1) / kDriverThreads;
      drivers.emplace_back([&, lo, hi] {
        for (std::size_t i = lo; i < hi; ++i) {
          clients[i] = net::TcpTransport::connect("127.0.0.1", server.port());
        }
        for (std::size_t r = 0; r < rounds; ++r) {
          for (std::size_t i = lo; i < hi; ++i) clients[i]->send(frame);
          for (std::size_t i = lo; i < hi; ++i) {
            benchmark::DoNotOptimize(clients[i]->receive());
          }
        }
        for (std::size_t i = lo; i < hi; ++i) clients[i]->close();
      });
    }
    for (auto& d : drivers) d.join();
    ::_exit(0);
  }
  if (pid < 0) return {};  // fork failed; caller prints the zero row

  std::vector<std::shared_ptr<net::Transport>> links(conns);
  for (std::size_t i = 0; i < conns; ++i) links[i] = server.accept();
  const auto t0 = Clock::now();
  std::vector<std::thread> echoers;
  for (std::size_t t = 0; t < kDriverThreads; ++t) {
    const std::size_t lo = conns * t / kDriverThreads;
    const std::size_t hi = conns * (t + 1) / kDriverThreads;
    echoers.emplace_back([&, lo, hi] {
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = lo; i < hi; ++i) {
          auto f = links[i]->receive();
          if (f) links[i]->send(*f);
        }
      }
    });
  }
  for (auto& th : echoers) th.join();
  const double dt = secs(t0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return measure(2 * rounds * conns, net::frame_wire_size(frame.payload.size()), dt);
}

void print_scaling_table() {
  const rlim_t nofile = raise_nofile();
  std::printf(
      "== connection scaling (%zu B frames, %zu driver threads, %zu workers, %s) ==\n",
      kScalePayload, kDriverThreads, kScaleWorkers,
      core::cpu::has(core::cpu::kEpoll) ? "epoll" : "poll");
  std::printf("%-36s %14s %12s\n", "path", "frames/sec", "MB/s");
  const net::Frame frame = test_frame(kScalePayload);
  for (const std::size_t conns : {std::size_t{100}, std::size_t{1000}, std::size_t{10000}}) {
    char label[64];
    std::snprintf(label, sizeof label, "loopback, %zu clients", conns);
    add_row(label, scale_loopback(conns, frame));
    std::snprintf(label, sizeof label, "tcp echo, %zu clients", conns);
    // The load generator is forked, so each process needs one fd per
    // connection plus listener/wake/poller overhead; skip (with a note)
    // rather than melt down on a tight rlimit.
    if (nofile < conns + 64) {
      std::printf("%-36s   skipped: RLIMIT_NOFILE=%llu < %zu\n", label,
                  static_cast<unsigned long long>(nofile), conns + 64);
      continue;
    }
    add_row(label, scale_tcp(conns, frame));
  }
  std::printf("\n");
}

void BM_EncodeFrame(benchmark::State& state) {
  const net::Frame frame = test_frame(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_frame(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net::frame_wire_size(frame.payload.size())));
}
BENCHMARK(BM_EncodeFrame)->Arg(64)->Arg(4096)->Arg(65536);

void BM_DecodeFrame(benchmark::State& state) {
  const auto bytes = net::encode_frame(test_frame(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_frame(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeFrame)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  const net::Frame frame = test_frame(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::crc32(frame.payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(65536);

void BM_WeightsCodec(benchmark::State& state) {
  net::WeightsMsg msg;
  msg.seed = 1;
  msg.weights.assign(static_cast<std::size_t>(state.range(0)), 0.5f);
  for (auto _ : state) {
    const auto f = net::encode(net::MsgType::kModelDown, msg);
    benchmark::DoNotOptimize(net::decode<net::WeightsMsg>(f, net::MsgType::kModelDown));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net::wire_size(msg).frame));
}
BENCHMARK(BM_WeightsCodec)->Arg(1024)->Arg(16384);

/// What an aggregator pays per client upload before the homomorphic add:
/// decoding a 2048-bit one-ciphertext kDistributionUpload (10 classes,
/// 32-bit slots) under the session key.
void BM_PackedUploadDecode(benchmark::State& state) {
  bigint::Xoshiro256ss rng(2048);
  const he::Keypair kp = he::Keypair::generate(rng, 2048);
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 32);
  const std::vector<std::uint64_t> dist(10, 1u << 20);
  const net::Frame f = net::encode(net::MsgType::kDistributionUpload,
                                   he::PackedEncryptedVector::encrypt(kp.pub, codec, dist, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode<he::PackedEncryptedVector>(
        f, net::MsgType::kDistributionUpload, kp.pub));
  }
  state.counters["frame_bytes"] =
      static_cast<double>(net::frame_wire_size(f.payload.size()));
}
BENCHMARK(BM_PackedUploadDecode);

void BM_LoopbackEcho(benchmark::State& state) {
  auto [a, b] = net::LoopbackTransport::make_pair();
  std::thread peer([peer_end = b] { echo_until_closed(*peer_end); });
  const net::Frame frame = test_frame(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    a->send(frame);
    benchmark::DoNotOptimize(a->receive());
  }
  a->close();
  peer.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(net::frame_wire_size(frame.payload.size())));
}
BENCHMARK(BM_LoopbackEcho)->Arg(4096)->Arg(65536);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_filter")) filtered = true;
  }
  if (!filtered) {
    print_net_table();
    print_telemetry_overhead_table();
    print_scaling_table();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
