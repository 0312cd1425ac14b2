#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"

namespace dubhe::net {

class MetricsHttpServer;

/// Socket setup shared by TcpServer and the admin endpoint
/// (net/metrics_http.hpp).
namespace detail {

/// A listening socket and the port it bound.
struct Listener {
  int fd = -1;
  std::uint16_t port = 0;
};
/// Opens a nonblocking SO_REUSEADDR listener on 127.0.0.1:`port` (0 picks
/// an ephemeral port). Throws TransportError, with no descriptor left
/// open, on failure.
Listener listen_loopback(std::uint16_t port, int backlog);

/// Wake channels: an eventfd where available (one descriptor, one word of
/// kernel state), a nonblocking pipe elsewhere. r == w marks an eventfd.
void open_wake_channel(int& r, int& w);
void close_wake_channel(int& r, int& w);
/// Makes `r` readable; a wakeup already pending absorbs it.
void ring(int r, int w);

}  // namespace detail

/// Client-side TCP endpoint: a blocking connected socket speaking the frame
/// protocol. connect() resolves only dotted-quad / localhost addresses (the
/// deployment story here is aggregator + clients on a LAN; no resolver
/// dependency). TCP_NODELAY is set — frames are request/response sized, and
/// Nagle coalescing only adds latency. send() writes header and payload as
/// two iovecs of one sendmsg, so a frame leaves in a single syscall without
/// being copied into one contiguous buffer first.
class TcpTransport final : public Transport {
 public:
  /// Throws TransportError if the connection cannot be established.
  static std::shared_ptr<TcpTransport> connect(const std::string& host,
                                               std::uint16_t port);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void send(const Frame& frame) override;
  std::optional<Frame> receive(std::chrono::milliseconds deadline) override;
  using Transport::receive;
  void close() override;
  [[nodiscard]] std::string peer_name() const override { return peer_; }

 private:
  TcpTransport(int fd, std::string peer);

  int fd_ = -1;
  std::string peer_;
  FrameReader reader_;
  std::mutex send_mu_;  // serializes whole frames if a caller does fan-in
  std::atomic<bool> closed_{false};
};

/// Bounded exponential-backoff policy for connect_with_retry. The jitter is
/// seeded (full-jitter: each sleep is uniform in [1, current step]) so a
/// cohort of clients started together decorrelates its retries yet any
/// single client's retry schedule is reproducible.
struct RetryPolicy {
  std::chrono::milliseconds budget{30000};     // total time before giving up
  std::chrono::milliseconds base_delay{20};    // first backoff step
  std::chrono::milliseconds max_delay{1000};   // step ceiling
  std::uint64_t jitter_seed = 0;
};

/// TcpTransport::connect with bounded exponential backoff: retries refused /
/// unreachable connections (the server may not be listening yet) until the
/// policy budget runs out, then rethrows the last TransportError.
std::shared_ptr<TcpTransport> connect_with_retry(const std::string& host,
                                                 std::uint16_t port,
                                                 const RetryPolicy& policy = {});

/// The aggregation server's front end, structured for c10k:
///
///   - one *listener* thread owns the listening socket: it accepts, picks
///     the least-loaded worker, and hands the connection over through that
///     worker's wake channel (an EMFILE parachute fd lets it shed load
///     instead of spinning when the process runs out of descriptors);
///   - N *worker* threads each run an event loop over their share of the
///     connections — epoll(7) where available, poll(2) as the portable
///     fallback, selected at runtime through core::cpu (see net/poller.hpp).
///     Nonblocking reads feed per-connection FrameReaders; per-connection
///     send queues drain with scatter-gather sendmsg so a header+payload
///     frame goes out in one syscall.
///
/// Each accepted connection is surfaced as a Transport: send() enqueues and
/// wakes the owning worker, receive() pops the connection's inbox. A slow
/// client backs up its own queue, never a loop. The protocol driver above
/// is synchronous per connection, so session transcripts are byte-identical
/// at any worker count and under either readiness backend. Architecture
/// details: src/net/README.md.
class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — read it back with
  /// port()) and shards connections across `workers` event loops (clamped
  /// to >= 1). Throws TransportError on bind/listen failure.
  explicit TcpServer(std::uint16_t port = 0, std::size_t workers = 1);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  /// "epoll" or "poll" — the readiness backend the workers selected.
  [[nodiscard]] const char* backend_name() const;

  /// Blocks until the next client connects (nullptr once stop() was called).
  std::shared_ptr<Transport> accept();

  /// Closes the listener and every connection, and joins all loops.
  /// Called by the destructor; safe to call twice, and from several
  /// threads at once.
  void stop();

  /// Starts the loopback-only admin endpoint (net/metrics_http.hpp) next to
  /// the data-plane listener and returns its bound port (`port` 0 picks an
  /// ephemeral one). Idempotent: a second call returns the existing port.
  /// The endpoint lives until stop().
  std::uint16_t serve_metrics(std::uint16_t port = 0);
  /// 0 until serve_metrics() has been called.
  [[nodiscard]] std::uint16_t metrics_port() const;

 private:
  struct Conn;
  struct Worker;
  class ConnTransport;

  void listener_loop();
  void worker_loop(Worker& w);
  void update_conn(Worker& w, const std::shared_ptr<Conn>& conn);
  void handle_read(Worker& w, const std::shared_ptr<Conn>& conn, bool hangup_only);
  void handle_write(Worker& w, const std::shared_ptr<Conn>& conn);
  static void retire(Worker& w, int fd);
  void notify_conn(const std::shared_ptr<Conn>& conn);
  bool shed_connection();

  int listen_fd_ = -1;
  int reserve_fd_ = -1;  // EMFILE parachute: see shed_connection
  int wake_r_ = -1, wake_w_ = -1;  // listener wake channel
  std::uint16_t port_ = 0;
  std::thread listener_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<MetricsHttpServer> metrics_;
  std::atomic<bool> stopping_{false};

  std::mutex stop_mu_;  // serializes stop()
  std::mutex mu_;       // guards pending_
  std::deque<std::shared_ptr<Transport>> pending_;
  std::condition_variable pending_cv_;
};

}  // namespace dubhe::net
