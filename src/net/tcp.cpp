#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/eventfd.h>
#endif

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <map>

#include "core/telemetry.hpp"
#include "net/metrics_http.hpp"
#include "net/poller.hpp"
#include "stats/rng.hpp"

namespace dubhe::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

constexpr std::size_t kReadChunk = 64 * 1024;
/// Upper bound on iovecs per sendmsg: enough to coalesce dozens of queued
/// frames into one syscall, comfortably under every IOV_MAX.
constexpr std::size_t kMaxSendIov = 64;
/// Deep enough that a 10k-client connect burst is not refused at the
/// SYN queue before the listener gets scheduled.
constexpr int kListenBacklog = 4096;

/// One queued outbound frame: header and payload kept separate so the drain
/// path can hand both to sendmsg as iovecs — no coalescing copy, one
/// syscall per batch of frames.
struct SendBuf {
  std::array<std::uint8_t, kFrameHeaderBytes> header{};
  std::vector<std::uint8_t> payload;

  [[nodiscard]] std::size_t size() const { return header.size() + payload.size(); }
};

/// Writes every byte the iovec array describes (blocking socket). Advances
/// the array in place across partial writes; MSG_NOSIGNAL turns a dead peer
/// into EPIPE instead of a process-killing SIGPIPE.
void send_iovs(int fd, iovec* iov, std::size_t iovcnt, const std::string& peer) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write to " + peer);
    }
    auto left = static_cast<std::size_t>(n);
    while (iovcnt > 0 && left >= iov[0].iov_len) {
      left -= iov[0].iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov[0].iov_base = static_cast<std::uint8_t*>(iov[0].iov_base) + left;
      iov[0].iov_len -= left;
    }
  }
}

}  // namespace

// --- shared socket setup -----------------------------------------------------

namespace detail {

Listener listen_loopback(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  try {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, backlog) < 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      throw_errno("bind/listen 127.0.0.1:" + std::to_string(port));
    }
    set_nonblocking(fd);
    return {fd, ntohs(addr.sin_port)};
  } catch (...) {
    ::close(fd);
    throw;
  }
}

void open_wake_channel(int& r, int& w) {
#if defined(__linux__)
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (efd >= 0) {
    r = w = efd;
    return;
  }
#endif
  int pipefd[2];
  if (::pipe(pipefd) < 0) throw_errno("pipe");
  r = pipefd[0];
  w = pipefd[1];
  set_nonblocking(r);
  set_nonblocking(w);
}

void close_wake_channel(int& r, int& w) {
  if (r >= 0) ::close(r);
  if (w >= 0 && w != r) ::close(w);
  r = w = -1;
}

void ring(int r, int w) {
  // EAGAIN (counter/pipe full) is fine: a wakeup is already pending.
  if (r == w) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(w, &one, sizeof one);
  } else {
    const std::uint8_t b = 0;
    [[maybe_unused]] const ssize_t n = ::write(w, &b, 1);
  }
}

}  // namespace detail

using detail::close_wake_channel;
using detail::open_wake_channel;
using detail::ring;

namespace {

void drain_wake(int r) {
  std::uint8_t buf[64];  // eventfd reads need >= 8 bytes; pipes drain in gulps
  while (::read(r, buf, sizeof buf) > 0) {
  }
}

/// Event-loop counters (see src/net/README.md for the catalog). Cached
/// references: the registry lookup happens once, the hot path pays one
/// relaxed atomic add per event.
telemetry::Counter& accepts_total() {
  static telemetry::Counter& c = telemetry::counter("dubhe_accepts_total");
  return c;
}
telemetry::Counter& emfile_sheds_total() {
  static telemetry::Counter& c = telemetry::counter("dubhe_emfile_sheds_total");
  return c;
}
telemetry::Counter& sendmsg_batches_total() {
  static telemetry::Counter& c = telemetry::counter("dubhe_sendmsg_batches_total");
  return c;
}
telemetry::Counter& backpressure_parks_total() {
  static telemetry::Counter& c = telemetry::counter("dubhe_backpressure_parks_total");
  return c;
}
telemetry::Gauge& connections_gauge() {
  static telemetry::Gauge& g = telemetry::gauge("dubhe_server_connections");
  return g;
}

}  // namespace

// --- client transport --------------------------------------------------------

TcpTransport::TcpTransport(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}

std::shared_ptr<TcpTransport> TcpTransport::connect(const std::string& host,
                                                    std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("TcpTransport: not an IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect " + numeric + ":" + std::to_string(port));
  }
  set_nodelay(fd);
  return std::shared_ptr<TcpTransport>(
      new TcpTransport(fd, numeric + ":" + std::to_string(port)));
}

TcpTransport::~TcpTransport() {
  close();
  if (fd_ >= 0) ::close(fd_);
}

void TcpTransport::send(const Frame& frame) {
  const auto header = encode_frame_header(frame.type, frame.payload, frame.seq);
  std::lock_guard<std::mutex> lock(send_mu_);
  if (closed_.load()) throw TransportError("TcpTransport: send after close");
  iovec iov[2];
  iov[0].iov_base = const_cast<std::uint8_t*>(header.data());
  iov[0].iov_len = header.size();
  iov[1].iov_base = const_cast<std::uint8_t*>(frame.payload.data());
  iov[1].iov_len = frame.payload.size();
  send_iovs(fd_, iov, frame.payload.empty() ? 1 : 2, peer_);
  account_sent(frame, frame_wire_size(frame.payload.size()));
}

std::optional<Frame> TcpTransport::receive(std::chrono::milliseconds deadline) {
  using Clock = std::chrono::steady_clock;
  const bool timed = deadline > kNoDeadline;
  const auto until = Clock::now() + deadline;
  for (;;) {
    if (auto frame = reader_.next()) {
      account_received(*frame, frame_wire_size(frame->payload.size()));
      return frame;
    }
    if (timed) {
      // The socket is blocking; gate the read behind poll so a silent peer
      // costs at most the remaining deadline, not forever.
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(until - Clock::now());
      pollfd pfd{fd_, POLLIN, 0};
      const int pr =
          left.count() <= 0 ? 0 : ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (pr < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll on " + peer_);
      }
      if (pr == 0) {
        throw TransportTimeout("TcpTransport: no frame from " + peer_ + " within " +
                               std::to_string(deadline.count()) + "ms");
      }
    }
    std::uint8_t buf[kReadChunk];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (closed_.load()) return std::nullopt;
      throw_errno("read from " + peer_);
    }
    if (n == 0) {
      // A locally initiated close() also surfaces as EOF (shutdown wakes the
      // read); only blame the peer for a mid-frame cut when it really left.
      if (reader_.buffered() > 0 && !closed_.load()) {
        throw WireError(WireErrc::kTruncated, "peer closed mid-frame");
      }
      return std::nullopt;
    }
    reader_.feed({buf, static_cast<std::size_t>(n)});
  }
}

void TcpTransport::close() {
  if (!closed_.exchange(true)) {
    // shutdown (not close) so a receive() blocked in read() wakes with EOF
    // instead of racing a reused descriptor.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

std::shared_ptr<TcpTransport> connect_with_retry(const std::string& host,
                                                 std::uint16_t port,
                                                 const RetryPolicy& policy) {
  using Clock = std::chrono::steady_clock;
  const auto give_up = Clock::now() + policy.budget;
  stats::Rng jitter(policy.jitter_seed);
  auto step = policy.base_delay;
  for (;;) {
    try {
      return TcpTransport::connect(host, port);
    } catch (const TransportError&) {
      const auto now = Clock::now();
      if (now >= give_up) throw;
      // Full jitter: sleep uniform in [1, step], then double the step (capped)
      // — a cohort launched together decorrelates instead of reconnecting in
      // lockstep, and a given jitter_seed reproduces the same schedule.
      const auto span = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(step.count()));
      const auto sleep = std::chrono::milliseconds(1 + jitter.below(span));
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(give_up - now);
      std::this_thread::sleep_for(std::min(sleep, remaining));
      step = std::min(step * 2, policy.max_delay);
    }
  }
}

// --- server ------------------------------------------------------------------

struct TcpServer::Conn {
  /// Inbound backpressure: once a connection's inbox holds this many
  /// undelivered frames, its worker stops watching the fd for readability
  /// (kernel buffers then throttle the peer via TCP flow control), and
  /// receive() wakes the worker when it drains below the mark — so a peer
  /// streaming frames faster than the driver consumes them cannot grow
  /// server memory without bound.
  static constexpr std::size_t kInboxHighWater = 256;

  int fd = -1;
  std::string peer;
  Worker* owner = nullptr;  // assigned before adoption, immutable after
  FrameReader reader;       // touched only by the owning worker

  std::mutex m;
  std::condition_variable cv;
  std::deque<Frame> inbox;
  std::deque<SendBuf> sendq;
  std::size_t send_off = 0;  // bytes of sendq.front() already written
  bool peer_gone = false;    // EOF / error seen, or loop tore it down
  bool want_close = false;   // user close(): flush sendq, then close fd
  std::exception_ptr decode_error;  // malformed bytes from the peer
};

/// One event-loop shard. The listener enqueues freshly accepted connections
/// into `adopt`; transports enqueue interest changes into `dirty`; the
/// worker thread drains both at the top of each iteration, so `conns` and
/// the poller are touched by the worker thread alone.
struct TcpServer::Worker {
  std::unique_ptr<Poller> poller;
  int wake_r = -1, wake_w = -1;
  std::thread thread;
  std::atomic<std::size_t> load{0};  // owned connections, for least-loaded pick

  std::mutex mu;  // guards adopt and dirty
  std::vector<std::shared_ptr<Conn>> adopt;
  std::vector<std::shared_ptr<Conn>> dirty;

  std::map<int, std::shared_ptr<Conn>> conns;  // worker-thread only

  /// dubhe_worker_loops_total{worker=i}, bound at construction so the loop
  /// body never does a registry lookup.
  telemetry::Counter* loop_iters = nullptr;
};

/// The Transport face of one accepted connection. Lifetime: holds the Conn
/// alive; the owning TcpServer must outlive its transports (the protocol
/// drivers keep the server on the same scope).
class TcpServer::ConnTransport final : public Transport {
 public:
  ConnTransport(TcpServer* server, std::shared_ptr<Conn> conn)
      : server_(server), conn_(std::move(conn)) {}

  void send(const Frame& frame) override {
    SendBuf buf;
    buf.header = encode_frame_header(frame.type, frame.payload, frame.seq);
    buf.payload = frame.payload;  // the queue outlives the caller's frame
    const std::size_t size = frame_wire_size(frame.payload.size());
    {
      std::lock_guard<std::mutex> lock(conn_->m);
      if (conn_->peer_gone || conn_->want_close) {
        throw TransportError("TcpServer: send on a closed connection");
      }
      conn_->sendq.push_back(std::move(buf));
    }
    server_->notify_conn(conn_);
    account_sent(frame, size);
  }

  std::optional<Frame> receive(std::chrono::milliseconds deadline) override {
    std::unique_lock<std::mutex> lock(conn_->m);
    const auto ready = [&] {
      return !conn_->inbox.empty() || conn_->peer_gone || conn_->want_close ||
             conn_->decode_error != nullptr;
    };
    if (deadline > kNoDeadline) {
      if (!conn_->cv.wait_for(lock, deadline, ready)) {
        throw TransportTimeout("TcpServer: no frame from " + conn_->peer +
                               " within " + std::to_string(deadline.count()) + "ms");
      }
    } else {
      conn_->cv.wait(lock, ready);
    }
    if (!conn_->inbox.empty()) {
      Frame frame = std::move(conn_->inbox.front());
      conn_->inbox.pop_front();
      const bool resume_reads = conn_->inbox.size() == Conn::kInboxHighWater - 1;
      lock.unlock();
      if (resume_reads) server_->notify_conn(conn_);  // fd parked above high water
      account_received(frame, frame_wire_size(frame.payload.size()));
      return frame;
    }
    if (conn_->decode_error != nullptr) std::rethrow_exception(conn_->decode_error);
    return std::nullopt;
  }
  using Transport::receive;

  void close() override {
    {
      std::lock_guard<std::mutex> lock(conn_->m);
      conn_->want_close = true;
    }
    conn_->cv.notify_all();
    server_->notify_conn(conn_);
  }

  [[nodiscard]] std::string peer_name() const override { return conn_->peer; }

 private:
  TcpServer* server_;
  std::shared_ptr<Conn> conn_;
};

TcpServer::TcpServer(std::uint16_t port, std::size_t workers) {
  const detail::Listener l = detail::listen_loopback(port, kListenBacklog);
  listen_fd_ = l.fd;
  port_ = l.port;

  try {
    // Failure to arm the parachute is tolerated: shed_connection re-tries.
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    open_wake_channel(wake_r_, wake_w_);
    const std::size_t n = workers == 0 ? 1 : workers;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto w = std::make_unique<Worker>();
      w->poller = Poller::create();
      open_wake_channel(w->wake_r, w->wake_w);
      w->poller->set(w->wake_r, /*want_read=*/true, /*want_write=*/false);
      w->loop_iters = &telemetry::counter("dubhe_worker_loops_total{worker=\"" +
                                          std::to_string(i) + "\"}");
      workers_.push_back(std::move(w));
    }
  } catch (...) {
    for (auto& w : workers_) close_wake_channel(w->wake_r, w->wake_w);
    close_wake_channel(wake_r_, wake_w_);
    if (reserve_fd_ >= 0) ::close(reserve_fd_);
    ::close(listen_fd_);
    throw;
  }

  for (auto& w : workers_) {
    Worker* wp = w.get();
    wp->thread = std::thread([this, wp] { worker_loop(*wp); });
  }
  listener_ = std::thread([this] { listener_loop(); });
}

TcpServer::~TcpServer() { stop(); }

const char* TcpServer::backend_name() const { return workers_.front()->poller->name(); }

std::uint16_t TcpServer::serve_metrics(std::uint16_t port) {
  if (metrics_ == nullptr) metrics_ = std::make_unique<MetricsHttpServer>(port);
  return metrics_->port();
}

std::uint16_t TcpServer::metrics_port() const {
  return metrics_ != nullptr ? metrics_->port() : 0;
}

std::shared_ptr<Transport> TcpServer::accept() {
  std::unique_lock<std::mutex> lock(mu_);
  pending_cv_.wait(lock, [&] { return !pending_.empty() || stopping_.load(); });
  if (pending_.empty()) return nullptr;
  auto t = std::move(pending_.front());
  pending_.pop_front();
  return t;
}

void TcpServer::notify_conn(const std::shared_ptr<Conn>& conn) {
  if (stopping_.load()) return;  // workers are tearing everything down anyway
  Worker* w = conn->owner;
  {
    std::lock_guard<std::mutex> lock(w->mu);
    w->dirty.push_back(conn);
  }
  ring(w->wake_r, w->wake_w);
}

bool TcpServer::shed_connection() {
  // EMFILE parachute. The process is out of descriptors, but the backlog
  // holds peers that would otherwise wait forever — and a level-triggered
  // listener re-fires instantly, spinning the loop at 100%. Momentarily
  // release the reserved descriptor, accept one connection into the freed
  // slot, and close it immediately: the peer sees a clean close (and can
  // retry) instead of hanging, and the loop makes progress.
  if (reserve_fd_ < 0) {
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (reserve_fd_ < 0) return false;  // still saturated, caller backs off
  }
  ::close(reserve_fd_);
  reserve_fd_ = -1;
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd >= 0) {
    ::close(fd);
    emfile_sheds_total().inc();
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return fd >= 0;
}

void TcpServer::listener_loop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{wake_r_, POLLIN, 0}, {listen_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) drain_wake(wake_r_);
    if ((fds[1].revents & POLLIN) == 0) continue;

    for (;;) {
      sockaddr_in peer{};
      socklen_t plen = sizeof peer;
      const int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &plen);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if ((errno == EMFILE || errno == ENFILE) && shed_connection()) continue;
        // Hard error with no way to shed: back off briefly instead of
        // letting the level-triggered listener spin.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        break;
      }
      set_nonblocking(fd);
      set_nodelay(fd);
      char ip[INET_ADDRSTRLEN] = "?";
      ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof ip);

      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->peer = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));

      Worker* best = workers_.front().get();
      for (const auto& w : workers_) {
        if (w->load.load(std::memory_order_relaxed) <
            best->load.load(std::memory_order_relaxed)) {
          best = w.get();
        }
      }
      conn->owner = best;
      best->load.fetch_add(1, std::memory_order_relaxed);
      accepts_total().inc();
      connections_gauge().add(1);
      {
        std::lock_guard<std::mutex> lock(best->mu);
        best->adopt.push_back(conn);
      }
      ring(best->wake_r, best->wake_w);

      auto transport = std::make_shared<ConnTransport>(this, std::move(conn));
      {
        std::lock_guard<std::mutex> lock(mu_);
        pending_.push_back(std::move(transport));
      }
      pending_cv_.notify_one();
    }
  }

  // Exit — stop() or a hard poll failure: make sure everyone else unblocks.
  stopping_.store(true);
  for (const auto& w : workers_) ring(w->wake_r, w->wake_w);
  pending_cv_.notify_all();
}

void TcpServer::retire(Worker& w, int fd) {
  if (w.conns.erase(fd) == 0) return;
  w.poller->remove(fd);
  w.load.fetch_sub(1, std::memory_order_relaxed);
  connections_gauge().add(-1);
}

void TcpServer::update_conn(Worker& w, const std::shared_ptr<Conn>& conn) {
  bool readable, writable;
  {
    std::lock_guard<std::mutex> lock(conn->m);
    if (conn->fd < 0) return;  // already torn down; retire() ran at close time
    readable = conn->inbox.size() < Conn::kInboxHighWater;
    writable = !conn->sendq.empty() || conn->want_close;
  }
  // fd transitions happen on this thread only, so the read outside the
  // recompute is stable.
  w.conns.emplace(conn->fd, conn);  // no-op if already adopted
  w.poller->set(conn->fd, readable, writable);
}

void TcpServer::handle_read(Worker& w, const std::shared_ptr<Conn>& conn,
                            bool hangup_only) {
  bool eof = hangup_only;
  for (;;) {
    std::uint8_t buf[kReadChunk];
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      bool over_high_water = false;
      try {
        conn->reader.feed({buf, static_cast<std::size_t>(n)});
        std::lock_guard<std::mutex> lock(conn->m);
        while (auto frame = conn->reader.next()) {
          conn->inbox.push_back(std::move(*frame));
        }
        over_high_water = conn->inbox.size() >= Conn::kInboxHighWater;
      } catch (...) {
        const int fd = conn->fd;
        {
          std::lock_guard<std::mutex> lock(conn->m);
          conn->decode_error = std::current_exception();
          ::close(conn->fd);
          conn->fd = -1;
          conn->peer_gone = true;
        }
        retire(w, fd);
        conn->cv.notify_all();
        return;
      }
      // Enforce the high-water bound inside the burst too: stop reading
      // this connection (bytes stay in the kernel buffer and TCP flow
      // control takes over) and let other connections run.
      if (over_high_water) {
        backpressure_parks_total().inc();
        break;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    eof = true;  // orderly EOF or hard error
    break;
  }
  if (eof) {
    const int fd = conn->fd;
    {
      std::lock_guard<std::mutex> lock(conn->m);
      ::close(conn->fd);
      conn->fd = -1;
      conn->peer_gone = true;
    }
    retire(w, fd);
  }
  conn->cv.notify_all();
}

void TcpServer::handle_write(Worker& w, const std::shared_ptr<Conn>& conn) {
  std::unique_lock<std::mutex> lock(conn->m);
  bool closed = false;
  while (conn->fd >= 0 && !conn->sendq.empty()) {
    // Gather as many queued frames as fit into one sendmsg: two iovecs per
    // frame (header, payload), the first offset by what a previous partial
    // write already pushed out.
    iovec iov[kMaxSendIov];
    std::size_t cnt = 0;
    std::size_t skip = conn->send_off;
    for (const SendBuf& b : conn->sendq) {
      if (cnt + 2 > kMaxSendIov) break;
      std::size_t s = skip;
      skip = 0;
      if (s < b.header.size()) {
        iov[cnt].iov_base = const_cast<std::uint8_t*>(b.header.data() + s);
        iov[cnt].iov_len = b.header.size() - s;
        ++cnt;
        s = 0;
      } else {
        s -= b.header.size();
      }
      if (s < b.payload.size()) {
        iov[cnt].iov_base = const_cast<std::uint8_t*>(b.payload.data() + s);
        iov[cnt].iov_len = b.payload.size() - s;
        ++cnt;
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n >= 0) sendmsg_batches_total().inc();
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      const int fd = conn->fd;  // peer reset mid-write
      ::close(conn->fd);
      conn->fd = -1;
      conn->peer_gone = true;
      retire(w, fd);
      closed = true;
      break;
    }
    conn->send_off += static_cast<std::size_t>(n);
    while (!conn->sendq.empty() && conn->send_off >= conn->sendq.front().size()) {
      conn->send_off -= conn->sendq.front().size();
      conn->sendq.pop_front();
    }
  }
  if (!closed && conn->fd >= 0 && conn->want_close && conn->sendq.empty()) {
    const int fd = conn->fd;
    ::close(conn->fd);
    conn->fd = -1;
    conn->peer_gone = true;
    retire(w, fd);
    closed = true;
  }
  lock.unlock();
  if (closed) conn->cv.notify_all();
}

void TcpServer::worker_loop(Worker& w) {
  std::vector<Poller::Event> events;
  std::vector<std::shared_ptr<Conn>> batch;
  while (!stopping_.load()) {
    w.loop_iters->inc();
    // Intake. Adoptions are queued before any dirty mark for the same
    // connection (a transport only exists after its adopt enqueue), and
    // update_conn registers on first sight, so processing one combined
    // batch in FIFO order is safe.
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(w.mu);
      batch.insert(batch.end(), w.adopt.begin(), w.adopt.end());
      batch.insert(batch.end(), w.dirty.begin(), w.dirty.end());
      w.adopt.clear();
      w.dirty.clear();
    }
    for (const auto& conn : batch) update_conn(w, conn);

    if (!w.poller->wait(events)) break;

    for (const Poller::Event& ev : events) {
      if (ev.fd == w.wake_r) {
        drain_wake(w.wake_r);
        continue;
      }
      const auto it = w.conns.find(ev.fd);
      if (it == w.conns.end()) continue;  // closed earlier in this batch
      const std::shared_ptr<Conn> conn = it->second;  // handlers may retire it
      if (ev.readable || ev.hangup) {
        handle_read(w, conn, ev.hangup && !ev.readable);
      }
      if (ev.writable) handle_write(w, conn);
      // Re-declare interest with whatever state the handlers left behind
      // (inbox crossing high water, sendq drained, connection closed).
      if (w.conns.count(ev.fd) != 0) update_conn(w, conn);
    }
  }

  // Exit — stop() or a hard poller failure: tear down every owned
  // connection (and any still waiting for adoption) and wake the waiters.
  stopping_.store(true);
  std::vector<std::shared_ptr<Conn>> leftovers;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    leftovers.swap(w.adopt);
    w.dirty.clear();
  }
  for (const auto& entry : w.conns) leftovers.push_back(entry.second);
  w.conns.clear();
  for (const auto& conn : leftovers) {
    {
      std::lock_guard<std::mutex> lock(conn->m);
      if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
      conn->peer_gone = true;
    }
    conn->cv.notify_all();
  }
  pending_cv_.notify_all();  // a hard failure must not leave accept() hanging
}

void TcpServer::stop() {
  // Idempotent, and serialized: a harness may stop the same server from
  // several threads at once (the owner plus every thread whose peer just
  // vanished), and two concurrent passes would join the same threads and
  // close the wake fds twice.
  const std::lock_guard<std::mutex> lock(stop_mu_);
  metrics_.reset();  // admin endpoint goes down before the data plane
  stopping_.store(true);
  if (wake_w_ >= 0) ring(wake_r_, wake_w_);
  for (const auto& w : workers_) {
    if (w->wake_w >= 0) ring(w->wake_r, w->wake_w);
  }
  if (listener_.joinable()) listener_.join();
  for (const auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
  close_wake_channel(wake_r_, wake_w_);
  for (const auto& w : workers_) close_wake_channel(w->wake_r, w->wake_w);
  pending_cv_.notify_all();
}

}  // namespace dubhe::net
