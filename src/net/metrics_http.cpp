#include "net/metrics_http.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>

#include "core/telemetry.hpp"
#include "net/tcp.hpp"

namespace dubhe::net {

namespace {

/// A scrape request fits in one line; anything larger than this is not a
/// request this endpoint answers.
constexpr std::size_t kMaxRequestBytes = 4096;
/// How long one connection may take to send its request and take its
/// response. A loopback scrape needs milliseconds; a client that sends
/// nothing is closed unanswered when this runs out.
constexpr std::chrono::milliseconds kConnectionDeadline{1000};

std::string make_response(int status, const char* reason, const char* content_type,
                          std::string body) {
  std::string r = "HTTP/1.0 " + std::to_string(status) + " " + reason + "\r\n";
  r += "Content-Type: ";
  r += content_type;
  r += "\r\n";
  r += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  r += "Connection: close\r\n\r\n";
  r += body;
  return r;
}

/// Answers from the request line `<method> <path>[ <version>]`. Only GET
/// is served — this endpoint reads state, never writes.
std::string respond(const std::string& head) {
  const char* text = "text/plain; charset=utf-8";
  if (head.size() > kMaxRequestBytes) {
    return make_response(400, "Bad Request", text, "request too large\n");
  }
  const std::string line = head.substr(0, head.find("\r\n"));
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) {
    return make_response(400, "Bad Request", text, "malformed request line\n");
  }
  if (line.compare(0, sp1, "GET") != 0) {
    return make_response(405, "Method Not Allowed", text, "only GET is served\n");
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);  // npos: no version token
  if (line.substr(sp1 + 1, sp2 - sp1 - 1) == "/metrics") {
    return make_response(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                         telemetry::Registry::global().render_prometheus());
  }
  return make_response(404, "Not Found", text, "try /metrics\n");
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(std::uint16_t port) {
  const detail::Listener l = detail::listen_loopback(port, /*backlog=*/16);
  listen_fd_ = l.fd;
  port_ = l.port;
  try {
    detail::open_wake_channel(wake_r_, wake_w_);
  } catch (...) {
    ::close(listen_fd_);
    throw;
  }
  thread_ = std::thread([this] { loop(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::stop() {
  stopping_.store(true);
  if (wake_w_ >= 0) detail::ring(wake_r_, wake_w_);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  detail::close_wake_channel(wake_r_, wake_w_);
}

void MetricsHttpServer::loop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{wake_r_, POLLIN, 0}, {listen_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) == 0) continue;  // the wake: stop() rang
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // EAGAIN, ECONNABORTED, EINTR: poll again
    serve(fd);
    ::close(fd);
  }
}

/// One connection, start to finish: read the request head, write the
/// response. The socket stays blocking; every read and write is
/// MSG_DONTWAIT after a poll that also watches the wake channel, so the
/// deadline and stop() both cut a slow or silent client off.
void MetricsHttpServer::serve(int fd) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + kConnectionDeadline;
  const auto ready = [&](short events) {
    for (;;) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd fds[2] = {{fd, events, 0}, {wake_r_, POLLIN, 0}};
      const int n = ::poll(fds, 2, static_cast<int>(left.count()));
      if (n < 0 && errno == EINTR) continue;
      return n > 0 && fds[1].revents == 0;
    }
  };

  std::string in;
  char buf[1024];
  while (in.size() <= kMaxRequestBytes && in.find("\r\n\r\n") == std::string::npos) {
    if (!ready(POLLIN)) return;
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) return;  // EOF before the blank line: nothing to answer
    if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) return;
    if (n > 0) in.append(buf, static_cast<std::size_t>(n));
  }
  // Take what is already queued (up to one more request's worth), so that
  // closing does not reset the connection under an oversized request's 400.
  for (std::size_t more = 0; more <= kMaxRequestBytes;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n <= 0) break;
    more += static_cast<std::size_t>(n);
  }

  const std::string out = respond(in);
  std::size_t off = 0;
  while (off < out.size()) {
    if (!ready(POLLOUT)) return;
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) return;
    if (n > 0) off += static_cast<std::size_t>(n);
  }
}

}  // namespace dubhe::net
