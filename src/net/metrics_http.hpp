#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace dubhe::net {

/// Loopback-only admin endpoint for the process-wide telemetry registry: an
/// HTTP/1.0 server on one thread that serves one scrape at a time.
///
///   GET /metrics  -> Prometheus text exposition (version 0.0.4)
///
/// Any other path is 404, any other method 405, and a malformed request or
/// one over 4096 bytes 400; every response closes the connection. Each
/// connection gets a fixed deadline to send its request and take its
/// response, so a second scraper waits for the first at most that long and
/// a silent client cannot hold the endpoint.
///
/// Trust model: the socket binds 127.0.0.1 and the endpoint is deliberately
/// unauthenticated — anyone who can open a loopback connection on this host
/// can read the metrics. It must never be exposed beyond loopback (no
/// bind-address knob exists on purpose), and it only ever *reads* the
/// registry: no request can mutate process state.
///
/// Out-of-band by construction: its thread touches only the telemetry
/// registry snapshots, never the data plane, so scraping mid-session cannot
/// perturb transcripts.
class MetricsHttpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — read it back with
  /// port()) and starts the serving thread. Throws TransportError on
  /// bind/listen failure.
  explicit MetricsHttpServer(std::uint16_t port = 0);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Closes the listener and the connection in service, joins the serving
  /// thread. Returns promptly even while a silent client holds a
  /// connection. Called by the destructor; safe to call twice.
  void stop();

 private:
  void loop();
  void serve(int fd);

  int listen_fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;  // stop() wakes the serving thread
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace dubhe::net
