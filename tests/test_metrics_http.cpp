// The loopback admin endpoint (src/net/metrics_http.hpp): its routes and
// status codes over a real socket, and the rule that it serves one scrape at
// a time under a per-connection deadline, so a client that connects and
// sends nothing holds up neither the next scrape nor stop(). No assertion
// reads the clock: a wedged endpoint fails the client's poll guard (or the
// ctest timeout), and this suite runs in the TSan CI leg.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

#include "core/telemetry.hpp"
#include "net/metrics_http.hpp"

namespace dubhe {
namespace {

/// Far beyond the endpoint's per-connection deadline: only a wedged server
/// runs it out.
constexpr int kHangGuardMs = 30000;

/// A blocking client socket connected to 127.0.0.1:`port`.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Everything the server sends until it closes the connection.
std::string read_to_close(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, kHangGuardMs) <= 0) {
      ADD_FAILURE() << "server neither answered nor closed";
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // EOF, or a reset after the response
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// One whole exchange: connect, send `request`, read the response.
std::string exchange(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response = read_to_close(fd);
  ::close(fd);
  return response;
}

std::string status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

class MetricsHttpTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::set_enabled(true); }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::reset_all();
  }
};

TEST_F(MetricsHttpTest, ServesARegisteredCounterAsPrometheusText) {
  telemetry::counter("dubhe_test_scrape_total").inc(7);
  net::MetricsHttpServer server;
  const std::string response =
      exchange(server.port(), "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.0 200 OK");
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n# TYPE "), std::string::npos);
  EXPECT_NE(response.find("\ndubhe_test_scrape_total 7\n"), std::string::npos);
}

TEST_F(MetricsHttpTest, AnswersEveryOtherRequestWithItsStatus) {
  net::MetricsHttpServer server;
  EXPECT_EQ(status_line(exchange(server.port(), "GET /nope HTTP/1.0\r\n\r\n")),
            "HTTP/1.0 404 Not Found");
  EXPECT_EQ(status_line(exchange(server.port(), "GET /metrics.json HTTP/1.0\r\n\r\n")),
            "HTTP/1.0 404 Not Found");
  EXPECT_EQ(status_line(exchange(server.port(), "POST /metrics HTTP/1.0\r\n\r\n")),
            "HTTP/1.0 405 Method Not Allowed");
  EXPECT_EQ(status_line(exchange(server.port(), "GARBAGE\r\n\r\n")),
            "HTTP/1.0 400 Bad Request");
  // 5000 bytes with no blank line: over the 4096-byte request bound.
  const std::string oversized = "GET /metrics HTTP/1.0\r\nX-Pad: " + std::string(4970, 'x');
  ASSERT_EQ(oversized.size(), 5000u);
  EXPECT_EQ(status_line(exchange(server.port(), oversized)), "HTTP/1.0 400 Bad Request");
  // The endpoint still serves after every error.
  EXPECT_EQ(status_line(exchange(server.port(), "GET /metrics\r\n\r\n")), "HTTP/1.0 200 OK");
}

TEST_F(MetricsHttpTest, SilentClientHoldsUpNeitherTheNextScrapeNorStop) {
  net::MetricsHttpServer server;
  // Connections are served in accept order, one at a time: the silent one
  // first, until its deadline closes it unanswered, then the scrape.
  const int silent = connect_to(server.port());
  EXPECT_EQ(status_line(exchange(server.port(), "GET /metrics HTTP/1.0\r\n\r\n")),
            "HTTP/1.0 200 OK");
  EXPECT_EQ(read_to_close(silent), "");
  ::close(silent);

  // A second silent client is in service (or still queued) when stop()
  // runs; stop() must not wait for it.
  const int held = connect_to(server.port());
  server.stop();
  EXPECT_EQ(read_to_close(held), "");
  ::close(held);
}

}  // namespace
}  // namespace dubhe
