#pragma once

// Measurement from outside the program: a net::Transport decorator that
// stamps frames, and the round-boundary recorder it feeds. Nothing here
// changes a byte on the wire or a decision of a session driver.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "fl/channel.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process-wide Paillier / FedAvg / shard totals, read through the public
/// telemetry registry. Only meaningful while telemetry is enabled.
struct TelemetryTotals {
  double encrypt_n_plain = 0, encrypt_n_fixed_base = 0, encrypt_s = 0;
  double decrypt_n = 0, decrypt_s = 0, add_n = 0, add_s = 0;
  double fedavg_s = 0, shard_partials = 0;

  static TelemetryTotals read() {
    using dubhe::telemetry::counter;
    using dubhe::telemetry::histogram;
    TelemetryTotals t;
    t.encrypt_n_plain =
        static_cast<double>(counter("dubhe_paillier_encrypt_total{mode=\"plain\"}").value());
    t.encrypt_n_fixed_base = static_cast<double>(
        counter("dubhe_paillier_encrypt_total{mode=\"fixed_base\"}").value());
    t.encrypt_s = histogram("dubhe_paillier_encrypt_seconds{mode=\"plain\"}").sum() +
                  histogram("dubhe_paillier_encrypt_seconds{mode=\"fixed_base\"}").sum();
    t.decrypt_n = static_cast<double>(counter("dubhe_paillier_decrypt_total").value());
    t.decrypt_s = histogram("dubhe_paillier_decrypt_seconds").sum();
    t.add_n = static_cast<double>(counter("dubhe_paillier_add_total").value());
    t.add_s = histogram("dubhe_paillier_add_seconds").sum();
    t.fedavg_s = histogram("dubhe_fedavg_seconds").sum();
    for (const char* msg : {"partial_registry", "setup_flush", "partial_participation",
                            "partial_population", "partial_update", "drain_flush"}) {
      t.shard_partials += static_cast<double>(
          counter(std::string("dubhe_shard_partials_total{msg=\"") + msg + "\"}").value());
    }
    return t;
  }
};

/// One round boundary of a session: when the round driver sent it, and the
/// bench's ledgers (and, in a traced run, the telemetry totals) just before.
struct Stamp {
  Clock::time_point at;
  dubhe::fl::ChannelLedger facing;  // client-facing aggregators' links
  dubhe::fl::ChannelLedger uplink;  // root <-> shard links (tree only)
  TelemetryTotals telemetry;
};

/// Records the round boundaries of one session from the round driver's
/// sends: the first kRoundBegin (kShardRoundBegin at a tree root) of each
/// round, then the first kShutdown. Stamp r is the start of round r; the
/// last stamp ends the last round.
class Boundaries {
 public:
  Boundaries(dubhe::net::MsgType round_begin, const dubhe::fl::ChannelAccountant* facing,
             const dubhe::fl::ChannelAccountant* uplink, bool with_telemetry)
      : round_begin_(round_begin),
        facing_(facing),
        uplink_(uplink),
        with_telemetry_(with_telemetry) {}

  /// Called by a tap before it hands `frame` to its transport, so the stamp
  /// and the ledger snapshot precede the boundary frame itself — the same
  /// cut the session driver uses for its per-round ledgers.
  void on_send(const dubhe::net::Frame& frame) {
    using dubhe::net::MsgType;
    if (frame.type != round_begin_ && frame.type != MsgType::kShutdown) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_seen_) return;
    if (frame.type == MsgType::kShutdown) {
      shutdown_seen_ = true;
    } else {
      const std::uint64_t round = frame.type == MsgType::kRoundBegin
                                      ? dubhe::net::parse_round_begin(frame).round
                                      : dubhe::net::parse_shard_round_begin(frame).round;
      if (round != stamps_.size()) return;  // this round is already stamped
    }
    Stamp s;
    s.facing = facing_->snapshot();
    if (uplink_ != nullptr) s.uplink = uplink_->snapshot();
    if (with_telemetry_) s.telemetry = TelemetryTotals::read();
    s.at = Clock::now();
    stamps_.push_back(std::move(s));
  }

  [[nodiscard]] std::vector<Stamp> stamps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stamps_;
  }

 private:
  dubhe::net::MsgType round_begin_;
  const dubhe::fl::ChannelAccountant* facing_;
  const dubhe::fl::ChannelAccountant* uplink_;
  bool with_telemetry_;
  mutable std::mutex mu_;  // guards the two fields below
  std::vector<Stamp> stamps_;
  bool shutdown_seen_ = false;
};

/// One frame through a tap: the call's entry and return times.
struct FrameEvent {
  Clock::time_point t0{}, t1{};
  dubhe::net::MsgType type = dubhe::net::MsgType::kShutdown;
  std::uint16_t seq = 0;
  bool sent = false;
  std::uint32_t tag = 0;  // the try index of a kDistributionRequest
};

/// The bench-owned decorator. Untraced, it only forwards and lets the
/// boundary recorder (if any) look at outbound frames. Traced, it also
/// keeps one FrameEvent per frame in memory for the analysis after the
/// session. The client id is known on a client's own endpoint and learned
/// from the kClientHello on an aggregator's endpoint.
///
/// Transport::set_accountant is not virtual: a driver that attaches its
/// ledger to a tap attaches it to the tap's own base, which never sees a
/// frame. The bench therefore attaches its accountants to the inner
/// transport and reads traffic from them, not from the transcript.
class FrameTap final : public dubhe::net::Transport {
 public:
  FrameTap(std::shared_ptr<dubhe::net::Transport> inner, Boundaries* boundaries, bool traced,
           std::optional<std::uint64_t> client_id = std::nullopt)
      : inner_(std::move(inner)),
        boundaries_(boundaries),
        traced_(traced),
        client_id_(client_id) {}

  void send(const dubhe::net::Frame& frame) override {
    if (boundaries_ != nullptr) boundaries_->on_send(frame);
    if (!traced_) {
      inner_->send(frame);
      return;
    }
    const auto t0 = Clock::now();
    inner_->send(frame);
    record({t0, Clock::now(), frame.type, frame.seq, true, tag_of(frame)});
  }

  std::optional<dubhe::net::Frame> receive(std::chrono::milliseconds deadline) override {
    if (!traced_) return inner_->receive(deadline);
    const auto t0 = Clock::now();
    auto frame = inner_->receive(deadline);
    const auto t1 = Clock::now();
    if (frame) {
      if (frame->type == dubhe::net::MsgType::kClientHello) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!client_id_) client_id_ = dubhe::net::parse_client_hello(*frame).client_id;
      }
      record({t0, t1, frame->type, frame->seq, false, tag_of(*frame)});
    }
    return frame;
  }
  using Transport::receive;

  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_name() const override { return inner_->peer_name(); }

  /// Read after every thread using this tap has joined.
  [[nodiscard]] std::vector<FrameEvent> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  [[nodiscard]] std::optional<std::uint64_t> client_id() const {
    std::lock_guard<std::mutex> lock(mu_);
    return client_id_;
  }

 private:
  static std::uint32_t tag_of(const dubhe::net::Frame& frame) {
    if (frame.type != dubhe::net::MsgType::kDistributionRequest) return 0;
    return dubhe::net::parse_seed_request(frame, frame.type).tag;
  }
  void record(const FrameEvent& e) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(e);
  }

  std::shared_ptr<dubhe::net::Transport> inner_;
  Boundaries* boundaries_;
  bool traced_;
  mutable std::mutex mu_;  // guards the two fields below
  std::optional<std::uint64_t> client_id_;
  std::vector<FrameEvent> events_;
};

}  // namespace perfbench
