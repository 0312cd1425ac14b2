#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "fl/channel.hpp"
#include "net/wire.hpp"

namespace dubhe::net {

/// A transport failed outside the wire format itself (peer gone, socket
/// error, send after close). Framing violations keep throwing WireError.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A deadline-aware receive ran out of time before a frame (or a close)
/// arrived. The channel itself is still intact — the caller decides whether
/// a late peer is a straggler to wait longer for or a quarantine case.
class TransportTimeout : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Passing this (or any zero/negative duration) as a receive deadline means
/// "block forever" — the pre-deadline behavior.
inline constexpr std::chrono::milliseconds kNoDeadline{0};

/// One endpoint of a bidirectional, ordered, reliable frame channel — the
/// abstraction the FL protocol runs on. Implementations: LoopbackTransport
/// (in-process queue pair) and the TCP endpoints in net/tcp.hpp. One logical
/// user per endpoint: concurrent send() calls from several threads on the
/// same endpoint are not part of the contract (the protocol never needs
/// them), but send/receive from two different threads is safe.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocking, ordered delivery of one frame. Throws TransportError if the
  /// channel is closed, WireError{kOversized} if the frame cannot encode.
  virtual void send(const Frame& frame) = 0;
  /// Blocks for the next frame; nullopt once the peer has closed and the
  /// queue is drained. Throws WireError if the peer sent malformed bytes.
  /// With a positive `deadline`, throws TransportTimeout if no frame (and no
  /// close) arrives within that budget; kNoDeadline blocks forever.
  virtual std::optional<Frame> receive(std::chrono::milliseconds deadline) = 0;
  /// Convenience: block-forever receive.
  std::optional<Frame> receive() { return receive(kNoDeadline); }
  /// Idempotent. Wakes any blocked receive() on both ends.
  virtual void close() = 0;
  [[nodiscard]] virtual std::string peer_name() const = 0;

  /// Attaches a §6.4 ledger to this endpoint: every frame sent is recorded
  /// under (account_kind(type), outbound) and every frame received under the
  /// opposite direction, with the *exact* encoded frame size and its
  /// ciphertext-material share (encrypted_payload_bytes). Attach to one
  /// side only (the aggregator's) when both ends share an accountant, or
  /// every message is counted twice.
  void set_accountant(fl::ChannelAccountant* accountant, fl::Direction outbound);

 protected:
  void account_sent(const Frame& frame, std::size_t frame_bytes) const;
  void account_received(const Frame& frame, std::size_t frame_bytes) const;

 private:
  fl::ChannelAccountant* accountant_ = nullptr;
  fl::Direction outbound_ = fl::Direction::kServerToClient;
};

/// The one owner of wire v4's sequencing rule: every frame carries the next
/// u16 of its connection and direction (0, 1, 2, ..., wrapping at 2^16).
/// send() stamps it before the transport sees the frame; receive() returns
/// the next frame (nullopt once the peer closed), or throws
/// WireError{kReplayed} for one that is not the successor. Both counters
/// start at 0, so a connection's hello must carry seq 0. What a replay costs
/// (a quarantine, a fatal error) is the endpoint's policy. Non-owning: `t`
/// must outlive the link.
class Link {
 public:
  explicit Link(Transport& t) : t_(&t) {}

  void send(Frame frame);
  std::optional<Frame> receive(std::chrono::milliseconds deadline = kNoDeadline);
  [[nodiscard]] Transport& transport() const { return *t_; }

 private:
  Transport* t_;
  std::uint16_t send_seq_ = 0;
  std::uint16_t recv_seq_ = 0;
};

/// The deterministic in-process transport: a pair of endpoints joined by two
/// mutex/condvar frame queues (single producer, single consumer per
/// direction — uncontended in practice, and race-checked under the TSan
/// preset). Frames are carried as their *encoded* bytes and re-decoded on
/// receive, so loopback exercises the exact codec path TCP does and the
/// accounted sizes are the true wire sizes.
class LoopbackTransport final : public Transport {
 public:
  /// Creates the two joined endpoints.
  static std::pair<std::shared_ptr<LoopbackTransport>, std::shared_ptr<LoopbackTransport>>
  make_pair();

  void send(const Frame& frame) override;
  std::optional<Frame> receive(std::chrono::milliseconds deadline) override;
  using Transport::receive;
  void close() override;
  [[nodiscard]] std::string peer_name() const override { return "loopback"; }

 private:
  struct Queue {
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::vector<std::uint8_t>> frames;  // encoded
    bool closed = false;
  };
  struct Shared {
    Queue a_to_b;
    Queue b_to_a;
  };

  LoopbackTransport(std::shared_ptr<Shared> shared, bool is_a)
      : shared_(std::move(shared)), is_a_(is_a) {}

  Queue& out() { return is_a_ ? shared_->a_to_b : shared_->b_to_a; }
  Queue& in() { return is_a_ ? shared_->b_to_a : shared_->a_to_b; }

  std::shared_ptr<Shared> shared_;
  bool is_a_;
};

}  // namespace dubhe::net
