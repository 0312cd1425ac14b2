#include "net/transport.hpp"

#include "core/telemetry.hpp"
#include "net/codec.hpp"

namespace dubhe::net {

void Link::send(Frame frame) {
  frame.seq = send_seq_++;
  t_->send(frame);
}

std::optional<Frame> Link::receive(std::chrono::milliseconds deadline) {
  std::optional<Frame> frame = t_->receive(deadline);
  if (frame && frame->seq != recv_seq_) {
    throw WireError(WireErrc::kReplayed, "frame " + std::to_string(frame->seq) +
                                             " out of sequence (expected " +
                                             std::to_string(recv_seq_) + ")");
  }
  if (frame) ++recv_seq_;
  return frame;
}

void Transport::set_accountant(fl::ChannelAccountant* accountant, fl::Direction outbound) {
  accountant_ = accountant;
  outbound_ = outbound;
}

// Every frame that crosses any transport (loopback, TCP client, server conn)
// passes through exactly one account_* call, which makes these the two tap
// points for the process-wide frame/byte counters — decorators like
// FaultyTransport delegate and never double-count.

void Transport::account_sent(const Frame& frame, std::size_t frame_bytes) const {
  static telemetry::Counter& frames =
      telemetry::counter("dubhe_frames_total{dir=\"out\"}");
  static telemetry::Counter& bytes =
      telemetry::counter("dubhe_frame_bytes_total{dir=\"out\"}");
  frames.inc();
  bytes.inc(frame_bytes);
  if (accountant_ != nullptr) {
    accountant_->record(account_kind(frame.type), outbound_, frame_bytes, 1,
                        encrypted_payload_bytes(frame));
  }
}

void Transport::account_received(const Frame& frame, std::size_t frame_bytes) const {
  static telemetry::Counter& frames =
      telemetry::counter("dubhe_frames_total{dir=\"in\"}");
  static telemetry::Counter& bytes =
      telemetry::counter("dubhe_frame_bytes_total{dir=\"in\"}");
  frames.inc();
  bytes.inc(frame_bytes);
  if (accountant_ != nullptr) {
    const auto inbound = outbound_ == fl::Direction::kServerToClient
                             ? fl::Direction::kClientToServer
                             : fl::Direction::kServerToClient;
    accountant_->record(account_kind(frame.type), inbound, frame_bytes, 1,
                        encrypted_payload_bytes(frame));
  }
}

std::pair<std::shared_ptr<LoopbackTransport>, std::shared_ptr<LoopbackTransport>>
LoopbackTransport::make_pair() {
  auto shared = std::make_shared<Shared>();
  auto a = std::shared_ptr<LoopbackTransport>(new LoopbackTransport(shared, true));
  auto b = std::shared_ptr<LoopbackTransport>(new LoopbackTransport(shared, false));
  return {std::move(a), std::move(b)};
}

void LoopbackTransport::send(const Frame& frame) {
  std::vector<std::uint8_t> encoded = encode_frame(frame);
  const std::size_t size = encoded.size();
  Queue& q = out();
  {
    std::lock_guard<std::mutex> lock(q.m);
    if (q.closed) throw TransportError("loopback: send on a closed channel");
    q.frames.push_back(std::move(encoded));
  }
  q.cv.notify_one();
  account_sent(frame, size);
}

std::optional<Frame> LoopbackTransport::receive(std::chrono::milliseconds deadline) {
  Queue& q = in();
  std::vector<std::uint8_t> encoded;
  {
    std::unique_lock<std::mutex> lock(q.m);
    const auto ready = [&] { return !q.frames.empty() || q.closed; };
    if (deadline > kNoDeadline) {
      if (!q.cv.wait_for(lock, deadline, ready)) {
        throw TransportTimeout("loopback: no frame within " +
                               std::to_string(deadline.count()) + "ms");
      }
    } else {
      q.cv.wait(lock, ready);
    }
    if (q.frames.empty()) return std::nullopt;
    encoded = std::move(q.frames.front());
    q.frames.pop_front();
  }
  Frame frame = decode_frame(encoded);
  account_received(frame, encoded.size());
  return frame;
}

void LoopbackTransport::close() {
  for (Queue* q : {&shared_->a_to_b, &shared_->b_to_a}) {
    {
      std::lock_guard<std::mutex> lock(q->m);
      q->closed = true;
    }
    q->cv.notify_all();
  }
}

}  // namespace dubhe::net
