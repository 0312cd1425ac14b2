#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/transport.hpp"

namespace dubhe::net {

/// The injectable failure families. Each maps onto (at least) one
/// QuarantineReason the session driver must produce — the fault matrix in
/// tests/test_net_faults.cpp pins the exact pairing per phase.
enum class FaultKind : std::uint8_t {
  kNone = 0,    // plan disabled: the decorator is a transparent pass-through
  kDisconnect,  // close the channel instead of sending the trigger frame
  kStraggle,    // delay the trigger frame by `delay` before sending it
  kCorrupt,     // flip the trigger frame's first payload byte (MSB)
  kReplay,      // send the trigger frame twice (same sequence number)
  kTruncate,    // send the trigger frame with its payload cut in half
  kZombie,      // swallow inbound kShutdown: never acknowledge teardown
};

/// One client's scripted misbehavior. Faults trigger on frame *content*
/// (the n-th outbound frame of the phase's message type), never on timing,
/// so the same plan produces the same quarantine records on loopback and
/// TCP — that content-triggering is what makes churn transcripts part of
/// the deterministic acceptance contract.
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  /// Which protocol phase's outbound message triggers the fault. For
  /// kZombie the phase is kShutdown and the trigger is the *inbound*
  /// shutdown frame.
  SessionPhase phase = SessionPhase::kUpdate;
  /// Fire on the nth matching frame (0-based). With `repeat`, fire on the
  /// nth and every later match (e.g. a client that straggles every round).
  std::size_t nth = 0;
  bool repeat = false;
  std::chrono::milliseconds delay{0};  // kStraggle only

  [[nodiscard]] bool enabled() const { return kind != FaultKind::kNone; }
  bool operator==(const FaultPlan&) const = default;
};

/// Parses "kind@phase[:nth][+delay_ms][*]", e.g. "disconnect@participation:1"
/// or "straggle@update+2000*" (a trailing `*` sets `repeat`) — the form
/// to_string writes. Throws std::invalid_argument on a malformed spec,
/// including trailing characters after nth or delay and a negative delay —
/// this backs `dubhe_node --fault-plan`.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);
[[nodiscard]] std::string to_string(const FaultPlan& plan);

/// Decorates any Transport with a FaultPlan: the client-side harnesses (and
/// `dubhe_node --fault-plan`) wrap a client's endpoint in this to make every
/// failure mode reproducible in-process and across processes. A kNone plan
/// is a pure pass-through.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::shared_ptr<Transport> inner, FaultPlan plan)
      : inner_(std::move(inner)), plan_(plan) {}

  void send(const Frame& frame) override;
  std::optional<Frame> receive(std::chrono::milliseconds deadline) override;
  using Transport::receive;
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_name() const override { return inner_->peer_name(); }

 private:
  [[nodiscard]] bool triggers(MsgType type);

  std::shared_ptr<Transport> inner_;
  FaultPlan plan_;
  std::size_t matches_ = 0;
};

}  // namespace dubhe::net
