#include "net/fault.hpp"

#include <charconv>
#include <stdexcept>
#include <thread>
#include <utility>

namespace dubhe::net {

namespace {

/// The outbound message type a client emits in each phase — the trigger
/// vocabulary of FaultPlan. kUpdate covers both update encodings so one
/// plan works at any he-rate.
bool phase_matches(SessionPhase phase, MsgType type) {
  switch (phase) {
    case SessionPhase::kHello: return type == MsgType::kClientHello;
    case SessionPhase::kRegistration: return type == MsgType::kRegistryUpload;
    case SessionPhase::kParticipation: return type == MsgType::kParticipation;
    case SessionPhase::kDistribution: return type == MsgType::kDistributionUpload;
    case SessionPhase::kUpdate:
      return type == MsgType::kModelUpdate || type == MsgType::kModelUpdateSparse;
    case SessionPhase::kShutdown: return type == MsgType::kShutdown;
  }
  return false;
}

SessionPhase parse_phase(const std::string& s) {
  if (s == "hello") return SessionPhase::kHello;
  if (s == "registration") return SessionPhase::kRegistration;
  if (s == "participation") return SessionPhase::kParticipation;
  if (s == "distribution") return SessionPhase::kDistribution;
  if (s == "update") return SessionPhase::kUpdate;
  if (s == "shutdown") return SessionPhase::kShutdown;
  throw std::invalid_argument("fault plan: unknown phase '" + s + "'");
}

FaultKind parse_kind(const std::string& s) {
  if (s == "none") return FaultKind::kNone;
  if (s == "disconnect") return FaultKind::kDisconnect;
  if (s == "straggle") return FaultKind::kStraggle;
  if (s == "corrupt") return FaultKind::kCorrupt;
  if (s == "replay") return FaultKind::kReplay;
  if (s == "truncate") return FaultKind::kTruncate;
  if (s == "zombie") return FaultKind::kZombie;
  throw std::invalid_argument("fault plan: unknown kind '" + s + "'");
}

/// A whole non-negative decimal field: no sign, no trailing characters.
template <typename T>
T parse_field(const std::string& s, const char* field) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || std::cmp_less(v, 0)) {
    throw std::invalid_argument(std::string("fault plan: bad ") + field + " '" + s + "'");
  }
  return v;
}

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDisconnect: return "disconnect";
    case FaultKind::kStraggle: return "straggle";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kReplay: return "replay";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kZombie: return "zombie";
  }
  return "?";
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  const std::size_t at = spec.find('@');
  if (at == std::string::npos) {
    throw std::invalid_argument("fault plan: expected kind@phase[:nth][+delay_ms][*], got '" +
                                spec + "'");
  }
  plan.kind = parse_kind(spec.substr(0, at));
  std::string rest = spec.substr(at + 1);
  if (!rest.empty() && rest.back() == '*') {
    plan.repeat = true;
    rest.pop_back();
  }
  const std::size_t plus = rest.find('+');
  if (plus != std::string::npos) {
    plan.delay = std::chrono::milliseconds(
        parse_field<std::chrono::milliseconds::rep>(rest.substr(plus + 1), "delay"));
    rest = rest.substr(0, plus);
  }
  const std::size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    plan.nth = parse_field<std::size_t>(rest.substr(colon + 1), "nth");
    rest = rest.substr(0, colon);
  }
  plan.phase = parse_phase(rest);
  if (plan.kind == FaultKind::kZombie && plan.phase != SessionPhase::kShutdown) {
    throw std::invalid_argument("fault plan: zombie only applies at shutdown");
  }
  return plan;
}

std::string to_string(const FaultPlan& plan) {
  std::string out = kind_name(plan.kind);
  out += '@';
  out += to_string(plan.phase);
  if (plan.nth != 0) out += ":" + std::to_string(plan.nth);
  if (plan.delay.count() != 0) out += "+" + std::to_string(plan.delay.count());
  if (plan.repeat) out += "*";
  return out;
}

bool FaultyTransport::triggers(MsgType type) {
  if (!plan_.enabled() || !phase_matches(plan_.phase, type)) return false;
  const std::size_t i = matches_++;
  return plan_.repeat ? i >= plan_.nth : i == plan_.nth;
}

void FaultyTransport::send(const Frame& frame) {
  if (!triggers(frame.type)) {
    inner_->send(frame);
    return;
  }
  switch (plan_.kind) {
    case FaultKind::kDisconnect:
      inner_->close();
      throw TransportError("fault: injected disconnect at " + to_string(frame.type));
    case FaultKind::kStraggle:
      std::this_thread::sleep_for(plan_.delay);
      inner_->send(frame);
      return;
    case FaultKind::kCorrupt: {
      // Flip the MSB of the first payload byte: breaks the self-tag of an
      // encrypted payload and corrupts the id/seed field of every plain
      // payload — a deterministic, phase-classifiable failure on arrival.
      Frame f = frame;
      if (!f.payload.empty()) f.payload[0] ^= 0x80;
      inner_->send(f);
      return;
    }
    case FaultKind::kReplay:
      // Same frame, same sequence number, twice: an ordered channel
      // delivers the duplicate right behind the original, which is exactly
      // what the driver's monotonic-sequence rule exists to catch.
      inner_->send(frame);
      inner_->send(frame);
      return;
    case FaultKind::kTruncate: {
      // Half the payload inside an otherwise valid frame (correct CRC), so
      // it survives the codec layer and fails at the typed parser — the
      // stream-level cut TCP could suffer, reproducible on loopback too.
      Frame f = frame;
      f.payload.resize(f.payload.size() / 2);
      inner_->send(f);
      return;
    }
    case FaultKind::kZombie:  // acts on the receive path
    case FaultKind::kNone:
      inner_->send(frame);
      return;
  }
}

std::optional<Frame> FaultyTransport::receive(std::chrono::milliseconds deadline) {
  for (;;) {
    auto frame = inner_->receive(deadline);
    if (frame && plan_.kind == FaultKind::kZombie && triggers(frame->type)) {
      // Swallow the shutdown: this client neither acknowledges nor closes,
      // and only the server's drain deadline can unwedge the teardown.
      continue;
    }
    return frame;
  }
}

}  // namespace dubhe::net
