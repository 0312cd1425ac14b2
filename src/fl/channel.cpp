#include "fl/channel.hpp"

#include <stdexcept>

namespace dubhe::fl {

std::string to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kModelWeights: return "model-weights";
    case MessageKind::kRegistry: return "registry";
    case MessageKind::kDistribution: return "distribution";
    case MessageKind::kKeyMaterial: return "key-material";
    case MessageKind::kControl: return "control";
    case MessageKind::kCount_: break;
  }
  throw std::invalid_argument("to_string: bad MessageKind");
}

void ChannelAccountant::record(MessageKind kind, Direction dir, std::size_t bytes,
                               std::size_t count, std::size_t encrypted_bytes) {
  if (encrypted_bytes > bytes) {
    throw std::invalid_argument("record: encrypted_bytes exceeds bytes");
  }
  auto& cell = cells_.at(static_cast<std::size_t>(kind)).at(static_cast<std::size_t>(dir));
  cell.messages.fetch_add(count, std::memory_order_relaxed);
  cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.encrypted_bytes.fetch_add(encrypted_bytes, std::memory_order_relaxed);
}

std::uint64_t ChannelLedger::messages(MessageKind kind) const {
  return messages(kind, Direction::kClientToServer) + messages(kind, Direction::kServerToClient);
}

std::uint64_t ChannelLedger::bytes(MessageKind kind) const {
  return bytes(kind, Direction::kClientToServer) + bytes(kind, Direction::kServerToClient);
}

std::uint64_t ChannelLedger::encrypted_bytes(MessageKind kind) const {
  return encrypted_bytes(kind, Direction::kClientToServer) +
         encrypted_bytes(kind, Direction::kServerToClient);
}

std::uint64_t ChannelLedger::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& kind_row : cells) {
    for (const auto& cell : kind_row) total += cell.messages;
  }
  return total;
}

std::uint64_t ChannelLedger::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& kind_row : cells) {
    for (const auto& cell : kind_row) total += cell.bytes;
  }
  return total;
}

std::uint64_t ChannelLedger::total_encrypted_bytes() const {
  std::uint64_t total = 0;
  for (const auto& kind_row : cells) {
    for (const auto& cell : kind_row) total += cell.encrypted_bytes;
  }
  return total;
}

ChannelLedger ledger_delta(const ChannelLedger& after, const ChannelLedger& before) {
  ChannelLedger out;
  for (std::size_t k = 0; k < kMessageKinds; ++k) {
    for (std::size_t d = 0; d < kDirections; ++d) {
      const auto& a = after.cells[k][d];
      const auto& b = before.cells[k][d];
      if (a.messages < b.messages || a.bytes < b.bytes ||
          a.encrypted_bytes < b.encrypted_bytes) {
        throw std::invalid_argument("ledger_delta: snapshots out of order");
      }
      out.cells[k][d] = {a.messages - b.messages, a.bytes - b.bytes,
                         a.encrypted_bytes - b.encrypted_bytes};
    }
  }
  return out;
}

ChannelLedger ChannelAccountant::snapshot() const {
  ChannelLedger out;
  for (std::size_t k = 0; k < kMessageKinds; ++k) {
    for (std::size_t d = 0; d < kDirections; ++d) {
      out.cells[k][d] = {cells_[k][d].messages.load(std::memory_order_relaxed),
                         cells_[k][d].bytes.load(std::memory_order_relaxed),
                         cells_[k][d].encrypted_bytes.load(std::memory_order_relaxed)};
    }
  }
  return out;
}

void ChannelAccountant::add(const ChannelLedger& ledger) {
  for (std::size_t k = 0; k < kMessageKinds; ++k) {
    for (std::size_t d = 0; d < kDirections; ++d) {
      const auto& cell = ledger.cells[k][d];
      if (cell.messages != 0 || cell.bytes != 0) {
        record(static_cast<MessageKind>(k), static_cast<Direction>(d), cell.bytes,
               cell.messages, cell.encrypted_bytes);
      }
    }
  }
}

}  // namespace dubhe::fl
