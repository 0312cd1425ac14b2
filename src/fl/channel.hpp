#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace dubhe::fl {

/// What a message carries — the categories §6.4 of the paper accounts for.
enum class MessageKind : std::size_t {
  kModelWeights = 0,  // global model down / local update up
  kRegistry,          // encrypted registry (registration)
  kDistribution,      // encrypted p_l (multi-time selection)
  kKeyMaterial,       // HE key dispatch by the agent
  kControl,           // selection decisions, parameters, acks
  kCount_,
};

enum class Direction : std::size_t { kClientToServer = 0, kServerToClient, kCount_ };

[[nodiscard]] std::string to_string(MessageKind kind);

inline constexpr std::size_t kMessageKinds = static_cast<std::size_t>(MessageKind::kCount_);
inline constexpr std::size_t kDirections = static_cast<std::size_t>(Direction::kCount_);

/// A plain, copyable point-in-time copy of an accountant's cells. The
/// multi-round session driver snapshots its accountant at round boundaries
/// and stores the per-round deltas in the transcript, so §6.4 traffic is
/// attributable round by round, not just in aggregate.
struct ChannelLedger {
  struct Cell {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    // Portion of `bytes` that is ciphertext material (Paillier ciphertext
    // payload bytes, excluding framing, lengths, and public-key echoes).
    // The remainder — bytes - encrypted_bytes — is the plaintext share of
    // the channel, which is what the selective-encryption tradeoff trades.
    std::uint64_t encrypted_bytes = 0;

    bool operator==(const Cell&) const = default;
  };
  std::array<std::array<Cell, kDirections>, kMessageKinds> cells{};

  [[nodiscard]] const Cell& at(MessageKind kind, Direction dir) const {
    return cells.at(static_cast<std::size_t>(kind)).at(static_cast<std::size_t>(dir));
  }
  [[nodiscard]] std::uint64_t messages(MessageKind kind, Direction dir) const {
    return at(kind, dir).messages;
  }
  [[nodiscard]] std::uint64_t bytes(MessageKind kind, Direction dir) const {
    return at(kind, dir).bytes;
  }
  [[nodiscard]] std::uint64_t encrypted_bytes(MessageKind kind, Direction dir) const {
    return at(kind, dir).encrypted_bytes;
  }
  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::uint64_t total_encrypted_bytes() const;

  bool operator==(const ChannelLedger&) const = default;
};

/// Cell-wise `after - before`: the traffic recorded between two snapshots of
/// the same accountant. Throws std::invalid_argument if any cell of `after`
/// is smaller than `before`'s (the snapshots were taken out of order).
[[nodiscard]] ChannelLedger ledger_delta(const ChannelLedger& after,
                                         const ChannelLedger& before);

/// Thread-safe accounting of everything that crosses the (simulated)
/// network. The FL loop and Dubhe's secure flows record every transfer here,
/// so the §6.4 communication-overhead table is measured, not estimated.
class ChannelAccountant {
 public:
  /// `encrypted_bytes` is the ciphertext-material share of `bytes` (see
  /// ChannelLedger::Cell); callers that ship no ciphertext leave it 0.
  void record(MessageKind kind, Direction dir, std::size_t bytes, std::size_t count = 1,
              std::size_t encrypted_bytes = 0);

  [[nodiscard]] std::uint64_t messages(MessageKind kind) const;
  [[nodiscard]] std::uint64_t bytes(MessageKind kind) const;
  [[nodiscard]] std::uint64_t messages(MessageKind kind, Direction dir) const;
  [[nodiscard]] std::uint64_t bytes(MessageKind kind, Direction dir) const;
  [[nodiscard]] std::uint64_t encrypted_bytes(MessageKind kind) const;
  [[nodiscard]] std::uint64_t encrypted_bytes(MessageKind kind, Direction dir) const;
  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::uint64_t total_encrypted_bytes() const;

  /// Copies every cell out under relaxed loads (exact between protocol
  /// phases, when no transport thread is mid-record).
  [[nodiscard]] ChannelLedger snapshot() const;
  /// Adds a ledger's cells into this accountant — how a session's internal
  /// accounting is merged into a caller-supplied channel at the end.
  void add(const ChannelLedger& ledger);

  void reset();

 private:
  static constexpr std::size_t kKinds = kMessageKinds;
  static constexpr std::size_t kDirs = kDirections;
  struct Cell {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> encrypted_bytes{0};
  };
  std::array<std::array<Cell, kDirs>, kKinds> cells_;
};

}  // namespace dubhe::fl
