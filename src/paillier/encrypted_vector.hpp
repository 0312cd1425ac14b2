#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "paillier/paillier.hpp"

namespace dubhe::he {

/// A vector of Paillier ciphertexts with slot-wise homomorphic addition.
/// This is the wire format of Dubhe's *registry* and of the encrypted label
/// distributions exchanged during multi-time selection: each slot holds one
/// counter (registry category count, or a fixed-point label share).
class EncryptedVector {
 public:
  EncryptedVector() = default;
  EncryptedVector(PublicKey pk, std::vector<Ciphertext> slots);

  /// Encrypts each value into its own ciphertext slot: four words drawn
  /// from `rng` per slot (in slot order) seed that slot's own 256-bit
  /// randomization stream. Consumes exactly 4 * values.size() generator
  /// words — part of the seeded-reproducibility contract.
  static EncryptedVector encrypt(const PublicKey& pk,
                                 std::span<const std::uint64_t> values,
                                 bigint::EntropySource& rng);
  /// All-zeros encrypted vector (deterministic encryptions of 0, suitable
  /// as the identity for += aggregation on the server).
  static EncryptedVector zeros(const PublicKey& pk, std::size_t size);

  /// Slot-wise homomorphic addition. Throws std::invalid_argument on size or
  /// key mismatch.
  EncryptedVector& operator+=(const EncryptedVector& o);
  friend EncryptedVector operator+(EncryptedVector a, const EncryptedVector& b) {
    a += b;
    return a;
  }

  /// Decrypts every slot in one pooled PrivateKey::decrypt call. Slot sums
  /// must stay below n (always true for the counters Dubhe transports).
  [[nodiscard]] std::vector<std::uint64_t> decrypt(const PrivateKey& prv) const;

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] const PublicKey& public_key() const { return pk_; }
  [[nodiscard]] const std::vector<Ciphertext>& slots() const { return slots_; }

  /// Exact serialized size in bytes of the bare slot payload (no key
  /// header; what serialize_bytes emits).
  [[nodiscard]] std::size_t byte_size() const;
  [[nodiscard]] std::vector<std::uint8_t> serialize_bytes() const;

 private:
  PublicKey pk_;
  std::vector<Ciphertext> slots_;
};

/// Self-contained wire form: 'V' tag, big-endian u32 slot count, the public
/// key (serialize(PublicKey)), then each slot as serialize(Ciphertext).
/// deserialize_encrypted_vector is the exact inverse; it throws
/// std::invalid_argument on a bad tag, truncation, trailing bytes, or a
/// slot value outside Z_{n^2}. This is the payload the net wire codec
/// carries for registry and distribution messages.
std::vector<std::uint8_t> serialize(const EncryptedVector& v);
EncryptedVector deserialize_encrypted_vector(std::span<const std::uint8_t> bytes);
/// Exact size of serialize() for a `slots`-long vector under `pk`, without
/// building the bytes — what exact channel accounting uses.
std::size_t serialized_size(const PublicKey& pk, std::size_t slots);

}  // namespace dubhe::he
