#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "paillier/paillier.hpp"

namespace dubhe::he {

/// Counter packing for additively-HE plaintexts (BatchCrypt-style, paper
/// ref. [34]). Packs many small counters into one Paillier plaintext at a
/// fixed slot width, so one 2048-bit ciphertext can carry e.g. 64 slots of
/// 32 bits. Homomorphic addition stays slot-wise correct as long as every
/// slot sum stays below 2^slot_bits — the codec exposes max_additions() so
/// callers can budget for that. Dubhe's registry (56 or 53 slots of small
/// counts) fits into a single ciphertext this way, cutting registration
/// bytes by ~50x versus one ciphertext per slot; the ablation bench
/// `micro_crypto` quantifies this.
class PackedCodec {
 public:
  /// slot_bits in [1, 64]; capacity_bits is the usable plaintext width
  /// (key_bits - 1 is a safe choice). Throws std::invalid_argument on a
  /// zero-slot configuration.
  PackedCodec(std::size_t capacity_bits, std::size_t slot_bits);

  [[nodiscard]] std::size_t slot_bits() const { return slot_bits_; }
  [[nodiscard]] std::size_t slots_per_plaintext() const { return slots_per_pt_; }
  /// Number of plaintexts needed for `count` values.
  [[nodiscard]] std::size_t plaintexts_for(std::size_t count) const;
  /// How many packed vectors with per-slot values < `max_value` can be
  /// homomorphically added before a slot can overflow.
  [[nodiscard]] std::uint64_t max_additions(std::uint64_t max_value) const;

  /// Packs values (each must be < 2^slot_bits) into plaintext integers.
  [[nodiscard]] std::vector<BigUint> encode(std::span<const std::uint64_t> values) const;
  /// Unpacks `count` values from plaintext integers.
  [[nodiscard]] std::vector<std::uint64_t> decode(std::span<const BigUint> plaintexts,
                                                  std::size_t count) const;

 private:
  std::size_t slot_bits_;
  std::size_t slots_per_pt_;
};

/// An encrypted vector that stores packed counters: dramatically fewer
/// ciphertexts than EncryptedVector for the same logical length.
class PackedEncryptedVector {
 public:
  PackedEncryptedVector() = default;
  /// Reassembles a vector from its parts (the deserialization path). Throws
  /// std::invalid_argument if the ciphertext count does not match
  /// codec.plaintexts_for(logical_size).
  PackedEncryptedVector(PublicKey pk, PackedCodec codec, std::size_t logical_size,
                        std::vector<Ciphertext> cts);

  /// Packs and encrypts via PublicKey::encrypt_batch; like
  /// EncryptedVector::encrypt, the ciphertexts are byte-identical for any
  /// opt.threads.
  static PackedEncryptedVector encrypt(const PublicKey& pk, const PackedCodec& codec,
                                       std::span<const std::uint64_t> values,
                                       bigint::EntropySource& rng,
                                       const BatchOptions& opt = {});
  /// Key-holder variant (PrivateKey::encrypt_batch, CRT noise): the same
  /// stream-state draw, so the vector serializes byte-equal to the
  /// PublicKey overload's for the same `rng` state — only faster. For the
  /// parties that hold p and q (clients, agent), never the aggregator.
  static PackedEncryptedVector encrypt(const PrivateKey& prv, const PackedCodec& codec,
                                       std::span<const std::uint64_t> values,
                                       bigint::EntropySource& rng,
                                       const BatchOptions& opt = {});

  PackedEncryptedVector& operator+=(const PackedEncryptedVector& o);

  [[nodiscard]] std::vector<std::uint64_t> decrypt(const PrivateKey& prv,
                                                   const BatchOptions& opt = {}) const;

  [[nodiscard]] std::size_t logical_size() const { return count_; }
  [[nodiscard]] std::size_t ciphertext_count() const { return cts_.size(); }
  [[nodiscard]] std::size_t byte_size() const;
  [[nodiscard]] const PublicKey& public_key() const { return pk_; }
  [[nodiscard]] const PackedCodec& codec() const { return codec_; }
  [[nodiscard]] const std::vector<Ciphertext>& ciphertexts() const { return cts_; }

 private:
  PublicKey pk_;
  PackedCodec codec_{1, 1};
  std::size_t count_ = 0;
  std::vector<Ciphertext> cts_;
};

/// Self-contained wire form: 'K' tag, then big-endian u32 logical count,
/// slot width, slots-per-plaintext and ciphertext count, the public key,
/// and the packed ciphertexts. deserialize_packed_encrypted_vector is the
/// exact inverse (std::invalid_argument on any malformation); the codec is
/// rebuilt from (slots_per_plaintext * slot_bits, slot_bits), which
/// reproduces the packing geometry for any original capacity.
std::vector<std::uint8_t> serialize(const PackedEncryptedVector& v);
PackedEncryptedVector deserialize_packed_encrypted_vector(
    std::span<const std::uint8_t> bytes);
/// Exact size of serialize() for `logical` values under `pk` + `codec`.
std::size_t serialized_size(const PublicKey& pk, const PackedCodec& codec,
                            std::size_t logical);
/// Ciphertext bytes of the serialized vector `bytes`: its length minus the
/// 'K' header, the embedded key and the per-ciphertext length prefixes,
/// read from the header fields alone — nothing is deserialized. Returns 0
/// when the tag or header is malformed; never throws.
std::size_t packed_ciphertext_bytes(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace dubhe::he
