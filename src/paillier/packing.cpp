#include "paillier/packing.hpp"

#include <stdexcept>

#include "paillier/serial_util.hpp"

namespace dubhe::he {

PackedCodec::PackedCodec(std::size_t capacity_bits, std::size_t slot_bits)
    : slot_bits_(slot_bits), slots_per_pt_(0) {
  if (slot_bits == 0 || slot_bits > 64) {
    throw std::invalid_argument("PackedCodec: slot_bits must be in [1, 64]");
  }
  slots_per_pt_ = capacity_bits / slot_bits;
  if (slots_per_pt_ == 0) {
    throw std::invalid_argument("PackedCodec: capacity too small for one slot");
  }
}

std::size_t PackedCodec::plaintexts_for(std::size_t count) const {
  return (count + slots_per_pt_ - 1) / slots_per_pt_;
}

std::uint64_t PackedCodec::max_additions(std::uint64_t max_value) const {
  if (max_value == 0) return UINT64_MAX;
  const std::uint64_t slot_cap =
      slot_bits_ >= 64 ? UINT64_MAX : (std::uint64_t{1} << slot_bits_) - 1;
  return slot_cap / max_value;
}

std::vector<BigUint> PackedCodec::encode(std::span<const std::uint64_t> values) const {
  const std::uint64_t slot_cap =
      slot_bits_ >= 64 ? UINT64_MAX : (std::uint64_t{1} << slot_bits_) - 1;
  std::vector<BigUint> out(plaintexts_for(values.size()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] > slot_cap) {
      throw std::out_of_range("PackedCodec: value exceeds slot width");
    }
    const std::size_t pt = i / slots_per_pt_;
    const std::size_t slot = i % slots_per_pt_;
    out[pt] += BigUint{values[i]} << (slot * slot_bits_);
  }
  return out;
}

std::vector<std::uint64_t> PackedCodec::decode(std::span<const BigUint> plaintexts,
                                               std::size_t count) const {
  std::vector<std::uint64_t> out(count, 0);
  const std::uint64_t mask =
      slot_bits_ >= 64 ? UINT64_MAX : (std::uint64_t{1} << slot_bits_) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pt = i / slots_per_pt_;
    if (pt >= plaintexts.size()) {
      throw std::out_of_range("PackedCodec: not enough plaintexts");
    }
    const BigUint shifted = plaintexts[pt] >> (i % slots_per_pt_ * slot_bits_);
    out[i] = shifted.to_u64() & mask;
  }
  return out;
}

PackedEncryptedVector::PackedEncryptedVector(PublicKey pk, PackedCodec codec,
                                             std::size_t logical_size,
                                             std::vector<Ciphertext> cts)
    : pk_(std::move(pk)), codec_(codec), count_(logical_size), cts_(std::move(cts)) {
  if (cts_.size() != codec_.plaintexts_for(count_)) {
    throw std::invalid_argument(
        "PackedEncryptedVector: ciphertext count does not match the codec");
  }
}

namespace {

/// Packs `values` and encrypts each plaintext under `key` (a PublicKey or a
/// PrivateKey), one full 256-bit stream state per ciphertext.
template <class Key>
std::vector<Ciphertext> encrypt_packed(const Key& key, const PackedCodec& codec,
                                       std::span<const std::uint64_t> values,
                                       bigint::EntropySource& rng, const BatchOptions& opt) {
  const std::vector<BigUint> pts = codec.encode(values);
  return key.encrypt_batch(pts, detail::draw_stream_states(rng, pts.size()), opt);
}

}  // namespace

PackedEncryptedVector PackedEncryptedVector::encrypt(
    const PublicKey& pk, const PackedCodec& codec,
    std::span<const std::uint64_t> values, bigint::EntropySource& rng,
    const BatchOptions& opt) {
  return PackedEncryptedVector(pk, codec, values.size(),
                               encrypt_packed(pk, codec, values, rng, opt));
}

PackedEncryptedVector PackedEncryptedVector::encrypt(
    const PrivateKey& prv, const PackedCodec& codec,
    std::span<const std::uint64_t> values, bigint::EntropySource& rng,
    const BatchOptions& opt) {
  return PackedEncryptedVector(prv.public_key(), codec, values.size(),
                               encrypt_packed(prv, codec, values, rng, opt));
}

PackedEncryptedVector& PackedEncryptedVector::operator+=(const PackedEncryptedVector& o) {
  if (count_ != o.count_ || cts_.size() != o.cts_.size() ||
      codec_.slot_bits() != o.codec_.slot_bits()) {
    throw std::invalid_argument("PackedEncryptedVector: size mismatch");
  }
  if (!(pk_ == o.pk_)) {
    throw std::invalid_argument("PackedEncryptedVector: key mismatch");
  }
  for (std::size_t i = 0; i < cts_.size(); ++i) {
    cts_[i] = pk_.add(cts_[i], o.cts_[i]);
  }
  return *this;
}

std::vector<std::uint64_t> PackedEncryptedVector::decrypt(
    const PrivateKey& prv, const BatchOptions& opt) const {
  return codec_.decode(prv.decrypt_batch(cts_, opt), count_);
}

std::size_t PackedEncryptedVector::byte_size() const {
  return cts_.size() * (4 + pk_.ciphertext_bytes());
}

std::vector<std::uint8_t> serialize(const PackedEncryptedVector& v) {
  std::vector<std::uint8_t> out;
  out.reserve(serialized_size(v.public_key(), v.codec(), v.logical_size()));
  out.push_back('K');
  detail::put_u32_be(out, v.logical_size(), "PackedEncryptedVector");
  detail::put_u32_be(out, v.codec().slot_bits(), "PackedEncryptedVector");
  detail::put_u32_be(out, v.codec().slots_per_plaintext(), "PackedEncryptedVector");
  detail::put_u32_be(out, v.ciphertext_count(), "PackedEncryptedVector");
  const auto pk_bytes = serialize(v.public_key());
  out.insert(out.end(), pk_bytes.begin(), pk_bytes.end());
  for (const Ciphertext& ct : v.ciphertexts()) {
    const auto ct_bytes = serialize(ct, v.public_key());
    out.insert(out.end(), ct_bytes.begin(), ct_bytes.end());
  }
  return out;
}

PackedEncryptedVector deserialize_packed_encrypted_vector(
    std::span<const std::uint8_t> bytes) {
  if (bytes.empty() || bytes[0] != 'K') {
    throw std::invalid_argument("PackedEncryptedVector: bad tag");
  }
  bytes = bytes.subspan(1);
  const std::size_t logical = detail::get_u32_be(bytes, "PackedEncryptedVector");
  const std::size_t slot_bits = detail::get_u32_be(bytes, "PackedEncryptedVector");
  const std::size_t slots_per_pt = detail::get_u32_be(bytes, "PackedEncryptedVector");
  const std::size_t ct_count = detail::get_u32_be(bytes, "PackedEncryptedVector");
  if (slot_bits == 0 || slot_bits > 64 || slots_per_pt == 0) {
    throw std::invalid_argument("PackedEncryptedVector: bad packing geometry");
  }
  const PackedCodec codec(slots_per_pt * slot_bits, slot_bits);
  if (codec.slots_per_plaintext() != slots_per_pt) {
    throw std::invalid_argument("PackedEncryptedVector: inconsistent geometry");
  }
  PublicKey pk = deserialize_public_key_prefix(bytes);
  const std::size_t body = pk.ciphertext_bytes();
  if (bytes.size() != ct_count * (4 + body)) {
    throw std::invalid_argument("PackedEncryptedVector: ciphertext payload mismatch");
  }
  std::vector<Ciphertext> cts;
  cts.reserve(ct_count);
  const BigUint& n2 = pk.n_squared();
  for (std::size_t i = 0; i < ct_count; ++i) {
    // Canonical form only (see deserialize_encrypted_vector).
    if (detail::get_u32_be(bytes, "PackedEncryptedVector ciphertext") != body) {
      throw std::invalid_argument("PackedEncryptedVector: non-canonical length");
    }
    Ciphertext ct{BigUint::from_bytes_be(bytes.first(body))};
    if (!(ct.c < n2)) {
      throw std::invalid_argument("PackedEncryptedVector: ciphertext outside Z_{n^2}");
    }
    cts.push_back(std::move(ct));
    bytes = bytes.subspan(body);
  }
  return PackedEncryptedVector(std::move(pk), codec, logical, std::move(cts));
}

std::size_t serialized_size(const PublicKey& pk, const PackedCodec& codec,
                            std::size_t logical) {
  // 'K' + 4 geometry fields + embedded key + packed ciphertexts.
  return 1 + 4 * 4 + serialized_size(pk) +
         codec.plaintexts_for(logical) * (4 + pk.ciphertext_bytes());
}

std::size_t packed_ciphertext_bytes(std::span<const std::uint8_t> bytes) noexcept {
  // 'K' and four u32 geometry fields, the last the ciphertext count; then
  // the key, 'P' + u32 modulus length + modulus; then the ciphertexts.
  constexpr std::size_t kKeyAt = 1 + 4 * 4;
  if (bytes.size() < kKeyAt + 5 || bytes[0] != 'K' || bytes[kKeyAt] != 'P') return 0;
  const auto u32_at = [&](std::size_t at) {
    return (std::uint64_t{bytes[at]} << 24) | (std::uint64_t{bytes[at + 1]} << 16) |
           (std::uint64_t{bytes[at + 2]} << 8) | std::uint64_t{bytes[at + 3]};
  };
  const std::uint64_t framing = kKeyAt + 5 + u32_at(kKeyAt + 1) + 4 * u32_at(kKeyAt - 4);
  return framing <= bytes.size() ? static_cast<std::size_t>(bytes.size() - framing) : 0;
}

}  // namespace dubhe::he
