#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/parallel.hpp"
#include "paillier/paillier.hpp"

namespace dubhe::he::detail {

/// Per-item RNG stream state: a full 256-bit xoshiro256** state, so each
/// item's randomization carries the caller's entropy at the generator's
/// native width (no 64-bit bottleneck).
using StreamState = std::array<std::uint64_t, 4>;

/// One stream state per item, drawn serially in item order.
inline std::vector<StreamState> draw_stream_states(bigint::EntropySource& rng,
                                                   std::size_t count) {
  std::vector<StreamState> states(count);
  for (auto& s : states) s = {rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
  return states;
}

inline const PublicKey& public_key_of(const PublicKey& pk) { return pk; }
inline const PublicKey& public_key_of(const PrivateKey& prv) { return prv.public_key(); }

/// The per-ciphertext stream contract of both vector forms: ciphertext i is
/// key.encrypt(ms[i], Xoshiro256ss(state_i)), where state_i is words
/// 4i..4i+3 of `rng`, which advances by exactly 4 * ms.size() words. `key`
/// is a PublicKey or a PrivateKey; the two consume identical words and
/// produce byte-identical ciphertexts. The states are drawn serially, then
/// the items run as one parallel_for over every worker (inline below
/// kParallelKeyBitsCutoff); a key-holder item's own two halves then run
/// inline on whichever thread took it.
template <class Key>
std::vector<Ciphertext> encrypt_each(const Key& key, std::span<const BigUint> ms,
                                     bigint::EntropySource& rng) {
  const std::vector<StreamState> states = draw_stream_states(rng, ms.size());
  std::vector<Ciphertext> out(ms.size());
  core::parallel_for(ms.size(), paillier_threads(public_key_of(key).key_bits()),
                     [&](std::size_t i) {
                       bigint::Xoshiro256ss stream(states[i]);
                       out[i] = key.encrypt(ms[i], stream);
                     });
  return out;
}

/// Big-endian u32 field helpers shared by the paillier wire forms
/// (encrypted_vector.cpp, packing.cpp). The net layer keeps its own
/// writer/reader on purpose: its failures are typed WireErrors, this
/// layer's are std::invalid_argument.

inline void put_u32_be(std::vector<std::uint8_t>& out, std::size_t v,
                       const char* what) {
  if (v > std::size_t{0xFFFFFFFF}) {
    throw std::invalid_argument(std::string(what) + ": field exceeds u32");
  }
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Reads the u32 at the front of `bytes` and advances past it.
inline std::size_t get_u32_be(std::span<const std::uint8_t>& bytes, const char* what) {
  if (bytes.size() < 4) {
    throw std::invalid_argument(std::string(what) + ": truncated field");
  }
  const std::size_t v = (static_cast<std::size_t>(bytes[0]) << 24) |
                        (static_cast<std::size_t>(bytes[1]) << 16) |
                        (static_cast<std::size_t>(bytes[2]) << 8) |
                        static_cast<std::size_t>(bytes[3]);
  bytes = bytes.subspan(4);
  return v;
}

}  // namespace dubhe::he::detail
