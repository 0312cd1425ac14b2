#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "paillier/paillier.hpp"

namespace dubhe::he::detail {

/// One full 256-bit stream state per item, drawn serially in item order —
/// the per-ciphertext seeding both vector forms use on the public-key and
/// the key-holder path alike, so the two paths consume identical words and
/// produce byte-identical ciphertexts.
inline std::vector<PublicKey::StreamState> draw_stream_states(bigint::EntropySource& rng,
                                                              std::size_t count) {
  std::vector<PublicKey::StreamState> states(count);
  for (auto& s : states) s = {rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
  return states;
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
