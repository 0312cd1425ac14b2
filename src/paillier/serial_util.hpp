#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

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
