#include "core/selective.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats/rng.hpp"

namespace dubhe::core {

std::size_t update_encrypted_count(std::size_t n, double he_rate) {
  if (he_rate <= 0.0 || n == 0) return 0;
  if (he_rate >= 1.0) return n;
  const auto k = static_cast<std::size_t>(
      std::ceil(he_rate * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

std::vector<std::uint32_t> topk_mask_indices(std::span<const float> global,
                                             std::size_t k) {
  const std::size_t n = global.size();
  if (k > n) throw std::invalid_argument("topk_mask_indices: k exceeds n");
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  // Magnitude descending, ties toward the lower index: a total order, so
  // the mask is identical on every host and execution mode.
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k), idx.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      const float ma = std::fabs(global[a]);
                      const float mb = std::fabs(global[b]);
                      if (ma != mb) return ma > mb;
                      return a < b;
                    });
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::vector<std::uint8_t> make_update_bitmap(std::span<const std::uint32_t> indices,
                                             std::size_t n) {
  std::vector<std::uint8_t> bitmap((n + 7) / 8, 0);
  for (const std::uint32_t i : indices) {
    if (i >= n) throw std::invalid_argument("make_update_bitmap: index out of range");
    bitmap[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bitmap;
}

std::size_t update_slot_bits(std::size_t cohort_bound) {
  if (cohort_bound == 0) {
    throw std::invalid_argument("update_slot_bits: empty cohort bound");
  }
  // A slot sums m <= cohort_bound values each < 2^kUpdateQuantBits, so
  // kUpdateQuantBits + bit_width(cohort_bound) bits can never overflow.
  return kUpdateQuantBits + std::bit_width(static_cast<std::uint64_t>(cohort_bound));
}

std::vector<std::uint64_t> quantize_update(std::span<const float> global,
                                           std::span<const float> trained) {
  if (global.size() != trained.size()) {
    throw std::invalid_argument("quantize_update: size mismatch");
  }
  constexpr auto bias = std::int64_t{1} << (kUpdateQuantBits - 1);
  std::vector<std::uint64_t> out(global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    const double delta = static_cast<double>(trained[i]) - static_cast<double>(global[i]);
    const auto q = static_cast<std::int64_t>(std::llround(delta * kUpdateQuantScale));
    const std::int64_t clamped = std::clamp(q, -bias, bias - 1);
    out[i] = static_cast<std::uint64_t>(clamped + bias);
  }
  return out;
}

std::vector<float> merge_quantized_updates(std::span<const float> global,
                                           std::span<const std::uint64_t> sums,
                                           std::size_t m) {
  if (global.size() != sums.size()) {
    throw std::invalid_argument("merge_quantized_updates: size mismatch");
  }
  if (m == 0) throw std::invalid_argument("merge_quantized_updates: empty cohort");
  constexpr auto bias = static_cast<double>(std::int64_t{1} << (kUpdateQuantBits - 1));
  const double denom = static_cast<double>(m) * kUpdateQuantScale;
  std::vector<float> out(global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    const double mean_delta =
        (static_cast<double>(sums[i]) - static_cast<double>(m) * bias) / denom;
    out[i] = static_cast<float>(static_cast<double>(global[i]) + mean_delta);
  }
  return out;
}

std::uint64_t update_encryption_seed(std::uint64_t session_seed, std::uint64_t round,
                                     std::uint64_t client_id) {
  const std::uint64_t domain =
      (std::uint64_t{1} << 63) | (std::uint64_t{1} << 62) | round;
  return stats::derive_seed(stats::derive_seed(session_seed, domain), client_id);
}

}  // namespace dubhe::core
