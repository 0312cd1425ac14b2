#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dubhe::core {

/// Top-k / HE-rate selective encryption of model updates (wire v3's
/// kModelUpdateSparse). The contract that keeps every execution mode
/// byte-identical: both ends derive the encrypted-coordinate mask from
/// data they already share — the indices of the k largest |global weight|
/// values — so the mask costs zero wire bytes, every client's packed
/// ciphertext slots line up for homomorphic addition, and the server can
/// validate an upload's bitmap against its own expectation. (A per-client
/// mask would also leak which coordinates each client's data moved most;
/// the shared mask reveals nothing the server did not already know from
/// the global model it broadcast.)
///
/// Quantization is identical on both portions: delta = trained - global,
/// q = clamp(round(delta * scale)) to the signed quant_bits range, then
/// biased to unsigned (u = q + 2^(quant_bits-1)) so Paillier slots stay
/// non-negative. Because encrypted and plaintext coordinates quantize the
/// same way, the merged model is identical for every he_rate > 0 — the
/// rate trades bandwidth and crypto cost against *privacy*, while the
/// accuracy delta against he_rate = 0 measures quantization alone.

/// The update quantizer both ends of the wire share (encrypted and
/// plaintext portions alike): a weight delta d encodes as round(d * scale)
/// clamped to the signed 16-bit range, which covers deltas in (-0.5, 0.5)
/// at ~1.5e-5 resolution. kModelUpdateSparse still carries the width in
/// its quant_bits byte, and the aggregator rejects any other value.
inline constexpr std::size_t kUpdateQuantBits = 16;
inline constexpr double kUpdateQuantScale = 65536.0;

/// Coordinates encrypted for an n-coordinate update: 0 when rate <= 0
/// (the plaintext kModelUpdate path), otherwise ceil(rate * n) clamped to
/// [1, n].
[[nodiscard]] std::size_t update_encrypted_count(std::size_t n, double he_rate);

/// Indices of the k largest-magnitude global weights (ties broken toward
/// the lower index), returned in ascending index order — the shared mask.
[[nodiscard]] std::vector<std::uint32_t> topk_mask_indices(std::span<const float> global,
                                                           std::size_t k);

/// Bitmap form of a mask: ceil(n/8) bytes, bit i (byte i/8, bit i%8) set
/// iff coordinate i is encrypted. Exactly the kModelUpdateSparse layout.
[[nodiscard]] std::vector<std::uint8_t> make_update_bitmap(
    std::span<const std::uint32_t> indices, std::size_t n);

/// Packed-slot width for update ciphertexts: quant_bits plus headroom for
/// a cohort_bound-client sum, so homomorphic addition can never overflow a
/// slot. Both ends must pass the same cohort_bound (the session's client
/// count N >= any per-round cohort). Throws std::invalid_argument unless
/// quant_bits is in [2, 32].
[[nodiscard]] std::size_t update_slot_bits(std::size_t quant_bits,
                                           std::size_t cohort_bound);

/// Quantizes a trained model against the global it started from:
/// biased-unsigned values u_i = clamp(round((trained_i - global_i) *
/// scale)) + 2^(quant_bits-1), each < 2^quant_bits.
[[nodiscard]] std::vector<std::uint64_t> quantize_update(std::span<const float> global,
                                                         std::span<const float> trained,
                                                         std::size_t quant_bits,
                                                         double scale);

/// FedAvg merge of m quantized updates from their per-coordinate sums
/// (encrypted portion decrypted, plaintext portion plain-summed — the
/// caller scatters both into one array): new_global_i = global_i +
/// (sums_i - m * bias) / (m * scale).
[[nodiscard]] std::vector<float> merge_quantized_updates(std::span<const float> global,
                                                         std::span<const std::uint64_t> sums,
                                                         std::size_t m,
                                                         std::size_t quant_bits,
                                                         double scale);

/// Seed of client k's update-encryption stream for one global round.
/// Domain-separated from participation_seed (top bit) and from every
/// registration/distribution encryption-stream index (both top bits set
/// here; the stream indices are all far below 2^62), so no stream ever
/// collides. A wire client derives it from its ServerHello fields alone.
[[nodiscard]] std::uint64_t update_encryption_seed(std::uint64_t session_seed,
                                                   std::uint64_t round,
                                                   std::uint64_t client_id);

}  // namespace dubhe::core
