#pragma once

#include <cstddef>

#include "net/wire.hpp"
#include "paillier/packing.hpp"

namespace dubhe::net {

/// Exact on-wire frame sizes (header included) of the messages the §6.4
/// accounting tables count, computed without building the bytes. This
/// header depends only on the frame format and the paillier layer, so the
/// `core` and `fl` layers can price their traffic exactly without pulling
/// in the rest of the net stack (codec/transport/node, which sit *above*
/// them — see the README layering note).

/// kModelDown / kModelUpdate: u64 seed-or-id + u32 count + f32 payload.
[[nodiscard]] inline std::size_t wire_size_weights(std::size_t num_weights) {
  return frame_wire_size(8 + 4 + 4 * num_weights);
}

[[nodiscard]] inline std::size_t wire_size_packed_vector(const he::PublicKey& pk,
                                                         const he::PackedCodec& codec,
                                                         std::size_t logical) {
  return frame_wire_size(he::serialized_size(pk, codec, logical));
}

[[nodiscard]] inline std::size_t wire_size_key_material(const he::Keypair& kp) {
  return frame_wire_size(he::serialized_size(kp.pub) + he::serialized_size(kp.prv));
}

/// kModelUpdateSparse: u64 client id + u32 total + u32 encrypted count +
/// u8 quant_bits + index bitmap + plaintext remainder + packed 'K' vector.
[[nodiscard]] inline std::size_t wire_size_model_update_sparse(
    const he::PublicKey& pk, const he::PackedCodec& codec, std::size_t total,
    std::size_t encrypted_count, std::size_t quant_bits) {
  const std::size_t plain_width = (quant_bits + 7) / 8;
  return frame_wire_size(8 + 4 + 4 + 1 + (total + 7) / 8 +
                         (total - encrypted_count) * plain_width +
                         he::serialized_size(pk, codec, encrypted_count));
}

/// Ciphertext-material bytes (the ledger's `encrypted_bytes` column) of
/// each ciphertext-bearing payload, predicted without building the bytes —
/// the same quantity net::encrypted_payload_bytes measures on a real frame.
/// Canonical ciphertext lengths make prediction exact: every serialized
/// ciphertext is exactly pk.ciphertext_bytes() long.
[[nodiscard]] inline std::size_t ciphertext_bytes_packed_vector(
    const he::PublicKey& pk, const he::PackedCodec& codec, std::size_t logical) {
  return codec.plaintexts_for(logical) * pk.ciphertext_bytes();
}

}  // namespace dubhe::net
