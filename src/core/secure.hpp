#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/registration.hpp"
#include "core/registry.hpp"
#include "paillier/packing.hpp"
#include "stats/distribution.hpp"

namespace dubhe::core {

/// Cryptosystem parameters for the secure flows. The paper's deployment is
/// key_bits = 2048 with one ciphertext per registry slot (python-paillier);
/// here every registry and distribution vector is BatchCrypt-style packed
/// (the only wire form since wire v6) — a 2048-bit key with 32-bit slots
/// carries ~63 logical values per ciphertext, so those frames are ~50x
/// smaller than the per-slot layout. Decrypted values are identical either
/// way; bench/micro_crypto keeps the per-slot ablation.
struct SecureConfig {
  std::size_t key_bits = 2048;
  /// Packed slot width. 32 bits holds fixed-point distribution sums
  /// (scale 10^6 x cohorts into the thousands) and > 10^9 one-hot registry
  /// additions per slot, far beyond any realistic client population.
  std::size_t packing_slot_bits = 32;
  /// Fixed-point scale for encrypting real-valued label distributions.
  std::uint64_t fixed_point_scale = 1'000'000;
  /// Fraction of model-update coordinates shipped encrypted (top-k by
  /// global-weight magnitude, see core/selective.hpp). 0 keeps today's
  /// plaintext kModelUpdate path bit-for-bit; 1 encrypts every coordinate
  /// (the fully-encrypted bound); anything in between ships the top
  /// ceil(rate * n) coordinates as packed ciphertexts and the rest as
  /// quantized plaintext behind an index bitmap (kModelUpdateSparse).
  /// Both portions quantize at core::kUpdateQuantBits / kUpdateQuantScale.
  double update_he_rate = 0.0;
};

/// Fixed-point quantization of a label distribution (§5.3): round each
/// share to d[c] * scale. Shared by the in-process session and the net
/// client endpoints so both sides of a wire encrypt identical integers.
std::vector<std::uint64_t> quantize_distribution(const stats::Distribution& d,
                                                 std::uint64_t scale);

/// Seed of client k's proactive-participation stream for one global round:
/// the client draws its H Bernoulli bits for round r from
/// Rng(participation_seed(session_seed, r, k)), h-th draw for try h. Both
/// wire endpoints and the direct reference path derive it from exactly
/// (session seed, round, client id) — that shared derivation is what keeps
/// transcripts byte-identical across execution modes. The top bit
/// domain-separates the per-round master from every encryption-stream index
/// (registration_stream_seed / distribution_stream_seed), so a participation
/// stream can never collide with an encryption stream.
[[nodiscard]] std::uint64_t participation_seed(std::uint64_t session_seed,
                                               std::uint64_t round,
                                               std::uint64_t client_id);

/// The encryption-stream seed derivations as free functions, so a shard
/// aggregator (which never constructs a SecureSelectionSession — it holds no
/// keypair of its own) can validate client uploads against the same streams
/// the root and the clients use. A distribution upload's `try_slot` is
/// round * H + h, so every try of every round gets a disjoint stream, and
/// all of them are disjoint from every registration stream.
[[nodiscard]] std::uint64_t registration_stream_seed(std::uint64_t session_seed,
                                                     std::uint64_t client_id);
[[nodiscard]] std::uint64_t distribution_stream_seed(std::uint64_t session_seed,
                                                     std::uint64_t num_clients,
                                                     std::uint64_t try_slot,
                                                     std::uint64_t client_id);

/// The secure counterpart of the plaintext selection pipeline: a full
/// Paillier session implementing the paper's §5.1 registration round-trip
/// and §5.3 encrypted population aggregation. It only computes: the
/// transports (or net::run_session_direct) price its traffic, and the
/// dubhe_paillier_* telemetry histograms time its crypto. The agent role
/// (keygen, final decryption on behalf of the cohort) is played inside
/// this class; the "server" only ever touches
/// ciphertexts — tests assert that the plaintext never appears server-side.
class SecureSelectionSession {
 public:
  /// Generates the session keypair for a cohort of `num_clients`.
  SecureSelectionSession(const RegistryCodec& codec, std::vector<double> sigma,
                         SecureConfig cfg, std::size_t num_clients,
                         bigint::EntropySource& rng);

  struct RegistrationOutcome {
    std::vector<std::uint64_t> overall_registry;  // R_A, decrypted
    std::vector<Registration> registrations;      // per client (stays client-side)
  };

  /// §5.1 end-to-end: every client registers (Algorithm 1), encrypts its
  /// one-hot registry, the server adds ciphertexts, and the encrypted sum is
  /// broadcast and decrypted client-side. Returns R_A plus the per-client
  /// registrations for DubheSelector::load_overall_registry.
  RegistrationOutcome run_registration(std::span<const stats::Distribution> dists);

  /// §5.3 tentative-try aggregation: the selected clients encrypt their
  /// fixed-point label distributions, the server adds ciphertexts, the agent
  /// decrypts and normalizes p_o.
  stats::Distribution aggregate_population(std::span<const stats::Distribution> dists,
                                           std::span<const std::size_t> selected);

  [[nodiscard]] const he::PublicKey& public_key() const { return keypair_.pub; }
  /// The whole session keypair — what the agent dispatches to the cohort
  /// (paper §5.1) and what the transport-backed driver puts in its
  /// kKeyMaterial frames.
  [[nodiscard]] const he::Keypair& keypair() const { return keypair_; }

  /// --- the split halves the transport-backed driver runs on --------------
  /// The in-process flows above are composed from these: per-client
  /// encryption seeds (client half, shipped in request frames) and
  /// aggregate-and-decrypt reductions (agent half). Results are independent
  /// of encryption randomness, so any seed assignment yields the same
  /// registry counts and populations — the seeds only make transcripts
  /// reproducible.

  /// Master seed the per-client encryption streams derive from.
  [[nodiscard]] std::uint64_t session_seed() const { return session_seed_; }

  /// Agent half of §5.1: homomorphically sums the uploaded registries and
  /// decrypts R_A. Throws std::invalid_argument on an
  /// empty span.
  std::vector<std::uint64_t> reduce_registry(
      std::span<const he::PackedEncryptedVector> cts);
  /// Agent half of §5.3: sums the uploaded fixed-point distributions,
  /// decrypts, and normalizes p_o.
  stats::Distribution reduce_population(std::span<const he::PackedEncryptedVector> cts);

 private:
  [[nodiscard]] he::PackedCodec packed_codec() const {
    return {cfg_.key_bits - 1, cfg_.packing_slot_bits};
  }

  const RegistryCodec& codec_;
  std::vector<double> sigma_;
  SecureConfig cfg_;
  std::size_t num_clients_;
  bigint::EntropySource& rng_;
  he::Keypair keypair_;
  /// Per-client encryption randomness derives from this, so serial and
  /// parallel registration produce identical ciphertexts.
  std::uint64_t session_seed_ = 0;
};

}  // namespace dubhe::core
