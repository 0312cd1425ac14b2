#include "core/secure.hpp"

#include <stdexcept>
#include <string>

#include "stats/rng.hpp"

namespace dubhe::core {

namespace {

/// Bits needed to hold `v` without overflow during homomorphic summation.
std::size_t bits_for(std::uint64_t v) {
  std::size_t bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

void require_slot_capacity(std::size_t slot_bits, std::uint64_t max_slot_sum,
                           const char* what) {
  if (slot_bits < bits_for(max_slot_sum)) {
    throw std::invalid_argument(
        std::string("SecureSelectionSession: packing_slot_bits too small for ") + what);
  }
}

}  // namespace

std::vector<std::uint64_t> quantize_distribution(const stats::Distribution& d,
                                                 std::uint64_t scale) {
  std::vector<std::uint64_t> q(d.size());
  for (std::size_t c = 0; c < d.size(); ++c) {
    q[c] = static_cast<std::uint64_t>(d[c] * static_cast<double>(scale) + 0.5);
  }
  return q;
}

SecureSelectionSession::SecureSelectionSession(const RegistryCodec& codec,
                                               std::vector<double> sigma, SecureConfig cfg,
                                               std::size_t num_clients,
                                               bigint::EntropySource& rng)
    : codec_(codec),
      sigma_(std::move(sigma)),
      cfg_(cfg),
      num_clients_(num_clients),
      rng_(rng) {
  if (sigma_.size() != codec_.reference_set().size()) {
    throw std::invalid_argument("SecureSelectionSession: sigma size must match |G|");
  }
  keypair_ = he::Keypair::generate(rng_, cfg_.key_bits);
  session_seed_ = rng_.next_u64();
}

std::uint64_t registration_stream_seed(std::uint64_t session_seed,
                                       std::uint64_t client_id) {
  return stats::derive_seed(session_seed, client_id);
}

std::uint64_t distribution_stream_seed(std::uint64_t session_seed,
                                       std::uint64_t num_clients,
                                       std::uint64_t try_slot,
                                       std::uint64_t client_id) {
  // Streams [0, N) are the registration seeds; global try slot s (the
  // session driver passes round * H + h) occupies [N * (s + 1), N * (s + 2)),
  // so no two uploads ever share a stream — across tries or across rounds.
  return stats::derive_seed(session_seed, num_clients * (try_slot + 1) + client_id);
}

std::uint64_t participation_seed(std::uint64_t session_seed, std::uint64_t round,
                                 std::uint64_t client_id) {
  // Two-level split: a per-round master (top bit set — the encryption
  // stream indices above are all far below 2^63), then one stream per
  // client. The client endpoint derives this with nothing but its
  // ServerHello fields; the direct path with session_seed().
  const std::uint64_t round_master =
      stats::derive_seed(session_seed, (std::uint64_t{1} << 63) | round);
  return stats::derive_seed(round_master, client_id);
}

std::vector<std::uint64_t> SecureSelectionSession::reduce_registry(
    std::span<const he::PackedEncryptedVector> cts) {
  if (cts.empty()) throw std::invalid_argument("reduce_registry: empty cohort");
  // Callers that streamed their own homomorphic sum pass it as a singleton
  // span — decrypt in place, no copy.
  if (cts.size() == 1) return cts[0].decrypt(keypair_.prv);
  he::PackedEncryptedVector sum = cts[0];
  for (std::size_t k = 1; k < cts.size(); ++k) sum += cts[k];  // server side
  return sum.decrypt(keypair_.prv);
}

stats::Distribution SecureSelectionSession::reduce_population(
    std::span<const he::PackedEncryptedVector> cts) {
  std::vector<std::uint64_t> total = reduce_registry(cts);
  stats::Distribution po(total.size());
  for (std::size_t c = 0; c < total.size(); ++c) po[c] = static_cast<double>(total[c]);
  stats::normalize(po);
  return po;
}

SecureSelectionSession::RegistrationOutcome SecureSelectionSession::run_registration(
    std::span<const stats::Distribution> dists) {
  if (dists.size() != num_clients_) {
    throw std::invalid_argument("run_registration: cohort size mismatch");
  }
  RegistrationOutcome out;
  out.registrations.reserve(dists.size());
  for (const auto& d : dists) {
    out.registrations.push_back(register_client(codec_, d, sigma_));
  }

  const std::size_t N = dists.size();

  // Client-side encryption, one client after another. Every client uses its
  // own seed-derived randomness (registration_stream_seed — the same stream a
  // transport-backed client receives in its request frame), so the
  // ciphertexts do not depend on where or in what order clients encrypt (in
  // deployment they are separate machines).
  require_slot_capacity(cfg_.packing_slot_bits, num_clients_, "registry counts");
  const he::PackedCodec packed = packed_codec();
  std::vector<he::PackedEncryptedVector> cts(N);
  for (std::size_t k = 0; k < N; ++k) {
    bigint::Xoshiro256ss client_rng(registration_stream_seed(session_seed_, k));
    cts[k] = he::PackedEncryptedVector::encrypt(
        keypair_.pub, packed, to_onehot(codec_, out.registrations[k]), client_rng);
  }
  out.overall_registry = reduce_registry(cts);
  return out;
}

stats::Distribution SecureSelectionSession::aggregate_population(
    std::span<const stats::Distribution> dists, std::span<const std::size_t> selected) {
  if (selected.empty()) throw std::invalid_argument("aggregate_population: empty set");
  const std::size_t C = codec_.num_classes();

  // Clients quantize p_l to fixed point and encrypt; the server folds each
  // ciphertext into a running sum (one vector alive at a time, as before
  // the transport split); the agent decrypts the aggregate.
  // Each slot accumulates up to scale per client across |selected| adds.
  require_slot_capacity(cfg_.packing_slot_bits, cfg_.fixed_point_scale * selected.size(),
                        "fixed-point distribution sums");
  const he::PackedCodec packed = packed_codec();
  he::PackedEncryptedVector sum;
  bool first = true;
  for (const std::size_t k : selected) {
    auto ct = he::PackedEncryptedVector::encrypt(
        keypair_.pub, packed, quantize_distribution(dists[k], cfg_.fixed_point_scale), rng_);
    if (first) {
      sum = std::move(ct);
      first = false;
    } else {
      sum += ct;
    }
  }
  const stats::Distribution po = reduce_population({&sum, 1});
  if (po.size() != C) throw std::logic_error("aggregate_population: size drift");
  return po;
}

}  // namespace dubhe::core
