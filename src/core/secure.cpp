#include "core/secure.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "net/schema.hpp"
#include "stats/rng.hpp"

namespace dubhe::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

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
                                               bigint::EntropySource& rng,
                                               fl::ChannelAccountant* channel)
    : codec_(codec),
      sigma_(std::move(sigma)),
      cfg_(cfg),
      num_clients_(num_clients),
      rng_(rng),
      channel_(channel) {
  if (sigma_.size() != codec_.reference_set().size()) {
    throw std::invalid_argument("SecureSelectionSession: sigma size must match |G|");
  }
  const auto t0 = Clock::now();
  keypair_ = he::Keypair::generate(rng_, cfg_.key_bits);
  timings_.keygen_seconds += seconds_since(t0);
  session_seed_ = rng_.next_u64();
  if (channel_ != nullptr) {
    // The agent dispatches the keypair to every other client (paper §5.1):
    // one kKeyMaterial frame per recipient, recorded at its exact wire size.
    const std::size_t key_bytes =
        net::wire_size(net::KeyMaterial{keypair_.prv}).frame;
    channel_->record(fl::MessageKind::kKeyMaterial, fl::Direction::kServerToClient,
                     key_bytes * num_clients_, num_clients_);
  }
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

std::size_t SecureSelectionSession::encrypted_registry_bytes() const {
  return net::wire_size(net::packed_shape(keypair_.pub, packed_codec(), codec_.length())).frame;
}

std::size_t SecureSelectionSession::encrypted_distribution_bytes() const {
  return net::wire_size(net::packed_shape(keypair_.pub, packed_codec(), codec_.num_classes()))
      .frame;
}

std::size_t SecureSelectionSession::registry_ciphertext_bytes() const {
  return net::wire_size(net::packed_shape(keypair_.pub, packed_codec(), codec_.length()))
      .ciphertext;
}

std::size_t SecureSelectionSession::distribution_ciphertext_bytes() const {
  return net::wire_size(net::packed_shape(keypair_.pub, packed_codec(), codec_.num_classes()))
      .ciphertext;
}

std::vector<std::uint64_t> SecureSelectionSession::reduce_registry(
    std::span<const he::PackedEncryptedVector> cts) {
  if (cts.empty()) throw std::invalid_argument("reduce_registry: empty cohort");
  auto decrypt_timed = [&](const he::PackedEncryptedVector& v) {
    const auto t0 = Clock::now();
    auto out = v.decrypt(keypair_.prv);
    timings_.decrypt_seconds += seconds_since(t0);
    ++timings_.vectors_decrypted;
    return out;
  };
  // Callers that streamed their own homomorphic sum pass it as a singleton
  // span — decrypt in place, no copy.
  if (cts.size() == 1) return decrypt_timed(cts[0]);
  he::PackedEncryptedVector sum = cts[0];
  for (std::size_t k = 1; k < cts.size(); ++k) sum += cts[k];  // server side
  return decrypt_timed(sum);
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
  const std::size_t wire_bytes = encrypted_registry_bytes();

  // Client-side encryption, one client after another. Every client uses its
  // own seed-derived randomness (registration_stream_seed — the same stream a
  // transport-backed client receives in its request frame), so the
  // ciphertexts do not depend on where or in what order clients encrypt (in
  // deployment they are separate machines). encrypt_seconds accumulates the
  // *summed client-side* cost.
  require_slot_capacity(cfg_.packing_slot_bits, num_clients_, "registry counts");
  const he::PackedCodec packed = packed_codec();
  std::vector<he::PackedEncryptedVector> cts(N);
  for (std::size_t k = 0; k < N; ++k) {
    bigint::Xoshiro256ss client_rng(registration_stream_seed(session_seed_, k));
    const auto tk = Clock::now();
    cts[k] = he::PackedEncryptedVector::encrypt(
        keypair_.pub, packed, to_onehot(codec_, out.registrations[k]), client_rng);
    timings_.encrypt_seconds += seconds_since(tk);
  }
  out.overall_registry = reduce_registry(cts);
  timings_.vectors_encrypted += N;
  if (channel_ != nullptr) {
    const std::size_t ct_bytes = registry_ciphertext_bytes();
    channel_->record(fl::MessageKind::kRegistry, fl::Direction::kClientToServer,
                     wire_bytes * N, N, ct_bytes * N);
    channel_->record(fl::MessageKind::kRegistry, fl::Direction::kServerToClient,
                     wire_bytes * N, N, ct_bytes * N);
  }
  return out;
}

stats::Distribution SecureSelectionSession::aggregate_population(
    std::span<const stats::Distribution> dists, std::span<const std::size_t> selected) {
  if (selected.empty()) throw std::invalid_argument("aggregate_population: empty set");
  const std::size_t C = codec_.num_classes();
  const std::size_t wire_bytes = encrypted_distribution_bytes();
  const std::size_t ct_bytes = distribution_ciphertext_bytes();

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
    const auto t0 = Clock::now();
    auto ct = he::PackedEncryptedVector::encrypt(
        keypair_.pub, packed, quantize_distribution(dists[k], cfg_.fixed_point_scale), rng_);
    timings_.encrypt_seconds += seconds_since(t0);
    ++timings_.vectors_encrypted;
    if (channel_ != nullptr) {
      channel_->record(fl::MessageKind::kDistribution, fl::Direction::kClientToServer,
                       wire_bytes, 1, ct_bytes);
    }
    if (first) {
      sum = std::move(ct);
      first = false;
    } else {
      sum += ct;
    }
  }
  if (channel_ != nullptr) {  // server -> agent
    channel_->record(fl::MessageKind::kDistribution, fl::Direction::kServerToClient,
                     wire_bytes, 1, ct_bytes);
  }
  const stats::Distribution po = reduce_population({&sum, 1});
  if (po.size() != C) throw std::logic_error("aggregate_population: size drift");
  return po;
}

}  // namespace dubhe::core
