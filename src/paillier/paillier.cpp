#include "paillier/paillier.hpp"

#include <stdexcept>

#include "bigint/prime.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"

namespace dubhe::he {

namespace {

/// Crypto-op telemetry (counts + latency histograms). Out-of-band: no RNG
/// or ciphertext state is touched, so instrumented and uninstrumented runs
/// are byte-identical. The mode label is always "plain"; it stays in the
/// series names so readers of those names keep working.
telemetry::Histogram& encrypt_hist() {
  static telemetry::Histogram& hist =
      telemetry::histogram("dubhe_paillier_encrypt_seconds{mode=\"plain\"}");
  return hist;
}
telemetry::Counter& encrypt_count() {
  static telemetry::Counter& count =
      telemetry::counter("dubhe_paillier_encrypt_total{mode=\"plain\"}");
  return count;
}

/// The one r draw behind both encryption paths: r uniform in Z*_n by
/// rejection. PublicKey::rerandomize and PrivateKey::encrypt both call it,
/// so for the same stream they consume the same words and get the same r.
BigUint draw_unit(bigint::EntropySource& rng, const BigUint& n) {
  BigUint r;
  do {
    r = bigint::random_below(rng, n);
  } while (r.is_zero() || !BigUint::gcd(r, n).is_one());
  return r;
}

/// Garner recombination: the x in [0, m1*m2) with x = a (mod m1) and
/// x = b (mod m2), for a < m1, b < m2 and m2_inv = m2^{-1} mod m1.
BigUint crt_combine(const BigUint& a, const BigUint& b, const BigUint& m1,
                    const BigUint& m2, const BigUint& m2_inv) {
  const BigUint b1 = b % m1;
  const BigUint diff = a >= b1 ? a - b1 : m1 - (b1 - a);
  return b + m2 * diff.mul_mod(m2_inv, m1);
}

}  // namespace

PublicKey::PublicKey(BigUint n)
    : n_(std::move(n)),
      n_sq_(n_ * n_),
      mont_n2_(std::make_shared<bigint::Montgomery>(n_sq_)) {}

std::size_t PublicKey::ciphertext_bytes() const { return (2 * key_bits() + 7) / 8; }

Ciphertext PublicKey::encrypt_deterministic(const BigUint& m) const {
  if (m >= n_) throw std::out_of_range("Paillier: plaintext must be < n");
  // g^m with g = n+1: (1 + m*n) mod n^2 — a single multiplication. The
  // reduction is free: m <= n-1 gives 1 + m*n <= n^2 - n + 1 < n^2, so no
  // division is needed.
  return Ciphertext{BigUint{1} + m * n_};
}

Ciphertext PublicKey::encrypt(const BigUint& m, bigint::EntropySource& rng) const {
  encrypt_count().inc();
  telemetry::ScopedTimer timer(encrypt_hist());
  Ciphertext gm = encrypt_deterministic(m);
  return rerandomize(gm, rng);
}

Ciphertext PublicKey::rerandomize(const Ciphertext& a, bigint::EntropySource& rng) const {
  const BigUint rn = mont_n2_->pow(draw_unit(rng, n_), n_);
  return Ciphertext{a.c.mul_mod(rn, n_sq_)};
}

Ciphertext PublicKey::add(const Ciphertext& a, const Ciphertext& b) const {
  static telemetry::Counter& adds = telemetry::counter("dubhe_paillier_add_total");
  static telemetry::Histogram& hist =
      telemetry::histogram("dubhe_paillier_add_seconds");
  adds.inc();
  telemetry::ScopedTimer timer(hist);
  return Ciphertext{a.c.mul_mod(b.c, n_sq_)};
}

Ciphertext PublicKey::mul_plain(const Ciphertext& a, const BigUint& k) const {
  return Ciphertext{mont_n2_->pow(a.c, k)};
}

BigUint PrivateKey::l_function(const BigUint& x, const BigUint& d) {
  // L(x) = (x - 1) / d, exact by construction for valid inputs.
  return (x - BigUint{1}) / d;
}

PrivateKey::PrivateKey(const BigUint& p, const BigUint& q) : p_(p), q_(q) {
  // Reject every degenerate input up front as std::invalid_argument, so no
  // malformed key escapes as the underflow of l_function(0, 1) (p = 1) or a
  // mod_inverse domain_error (shared factors) — the net layer maps exactly
  // invalid_argument to a typed bad-payload error.
  if (p < BigUint{3} || q < BigUint{3}) {
    throw std::invalid_argument("Paillier: p and q must be at least 3");
  }
  if (!p.is_odd() || !q.is_odd()) {
    throw std::invalid_argument("Paillier: p and q must be odd primes");
  }
  if (!BigUint::gcd(p, q).is_one()) {
    throw std::invalid_argument("Paillier: p and q must be coprime");
  }
  const BigUint p1 = p - BigUint{1}, q1 = q - BigUint{1};
  const BigUint n = p * q;
  lambda_ = BigUint::lcm(p1, q1);
  if (!BigUint::gcd(n, lambda_).is_one()) {
    throw std::invalid_argument("Paillier: gcd(n, lambda) must be 1");
  }
  pub_ = PublicKey(n);
  p_sq_ = p * p;
  q_sq_ = q * q;
  mont_p2_ = std::make_shared<bigint::Montgomery>(p_sq_);
  mont_q2_ = std::make_shared<bigint::Montgomery>(q_sq_);
  mont_p_ = std::make_shared<bigint::Montgomery>(p);
  mont_q_ = std::make_shared<bigint::Montgomery>(q);
  n_mod_p1_ = n % p1;
  n_mod_q1_ = n % q1;
  qsq_inv_p2_ = BigUint::mod_inverse(q_sq_ % p_sq_, p_sq_);

  // CRT helpers: hp = L_p(g^{p-1} mod p^2)^{-1} mod p, likewise hq.
  // With g = n+1: g^{p-1} mod p^2 = 1 + (p-1)*n mod p^2.
  const BigUint gp = (BigUint{1} + p1 * n) % p_sq_;
  const BigUint gq = (BigUint{1} + q1 * n) % q_sq_;
  hp_ = BigUint::mod_inverse(l_function(gp, p) % p, p);
  hq_ = BigUint::mod_inverse(l_function(gq, q) % q, q);
  q_inv_p_ = BigUint::mod_inverse(q % p, p);

  // Textbook route: lambda = lcm(p-1, q-1), mu = L(g^lambda mod n^2)^{-1} mod n.
  const BigUint gl = (BigUint{1} + lambda_ * n) % pub_.n_squared();
  mu_ = BigUint::mod_inverse(l_function(gl, n) % n, n);
}

Ciphertext PrivateKey::encrypt(const BigUint& m, bigint::EntropySource& rng) const {
  encrypt_count().inc();
  telemetry::ScopedTimer timer(encrypt_hist());
  const Ciphertext gm = pub_.encrypt_deterministic(m);
  const BigUint& n = pub_.n();
  const BigUint r = draw_unit(rng, n);
  // r^n mod n^2 from its residues mod p^2 and q^2, one per core at and
  // above kParallelKeyBitsCutoff. For a prime d in {p, q}, r^n lies in the
  // order-(d-1) subgroup of Z*_{d^2} (it is (r^d)^(n/d), and
  // (r^d)^(d-1) = 1), and the only element of that subgroup congruent to
  // b mod d is b^d mod d^2. So r^n mod d^2 is
  // b^d mod d^2 for b = r^(n mod (d-1)) mod d (Fermat): a half-width
  // exponentiation mod d, then a half-length one mod d^2 — ~1.6x cheaper
  // than raising r to the full n mod d^2.
  const auto residue = [&r](const bigint::Montgomery& mod_d, const bigint::Montgomery& mod_d2,
                            const BigUint& n_mod_d1, const BigUint& d) {
    return mod_d2.pow(mod_d.pow(r, n_mod_d1), d);
  };
  BigUint rn_p, rn_q;
  core::parallel_for(2, paillier_threads(pub_.key_bits()), [&](std::size_t half) {
    if (half == 0) {
      rn_p = residue(*mont_p_, *mont_p2_, n_mod_p1_, p_);
    } else {
      rn_q = residue(*mont_q_, *mont_q2_, n_mod_q1_, q_);
    }
  });
  const BigUint rn = crt_combine(rn_p, rn_q, p_sq_, q_sq_, qsq_inv_p2_);
  return Ciphertext{gm.c.mul_mod(rn, pub_.n_squared())};
}

std::vector<BigUint> PrivateKey::decrypt(std::span<const Ciphertext> cts) const {
  static telemetry::Counter& decrypts =
      telemetry::counter("dubhe_paillier_decrypt_total");
  static telemetry::Histogram& hist =
      telemetry::histogram("dubhe_paillier_decrypt_seconds");
  decrypts.inc(cts.size());
  telemetry::ScopedTimer timer(hist);
  for (const Ciphertext& ct : cts) {
    if (ct.c >= pub_.n_squared()) {
      throw std::out_of_range("Paillier: ciphertext out of range");
    }
  }
  // Half 2i is ciphertext i's p half, 2i + 1 its q half:
  // m mod d = L_d(c^{d-1} mod d^2) * h_d mod d, for d = p, q.
  std::vector<BigUint> halves(2 * cts.size());
  core::parallel_for(halves.size(), paillier_threads(pub_.key_bits()), [&](std::size_t h) {
    const BigUint& c = cts[h / 2].c;
    const bool p_half = h % 2 == 0;
    const bigint::Montgomery& mont = p_half ? *mont_p2_ : *mont_q2_;
    const BigUint& d = p_half ? p_ : q_;
    const BigUint& d_sq = p_half ? p_sq_ : q_sq_;
    const BigUint& h_d = p_half ? hp_ : hq_;
    halves[h] = (l_function(mont.pow(c % d_sq, d - BigUint{1}), d) % d).mul_mod(h_d, d);
  });
  // CRT recombination: m = mq + q * ((mp - mq) * q^{-1} mod p).
  std::vector<BigUint> out;
  out.reserve(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    out.push_back(crt_combine(halves[2 * i], halves[2 * i + 1], p_, q_, q_inv_p_));
  }
  return out;
}

BigUint PrivateKey::decrypt(const Ciphertext& ct) const {
  return std::move(decrypt(std::span<const Ciphertext>(&ct, 1)).front());
}

BigUint PrivateKey::decrypt_textbook(const Ciphertext& ct) const {
  const BigUint& n = pub_.n();
  const BigUint& n2 = pub_.n_squared();
  const BigUint cl = ct.c.pow_mod(lambda_, n2);
  return (l_function(cl, n) % n).mul_mod(mu_, n);
}

Keypair Keypair::generate(bigint::EntropySource& rng, std::size_t key_bits) {
  if (key_bits < 16) throw std::invalid_argument("Paillier: key too small");
  const std::size_t half = key_bits / 2;
  for (;;) {
    const BigUint p = bigint::random_prime(rng, half);
    const BigUint q = bigint::random_prime(rng, key_bits - half);
    if (p == q) continue;
    if ((p * q).bit_length() != key_bits) continue;
    PrivateKey prv(p, q);
    PublicKey pub = prv.public_key();
    return Keypair{std::move(pub), std::move(prv)};
  }
}

std::vector<std::uint8_t> serialize(const Ciphertext& ct, const PublicKey& pk) {
  const std::size_t body = pk.ciphertext_bytes();
  std::vector<std::uint8_t> out(4 + body);
  out[0] = static_cast<std::uint8_t>(body >> 24);
  out[1] = static_cast<std::uint8_t>(body >> 16);
  out[2] = static_cast<std::uint8_t>(body >> 8);
  out[3] = static_cast<std::uint8_t>(body);
  const std::vector<std::uint8_t> mag = ct.c.to_bytes_be(body);
  std::copy(mag.begin(), mag.end(), out.begin() + 4);
  return out;
}

Ciphertext deserialize_ciphertext(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) throw std::invalid_argument("ciphertext: short buffer");
  const std::size_t body = (static_cast<std::size_t>(bytes[0]) << 24) |
                           (static_cast<std::size_t>(bytes[1]) << 16) |
                           (static_cast<std::size_t>(bytes[2]) << 8) |
                           static_cast<std::size_t>(bytes[3]);
  if (bytes.size() < 4 + body) throw std::invalid_argument("ciphertext: truncated");
  return Ciphertext{BigUint::from_bytes_be(bytes.subspan(4, body))};
}

namespace {

void append_field(std::vector<std::uint8_t>& out, const BigUint& v) {
  const std::vector<std::uint8_t> mag = v.to_bytes_be();
  const std::size_t body = mag.size();
  out.push_back(static_cast<std::uint8_t>(body >> 24));
  out.push_back(static_cast<std::uint8_t>(body >> 16));
  out.push_back(static_cast<std::uint8_t>(body >> 8));
  out.push_back(static_cast<std::uint8_t>(body));
  out.insert(out.end(), mag.begin(), mag.end());
}

/// Widest key field read_field accepts: 16,384 bits, 8x the paper's key.
constexpr std::size_t kMaxKeyFieldBytes = 16384 / 8;

BigUint read_field(std::span<const std::uint8_t>& bytes) {
  if (bytes.size() < 4) throw std::invalid_argument("key field: short buffer");
  const std::size_t body = (static_cast<std::size_t>(bytes[0]) << 24) |
                           (static_cast<std::size_t>(bytes[1]) << 16) |
                           (static_cast<std::size_t>(bytes[2]) << 8) |
                           static_cast<std::size_t>(bytes[3]);
  if (bytes.size() < 4 + body) throw std::invalid_argument("key field: truncated");
  // n, p and q all come through here, and every key parse then builds n^2
  // and Montgomery contexts at a cost quadratic in the width, so the width
  // is bounded before that runs.
  if (body > kMaxKeyFieldBytes) {
    throw std::invalid_argument("key field: wider than 16384 bits");
  }
  // append_field writes trimmed magnitudes; accept only that canonical form
  // so a parsed field always re-serializes to the identical bytes (the net
  // layer's exact-size accounting and byte-identity tests rely on it).
  if (body > 0 && bytes[4] == 0) {
    throw std::invalid_argument("key field: non-canonical leading zero");
  }
  BigUint v = BigUint::from_bytes_be(bytes.subspan(4, body));
  bytes = bytes.subspan(4 + body);
  return v;
}

}  // namespace

std::vector<std::uint8_t> serialize(const PublicKey& pk) {
  std::vector<std::uint8_t> out{'P'};
  append_field(out, pk.n());
  return out;
}

PublicKey deserialize_public_key(std::span<const std::uint8_t> bytes) {
  return deserialize_public_key_prefix(bytes);
}

PublicKey deserialize_public_key_prefix(std::span<const std::uint8_t>& bytes) {
  if (bytes.empty() || bytes[0] != 'P') {
    throw std::invalid_argument("public key: bad tag");
  }
  bytes = bytes.subspan(1);
  return PublicKey(read_field(bytes));
}

std::vector<std::uint8_t> serialize(const PrivateKey& prv) {
  std::vector<std::uint8_t> out{'S'};
  append_field(out, prv.p());
  append_field(out, prv.q());
  return out;
}

PrivateKey deserialize_private_key(std::span<const std::uint8_t> bytes) {
  return deserialize_private_key_prefix(bytes);
}

PrivateKey deserialize_private_key_prefix(std::span<const std::uint8_t>& bytes) {
  if (bytes.empty() || bytes[0] != 'S') {
    throw std::invalid_argument("private key: bad tag");
  }
  bytes = bytes.subspan(1);
  const BigUint p = read_field(bytes);
  const BigUint q = read_field(bytes);
  return PrivateKey(p, q);
}

namespace {
/// Length of one length-prefixed trimmed-magnitude field.
std::size_t field_size(const BigUint& v) { return 4 + (v.bit_length() + 7) / 8; }
}  // namespace

std::size_t serialized_size(const PublicKey& pk) { return 1 + field_size(pk.n()); }

std::size_t serialized_size(const PrivateKey& prv) {
  return 1 + field_size(prv.p()) + field_size(prv.q());
}

}  // namespace dubhe::he
