#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/random.hpp"

namespace dubhe::he {

using bigint::BigUint;

/// A Paillier ciphertext: an element of Z*_{n^2}. Value semantics; the
/// ciphertext carries no key material, so all homomorphic operations live on
/// PublicKey, which owns the cached Montgomery context for n^2.
struct Ciphertext {
  BigUint c;

  bool operator==(const Ciphertext&) const = default;
};

/// Paillier public key with g = n + 1 (the standard "simple variant", also
/// what python-paillier uses). With this generator, encryption needs no
/// exponentiation for the message part: g^m = 1 + m*n (mod n^2).
class PublicKey {
 public:
  PublicKey() = default;
  explicit PublicKey(BigUint n);

  [[nodiscard]] const BigUint& n() const { return n_; }
  [[nodiscard]] const BigUint& n_squared() const { return n_sq_; }
  /// Modulus size in bits (the "key size": 2048 in the paper's setup).
  [[nodiscard]] std::size_t key_bits() const { return n_.bit_length(); }
  /// Exact serialized size of one ciphertext in bytes: ceil(2*key_bits/8).
  [[nodiscard]] std::size_t ciphertext_bytes() const;

  /// Encrypts m in [0, n). Throws std::out_of_range otherwise.
  /// c = (1 + m*n) * r^n mod n^2 with r uniform in Z*_n. This is the
  /// outsider's path (one exponentiation mod n^2); a holder of p and q gets
  /// the byte-identical ciphertext faster from PrivateKey::encrypt.
  [[nodiscard]] Ciphertext encrypt(const BigUint& m, bigint::EntropySource& rng) const;
  /// Deterministic "encryption" with r = 1 — NOT semantically secure; used
  /// only in tests and to build homomorphic constants cheaply.
  [[nodiscard]] Ciphertext encrypt_deterministic(const BigUint& m) const;

  /// Homomorphic addition: Dec(add(a, b)) = Dec(a) + Dec(b) mod n.
  [[nodiscard]] Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
  /// Scalar multiplication: Dec(mul_plain(a, k)) = k * Dec(a) mod n.
  [[nodiscard]] Ciphertext mul_plain(const Ciphertext& a, const BigUint& k) const;
  /// Re-randomizes a ciphertext (multiplies by a fresh encryption of zero),
  /// unlinking it from its origin without changing the plaintext.
  [[nodiscard]] Ciphertext rerandomize(const Ciphertext& a, bigint::EntropySource& rng) const;

  bool operator==(const PublicKey& o) const { return n_ == o.n_; }

 private:
  BigUint n_;
  BigUint n_sq_;
  std::shared_ptr<const bigint::Montgomery> mont_n2_;
};

/// Minimum modulus width, in bits, at which Paillier work goes to the shared
/// core::parallel_for pool. Below it every site runs inline on the caller:
/// at 256 bits the pool saves little or nothing on one ciphertext in a
/// Release build, and under a sanitizer a pool round-trip costs more than
/// the work. Sized from BM_PaillierDecryptCrt and the key-holder encrypt at
/// 256/512/1024 bits (docs/benchmarks.md).
inline constexpr std::size_t kParallelKeyBitsCutoff = 512;

/// The core::parallel_for thread cap for Paillier work under a
/// `key_bits`-bit key: 0 (every worker) at or above kParallelKeyBitsCutoff,
/// 1 (inline) below it. Results never depend on it, only wall-clock does.
[[nodiscard]] constexpr std::size_t paillier_threads(std::size_t key_bits) {
  return key_bits >= kParallelKeyBitsCutoff ? 0 : 1;
}

/// Paillier private key. Decryption uses the CRT over p^2 and q^2, which is
/// ~4x faster than the textbook lambda/mu route; the textbook route is kept
/// as decrypt_textbook() and cross-checked in tests.
///
/// The key also offers key-holder encryption: whoever holds p and q — in
/// Dubhe the agent and every client, which receive the whole keypair
/// (paper §5.1), never the aggregator or the shards — can compute r^n
/// modulo p^2 and q^2 separately instead of modulo n^2. The noise model
/// does not change.
///
/// Both directions pool their halves on the shared runtime for keys of at
/// least kParallelKeyBitsCutoff bits: one encrypt runs its p and q halves
/// on two cores, and a decrypt of n ciphertexts runs all 2n CRT halves as
/// one parallel_for over every worker. Narrower keys run inline.
class PrivateKey {
 public:
  PrivateKey() = default;
  /// Builds the key from the two primes. Throws std::invalid_argument if
  /// p or q is below 3 or even, if gcd(p, q) != 1 (p == q included), or if
  /// gcd(n, lambda) != 1 — every degenerate input is rejected here, before
  /// any modular inverse is attempted.
  PrivateKey(const BigUint& p, const BigUint& q);

  [[nodiscard]] const PublicKey& public_key() const { return pub_; }
  [[nodiscard]] const BigUint& p() const { return p_; }
  [[nodiscard]] const BigUint& q() const { return q_; }

  /// Key-holder encryption: draws r exactly as PublicKey::encrypt does
  /// (same helper, same stream consumption), computes r^n mod p^2 and
  /// r^n mod q^2 as two parallel_for halves, recombines them mod n^2 and
  /// multiplies by 1 + m*n. Each half starts with a half-width
  /// exponentiation mod p (resp. q) and lifts the result to p^2 (see
  /// paillier.cpp), which relies on p and q being prime, as
  /// Keypair::generate makes them. The result is the same integer as the
  /// public path's, so ciphertexts are byte-identical for the same stream —
  /// but no exponentiation runs modulo n^2. Counted under the
  /// dubhe_paillier_encrypt_*{mode="plain"} series.
  /// The two halves run inline below kParallelKeyBitsCutoff and inside an
  /// enclosing parallel region (a vector encrypt pools its items instead).
  /// Throws std::out_of_range unless m < n.
  [[nodiscard]] Ciphertext encrypt(const BigUint& m, bigint::EntropySource& rng) const;
  /// CRT decryption of every ciphertext in `cts`, in order. All are
  /// range-checked first (std::out_of_range if one is not below n^2, before
  /// any work starts); then the 2 * cts.size() CRT halves run as one
  /// parallel_for over every worker (inline below kParallelKeyBitsCutoff or
  /// inside an enclosing parallel region), and each pair is recombined on
  /// the caller. Adds cts.size() to dubhe_paillier_decrypt_total and one
  /// observation per call to dubhe_paillier_decrypt_seconds.
  [[nodiscard]] std::vector<BigUint> decrypt(std::span<const Ciphertext> cts) const;
  /// One-ciphertext decrypt: the span decrypt's n = 1 case.
  [[nodiscard]] BigUint decrypt(const Ciphertext& ct) const;
  /// Textbook decryption: L(c^lambda mod n^2) * mu mod n.
  [[nodiscard]] BigUint decrypt_textbook(const Ciphertext& ct) const;

 private:
  [[nodiscard]] static BigUint l_function(const BigUint& x, const BigUint& d);

  PublicKey pub_;
  BigUint p_, q_;
  BigUint p_sq_, q_sq_;
  BigUint hp_, hq_;      // CRT decryption helpers
  BigUint q_inv_p_;      // q^{-1} mod p, for CRT recombination
  // Key-holder encryption: n mod (p-1) and n mod (q-1) (the Fermat-reduced
  // exponents of the half-width step), and (q^2)^{-1} mod p^2 to recombine.
  BigUint n_mod_p1_, n_mod_q1_;
  BigUint qsq_inv_p2_;
  BigUint lambda_, mu_;  // textbook route
  std::shared_ptr<const bigint::Montgomery> mont_p2_, mont_q2_;
  std::shared_ptr<const bigint::Montgomery> mont_p_, mont_q_;
};

/// Key pair generation parameters and result.
struct Keypair {
  PublicKey pub;
  PrivateKey prv;

  /// Generates a key with an exactly `key_bits`-bit modulus n = p*q
  /// (p, q random primes of key_bits/2 bits). The paper's configuration is
  /// key_bits = 2048.
  static Keypair generate(bigint::EntropySource& rng, std::size_t key_bits);
};

/// Serialization — length-prefixed big-endian magnitudes. These byte layouts
/// are what the FL channel layer counts when reporting communication volume.
/// Key material framing: a 1-byte tag ('P' public / 'S' secret) followed by
/// length-prefixed components (n for public keys; p then q for private
/// keys — everything else is recomputed on load).
std::vector<std::uint8_t> serialize(const Ciphertext& ct, const PublicKey& pk);
Ciphertext deserialize_ciphertext(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> serialize(const PublicKey& pk);
PublicKey deserialize_public_key(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> serialize(const PrivateKey& prv);
PrivateKey deserialize_private_key(std::span<const std::uint8_t> bytes);

/// Advancing variants for keys embedded inside larger payloads (the
/// per-slot 'V' vector form, net key-material frames): parse the key at
/// the front of `bytes` and move the span past its canonical encoding, so
/// callers never re-measure the field layout themselves.
PublicKey deserialize_public_key_prefix(std::span<const std::uint8_t>& bytes);
PrivateKey deserialize_private_key_prefix(std::span<const std::uint8_t>& bytes);

/// Exact byte counts of serialize() for key material, without building the
/// bytes — the basis of the exact channel accounting.
std::size_t serialized_size(const PublicKey& pk);
std::size_t serialized_size(const PrivateKey& prv);

}  // namespace dubhe::he
