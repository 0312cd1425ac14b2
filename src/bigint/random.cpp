#include "bigint/random.hpp"

#include <bit>
#include <cstdio>
#include <stdexcept>

namespace dubhe::bigint {

std::uint64_t SplitMix64::next_u64() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::unique_ptr<EntropySource> SplitMix64::clone() const {
  return std::make_unique<SplitMix64>(*this);
}

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next_u64();
}

Xoshiro256ss::Xoshiro256ss(const std::array<std::uint64_t, 4>& state) : s_(state) {
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    SplitMix64 sm(0);
    for (auto& word : s_) word = sm.next_u64();
  }
}

std::uint64_t Xoshiro256ss::next_u64() {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::unique_ptr<EntropySource> Xoshiro256ss::clone() const {
  return std::make_unique<Xoshiro256ss>(*this);
}

double Xoshiro256ss::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Xoshiro256ss::next_below(std::uint64_t bound) {
  // Lemire's unbiased bounded generation with rejection. The widening
  // multiply goes through the limb primitives so this stays portable on
  // compilers without __int128.
  if (bound == 0) throw std::invalid_argument("next_below: zero bound");
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const LimbPair m = mul_wide(next_u64(), bound);
    if (m.lo >= threshold) return m.hi;
  }
}

std::uint64_t SystemEntropySource::next_u64() {
  static thread_local std::FILE* urandom = std::fopen("/dev/urandom", "rb");
  if (urandom == nullptr) throw std::runtime_error("cannot open /dev/urandom");
  std::uint64_t v = 0;
  if (std::fread(&v, sizeof(v), 1, urandom) != 1) {
    throw std::runtime_error("short read from /dev/urandom");
  }
  return v;
}

std::unique_ptr<EntropySource> SystemEntropySource::clone() const {
  return std::make_unique<SystemEntropySource>();
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) {
  SplitMix64 sm(master ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return sm.next_u64();
}

BigUint random_bits(EntropySource& rng, std::size_t bits) {
  if (bits == 0) return BigUint{};
  // One generator word per 64-bit limb, imported directly — no byte
  // round-trip. The first word drawn is the most significant limb; excess
  // high bits beyond `bits` are dropped from it.
  const std::size_t words = (bits + 63) / 64;
  std::vector<std::uint64_t> limbs(words);
  for (std::size_t w = 0; w < words; ++w) limbs[words - 1 - w] = rng.next_u64();
  const std::size_t excess = words * 64 - bits;
  if (excess > 0) limbs[words - 1] >>= excess;
  return BigUint::from_limbs_le(limbs);
}

BigUint random_exact_bits(EntropySource& rng, std::size_t bits) {
  if (bits == 0) return BigUint{};
  BigUint r = random_bits(rng, bits);
  // Force the top bit so the value has exactly `bits` significant bits.
  BigUint top = BigUint::pow2(bits - 1);
  if (r < top) r += top;
  return r;
}

BigUint random_below(EntropySource& rng, const BigUint& n) {
  if (n.is_zero()) throw std::invalid_argument("random_below: zero bound");
  const std::size_t bits = n.bit_length();
  for (;;) {
    BigUint r = random_bits(rng, bits);
    if (r < n) return r;
  }
}

}  // namespace dubhe::bigint
