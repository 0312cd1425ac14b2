// Micro-benchmarks (google-benchmark) for the cryptographic substrate:
// bigint primitives, Montgomery exponentiation, Paillier operations, and
// the packed-versus-per-slot registry encryption ablation. These quantify
// the constants behind §6.4's wall-clock numbers.

#include <benchmark/benchmark.h>
#if defined(DUBHE_GMP_FOUND)
#include <gmp.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "bigint/montgomery.hpp"
#include "bigint/prime.hpp"
#include "core/cpu.hpp"
#include "core/parallel.hpp"
#include "core/selective.hpp"
#include "core/telemetry.hpp"
#include "paillier/encrypted_vector.hpp"
#include "paillier/packing.hpp"

using namespace dubhe;
using bigint::BigUint;

namespace {

BigUint odd_random(bigint::EntropySource& rng, std::size_t bits) {
  BigUint m = bigint::random_exact_bits(rng, bits);
  if (!m.is_odd()) m += BigUint{1};
  return m;
}

void BM_BigUintMul(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(bits);
  const BigUint a = bigint::random_exact_bits(rng, bits);
  const BigUint b = bigint::random_exact_bits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigUintMul)->Arg(512)->Arg(2048)->Arg(8192);

void BM_BigUintDivmod(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(bits + 1);
  const BigUint a = bigint::random_exact_bits(rng, 2 * bits);
  const BigUint b = bigint::random_exact_bits(rng, bits);
  BigUint q, r;
  for (auto _ : state) {
    BigUint::divmod(a, b, q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigUintDivmod)->Arg(512)->Arg(2048)->Arg(4096);

void BM_MontgomeryPow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(bits + 2);
  const BigUint m = odd_random(rng, bits);
  const bigint::Montgomery ctx(m);
  const BigUint base = bigint::random_below(rng, m);
  const BigUint exp = bigint::random_exact_bits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.pow(base, exp));
  }
}
BENCHMARK(BM_MontgomeryPow)->Arg(1024)->Arg(2048)->Arg(4096)->Unit(benchmark::kMillisecond);

/// Session-shape operands shared by the Montgomery and mpz_powm rows, so
/// both raise the same base to the same exponent modulo the same modulus.
struct PowShape {
  BigUint m, base, exp;
};

PowShape pow_shape(std::size_t mod_bits, std::size_t exp_bits) {
  bigint::Xoshiro256ss rng(mod_bits * 3 + exp_bits);
  PowShape shape;
  shape.m = odd_random(rng, mod_bits);
  shape.base = bigint::random_below(rng, shape.m);
  shape.exp = bigint::random_exact_bits(rng, exp_bits);
  return shape;
}

void BM_MontgomeryPowSessionShape(benchmark::State& state) {
  // Modulus bits x exponent bits as a 2048-bit-key session runs them:
  // 1024/1024 is the key-holder encrypt half (r^n mod p) and a Miller-Rabin
  // round at keygen; 2048/1024 is a CRT decrypt half (mod p^2) and the
  // encrypt lift. The third argument is the row tier (0 = portable,
  // 1 = adx); the context is built with BMI2/ADX masked for the portable
  // leg, and the ADX leg is skipped where the host or DUBHE_CPU lacks them.
  const PowShape shape = pow_shape(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)));
  const auto tier = static_cast<bigint::RowTier>(state.range(2));
  std::uint32_t prev = core::cpu::enabled();
  if (tier == bigint::RowTier::kPortable) {
    prev = core::cpu::set_enabled(prev & ~(core::cpu::kBmi2 | core::cpu::kAdx));
  }
  const bigint::Montgomery ctx(shape.m);
  core::cpu::set_enabled(prev);
  if (ctx.row_tier() != tier) {
    state.SkipWithError("row tier not enabled on this host");
    return;
  }
  state.SetLabel(bigint::to_string(tier));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.pow(shape.base, shape.exp));
  }
}
BENCHMARK(BM_MontgomeryPowSessionShape)
    ->ArgNames({"mod", "exp", "tier"})
    ->Args({1024, 1024, 1})
    ->Args({1024, 1024, 0})
    ->Args({2048, 1024, 1})
    ->Args({2048, 1024, 0})
    ->Unit(benchmark::kMillisecond);

#if defined(DUBHE_GMP_FOUND)
void BM_MpzPowmSessionShape(benchmark::State& state) {
  // GMP's mpz_powm on BM_MontgomeryPowSessionShape's operands: the yardstick
  // the per-tier rows are read against, measured in the same process.
  const PowShape shape = pow_shape(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)));
  mpz_t m, base, exp, out;
  mpz_init_set_str(m, shape.m.to_hex().c_str(), 16);
  mpz_init_set_str(base, shape.base.to_hex().c_str(), 16);
  mpz_init_set_str(exp, shape.exp.to_hex().c_str(), 16);
  mpz_init(out);
  for (auto _ : state) {
    mpz_powm(out, base, exp, m);
    benchmark::DoNotOptimize(out);
  }
  mpz_clears(m, base, exp, out, nullptr);
}
BENCHMARK(BM_MpzPowmSessionShape)
    ->ArgNames({"mod", "exp"})
    ->Args({1024, 1024})
    ->Args({2048, 1024})
    ->Unit(benchmark::kMillisecond);
#endif

void BM_GenericPowModEvenModulus(benchmark::State& state) {
  // The non-Montgomery fallback, for contrast with BM_MontgomeryPow.
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(bits + 3);
  BigUint m = bigint::random_exact_bits(rng, bits);
  if (m.is_odd()) m += BigUint{1};
  const BigUint base = bigint::random_below(rng, m);
  const BigUint exp = bigint::random_exact_bits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.pow_mod(exp, m));
  }
}
BENCHMARK(BM_GenericPowModEvenModulus)->Arg(1024)->Unit(benchmark::kMillisecond);

const he::Keypair& keypair(std::size_t bits) {
  static std::map<std::size_t, he::Keypair>* cache = new std::map<std::size_t, he::Keypair>();
  auto it = cache->find(bits);
  if (it == cache->end()) {
    bigint::Xoshiro256ss rng(bits * 31);
    it = cache->emplace(bits, he::Keypair::generate(rng, bits)).first;
  }
  return it->second;
}

void BM_PaillierEncrypt(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const he::Keypair& kp = keypair(bits);
  bigint::Xoshiro256ss rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.encrypt(BigUint{1}, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_PaillierDecryptCrt(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const he::Keypair& kp = keypair(bits);
  bigint::Xoshiro256ss rng(6);
  const he::Ciphertext ct = kp.pub.encrypt(BigUint{123456}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.prv.decrypt(ct));
  }
}
BENCHMARK(BM_PaillierDecryptCrt)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_PaillierDecryptTextbook(benchmark::State& state) {
  // CRT-vs-textbook decryption ablation.
  const auto bits = static_cast<std::size_t>(state.range(0));
  const he::Keypair& kp = keypair(bits);
  bigint::Xoshiro256ss rng(7);
  const he::Ciphertext ct = kp.pub.encrypt(BigUint{123456}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.prv.decrypt_textbook(ct));
  }
}
BENCHMARK(BM_PaillierDecryptTextbook)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_HomomorphicAdd(benchmark::State& state) {
  const he::Keypair& kp = keypair(2048);
  bigint::Xoshiro256ss rng(8);
  const he::Ciphertext a = kp.pub.encrypt(BigUint{1}, rng);
  const he::Ciphertext b = kp.pub.encrypt(BigUint{2}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.add(a, b));
  }
}
BENCHMARK(BM_HomomorphicAdd);

/// The secure-update-tcp update shape: a 2048-bit key, 19-bit slots
/// (core::update_slot_bits(4)) and 1,381 quantized values, so 13 packed
/// ciphertexts — what one client encrypts and the agent decrypts per round.
struct UpdateShape {
  const he::Keypair& kp = keypair(2048);
  const he::PackedCodec codec{kp.pub.key_bits() - 1, core::update_slot_bits(4)};
  std::vector<std::uint64_t> values = std::vector<std::uint64_t>(1381, 0x2AAAA);
};

void BM_PackedUpdateEncrypt(benchmark::State& state) {
  // The client's key-holder encrypt: 13 items pooled over the runtime.
  const UpdateShape shape;
  bigint::Xoshiro256ss rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        he::PackedEncryptedVector::encrypt(shape.kp.prv, shape.codec, shape.values, rng));
  }
  state.counters["ciphertexts"] =
      static_cast<double>(shape.codec.plaintexts_for(shape.values.size()));
}
BENCHMARK(BM_PackedUpdateEncrypt)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PackedUpdateDecrypt(benchmark::State& state) {
  // The agent's decrypt of the update sum: 26 CRT halves pooled.
  const UpdateShape shape;
  bigint::Xoshiro256ss rng(12);
  const auto sum =
      he::PackedEncryptedVector::encrypt(shape.kp.prv, shape.codec, shape.values, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum.decrypt(shape.kp.prv));
  }
  state.counters["ciphertexts"] = static_cast<double>(sum.ciphertext_count());
}
BENCHMARK(BM_PackedUpdateDecrypt)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RegistryEncryptPerSlot(benchmark::State& state) {
  // One 56-slot registry, one ciphertext per slot (the paper's layout).
  const he::Keypair& kp = keypair(512);
  bigint::Xoshiro256ss rng(9);
  std::vector<std::uint64_t> registry(56, 0);
  registry[17] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(he::EncryptedVector::encrypt(kp.pub, registry, rng));
  }
  state.counters["bytes"] = static_cast<double>(56 * (4 + kp.pub.ciphertext_bytes()));
}
BENCHMARK(BM_RegistryEncryptPerSlot)->Unit(benchmark::kMillisecond);

void BM_RegistryEncryptPacked(benchmark::State& state) {
  // Same registry packed into a single ciphertext (BatchCrypt-style).
  const he::Keypair& kp = keypair(512);
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 8);
  bigint::Xoshiro256ss rng(10);
  std::vector<std::uint64_t> registry(56, 0);
  registry[17] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        he::PackedEncryptedVector::encrypt(kp.pub, codec, registry, rng));
  }
  state.counters["bytes"] =
      static_cast<double>(codec.plaintexts_for(56) * (4 + kp.pub.ciphertext_bytes()));
}
BENCHMARK(BM_RegistryEncryptPacked)->Unit(benchmark::kMillisecond);

void BM_MillerRabin(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(11);
  const BigUint p = bigint::random_prime(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bigint::is_probable_prime(p, rng, 8));
  }
}
BENCHMARK(BM_MillerRabin)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

// Key generation as the agent runs it at session setup: the prime search's
// Miller–Rabin rounds run on the shared pool, so the rows are wall time.
// Each iteration searches from the next seed, so a row averages the
// search-length spread over many seeds.
void BM_RandomPrime(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    bigint::Xoshiro256ss rng(++seed);
    benchmark::DoNotOptimize(bigint::random_prime(rng, bits));
  }
}
BENCHMARK(BM_RandomPrime)->Arg(1024)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_KeypairGenerate(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    bigint::Xoshiro256ss rng(++seed);
    benchmark::DoNotOptimize(he::Keypair::generate(rng, bits));
  }
}
BENCHMARK(BM_KeypairGenerate)->Arg(2048)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Times `fn` until ~0.5 s has elapsed and returns seconds per call.
template <typename F>
double time_op(F&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up
  int iters = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < 0.5);
  return elapsed / iters;
}

/// Headline per-operation throughput at the paper's deployment key size,
/// printed before the google-benchmark suite. This is the table CHANGES.md
/// records as the perf baseline across PRs.
void print_ops_table() {
  constexpr std::size_t kKeyBits = 2048;
  const he::Keypair& kp = keypair(kKeyBits);
  bigint::Xoshiro256ss rng(42);

  const BigUint m = odd_random(rng, kKeyBits);
  const bigint::Montgomery ctx(m);
  const BigUint base = bigint::random_below(rng, m);
  const BigUint exp = bigint::random_exact_bits(rng, kKeyBits);

  const he::Ciphertext ct_a = kp.pub.encrypt(BigUint{123456}, rng);
  const he::Ciphertext ct_b = kp.pub.encrypt(BigUint{654321}, rng);
  const BigUint scalar{0x1234567890abcdefULL};

  struct Row {
    const char* op;
    double sec;
  };
  const Row rows[] = {
      {"pow (2048-bit mod, 2048-bit exp)",
       time_op([&] { benchmark::DoNotOptimize(ctx.pow(base, exp)); })},
      {"paillier encrypt",
       time_op([&] { benchmark::DoNotOptimize(kp.pub.encrypt(BigUint{1}, rng)); })},
      // Same ciphertext as "paillier encrypt": r^n mod p^2 and mod q^2 on
      // two pool workers, for the parties that hold p and q.
      {"paillier encrypt (key-holder CRT)",
       time_op([&] { benchmark::DoNotOptimize(kp.prv.encrypt(BigUint{1}, rng)); })},
      {"paillier decrypt (CRT)",
       time_op([&] { benchmark::DoNotOptimize(kp.prv.decrypt(ct_a)); })},
      {"homomorphic add",
       time_op([&] { benchmark::DoNotOptimize(kp.pub.add(ct_a, ct_b)); })},
      {"mul_plain (64-bit scalar)",
       time_op([&] { benchmark::DoNotOptimize(kp.pub.mul_plain(ct_a, scalar)); })},
  };

  std::printf("cpu: %s | montgomery rows: %s\n", core::cpu::feature_string().c_str(),
              bigint::to_string(bigint::select_row_tier()));
  std::printf("== crypto substrate ops/sec (key_bits = %zu, runtime workers: %zu) ==\n",
              kKeyBits, core::ParallelRuntime::instance().worker_count());
  std::printf("%-36s %12s %12s\n", "operation", "ms/op", "ops/sec");
  for (const Row& row : rows) {
    std::printf("%-36s %12.3f %12.1f\n", row.op, row.sec * 1e3, 1.0 / row.sec);
  }
  std::printf("\n");
}

/// Batch-encryption throughput over the shared runtime: the serial loop
/// versus core::parallel_for over per-item encrypt (each item from its own
/// stream, like the vector forms) at 1/2/4/8 threads. Slot ops/sec
/// is the comparable unit (slots per second of a 32-slot vector). Thread
/// scaling tops out at the machine's core count — the table records
/// whatever this host offers.
void print_batch_table() {
  constexpr std::size_t kKeyBits = 2048;
  constexpr std::size_t kSlots = 32;
  const he::Keypair& kp = keypair(kKeyBits);
  bigint::Xoshiro256ss rng(43);

  const std::vector<std::uint64_t> values(kSlots, 123456);

  std::printf("== batch encrypt throughput (key_bits = %zu, %zu slots/vector) ==\n",
              kKeyBits, kSlots);
  std::printf("%-34s %8s %12s %12s\n", "mode", "threads", "ms/vector", "slots/sec");
  const auto report = [&](const char* mode, std::size_t threads, double sec) {
    std::printf("%-34s %8zu %12.2f %12.1f\n", mode, threads, sec * 1e3,
                static_cast<double>(kSlots) / sec);
  };

  report("serial loop", 1, time_op([&] {
           for (const std::uint64_t v : values) {
             benchmark::DoNotOptimize(kp.pub.encrypt(BigUint{v}, rng));
           }
         }));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    report("parallel_for over encrypt", threads, time_op([&] {
             std::vector<he::Ciphertext> cts(kSlots);
             core::parallel_for(kSlots, threads, [&](std::size_t i) {
               bigint::Xoshiro256ss stream(bigint::derive_seed(43, i));
               cts[i] = kp.pub.encrypt(BigUint{values[i]}, stream);
             });
             benchmark::DoNotOptimize(cts);
           }));
  }
  std::printf("(runtime workers: %zu)\n\n",
              core::ParallelRuntime::instance().worker_count());
}

/// The telemetry contract on the crypto hot path: the per-op counters and
/// histograms in paillier.cpp must cost <2% on a 2048-bit encrypt whether
/// collection is off (the default, one relaxed load) or on (sharded atomic
/// adds). One off/on pair cannot resolve 2% on a host that drifts more than
/// that between runs, so this times kPairs pairs, flipping which side runs
/// first in each, and prints the median per-pair ratio with its spread.
void print_telemetry_overhead_table() {
  constexpr std::size_t kKeyBits = 2048;
  constexpr std::size_t kPairs = 9;
  const he::Keypair& kp = keypair(kKeyBits);
  bigint::Xoshiro256ss rng(45);
  const auto encrypt_sec = [&](bool on) {
    telemetry::set_enabled(on);
    return time_op([&] { benchmark::DoNotOptimize(kp.pub.encrypt(BigUint{1}, rng)); });
  };

  const bool was_enabled = telemetry::enabled();
  std::vector<double> off(kPairs), on(kPairs), overhead(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    if (i % 2 == 0) {
      off[i] = encrypt_sec(false);
      on[i] = encrypt_sec(true);
    } else {
      on[i] = encrypt_sec(true);
      off[i] = encrypt_sec(false);
    }
    overhead[i] = (on[i] / off[i] - 1.0) * 100.0;
  }
  telemetry::set_enabled(was_enabled);

  // Quartiles of kPairs sorted samples (nearest rank).
  const auto quartiles = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return std::array<double, 3>{v[v.size() / 4], v[v.size() / 2], v[v.size() * 3 / 4]};
  };
  const auto q_off = quartiles(off);
  const auto q_on = quartiles(on);
  const auto q_over = quartiles(overhead);
  std::printf("== telemetry overhead on paillier encrypt (key_bits = %zu, %zu off/on pairs) ==\n",
              kKeyBits, kPairs);
  std::printf("%-36s %12s %12s\n", "mode", "median ms/op", "ops/sec");
  std::printf("%-36s %12.3f %12.1f\n", "encrypt, telemetry off", q_off[1] * 1e3,
              1.0 / q_off[1]);
  std::printf("%-36s %12.3f %12.1f\n", "encrypt, telemetry on", q_on[1] * 1e3,
              1.0 / q_on[1]);
  std::printf("%-36s %11.2f%% (IQR %.2f%% .. %.2f%%, min %.2f%%, max %.2f%%)\n",
              "overhead, median per-pair on/off", q_over[1], q_over[0], q_over[2],
              *std::min_element(overhead.begin(), overhead.end()),
              *std::max_element(overhead.begin(), overhead.end()));
  std::printf("\n");
}

/// Packed-versus-per-slot vector operations at the deployment key size:
/// encrypt, decrypt, and homomorphic add of one 63-logical-value vector
/// (what a 2048-bit key with 32-bit slots fits in a single ciphertext),
/// with per-logical-slot throughput and serialized bytes. This is the
/// ablation behind the wire-v3 packed-first default: same decrypted
/// values, ~1/63rd the ciphertext operations and bytes.
void print_packed_table() {
  constexpr std::size_t kKeyBits = 2048;
  constexpr std::size_t kSlotBits = 32;  // SecureConfig::packing_slot_bits default
  const he::Keypair& kp = keypair(kKeyBits);
  const he::PackedCodec codec(kp.pub.key_bits() - 1, kSlotBits);
  const std::size_t kLogical = codec.slots_per_plaintext();  // 63 at 2048/32
  bigint::Xoshiro256ss rng(44);

  std::vector<std::uint64_t> values(kLogical);
  for (std::size_t i = 0; i < kLogical; ++i) values[i] = 1000 + i;

  const auto plain_a = he::EncryptedVector::encrypt(kp.pub, values, rng);
  const auto plain_b = he::EncryptedVector::encrypt(kp.pub, values, rng);
  const auto packed_a = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng);
  const auto packed_b = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng);

  std::printf(
      "== packed vs per-slot vectors (key_bits = %zu, %zu logical values, "
      "%zu-bit slots) ==\n",
      kKeyBits, kLogical, kSlotBits);
  std::printf("%-28s %12s %14s %12s\n", "operation", "ms/vector", "logical/sec",
              "bytes");
  const auto report = [&](const char* op, double sec, std::size_t bytes) {
    std::printf("%-28s %12.3f %14.1f %12zu\n", op, sec * 1e3,
                static_cast<double>(kLogical) / sec, bytes);
  };

  const std::size_t plain_bytes = he::serialized_size(kp.pub, kLogical);
  const std::size_t packed_bytes = he::serialized_size(kp.pub, codec, kLogical);
  report("per-slot encrypt", time_op([&] {
           benchmark::DoNotOptimize(he::EncryptedVector::encrypt(kp.pub, values, rng));
         }),
         plain_bytes);
  report("packed encrypt", time_op([&] {
           benchmark::DoNotOptimize(
               he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng));
         }),
         packed_bytes);
  report("packed encrypt (key-holder)", time_op([&] {
           benchmark::DoNotOptimize(
               he::PackedEncryptedVector::encrypt(kp.prv, codec, values, rng));
         }),
         packed_bytes);
  report("per-slot decrypt",
         time_op([&] { benchmark::DoNotOptimize(plain_a.decrypt(kp.prv)); }),
         plain_bytes);
  report("packed decrypt",
         time_op([&] { benchmark::DoNotOptimize(packed_a.decrypt(kp.prv)); }),
         packed_bytes);
  report("per-slot homomorphic add", time_op([&] {
           he::EncryptedVector sum = plain_a;
           sum += plain_b;
           benchmark::DoNotOptimize(sum);
         }),
         plain_bytes);
  report("packed homomorphic add", time_op([&] {
           he::PackedEncryptedVector sum = packed_a;
           sum += packed_b;
           benchmark::DoNotOptimize(sum);
         }),
         packed_bytes);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Each headline table answers to a name that --benchmark_filter matches
  // the way it matches rows (a POSIX extended regex searched in the name, a
  // leading '-' negates): "table/telemetry" prints that table alone, and no
  // row matches it.
  struct Table {
    const char* name;
    void (*print)();
  };
  const Table tables[] = {
      {"table/ops", print_ops_table},
      {"table/telemetry", print_telemetry_overhead_table},
      {"table/batch", print_batch_table},
      {"table/packed", print_packed_table},
  };
  std::string filter = benchmark::GetBenchmarkFilter();
  if (filter.empty() || filter == "all") filter = ".";
  const bool negated = filter.front() == '-';
  const std::regex re(negated ? filter.substr(1) : filter, std::regex::extended);
  for (const Table& table : tables) {
    if (std::regex_search(table.name, re) != negated) table.print();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
