#include "core/cpu.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if defined(__linux__)
#include <sys/epoll.h>
#include <unistd.h>
#endif

namespace dubhe::core::cpu {

namespace {

#if defined(__x86_64__) || defined(__i386__)

/// XGETBV(0): which register files the OS restores on context switch. A
/// cpuid AVX bit without the matching XCR0 bits means the instructions
/// exist but their upper state is not preserved — using them would corrupt
/// data, so such features count as absent.
std::uint64_t read_xcr0() {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

std::uint32_t detect_cpu() {
  std::uint32_t mask = 0;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return 0;
  if ((ecx & bit_SSE4_1) != 0) mask |= kSse41;
  if ((ecx & bit_SSE4_2) != 0) mask |= kSse42;
  if ((ecx & bit_PCLMUL) != 0) mask |= kPclmul;

  const bool osxsave = (ecx & bit_OSXSAVE) != 0;
  const std::uint64_t xcr0 = osxsave ? read_xcr0() : 0;
  const bool ymm_ok = (xcr0 & 0x6) == 0x6;           // XMM + YMM state
  const bool zmm_ok = (xcr0 & 0xE6) == 0xE6;         // + opmask/ZMM state
  if ((ecx & bit_FMA) != 0 && ymm_ok) mask |= kFma;

  unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
  if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) != 0) {
    if ((ebx7 & bit_AVX2) != 0 && ymm_ok) mask |= kAvx2;
    if ((ebx7 & bit_AVX512F) != 0 && zmm_ok) mask |= kAvx512f;
    // General-purpose-register instructions: no OS state to check.
    if ((ebx7 & bit_BMI2) != 0) mask |= kBmi2;
    if ((ebx7 & bit_ADX) != 0) mask |= kAdx;
  }
  return mask;
}

#else

std::uint32_t detect_cpu() { return 0; }

#endif  // x86

std::uint32_t detect_os() {
  std::uint32_t mask = 0;
#if defined(__linux__)
  // Probe, don't assume: a binary built on Linux can run under emulation
  // layers where epoll_create1 is stubbed to fail.
  const int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd >= 0) {
    ::close(fd);
    mask |= kEpoll;
  }
#endif
  return mask;
}

struct Token {
  const char* name;
  std::uint32_t bit;
};

constexpr Token kTokens[] = {
    {"sse4.1", kSse41}, {"sse4.2", kSse42},   {"pclmul", kPclmul}, {"fma", kFma},
    {"avx2", kAvx2},    {"avx512f", kAvx512f}, {"avx512", kAvx512f}, {"bmi2", kBmi2},
    {"adx", kAdx},      {"epoll", kEpoll},
};

bool token_equals(const char* tok, std::size_t len, const char* name) {
  if (std::strlen(name) != len) return false;
  for (std::size_t i = 0; i < len; ++i) {
    const char c = tok[i] >= 'A' && tok[i] <= 'Z' ? static_cast<char>(tok[i] + 32) : tok[i];
    if (c != name[i]) return false;
  }
  return true;
}

/// The process-wide enabled set. Resolved exactly once (detection + the
/// DUBHE_CPU environment override); set_enabled swaps it afterwards.
std::atomic<std::uint32_t> g_enabled{0};
std::atomic<bool> g_resolved{false};

std::uint32_t resolve_enabled() {
  // Benign race: concurrent first calls compute the same value.
  if (!g_resolved.load(std::memory_order_acquire)) {
    const std::uint32_t mask = parse_feature_list(std::getenv("DUBHE_CPU"), detected());
    g_enabled.store(mask, std::memory_order_relaxed);
    g_resolved.store(true, std::memory_order_release);
  }
  return g_enabled.load(std::memory_order_relaxed);
}

}  // namespace

std::uint32_t detected() {
  static const std::uint32_t mask = detect_cpu() | detect_os();
  return mask;
}

std::uint32_t enabled() { return resolve_enabled(); }

bool has(Feature f) { return (enabled() & f) != 0; }

std::uint32_t set_enabled(std::uint32_t mask) {
  const std::uint32_t prev = resolve_enabled();
  g_enabled.store(mask & detected(), std::memory_order_relaxed);
  return prev;
}

std::uint32_t parse_feature_list(const char* value, std::uint32_t detected_mask) {
  if (value == nullptr || *value == '\0') return detected_mask;
  if (token_equals(value, std::strlen(value), "native")) return detected_mask;
  if (token_equals(value, std::strlen(value), "portable")) return 0;
  std::uint32_t mask = 0;
  const char* p = value;
  while (*p != '\0') {
    while (*p == ',' || *p == ' ') ++p;
    const char* start = p;
    while (*p != '\0' && *p != ',' && *p != ' ') ++p;
    const std::size_t len = static_cast<std::size_t>(p - start);
    if (len == 0) continue;
    bool known = false;
    for (const Token& t : kTokens) {
      if (token_equals(start, len, t.name)) {
        mask |= t.bit;
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "dubhe: DUBHE_CPU: ignoring unknown capability \"%.*s\"\n",
                   static_cast<int>(len), start);
    }
  }
  return mask & detected_mask;
}

std::string to_string(std::uint32_t mask) {
  if (mask == 0) return "portable";
  std::string out;
  for (const Token& t : kTokens) {
    if (std::strcmp(t.name, "avx512") == 0) continue;  // alias, skip in output
    if ((mask & t.bit) != 0) {
      if (!out.empty()) out += ' ';
      out += t.name;
      mask &= ~t.bit;  // avx512f printed once even with the alias bit set
    }
  }
  return out;
}

std::string feature_string() { return to_string(enabled()); }

}  // namespace dubhe::core::cpu
