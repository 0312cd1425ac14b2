#pragma once

#include <cstdint>
#include <string>

// Runtime capability probe + dispatch facility. Sits at the very bottom of
// the stack (std-only, like core/parallel): any layer that owns multiple
// implementation tiers of the same kernel — the CRC32 tiers in net/wire,
// the GEMM backends in tensor/, the Montgomery row tiers in bigint/, the
// epoll-vs-poll event loop in net/tcp —
// asks *this* facility which tier to run, instead of trusting compile-time
// flags. A binary compiled with every tier still runs correctly on a
// machine (or under an operator policy) that has none of them.
//
// Capabilities are detected once: CPU features via cpuid (including the
// XGETBV check that the OS actually saves the wider register files), OS
// facilities by probing (epoll). The `DUBHE_CPU` environment variable
// narrows the detected set at startup:
//
//   DUBHE_CPU=portable            force the portable tier of everything
//                                 (slice-by-8 CRC, scalar GEMM, C
//                                 Montgomery rows, poll(2))
//   DUBHE_CPU=native              no restriction (the default)
//   DUBHE_CPU=sse4.2,pclmul      allow only the listed capabilities
//
// Tokens are case-insensitive; unknown tokens warn on stderr and are
// ignored (a typo must not silently change the tier under a benchmark).

namespace dubhe::core::cpu {

/// One bit per capability. CPU bits require both the cpuid flag and OS
/// support for the register state they imply; kEpoll is an OS facility
/// probed at startup (Linux only).
enum Feature : std::uint32_t {
  kSse41 = 1u << 0,
  kSse42 = 1u << 1,
  kPclmul = 1u << 2,
  kFma = 1u << 3,
  kAvx2 = 1u << 4,
  kAvx512f = 1u << 5,
  kEpoll = 1u << 6,
  kBmi2 = 1u << 7,  // mulx
  kAdx = 1u << 8,   // adcx / adox
};

/// What the machine offers: cpuid ∩ OS register-state support, plus probed
/// OS facilities. Cached on first call; independent of DUBHE_CPU.
[[nodiscard]] std::uint32_t detected();

/// What dispatch may use: detected() ∩ the DUBHE_CPU override (and any
/// later set_enabled). Every tier selection goes through this.
[[nodiscard]] std::uint32_t enabled();

[[nodiscard]] bool has(Feature f);

/// Test/bench hook: force the enabled set (clamped to detected() — a
/// capability the machine lacks can never be switched on). Returns the
/// previous set. Not synchronized with in-flight kernels: flip only
/// between operations, and restore what it returned.
std::uint32_t set_enabled(std::uint32_t mask);

/// Parses a DUBHE_CPU-style value against a detected set. Exposed for
/// tests; enabled() applies it to the real environment exactly once.
[[nodiscard]] std::uint32_t parse_feature_list(const char* value,
                                               std::uint32_t detected_mask);

/// "sse4.1 sse4.2 pclmul fma avx2 avx512f bmi2 adx epoll" for the given mask,
/// "portable" for an empty one.
[[nodiscard]] std::string to_string(std::uint32_t mask);

/// to_string(enabled()) — what benches print in their headers.
[[nodiscard]] std::string feature_string();

}  // namespace dubhe::core::cpu
