// core::cpu is the dispatch authority for every tiered kernel in the tree
// (CRC32, GEMM, Montgomery rows, the event-loop backend), so its parsing and clamping rules
// are load-bearing: a mis-parsed DUBHE_CPU must degrade to *fewer*
// capabilities, never conjure one the machine lacks.

#include <gtest/gtest.h>

#include "core/cpu.hpp"

namespace dubhe::core {
namespace {

constexpr std::uint32_t kAll = cpu::kSse41 | cpu::kSse42 | cpu::kPclmul | cpu::kFma |
                               cpu::kAvx2 | cpu::kAvx512f | cpu::kBmi2 | cpu::kAdx |
                               cpu::kEpoll;

TEST(CpuParse, KeywordsAndDefaults) {
  // Unset / empty / "native" all mean "whatever the machine offers".
  EXPECT_EQ(cpu::parse_feature_list(nullptr, kAll), kAll);
  EXPECT_EQ(cpu::parse_feature_list("", kAll), kAll);
  EXPECT_EQ(cpu::parse_feature_list("native", kAll), kAll);
  EXPECT_EQ(cpu::parse_feature_list("NATIVE", kAll), kAll);
  EXPECT_EQ(cpu::parse_feature_list("portable", kAll), 0u);
  EXPECT_EQ(cpu::parse_feature_list("Portable", kAll), 0u);
}

TEST(CpuParse, ExplicitListsAreCaseInsensitiveAndClamped) {
  EXPECT_EQ(cpu::parse_feature_list("sse4.2,pclmul", kAll),
            cpu::kSse42 | cpu::kPclmul);
  EXPECT_EQ(cpu::parse_feature_list("SSE4.2, PCLMUL", kAll),
            cpu::kSse42 | cpu::kPclmul);
  EXPECT_EQ(cpu::parse_feature_list("avx2 fma epoll", kAll),
            cpu::kAvx2 | cpu::kFma | cpu::kEpoll);
  EXPECT_EQ(cpu::parse_feature_list("bmi2,adx", kAll), cpu::kBmi2 | cpu::kAdx);
  EXPECT_EQ(cpu::parse_feature_list("ADX BMI2 pclmul", kAll),
            cpu::kAdx | cpu::kBmi2 | cpu::kPclmul);
  // "avx512" is an accepted alias for avx512f.
  EXPECT_EQ(cpu::parse_feature_list("avx512", kAll), cpu::kAvx512f);
  // A listed capability the machine lacks stays off: clamped to detected.
  EXPECT_EQ(cpu::parse_feature_list("avx2,pclmul", cpu::kPclmul), cpu::kPclmul);
  EXPECT_EQ(cpu::parse_feature_list("avx2", 0), 0u);
  EXPECT_EQ(cpu::parse_feature_list("bmi2,adx", cpu::kBmi2), cpu::kBmi2);
}

TEST(CpuParse, UnknownTokensAreIgnoredNotFatal) {
  // Warns on stderr, keeps the known part — a typo narrows, never widens.
  EXPECT_EQ(cpu::parse_feature_list("pclmul,quantum", kAll), cpu::kPclmul);
  EXPECT_EQ(cpu::parse_feature_list("quantum", kAll), 0u);
  EXPECT_EQ(cpu::parse_feature_list(",, ,", kAll), 0u);  // only separators
}

TEST(CpuToString, RoundTripsThroughParse) {
  EXPECT_EQ(cpu::to_string(0), "portable");
  EXPECT_EQ(cpu::to_string(cpu::kSse42 | cpu::kPclmul), "sse4.2 pclmul");
  EXPECT_EQ(cpu::to_string(cpu::kBmi2 | cpu::kAdx), "bmi2 adx");
  EXPECT_EQ(cpu::to_string(kAll), "sse4.1 sse4.2 pclmul fma avx2 avx512f bmi2 adx epoll");
  // Every printable mask parses back to itself.
  for (std::uint32_t mask = 0; mask <= kAll; ++mask) {
    EXPECT_EQ(cpu::parse_feature_list(cpu::to_string(mask).c_str(), kAll), mask)
        << cpu::to_string(mask);
  }
}

TEST(CpuEnabled, SetEnabledClampsToDetectedAndRestores) {
  const std::uint32_t det = cpu::detected();
  const std::uint32_t before = cpu::enabled();
  EXPECT_EQ(before & ~det, 0u);  // enabled is always a subset of detected

  const std::uint32_t prev = cpu::set_enabled(kAll);
  EXPECT_EQ(prev, before);
  EXPECT_EQ(cpu::enabled(), det);  // clamped: cannot enable what isn't there

  cpu::set_enabled(0);
  EXPECT_EQ(cpu::enabled(), 0u);
  EXPECT_FALSE(cpu::has(cpu::kEpoll));

  cpu::set_enabled(before);
  EXPECT_EQ(cpu::enabled(), before);
}

TEST(CpuEnabled, FeatureStringMatchesEnabledMask) {
  EXPECT_EQ(cpu::feature_string(), cpu::to_string(cpu::enabled()));
}

}  // namespace
}  // namespace dubhe::core
