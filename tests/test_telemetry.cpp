// The telemetry subsystem's own contract (src/core/telemetry.hpp):
// counters/histograms stay exact across threads (this suite runs in the
// TSan CI leg — the relaxed atomics must be clean there), Span scopes
// nest and land in the bounded trace ring, and the Prometheus exposition
// is byte-stable. Golden tests use a local Registry so the
// global registry's live instrumentation cannot perturb exact strings.

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/telemetry.hpp"

namespace dubhe {
namespace {

namespace tel = telemetry;

/// Every test runs with collection on and leaves the process exactly as it
/// found it: collection off, tracing off, global registry zeroed.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { tel::set_enabled(true); }
  void TearDown() override {
    tel::set_enabled(false);
    tel::set_trace_enabled(false);
    tel::reset_all();
  }
};

TEST_F(TelemetryTest, CounterMergesExactlyAcrossFourThreads) {
  tel::Registry reg;
  tel::Counter& c = reg.counter("t_total");
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : pool) th.join();
  // Sharded relaxed adds merge on read with no lost updates: the sum is
  // exact, not approximate.
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(TelemetryTest, HistogramMergesExactlyAcrossFourThreads) {
  tel::Registry reg;
  tel::Histogram& h = reg.histogram("t_seconds");
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(0.01);
    });
  }
  for (auto& th : pool) th.join();
  const tel::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  // 0.01s sits in the le=1e-2 decade bucket of kLatencyBuckets (index 4),
  // and every observation landed there.
  ASSERT_EQ(s.counts.size(), tel::kLatencyBuckets.size() + 1);
  EXPECT_EQ(s.counts[4], kThreads * kPerThread);
  // Sum accumulates as integer nanoseconds: 0.01s == 10^7 ns exactly, so
  // the merged total is exact too.
  EXPECT_DOUBLE_EQ(s.sum,
                   static_cast<double>(kThreads * kPerThread) * 1e7 * 1e-9);
}

TEST_F(TelemetryTest, DisabledSitesRecordNothing) {
  tel::Registry reg;
  tel::Counter& c = reg.counter("t_total");
  tel::Histogram& h = reg.histogram("t_seconds");
  tel::set_enabled(false);
  c.inc(100);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  tel::set_enabled(true);
  c.inc(100);
  EXPECT_EQ(c.value(), 100u);
}

TEST_F(TelemetryTest, PrometheusGolden) {
  tel::Registry reg;
  reg.counter("dubhe_test_total{phase=\"a\"}").inc(3);
  reg.counter("dubhe_test_total{phase=\"b\"}").inc(5);
  reg.gauge("dubhe_test_gauge").set(-2);
  const std::array<double, 2> bounds{0.001, 1.0};
  tel::Histogram& h = reg.histogram("dubhe_test_seconds", bounds);
  h.observe(0.0005);
  h.observe(0.5);
  h.observe(2.0);
  EXPECT_EQ(reg.render_prometheus(),
            "# TYPE dubhe_test_gauge gauge\n"
            "dubhe_test_gauge -2\n"
            "# TYPE dubhe_test_seconds histogram\n"
            "dubhe_test_seconds_bucket{le=\"0.001\"} 1\n"
            "dubhe_test_seconds_bucket{le=\"1\"} 2\n"
            "dubhe_test_seconds_bucket{le=\"+Inf\"} 3\n"
            "dubhe_test_seconds_sum 2.5005\n"
            "dubhe_test_seconds_count 3\n"
            "# TYPE dubhe_test_total counter\n"
            "dubhe_test_total{phase=\"a\"} 3\n"
            "dubhe_test_total{phase=\"b\"} 5\n");
}

TEST_F(TelemetryTest, RegistryRejectsKindMismatch) {
  tel::Registry reg;
  reg.counter("t_metric");
  EXPECT_THROW(reg.gauge("t_metric"), std::logic_error);
  EXPECT_THROW(reg.histogram("t_metric"), std::logic_error);
  // Find-or-register of the same kind returns the same series.
  tel::Counter& a = reg.counter("t_metric");
  tel::Counter& b = reg.counter("t_metric");
  EXPECT_EQ(&a, &b);
}

TEST_F(TelemetryTest, ResetZeroesInPlaceAndKeepsReferencesValid) {
  tel::Registry reg;
  tel::Counter& c = reg.counter("t_total");
  tel::Histogram& h = reg.histogram("t_seconds");
  c.inc(7);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  // The reference from before the reset is still the registered series.
  c.inc(2);
  EXPECT_EQ(reg.counter("t_total").value(), 2u);
}

TEST_F(TelemetryTest, SpanNestingRecordsDepthAndContainment) {
  tel::set_trace_enabled(true);
  tel::trace_clear();
  {
    tel::Span outer("outer");
    {
      tel::Span inner("inner");
    }
  }
  const std::vector<tel::TraceEvent> events = tel::trace_events();
  // Spans record at destruction: inner closes first.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].depth, 0u);
  // The inner interval nests inside the outer one.
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us, events[1].ts_us + events[1].dur_us);
}

TEST_F(TelemetryTest, SpanFeedsHistogramWithoutTracing) {
  tel::Registry reg;
  tel::Histogram& h = reg.histogram("t_phase_seconds");
  {
    tel::Span span("phase", &h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_TRUE(tel::trace_events().empty());  // tracing stayed off
}

TEST_F(TelemetryTest, TraceRingIsBoundedAndKeepsTheNewestWindow) {
  tel::set_trace_enabled(true);
  tel::trace_clear();
  const std::size_t cap = tel::trace_capacity();
  for (std::size_t i = 0; i < 7; ++i) {
    tel::Span span("old");
  }
  for (std::size_t i = 0; i < cap; ++i) {
    tel::Span span("new");
  }
  const std::vector<tel::TraceEvent> events = tel::trace_events();
  ASSERT_EQ(events.size(), cap);  // bounded: the 7 oldest were overwritten
  EXPECT_STREQ(events.front().name, "new");
  EXPECT_STREQ(events.back().name, "new");
  // Chronological: timestamps never go backwards within the window.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
  tel::trace_clear();
  EXPECT_TRUE(tel::trace_events().empty());
}

TEST_F(TelemetryTest, ChromeTraceRenderIsWellFormed) {
  tel::set_trace_enabled(true);
  tel::trace_clear();
  {
    tel::Span span("render_me");
  }
  const std::string json = tel::render_chrome_trace();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"render_me\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace dubhe
