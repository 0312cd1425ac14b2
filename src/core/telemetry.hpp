#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dubhe::telemetry {

/// Out-of-band observability for the whole process: named counters, gauges
/// and fixed-bucket latency histograms in a process-wide registry, plus RAII
/// Span scopes feeding a bounded trace ring exportable as Chrome
/// `trace_event` JSON. Strictly read-only with respect to the protocol: no
/// instrumentation site touches an RNG stream, a payload byte, or a control
/// decision, so session transcripts are byte-identical with telemetry on or
/// off (asserted by tests/test_net_round.cpp).
///
/// Hot-path contract: every mutation is one relaxed atomic add on the
/// metric itself; reads load the same atomics. The processes that collect
/// run a handful of threads (a few clients, at most a couple of event-loop
/// workers, the parallel_for pool), so there is nothing to shard, and the
/// atomics keep every count exact and clean under ThreadSanitizer
/// (tests/test_telemetry.cpp runs in the TSan CI leg).
///
/// Runtime toggle: collection is OFF by default — a plain `dubhe_node` run
/// pays one relaxed atomic-bool load per site and nothing else. It turns on
/// via the DUBHE_TELEMETRY environment variable ("on"/"1"/"true"), via
/// set_enabled(true), or implicitly through `dubhe_node --metrics-port` /
/// `--trace-out`. The metric name catalog lives in src/net/README.md.

namespace detail {
extern std::atomic<bool> g_enabled;
/// Stable small integer for the calling thread (assigned at first use;
/// also the "tid" recorded in trace events).
std::uint32_t thread_index();
/// Microseconds since process start on the steady clock.
std::uint64_t now_us();
}  // namespace detail

/// Whether instrumentation sites record anything. Reading this is the whole
/// cost of a disabled counter.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

/// Monotone event count: one relaxed atomic.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (!enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (live connections, queue depth). Last-writer
/// -wins set() plus add(); a single atomic — gauges are not hot-path.
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) {
    if (!enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Default latency buckets (seconds): decade steps from 1 µs to 10 s. Every
/// histogram additionally owns a +Inf overflow bucket.
inline constexpr std::array<double, 8> kLatencyBuckets{1e-6, 1e-5, 1e-4, 1e-3,
                                                       1e-2, 0.1,  1.0,  10.0};

/// Fixed-bucket histogram: one relaxed atomic per bucket plus the sum.
/// Bucket bounds are fixed at registration (upper bounds, `le` semantics).
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;        // upper bounds, ascending (no +Inf)
    std::vector<std::uint64_t> counts; // bounds.size()+1 entries, last = +Inf
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size()+1
  std::atomic<std::uint64_t> sum_nanos_{0};          // sum in integer ns
};

/// Process-wide metric registry. Lookups take a mutex — call sites cache the
/// returned reference (function-local static); references stay valid for the
/// process lifetime because registration never erases (reset() zeroes values
/// in place). A name may embed Prometheus labels: counter("x_total{k=\"v\"}")
/// registers one series of family `x_total`. Tests that need isolation
/// construct their own Registry instead of using global().
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds-or-registers. Throws std::logic_error if `name` is already
  /// registered as a different metric kind. Histogram bounds apply only on
  /// first registration (later lookups return the existing series).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = kLatencyBuckets);

  /// Zeroes every registered value in place (references stay valid) — the
  /// test-isolation hook.
  void reset();

  /// Prometheus text exposition format 0.0.4: one `# TYPE` line per family,
  /// series sorted by full name, histogram series expanded to
  /// `_bucket{le=...}` / `_sum` / `_count`.
  [[nodiscard]] std::string render_prometheus() const;
  /// Human-readable table of every non-zero metric — the post-session /
  /// post-bench summary.
  [[nodiscard]] std::string render_summary() const;

  static Registry& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Shorthands on the global registry.
inline Counter& counter(std::string_view name) { return Registry::global().counter(name); }
inline Gauge& gauge(std::string_view name) { return Registry::global().gauge(name); }
inline Histogram& histogram(std::string_view name,
                            std::span<const double> bounds = kLatencyBuckets) {
  return Registry::global().histogram(name, bounds);
}

// --- phase tracing -----------------------------------------------------------

/// Whether Span scopes append to the trace ring (independent of the metric
/// toggle: histograms can run without tracing and vice versa).
bool trace_enabled();
void set_trace_enabled(bool on);

struct TraceEvent {
  const char* name = nullptr;  // static string (phase names are literals)
  std::uint64_t ts_us = 0;     // start, µs since process start
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;       // detail::thread_index() of the recording thread
  std::uint32_t depth = 0;     // nesting depth on that thread at entry
};

/// Capacity of the bounded trace ring; once full the oldest events are
/// overwritten, so a long session keeps its most recent window.
[[nodiscard]] std::size_t trace_capacity();
/// Chronological copy of the retained events (oldest first).
[[nodiscard]] std::vector<TraceEvent> trace_events();
void trace_clear();
/// Chrome trace_event JSON ({"traceEvents":[...]} of "ph":"X" complete
/// events) — load in chrome://tracing or Perfetto.
[[nodiscard]] std::string render_chrome_trace();
/// Renders to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// RAII phase scope: on destruction records its wall-clock duration into the
/// trace ring (when tracing is on) and into `hist` (when metrics are on).
/// `name` must outlive the trace ring — use string literals. Costs two
/// steady-clock reads when any sink is active, nothing otherwise.
class Span {
 public:
  explicit Span(const char* name, Histogram* hist = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  Histogram* hist_;
  std::uint64_t t0_us_ = 0;
  std::uint32_t depth_ = 0;
  bool armed_ = false;
  bool traced_ = false;
};

/// Times one operation into a histogram (no trace-ring entry): the
/// per-crypto-op form of Span. No-op (not even a clock read) when disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist)
      : hist_(&hist), armed_(enabled()) {
    if (armed_) t0_us_ = detail::now_us();
  }
  ~ScopedTimer() {
    if (armed_) hist_->observe(static_cast<double>(detail::now_us() - t0_us_) * 1e-6);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::uint64_t t0_us_ = 0;
  bool armed_;
};

/// Global-registry reset + trace_clear in one call — what test fixtures and
/// bench sections use between measurements.
void reset_all();

}  // namespace dubhe::telemetry
