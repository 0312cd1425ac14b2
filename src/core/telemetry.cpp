#include "core/telemetry.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace dubhe::telemetry {

namespace detail {

namespace {
bool env_default() {
  const char* v = std::getenv("DUBHE_TELEMETRY");
  if (v == nullptr) return false;
  return std::strcmp(v, "on") == 0 || std::strcmp(v, "1") == 0 ||
         std::strcmp(v, "true") == 0;
}
}  // namespace

std::atomic<bool> g_enabled{env_default()};

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

std::uint64_t now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point base = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - base)
          .count());
}

}  // namespace detail

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("Histogram: bucket bounds must ascend");
    }
  }
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  // Sum kept as integer nanoseconds: exact addition, no atomic<double>.
  const auto nanos = static_cast<std::uint64_t>(std::llround(v * 1e9));
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.bounds = bounds_;
  out.counts.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    out.counts.push_back(b.load(std::memory_order_relaxed));
    out.count += out.counts.back();
  }
  out.sum = sum();
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
}

// --- Registry ----------------------------------------------------------------

namespace {

enum class Kind { kCounter, kGauge, kHistogram };

struct Entry {
  Kind kind = Kind::kCounter;
  std::unique_ptr<Counter> c;
  std::unique_ptr<Gauge> g;
  std::unique_ptr<Histogram> h;
};

/// "name{labels}" -> {"name", "labels"} (labels without braces, may be "").
std::pair<std::string_view, std::string_view> split_name(std::string_view full) {
  const std::size_t brace = full.find('{');
  if (brace == std::string_view::npos) return {full, {}};
  std::string_view labels = full.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.remove_suffix(1);
  return {full.substr(0, brace), labels};
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Series name for a histogram component: base + suffix, labels (plus an
/// optional le pair) re-attached.
std::string series(std::string_view base, std::string_view suffix,
                   std::string_view labels, const std::string& le = {}) {
  std::string out{base};
  out += suffix;
  if (labels.empty() && le.empty()) return out;
  out += '{';
  out += labels;
  if (!le.empty()) {
    if (!labels.empty()) out += ',';
    out += "le=\"";
    out += le;
    out += '"';
  }
  out += '}';
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  // Sorted by full series name => deterministic exposition order. Entries
  // are never erased, so returned references are process-lifetime stable.
  std::map<std::string, Entry, std::less<>> metrics;

  Entry& find_or_insert(std::string_view name, Kind kind,
                        std::span<const double> bounds = {}) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = metrics.find(name);
    if (it == metrics.end()) {
      Entry e;
      e.kind = kind;
      switch (kind) {
        case Kind::kCounter: e.c = std::make_unique<Counter>(); break;
        case Kind::kGauge: e.g = std::make_unique<Gauge>(); break;
        case Kind::kHistogram: e.h = std::make_unique<Histogram>(bounds); break;
      }
      it = metrics.emplace(std::string{name}, std::move(e)).first;
    } else if (it->second.kind != kind) {
      throw std::logic_error("telemetry: '" + std::string{name} +
                             "' already registered as a different metric kind");
    }
    return it->second;
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter& Registry::counter(std::string_view name) {
  return *impl_->find_or_insert(name, Kind::kCounter).c;
}

Gauge& Registry::gauge(std::string_view name) {
  return *impl_->find_or_insert(name, Kind::kGauge).g;
}

Histogram& Registry::histogram(std::string_view name, std::span<const double> bounds) {
  return *impl_->find_or_insert(name, Kind::kHistogram, bounds).h;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, e] : impl_->metrics) {
    switch (e.kind) {
      case Kind::kCounter: e.c->reset(); break;
      case Kind::kGauge: e.g->reset(); break;
      case Kind::kHistogram: e.h->reset(); break;
    }
  }
}

std::string Registry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out;
  std::string last_family;
  for (const auto& [name, e] : impl_->metrics) {
    const auto [base, labels] = split_name(name);
    if (base != last_family) {
      last_family = std::string{base};
      out += "# TYPE ";
      out += base;
      switch (e.kind) {
        case Kind::kCounter: out += " counter\n"; break;
        case Kind::kGauge: out += " gauge\n"; break;
        case Kind::kHistogram: out += " histogram\n"; break;
      }
    }
    switch (e.kind) {
      case Kind::kCounter:
        out += name;
        out += ' ';
        out += std::to_string(e.c->value());
        out += '\n';
        break;
      case Kind::kGauge:
        out += name;
        out += ' ';
        out += std::to_string(e.g->value());
        out += '\n';
        break;
      case Kind::kHistogram: {
        const Histogram::Snapshot s = e.h->snapshot();
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < s.counts.size(); ++b) {
          cum += s.counts[b];
          const std::string le =
              b < s.bounds.size() ? fmt_double(s.bounds[b]) : std::string{"+Inf"};
          out += series(base, "_bucket", labels, le);
          out += ' ';
          out += std::to_string(cum);
          out += '\n';
        }
        out += series(base, "_sum", labels);
        out += ' ';
        out += fmt_double(s.sum);
        out += '\n';
        out += series(base, "_count", labels);
        out += ' ';
        out += std::to_string(s.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

std::string Registry::render_summary() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::ostringstream out;
  out << "== telemetry summary ==\n";
  char line[256];
  for (const auto& [name, e] : impl_->metrics) {
    switch (e.kind) {
      case Kind::kCounter: {
        const std::uint64_t v = e.c->value();
        if (v == 0) continue;
        std::snprintf(line, sizeof line, "%-56s %12llu\n", name.c_str(),
                      static_cast<unsigned long long>(v));
        out << line;
        break;
      }
      case Kind::kGauge: {
        const std::int64_t v = e.g->value();
        if (v == 0) continue;
        std::snprintf(line, sizeof line, "%-56s %12lld\n", name.c_str(),
                      static_cast<long long>(v));
        out << line;
        break;
      }
      case Kind::kHistogram: {
        const Histogram::Snapshot s = e.h->snapshot();
        if (s.count == 0) continue;
        std::snprintf(line, sizeof line, "%-56s %12llu  mean %.3f ms\n",
                      name.c_str(), static_cast<unsigned long long>(s.count),
                      s.sum / static_cast<double>(s.count) * 1e3);
        out << line;
        break;
      }
    }
  }
  return out.str();
}

Registry& Registry::global() {
  // Leaked on purpose: instrumented destructors of other static objects may
  // still touch metrics during process teardown.
  static Registry* g = new Registry();
  return *g;
}

// --- trace ring --------------------------------------------------------------

namespace {

constexpr std::size_t kTraceCapacity = 16384;

struct TraceRing {
  std::mutex mu;
  std::vector<TraceEvent> ring{kTraceCapacity};
  std::uint64_t total = 0;  // events ever pushed; ring holds the newest
};

TraceRing& trace_ring() {
  static TraceRing* g = new TraceRing();
  return *g;
}

std::atomic<bool> g_trace_enabled{false};

thread_local std::uint32_t t_span_depth = 0;

}  // namespace

bool trace_enabled() { return g_trace_enabled.load(std::memory_order_relaxed); }
void set_trace_enabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::size_t trace_capacity() { return kTraceCapacity; }

std::vector<TraceEvent> trace_events() {
  TraceRing& tr = trace_ring();
  std::lock_guard<std::mutex> lock(tr.mu);
  std::vector<TraceEvent> out;
  const std::uint64_t n = tr.total < kTraceCapacity ? tr.total : kTraceCapacity;
  out.reserve(n);
  const std::uint64_t first = tr.total - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(tr.ring[(first + i) % kTraceCapacity]);
  }
  return out;
}

void trace_clear() {
  TraceRing& tr = trace_ring();
  std::lock_guard<std::mutex> lock(tr.mu);
  tr.total = 0;
}

std::string render_chrome_trace() {
  const std::vector<TraceEvent> events = trace_events();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(e.name) +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + std::to_string(e.ts_us) +
           ",\"dur\":" + std::to_string(e.dur_us) +
           ",\"args\":{\"depth\":" + std::to_string(e.depth) + "}}";
  }
  out += "]}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << render_chrome_trace();
  return static_cast<bool>(out);
}

// --- Span --------------------------------------------------------------------

Span::Span(const char* name, Histogram* hist) : name_(name), hist_(hist) {
  traced_ = trace_enabled();
  armed_ = traced_ || (hist_ != nullptr && enabled());
  if (!armed_) return;
  depth_ = t_span_depth++;
  t0_us_ = detail::now_us();
}

Span::~Span() {
  if (!armed_) return;
  const std::uint64_t dur = detail::now_us() - t0_us_;
  --t_span_depth;
  if (hist_ != nullptr) hist_->observe(static_cast<double>(dur) * 1e-6);
  if (traced_) {
    TraceEvent e;
    e.name = name_;
    e.ts_us = t0_us_;
    e.dur_us = dur;
    e.tid = detail::thread_index();
    e.depth = depth_;
    TraceRing& tr = trace_ring();
    std::lock_guard<std::mutex> lock(tr.mu);
    tr.ring[tr.total % kTraceCapacity] = e;
    ++tr.total;
  }
}

void reset_all() {
  Registry::global().reset();
  trace_clear();
}

}  // namespace dubhe::telemetry
