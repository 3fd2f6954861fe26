#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace m3dfl::obs {

/// Lock-free latency histogram with geometrically spaced buckets
/// (1 us * 1.5^i, 48 buckets spanning 1 us .. ~4 minutes). record() is a
/// handful of relaxed fetch_adds, so hot paths never serialize on the
/// metrics layer; percentiles are computed from a snapshot with linear
/// interpolation inside the winning bucket.
///
/// Buckets are half-open on the left: bucket i holds values v with
/// bucket_upper_seconds(i-1) < v <= bucket_upper_seconds(i). A value
/// exactly on a bucket's upper bound lands in that bucket — exactly, not
/// modulo log() rounding (see bucket_index()).
class LatencyHistogram {
 public:
  static constexpr std::size_t kNumBuckets = 48;

  void record(double seconds);

  std::uint64_t count() const;
  double mean_seconds() const;
  /// Sum of recorded values (nanosecond granularity) — the Prometheus
  /// `_sum` series.
  double total_seconds() const;
  /// pct in [0, 100]. Returns 0 when empty.
  double percentile_seconds(double pct) const;

  /// Upper bound of bucket i, in seconds. The exact double the bucketing
  /// comparisons use, so `record(bucket_upper_seconds(i))` lands in bucket
  /// i for every i.
  static double bucket_upper_seconds(std::size_t i);

  /// The bucket a value maps to (test hook; record() uses this). Uses a
  /// log() guess corrected against the exact bound table, so boundary
  /// values never jitter one bucket high or low.
  static std::size_t bucket_index(double seconds);

  std::uint64_t bucket_count(std::size_t i) const;

  /// Zeroes every bucket and the count/total (relaxed stores; call while
  /// quiescent for an exact reset).
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_nanos_{0};
};

/// Monotonic counter (relaxed atomic).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (relaxed atomic double).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Process-wide registry of named counters / gauges / histograms. Lookup
/// takes a mutex, so instrumentation sites on hot paths should resolve
/// their metric once (function-local static reference) and then mutate it
/// wait-free. Returned references stay valid for the process lifetime —
/// reset() zeroes values but never removes entries.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// Zeroes every registered metric (entries and references survive).
  void reset();

  /// Machine-readable snapshot:
  /// {"counters":{..},"gauges":{..},"histograms":{name:{count,mean_ms,
  ///  p50_ms,p95_ms,p99_ms}}}
  std::string to_json() const;

  /// Prometheus text exposition (format 0.0.4) of every registered metric:
  /// counters as `<name>_total`, gauges as-is, histograms as cumulative
  /// `_bucket{le="..."}` series plus `_sum`/`_count`. The 48 `le` bounds
  /// are the exact LatencyHistogram::bucket_upper_seconds doubles, printed
  /// with %.17g so strtod() round-trips them bit-exactly. Registry names
  /// are sanitized via prometheus_metric_name().
  std::string to_prometheus() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Maps a registry metric name onto the Prometheus grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]*: every other character becomes '_' and the
/// result gains an "m3dfl_" namespace prefix ("serve.queue_seconds" ->
/// "m3dfl_serve_queue_seconds").
std::string prometheus_metric_name(const std::string& name);

/// Escapes a label value for the exposition format (backslash, double
/// quote, newline).
std::string prometheus_escape_label(const std::string& value);

/// Peak resident-set size of this process so far, in bytes (getrusage
/// ru_maxrss). Returns 0 on platforms without the facility. The paper-scale
/// campaigns publish it as the `process.peak_rss_bytes` gauge so the
/// out-of-core dictionary's memory claim is checkable from metrics.
std::size_t peak_rss_bytes();

/// Point-in-time process resource usage (getrusage + /proc/self/fd).
struct ProcessStats {
  double user_cpu_seconds = 0.0;
  double sys_cpu_seconds = 0.0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
  /// Open file descriptors right now (0 where /proc is unavailable). The
  /// descriptor used to do the counting is excluded.
  std::uint64_t open_fds = 0;
  std::size_t peak_rss_bytes = 0;
};
ProcessStats process_stats();

/// Publishes process_stats() as `process.*` gauges (user_cpu_seconds,
/// sys_cpu_seconds, voluntary_ctx_switches, involuntary_ctx_switches,
/// open_fds, peak_rss_bytes). Scrape handlers call this before rendering so
/// /metrics and /metrics.json always carry fresh values; gauges are
/// last-write-wins, so refreshing is idempotent.
void publish_process_metrics();

/// Structural conformance lint of an exposition page: every sample needs a
/// preceding # TYPE (with a # HELP), TYPE values must be known, histogram
/// bucket series must be cumulative/monotone and end in le="+Inf" matching
/// `_count`, and sample values must parse as numbers. Returns one message
/// per violation (empty == conformant). Used by the tests and the
/// `prom_lint` CI tool against a live /metrics page.
std::vector<std::string> prometheus_lint(const std::string& exposition);

}  // namespace m3dfl::obs
