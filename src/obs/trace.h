#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace m3dfl::obs {

/// One completed span, as read back from the ring buffers. `name` and
/// `category` are the static string literals the instrumentation site passed
/// in — the tracer never copies or owns strings, which is what keeps
/// recording allocation-free.
struct SpanEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t start_ns = 0;  ///< Since the process-wide trace epoch.
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;    ///< Tracer-assigned thread id (1, 2, ...).
  std::uint32_t depth = 0;  ///< Nesting depth on its thread at open time.
};

/// Process-wide span tracer.
///
/// Recording model: each thread owns a fixed-capacity ring of seqlock-
/// protected slots. A span close is a handful of relaxed atomic stores into
/// the owner's ring — no locks, no allocation, no cross-thread contention —
/// and when the ring is full the oldest spans are silently overwritten
/// (drop-oldest; see dropped()). snapshot() reads every ring from any
/// thread, using the per-slot sequence numbers to discard slots that a
/// writer is mid-update on, so a torn span can never be observed.
///
/// Tracing is off by default; set_enabled(true) turns recording on with one
/// relaxed flag. Spans come from obs::Stage (M3DFL_STAGE), whose tracing
/// hook compiles out under -DM3DFL_OBS=OFF; the Tracer itself stays
/// linkable so tooling compiles in both modes.
///
/// Spans observe timing only — they never feed back into computation — so
/// enabling tracing cannot perturb the pipeline's bit-identity guarantees.
class Tracer {
 public:
  /// Per-thread ring capacity (spans). Must be a power of two.
  static constexpr std::size_t kRingCapacity = 4096;

  /// Opaque per-thread ring; defined in trace.cpp (public so the TLS
  /// holder there can hold a pointer, not part of the API).
  struct ThreadLog;

  static Tracer& instance();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the process-wide trace epoch (first use).
  static std::uint64_t now_ns();

  /// Records one completed span into the calling thread's ring. No-op when
  /// disabled. Called by Stage::stop(); rarely useful directly.
  void record(const char* name, const char* category, std::uint64_t start_ns,
              std::uint64_t dur_ns, std::uint32_t depth);

  /// Every readable span across all threads, in per-thread ring order.
  /// Safe to call while other threads record (mid-write slots are skipped).
  std::vector<SpanEvent> snapshot() const;

  /// Spans lost to ring overflow since the last clear().
  std::uint64_t dropped() const;

  /// Resets every ring. Call only while no thread is recording.
  void clear();

  /// Writes the snapshot as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps) — loadable in chrome://tracing and Perfetto.
  /// `extra_sections`, when non-empty, is spliced verbatim as additional
  /// top-level members (no surrounding braces/commas) — the profiler's
  /// `"stackFrames":{...},"samples":[...]` ride along this way so sampled
  /// stacks and spans land in one file.
  void write_chrome_trace(std::ostream& os,
                          const std::string& extra_sections =
                              std::string()) const;

 private:
  friend struct TlsHolder;

  Tracer() = default;
  ThreadLog* acquire_log();
  void retire_log(ThreadLog* log);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< Guards logs_ / free_ registration only.
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<ThreadLog*> free_;  ///< Retired logs, reused by new threads.
  std::uint32_t next_tid_ = 1;
};

/// Aggregate view of a snapshot: per span name, how many spans, total time,
/// and how many distinct threads recorded one. Sorted by total time
/// descending (the CLI --progress summary).
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  std::uint32_t threads = 0;
};
std::vector<SpanSummary> summarize_spans(const std::vector<SpanEvent>& events);

}  // namespace m3dfl::obs
