#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

// Hardware performance counters via perf_event_open, with a graceful
// degradation ladder probed once per process:
//
//   full   — grouped cycles / instructions / LLC misses / branch misses
//   basic  — grouped cycles / instructions (PMUs with too few generic
//            counters, or cache events unsupported)
//   rusage — no perf_event access at all (containers, seccomp,
//            perf_event_paranoid >= 2): per-thread CPU seconds from
//            getrusage(RUSAGE_THREAD) only
//
// M3DFL_NO_PERF_EVENT=1 in the environment forces the rusage rung — CI
// uses it to exercise the fallback deterministically. Availability is
// reported on /statusz and /countersz; nothing in this subsystem ever
// fails hard when counters are missing.
//
// Attachment model: an obs::Stage (M3DFL_STAGE, obs/stage.h) snapshots
// the calling thread's counter group when it opens and closes and adds the
// delta to the per-process aggregate named after the stage
// (CounterRegistry), next to the stage's wall-time histogram and span.
// Counter fds are per-thread (inherit=0) and lazily opened, so Executor
// workers each count their own cycles with no cross-thread multiplexing.
//
// Under -DM3DFL_OBS=OFF counters.cpp compiles to an empty TU and Stage
// carries no counter hook.
#if M3DFL_OBS_ENABLED

namespace m3dfl::obs::prof {

enum class CounterMode {
  kUnavailable = 0,  ///< Not even rusage (non-POSIX platform).
  kRusage,
  kBasic,
  kFull,
};

const char* counter_mode_name(CounterMode mode);

struct CounterAvailability {
  CounterMode mode = CounterMode::kUnavailable;
  /// Human-readable reason for the rung ("ok", "perf_event_open: No such
  /// file or directory", "forced off via M3DFL_NO_PERF_EVENT", ...).
  std::string detail;
};

/// Process-wide availability, probed on first call and cached (honors
/// M3DFL_NO_PERF_EVENT at probe time).
const CounterAvailability& counter_availability();

/// Fresh probe, bypassing the cache (test hook).
CounterAvailability probe_counters(bool force_no_perf_event);

/// One thread-local counter reading. hw fields are valid only when
/// hw_valid (mode >= basic and this thread's group opened); llc/branch
/// fields are additionally zero under basic mode. cpu_seconds is always
/// valid on POSIX.
struct CounterValues {
  bool hw_valid = false;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;
  double cpu_seconds = 0.0;
};

/// Reads the calling thread's counters (opening its perf group lazily on
/// first use). Returns false only when not even CPU time is readable.
/// Values are monotonic totals since the group opened; callers diff two
/// readings. Multiplexing is corrected via time_enabled/time_running
/// scaling on read.
bool read_thread_counters(CounterValues* out);

/// Aggregated deltas for one named scope.
struct ScopeTotals {
  std::uint64_t count = 0;  ///< Completed stage passes.
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;
  double cpu_seconds = 0.0;

  double ipc() const;
  double llc_misses_per_kinstr() const;
  double branch_misses_per_kinstr() const;
};

/// Process-wide named aggregates, same resolve-once-then-wait-free usage
/// pattern as MetricsRegistry: each stage site holds a static reference to
/// its Scope and add() mutates it with relaxed fetch_adds. Disabled (the
/// default) a stage pays one relaxed load for counters; enable with
/// --counters or set_enabled(true).
class CounterRegistry {
 public:
  struct Scope;  ///< Opaque aggregate; defined in counters.cpp.

  static CounterRegistry& instance();

  void set_enabled(bool on);
  bool enabled() const;

  /// Named aggregate; the reference stays valid for the process lifetime.
  Scope& scope(const std::string& name);

  /// Counts one pass into `scope`, adding the counter deltas end - start.
  static void add(Scope& scope, const CounterValues& start,
                  const CounterValues& end);

  std::vector<std::pair<std::string, ScopeTotals>> snapshot() const;

  /// {"availability":{"mode":...,"detail":...},"enabled":...,
  ///  "scopes":{name:{count,cpu_seconds,cycles,instructions,ipc,...}}}
  /// Derived rates are omitted per-scope when hardware counters are
  /// unavailable rather than reported as zero.
  std::string to_json() const;

  /// Zeroes every scope (entries and references survive).
  void reset();

 private:
  CounterRegistry() = default;
};

}  // namespace m3dfl::obs::prof

#endif  // M3DFL_OBS_ENABLED
