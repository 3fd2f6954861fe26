#pragma once

#include <cstdint>
#include <vector>

#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#if M3DFL_OBS_ENABLED
#include "obs/prof/counters.h"
#endif

namespace m3dfl::obs {

/// Everything one stage name records into, resolved once per
/// instrumentation site (M3DFL_STAGE keeps it in a function-local static),
/// so opening and closing a stage never takes a registry lock.
struct StageSite {
  explicit StageSite(const char* name);

  const char* name;  ///< Static literal: spans and exemplars keep the pointer.
  LatencyHistogram& histogram;
#if M3DFL_OBS_ENABLED
  prof::CounterRegistry::Scope& counters;
#endif
};

/// The one timing primitive for a pipeline stage. Opening and closing each
/// read Tracer::now_ns() once; the close then
///  * always records the duration into the histogram named after the stage
///    (/metrics, --metrics-json);
///  * with the Tracer on, records a span with its nesting depth (Chrome
///    trace, --progress);
///  * with the CounterRegistry on, adds the thread's hw/rusage counter
///    deltas to the scope named after the stage (/countersz);
///  * inside a served request whose exemplar is being captured (see
///    RequestContext), appends an ExemplarStage (/tracez).
/// Under -DM3DFL_OBS=OFF the span and counter hooks compile out.
///
/// Stages observe timing only; nothing they record feeds back into
/// computation, so reports stay bit-identical with every hook on or off.
class Stage {
 public:
  explicit Stage(const StageSite& site) : Stage(site, Tracer::now_ns()) {}
  /// A stage that began at `start_ns`, a Tracer::now_ns() instant read
  /// earlier (possibly on another thread).
  Stage(const StageSite& site, std::uint64_t start_ns);
  ~Stage() {
    if (open_) stop();
  }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Closes the stage now and returns its duration in seconds. Later calls,
  /// and the destructor, do nothing (and return 0).
  double stop();

 private:
  const StageSite* site_;
  std::uint64_t start_ns_;
  bool open_ = true;
#if M3DFL_OBS_ENABLED
  bool traced_ = false;
  bool counting_ = false;
  std::uint32_t depth_ = 0;
  prof::CounterValues counters_start_;
#endif
};

/// Exemplar capture for one served request on its worker thread.
/// Construction closes the request's `serve.queue` stage (submit instant →
/// now, the worker pickup) and, while the ExemplarStore is enabled, makes
/// this the thread's current context: every Stage closed on the thread
/// until destruction lands in the request's exemplar, timed relative to
/// its submit instant. Contexts do not nest.
class RequestContext {
 public:
  RequestContext(std::uint64_t request_id, std::uint64_t submit_ns);
  ~RequestContext();

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  double queue_seconds() const { return queue_seconds_; }
  bool capturing() const { return capturing_; }

  /// Offers `ex` to the ExemplarStore with this request's id and the stages
  /// captured so far (in start order). No-op unless capturing().
  void offer(RequestExemplar ex);

 private:
  friend class Stage;
  void add_stage(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns);

  std::uint64_t request_id_;
  std::uint64_t submit_ns_;
  bool capturing_;
  double queue_seconds_ = 0.0;
  std::vector<ExemplarStage> stages_;
};

}  // namespace m3dfl::obs

/// Opens a stage named `name` (a string literal) that closes when `var`
/// goes out of scope or on `var.stop()`:
///   M3DFL_STAGE(stage, "diag.score");
#define M3DFL_STAGE(var, name)                                   \
  static const ::m3dfl::obs::StageSite var##_site((name));       \
  ::m3dfl::obs::Stage var(var##_site)
