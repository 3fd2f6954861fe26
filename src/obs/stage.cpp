#include "obs/stage.h"

#include <algorithm>
#include <utility>

namespace m3dfl::obs {

namespace {

/// Nesting depth of the calling thread's open traced stages.
thread_local std::uint32_t tls_depth = 0;

/// The served request whose exemplar the calling thread is capturing.
thread_local RequestContext* tls_request = nullptr;

}  // namespace

StageSite::StageSite(const char* stage_name)
    : name(stage_name),
      histogram(MetricsRegistry::instance().histogram(stage_name))
#if M3DFL_OBS_ENABLED
      ,
      counters(prof::CounterRegistry::instance().scope(stage_name))
#endif
{
}

Stage::Stage(const StageSite& site, std::uint64_t start_ns)
    : site_(&site), start_ns_(start_ns) {
#if M3DFL_OBS_ENABLED
  if (Tracer::instance().enabled()) {
    traced_ = true;
    depth_ = tls_depth++;
  }
  counting_ = prof::CounterRegistry::instance().enabled() &&
              prof::read_thread_counters(&counters_start_);
#endif
}

double Stage::stop() {
  if (!open_) return 0.0;
  open_ = false;
  const std::uint64_t end_ns = Tracer::now_ns();
  const std::uint64_t dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  const double seconds = static_cast<double>(dur_ns) * 1e-9;
  site_->histogram.record(seconds);
#if M3DFL_OBS_ENABLED
  if (traced_) {
    --tls_depth;
    Tracer::instance().record(site_->name, "m3dfl", start_ns_, dur_ns,
                              depth_);
  }
  prof::CounterValues counters_end;
  if (counting_ && prof::read_thread_counters(&counters_end)) {
    prof::CounterRegistry::add(site_->counters, counters_start_,
                               counters_end);
  }
#endif
  if (tls_request != nullptr) {
    tls_request->add_stage(site_->name, start_ns_, dur_ns);
  }
  return seconds;
}

RequestContext::RequestContext(std::uint64_t request_id,
                               std::uint64_t submit_ns)
    : request_id_(request_id),
      submit_ns_(submit_ns),
      capturing_(ExemplarStore::instance().enabled()) {
  if (capturing_) tls_request = this;
  static const StageSite queue_site("serve.queue");
  queue_seconds_ = Stage(queue_site, submit_ns).stop();
}

RequestContext::~RequestContext() {
  if (capturing_) tls_request = nullptr;
}

void RequestContext::add_stage(const char* name, std::uint64_t start_ns,
                               std::uint64_t dur_ns) {
  const double start_ms =
      start_ns > submit_ns_ ? static_cast<double>(start_ns - submit_ns_) / 1e6
                            : 0.0;
  stages_.push_back({name, start_ms, static_cast<double>(dur_ns) / 1e6});
}

void RequestContext::offer(RequestExemplar ex) {
  if (!capturing_) return;
  ex.request_id = request_id_;
  // Stages are appended as they close (inner before outer); /tracez lists
  // them as they opened.
  std::stable_sort(stages_.begin(), stages_.end(),
                   [](const ExemplarStage& a, const ExemplarStage& b) {
                     return a.start_ms < b.start_ms;
                   });
  ex.stages = std::move(stages_);
  ExemplarStore::instance().offer(std::move(ex));
}

}  // namespace m3dfl::obs
