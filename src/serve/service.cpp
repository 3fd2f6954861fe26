#include "serve/service.h"

#include <exception>
#include <type_traits>
#include <utility>

#include "diagnosis/diagnoser.h"
#include "graphx/backtrace.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/stage.h"

namespace m3dfl::serve {

namespace {

/// Resolves the mode a request actually runs under: int8 degrades to fp32
/// when the published framework has no quantized twin. `count` switches the
/// per-path counters on (the served path counts; status probes don't).
eval::InferenceMode resolve_inference_mode(eval::InferenceMode requested,
                                           const eval::TrainedFramework& fw,
                                           bool count) {
  static obs::Counter& int8_requests = obs::MetricsRegistry::instance()
      .counter("serve.inference.int8_requests");
  static obs::Counter& fp32_requests = obs::MetricsRegistry::instance()
      .counter("serve.inference.fp32_requests");
  static obs::Counter& int8_fallbacks = obs::MetricsRegistry::instance()
      .counter("serve.inference.int8_fallbacks");
  eval::InferenceMode mode = requested;
  if (mode == eval::InferenceMode::kInt8 && !fw.quant) {
    if (count) int8_fallbacks.add();
    mode = eval::InferenceMode::kFp32;
  }
  if (count) {
    (mode == eval::InferenceMode::kInt8 ? int8_requests : fp32_requests).add();
  }
  return mode;
}

}  // namespace

std::uint64_t failure_log_fingerprint(const sim::FailureLog& log) {
  static_assert(
      std::has_unique_object_representations_v<sim::FailureLog::Obs> &&
          std::has_unique_object_representations_v<sim::FailureLog::CObs>,
      "failure-log entries must be padding-free to hash raw bytes");
  std::uint64_t h = fnv1a64(&log.compacted, sizeof(log.compacted));
  const std::uint64_t counts[2] = {log.fails.size(), log.cfails.size()};
  h = fnv1a64(counts, sizeof(counts), h);
  if (!log.fails.empty()) {
    h = fnv1a64(log.fails.data(),
                log.fails.size() * sizeof(sim::FailureLog::Obs), h);
  }
  if (!log.cfails.empty()) {
    h = fnv1a64(log.cfails.data(),
                log.cfails.size() * sizeof(sim::FailureLog::CObs), h);
  }
  return h;
}

/// Stateful per-task diagnosis machinery. The Diagnoser mutates scratch
/// buffers and its FaultSimulator's faulty-machine workspace during
/// diagnose(), so contexts are never shared between concurrent tasks; the
/// design's own shared simulator (design.fsim) is left untouched by the
/// service.
struct DiagnosisService::WorkerContext {
  std::unique_ptr<sim::FaultSimulator> fsim;
  std::unique_ptr<diag::Diagnoser> diagnoser;

  explicit WorkerContext(const eval::Design& d) {
    // Clone the design's already-bound simulator instead of re-running the
    // good-machine simulation: registration and pool growth become a
    // memcpy of the good-machine state.
    fsim = d.fsim->clone();
    // Mirrors Design::make_diagnoser(false) but binds a private simulator,
    // which is what makes concurrent diagnosis of one design legal.
    diag::DiagnoserOptions opts = d.spec.diag;
    opts.multifault = false;
    diagnoser = std::make_unique<diag::Diagnoser>(d.nl, d.sites, d.scan, opts);
    diagnoser->bind(*fsim);
  }
};

struct DiagnosisService::DesignState {
  const eval::Design* design = nullptr;
  std::mutex mu;
  std::vector<std::unique_ptr<WorkerContext>> idle;
};

DiagnosisService::DiagnosisService(ModelRegistry& registry,
                                   ServiceOptions opts)
    : opts_(opts),
      model_(registry.handle(opts.model_name)),
      subgraph_cache_(opts.cache_capacity),
      executor_(opts.num_threads, "serve") {
  // 0 = fp32, 1 = int8: the configured mode as a scrapable gauge (the
  // effective per-request mode can differ on fallback — see the counters).
  obs::MetricsRegistry::instance()
      .gauge("gnn.inference.mode")
      .set(opts_.inference == eval::InferenceMode::kInt8 ? 1.0 : 0.0);
}

DiagnosisService::~DiagnosisService() = default;

void DiagnosisService::register_design(const eval::Design& design) {
  // Touch the netlist's lazily built mutable caches while single-threaded;
  // afterwards workers only ever read them.
  design.nl.topo_order();
  design.nl.levels();
  design.nl.depth();

  auto state = std::make_unique<DesignState>();
  state->design = &design;
  // First context built eagerly (a clone of the design's bound simulator),
  // so the first request pays only diagnosis.
  state->idle.push_back(std::make_unique<WorkerContext>(design));
  std::lock_guard<std::mutex> lock(designs_mu_);
  designs_.emplace(&design, std::move(state));
}

std::future<DiagnosisResponse> DiagnosisService::submit(
    const eval::Design& design, sim::FailureLog log) {
  Pending p;
  p.log = std::make_shared<const sim::FailureLog>(std::move(log));
  p.promise = std::make_shared<std::promise<DiagnosisResponse>>();
  p.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  p.submit_ns = obs::Tracer::now_ns();
  std::future<DiagnosisResponse> future = p.promise->get_future();
  {
    std::lock_guard<std::mutex> lock(designs_mu_);
    const auto it = designs_.find(&design);
    p.state = it == designs_.end() ? nullptr : it->second.get();
  }
  metrics_.on_request();
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++accepted_;
  }
  if (p.state == nullptr) {
    DiagnosisResponse r;
    r.error = "design not registered with the service";
    r.request_id = p.request_id;
    // rid in the log line matches the response, the /tracez exemplar, and
    // the client-side error — one identifier across all three surfaces.
    M3DFL_LOG_WARN("serve", "rid=%llu rejected: design not registered",
                   static_cast<unsigned long long>(p.request_id));
    metrics_.on_complete_split(0.0, 0.0, false);
    p.promise->set_value(std::move(r));
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      ++finished_;
    }
    drain_cv_.notify_all();
    return future;
  }
  executor_.post([this, p = std::move(p)]() mutable { process(p); });
  return future;
}

std::unique_ptr<DiagnosisService::WorkerContext>
DiagnosisService::acquire_context(DesignState& state) {
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.idle.empty()) {
      auto ctx = std::move(state.idle.back());
      state.idle.pop_back();
      return ctx;
    }
  }
  // Pool empty: build a fresh context outside the lock. At most
  // num_threads tasks run at once, so at most num_threads contexts are
  // ever created per design.
  return std::make_unique<WorkerContext>(*state.design);
}

void DiagnosisService::release_context(DesignState& state,
                                       std::unique_ptr<WorkerContext> c) {
  std::lock_guard<std::mutex> lock(state.mu);
  state.idle.push_back(std::move(c));
}

void DiagnosisService::process(Pending& p) {
  // Worker pickup closes the request's serve.queue stage; serve.process is
  // its service time.
  obs::RequestContext request(p.request_id, p.submit_ns);
  M3DFL_STAGE(stage, "serve.process");
  DiagnosisResponse r;
  r.request_id = p.request_id;
  try {
    const ModelRegistry::Published* published = model_.current();
    if (!published) {
      r.error = "no framework published under '" + opts_.model_name + "'";
    } else {
      const eval::Design& d = *p.state->design;
      {
        M3DFL_STAGE(diag_stage, "serve.diagnose");
        std::unique_ptr<WorkerContext> ctx = acquire_context(*p.state);
        r.atpg_report = ctx->diagnoser->diagnose(*p.log);
        release_context(*p.state, std::move(ctx));
      }

      const SubGraphCacheKey key{&d, failure_log_fingerprint(*p.log), p.log};
      std::shared_ptr<const graphx::SubGraph> sub = subgraph_cache_.get(key);
      r.cache_hit = sub != nullptr;
      metrics_.on_cache(r.cache_hit);
      if (!sub) {
        M3DFL_STAGE(bt_stage, "serve.backtrace");
        sub = std::make_shared<const graphx::SubGraph>(
            graphx::backtrace_subgraph(*d.graph, *p.log, d.scan));
        subgraph_cache_.put(key, sub);
      }

      {
        M3DFL_STAGE(policy_stage, "serve.policy");
        const eval::InferenceMode mode = resolve_inference_mode(
            opts_.inference, published->framework, /*count=*/true);
        r.outcome =
            core::apply_policy(r.atpg_report, *sub,
                               published->framework.models(mode),
                               published->framework.policy_for(mode));
      }
      r.model_version = published->version;
      metrics_.on_model_version(published->version);
      r.ok = true;
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.service_seconds = stage.stop();
  r.queue_seconds = request.queue_seconds();
  r.seconds = r.queue_seconds + r.service_seconds;
  metrics_.on_complete_split(r.queue_seconds, r.service_seconds, r.ok);
  if (!r.ok) {
    M3DFL_LOG_WARN("serve", "rid=%llu failed after %.1f ms: %s",
                   static_cast<unsigned long long>(p.request_id),
                   1e3 * r.seconds, r.error.c_str());
  }
  {
    // Resolved once; record() is wait-free, so the global registry adds no
    // lock to the completion path.
    static obs::LatencyHistogram& queue_hist =
        obs::MetricsRegistry::instance().histogram("serve.queue_wait_seconds");
    static obs::LatencyHistogram& service_hist =
        obs::MetricsRegistry::instance().histogram("serve.service_seconds");
    queue_hist.record(r.queue_seconds);
    service_hist.record(r.service_seconds);
  }
  if (request.capturing()) {
    obs::RequestExemplar ex;
    ex.total_ms = 1e3 * r.seconds;
    ex.queue_ms = 1e3 * r.queue_seconds;
    ex.service_ms = 1e3 * r.service_seconds;
    ex.ok = r.ok;
    ex.cache_hit = r.cache_hit;
    ex.model_version = r.model_version;
    request.offer(std::move(ex));
  }
  p.promise->set_value(std::move(r));
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++finished_;
  }
  drain_cv_.notify_all();
}

DiagnosisResponse DiagnosisService::diagnose_direct(
    const eval::Design& design, const eval::TrainedFramework& fw,
    const sim::FailureLog& log, eval::InferenceMode mode) {
  DiagnosisResponse r;
  diag::Diagnoser diagnoser = design.make_diagnoser();
  r.atpg_report = diagnoser.diagnose(log);
  const graphx::SubGraph sub =
      graphx::backtrace_subgraph(*design.graph, log, design.scan);
  mode = resolve_inference_mode(mode, fw, /*count=*/false);
  r.outcome = core::apply_policy(r.atpg_report, sub, fw.models(mode),
                                 fw.policy_for(mode));
  r.ok = true;
  return r;
}

bool DiagnosisService::ready() const {
  const ModelRegistry::Published* published = model_.current();
  return published != nullptr && executor_.num_threads() > 0;
}

std::uint64_t DiagnosisService::live_model_version() const {
  const ModelRegistry::Published* published = model_.current();
  return published ? published->version : 0;
}

DiagnosisService::QuantStatus DiagnosisService::live_quant_status() const {
  QuantStatus s;
  s.configured = opts_.inference;
  const ModelRegistry::Published* published = model_.current();
  if (published && published->framework.quant) {
    const eval::QuantizedFramework& q = *published->framework.quant;
    s.quantized_available = true;
    s.calib_graphs = q.calib_graphs();
    s.fingerprint = q.fingerprint();
  }
  s.effective = s.configured == eval::InferenceMode::kInt8 &&
                        s.quantized_available
                    ? eval::InferenceMode::kInt8
                    : eval::InferenceMode::kFp32;
  return s;
}

void DiagnosisService::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return finished_ == accepted_; });
}

}  // namespace m3dfl::serve
