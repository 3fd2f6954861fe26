// e2e_run: the measured process of the end-to-end benchmark.
//
//   e2e_run --workload <name> --inputs <dir> --seconds <n> --trace <0|1>
//           [--spans <file>]
//
// Set-up: rebuild the design from its spec (cold eval::cached_design), load
// the framework file, start a DiagnosisService with default options,
// register the design and warm up until every worker holds its diagnosis
// context. Timed phase: a closed loop from this thread keeps kInFlight
// requests in flight, each parsing one log's text and submitting it, and
// runs whole rounds of the workload's request order for at least --seconds.
// Then a direct pass composes the same public calls for every distinct log
// (parse, Diagnoser::diagnose, backtrace_subgraph, each model's predict,
// apply_policy), timed from outside and recorded as spans when --trace 1;
// it is the reference every served response must equal bit for bit.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Everything else goes to stderr.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/metrics.h"
#include "eval/framework_io.h"
#include "graphx/backtrace.h"
#include "inputs.h"
#include "serve/service.h"
#include "spans.h"

namespace {

using namespace m3dfl;
using e2ebench::Clock;
using e2ebench::Inputs;
using e2ebench::SpanRecorder;

// Taken during static initialization, before main: set-up time counts from
// here.
const Clock::time_point g_process_start = Clock::now();

constexpr std::size_t kInFlight = e2ebench::kInFlight;
constexpr std::size_t kWarmupRounds = 4;
// Throughput windows reserved before the timed phase: far more than a run
// of 60 s takes even at 100 times today's tiny throughput.
constexpr std::size_t kMaxMarks = 4096;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// A /proc/self/status field in MB (VmHWM).
double status_mb(const char* field) {
  std::ifstream is("/proc/self/status");
  std::string key;
  double kb = 0.0;
  while (is >> key) {
    if (key == std::string(field) + ":") {
      is >> kb;
      return kb / 1024.0;
    }
    is.ignore(1 << 12, '\n');
  }
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Linear-interpolated quantile (q in [0, 1]) of a sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// One request as the client saw it.
struct Served {
  std::uint32_t log = 0;
  bool timed = false;
  Clock::time_point t_parse0, t_submit;
  serve::DiagnosisResponse r;

  /// Log text entering the parser -> response ready (the service's own
  /// submit-to-ready time, so the client's wake-up delay is not counted).
  double latency_s() const { return secs(t_parse0, t_submit) + r.seconds; }
};

struct InFlight {
  Served s;
  std::future<serve::DiagnosisResponse> f;
};

/// A fixed-size histogram of durations: 512 log-spaced buckets per octave
/// (0.14% wide) from 1 us up to about 70 min. Its memory does not depend on
/// how many samples it holds, so a faster program does not grow the
/// client's share of peak_rss_mb.
class Histogram {
 public:
  void add(double seconds) {
    ++counts_[bucket(seconds)];
    ++n_;
  }
  std::size_t count() const { return n_; }

  /// The sample of rank q * (count - 1), q in [0, 1], placed geometrically
  /// inside its bucket by its rank among the bucket's samples.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_ - 1);
    double below = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const auto c = static_cast<double>(counts_[b]);
      if (c > 0.0 && rank < below + c) {
        return kMin * std::exp2((static_cast<double>(b) +
                                 (rank - below + 0.5) / c) /
                                kPerOctave);
      }
      below += c;
    }
    return kMin * std::exp2(static_cast<double>(kBuckets) / kPerOctave);
  }

 private:
  static constexpr double kMin = 1e-6;
  static constexpr double kPerOctave = 512.0;
  static constexpr std::size_t kBuckets = 32 * 512;

  static std::size_t bucket(double seconds) {
    if (!(seconds > kMin)) return 0;
    const double b = std::log2(seconds / kMin) * kPerOctave;
    return std::min(static_cast<std::size_t>(b), kBuckets - 1);
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::size_t n_ = 0;
};

/// What the client keeps of one log's served requests.
struct LogRecord {
  /// The first successful response, kept in full for the checks.
  std::optional<serve::DiagnosisResponse> first;
  std::uint64_t fingerprint = 0;  ///< response_fingerprint of `first`.
  std::uint32_t served = 0, timed = 0;
  std::uint32_t errors = 0, timed_errors = 0;  ///< Responses with !ok.
  /// Later successful responses whose fingerprint differs from `first`'s.
  std::uint32_t mismatches = 0;
};

/// Everything the checks and metrics need from the served requests, folded
/// in as each request completes: a LogRecord per distinct log and fixed-size
/// histograms of the timed requests. The client's memory therefore does not
/// grow with the number of requests, and peak_rss_mb stays the program's.
/// With tracing on, timed requests are also recorded as spans, which do
/// grow; traced runs report no peak_rss_mb.
class Ledger {
 public:
  Ledger(std::size_t num_logs, SpanRecorder& spans)
      : logs_(num_logs), spans_(spans) {}

  void add(Served s) {
    LogRecord& rec = logs_[s.log];
    ++rec.served;
    rec.errors += !s.r.ok;
    if (s.timed) {
      ++rec.timed;
      rec.timed_errors += !s.r.ok;
      cache_hits_ += s.r.cache_hit;
      latency_.add(s.latency_s());
      queue_.add(s.r.queue_seconds);
      service_.add(s.r.service_seconds);
      service_total_s_ += s.r.service_seconds;
    }
    if (spans_.on() && s.timed) {
      const std::uint64_t rid = s.r.request_id;
      const Clock::time_point pickup = after(s.t_submit, s.r.queue_seconds);
      const Clock::time_point ready = after(s.t_submit, s.r.seconds);
      const int req = spans_.add("serve.request", rid, -1, s.t_parse0, ready);
      spans_.add("sim.faillog_parse", rid, req, s.t_parse0, s.t_submit);
      spans_.add("serve.queue", rid, req, s.t_submit, pickup);
      spans_.add("serve.service", rid, req, pickup, ready);
    }
    if (!s.r.ok) return;
    const std::uint64_t fp =
        e2ebench::response_fingerprint(s.r.atpg_report, s.r.outcome);
    if (!rec.first) {
      rec.fingerprint = fp;
      rec.first = std::move(s.r);
    } else {
      rec.mismatches += fp != rec.fingerprint;
    }
  }

  const std::vector<LogRecord>& logs() const { return logs_; }
  const Histogram& latency() const { return latency_; }
  const Histogram& queue() const { return queue_; }
  const Histogram& service() const { return service_; }
  std::size_t cache_hits() const { return cache_hits_; }
  double service_total_s() const { return service_total_s_; }

 private:
  std::vector<LogRecord> logs_;
  Histogram latency_, queue_, service_;
  std::size_t cache_hits_ = 0;
  double service_total_s_ = 0.0;
  SpanRecorder& spans_;
};

/// The closed loop's request slots. One waiter thread per slot blocks on
/// that slot's future and wakes the client when it is ready, so the client
/// refills whichever slot completes first without polling (polling would
/// add its own CPU time to every request).
class Slots {
 public:
  Slots() {
    for (std::size_t i = 0; i < kInFlight; ++i) {
      waiters_[i] = std::thread([this, i] { watch(i); });
    }
  }
  ~Slots() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    for (std::condition_variable& cv : slot_cv_) cv.notify_all();
    for (std::thread& t : waiters_) t.join();
  }
  Slots(const Slots&) = delete;
  Slots& operator=(const Slots&) = delete;

  /// Puts a submitted request into free slot i.
  void fill(std::size_t i, InFlight x) {
    std::lock_guard<std::mutex> lock(mu_);
    slot_[i] = std::move(x);
    state_[i] = State::kWatching;
    slot_cv_[i].notify_one();
  }

  /// Blocks until at least one request completed, adds every completed
  /// request to `done` and returns the slots they freed.
  std::vector<std::size_t> wait_done(Ledger& done) {
    std::vector<std::size_t> freed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      client_cv_.wait(lock, [this] {
        return std::find(state_.begin(), state_.end(), State::kReady) !=
               state_.end();
      });
      for (std::size_t i = 0; i < kInFlight; ++i) {
        if (state_[i] == State::kReady) {
          state_[i] = State::kIdle;
          freed.push_back(i);
        }
      }
    }
    for (std::size_t i : freed) {
      slot_[i].s.r = slot_[i].f.get();
      done.add(std::move(slot_[i].s));
    }
    return freed;
  }

 private:
  enum class State { kIdle, kWatching, kReady };

  void watch(std::size_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      slot_cv_[i].wait(lock,
                       [&] { return stop_ || state_[i] == State::kWatching; });
      if (stop_) return;
      lock.unlock();
      slot_[i].f.wait();  // The client leaves a watched slot alone.
      lock.lock();
      state_[i] = State::kReady;
      client_cv_.notify_one();
    }
  }

  std::mutex mu_;  // Guards state_ and stop_.
  std::condition_variable client_cv_;
  std::array<std::condition_variable, kInFlight> slot_cv_;
  std::array<State, kInFlight> state_{};
  std::array<InFlight, kInFlight> slot_;
  bool stop_ = false;
  std::array<std::thread, kInFlight> waiters_;  // Last: uses the above.
};

InFlight parse_and_submit(serve::DiagnosisService& svc, const eval::Design& d,
                          const Inputs& in, std::uint32_t log, bool timed) {
  InFlight x;
  x.s.log = log;
  x.s.timed = timed;
  x.s.t_parse0 = Clock::now();
  sim::FailureLogParseResult parsed =
      sim::failure_log_from_text(in.log_texts[log]);
  x.s.t_submit = Clock::now();
  if (!parsed.ok) {
    throw std::runtime_error("generated log " + std::to_string(log) +
                             " does not parse: " + parsed.message);
  }
  x.f = svc.submit(d, std::move(parsed.log));
  return x;
}

/// kWarmupRounds rounds of kInFlight concurrent requests over the warm-up
/// logs. Each round is flushed as one batch and fanned out to kInFlight
/// workers at once, and a task that finds the design's context pool empty
/// builds a context, so the rounds make the workers build their contexts
/// before the timed phase. The service exposes no count of its contexts, so
/// this is not proven; a fixed number of rounds keeps set-up time free of a
/// stopping rule that depends on timing.
void warm_up(serve::DiagnosisService& svc, const eval::Design& d,
             const Inputs& in, Ledger& out) {
  std::size_t k = 0;
  for (std::size_t round = 0; round < kWarmupRounds; ++round) {
    std::vector<InFlight> batch;
    for (std::size_t i = 0; i < kInFlight; ++i) {
      batch.push_back(parse_and_submit(
          svc, d, in, in.warmup[k++ % in.warmup.size()], false));
    }
    for (InFlight& x : batch) {
      x.s.r = x.f.get();
      out.add(std::move(x.s));
    }
  }
}

/// The direct composition's result for one distinct log.
struct Direct {
  diag::DiagnosisReport atpg;
  core::PolicyOutcome outcome;
  sim::FaultSimulator::SimStats stats;
  std::size_t sub_nodes = 0;
  bool resim_ok = false;
};

/// A private diagnosis context, built as the service builds one: a clone of
/// the design's bound simulator plus a Diagnoser bound to it.
struct Context {
  std::unique_ptr<sim::FaultSimulator> fsim;
  std::unique_ptr<diag::Diagnoser> diagnoser;

  explicit Context(const eval::Design& d) {
    fsim = d.fsim->clone();
    diag::DiagnoserOptions opts = d.spec.diag;
    opts.multifault = false;
    diagnoser = std::make_unique<diag::Diagnoser>(d.nl, d.sites, d.scan, opts);
    diagnoser->bind(*fsim);
  }
};

// Keeps the separately timed model outputs observable to the optimizer.
thread_local volatile double g_sink = 0.0;

/// The direct composition for one log; `check_sim` is the re-simulation
/// check's own simulator clone.
void compose(const eval::Design& d, const eval::TrainedFramework& fw,
             const Inputs& in, std::uint32_t log, Context& ctx,
             sim::FaultSimulator& check_sim, SpanRecorder& rec, Direct& out) {
  const std::uint64_t rid = log + 1;
  SpanRecorder::Scope request(rec, "request", rid);
  sim::FailureLogParseResult parsed;
  {
    SpanRecorder::Scope s(rec, "sim.faillog_parse", rid);
    parsed = sim::failure_log_from_text(in.log_texts[log]);
  }
  ctx.fsim->take_stats();
  {
    SpanRecorder::Scope s(rec, "diagnosis.diagnose", rid);
    out.atpg = ctx.diagnoser->diagnose(parsed.log);
  }
  out.stats = ctx.fsim->take_stats();
  graphx::SubGraph sub;
  {
    SpanRecorder::Scope s(rec, "graphx.backtrace", rid);
    sub = graphx::backtrace_subgraph(*d.graph, parsed.log, d.scan);
  }
  out.sub_nodes = sub.num_nodes();
  // Each model's public predict, timed on its own; apply_policy below runs
  // them again as part of the policy.
  {
    SpanRecorder::Scope s(rec, "gnn.tier", rid);
    g_sink = fw.tier.predict(sub).p_top;
  }
  {
    SpanRecorder::Scope s(rec, "gnn.miv", rid);
    g_sink = static_cast<double>(fw.miv.scores(sub).size());
  }
  {
    SpanRecorder::Scope s(rec, "gnn.classifier", rid);
    g_sink = fw.classifier.prune_probability(sub);
  }
  {
    SpanRecorder::Scope s(rec, "core.policy", rid);
    out.outcome = core::apply_policy(out.atpg, sub, fw.models(), fw.policy);
  }
  out.resim_ok =
      e2ebench::resim_reproduces(d, check_sim, parsed.log, out.atpg);
}

sim::FaultPolarity flipped(sim::FaultPolarity p) {
  return p == sim::FaultPolarity::kSlowToRise ? sim::FaultPolarity::kSlowToFall
                                              : sim::FaultPolarity::kSlowToRise;
}

/// Feeds every check a corrupted response and shows that the checks meant
/// to catch it reject it, and that every check rejects something.
bool self_test(const eval::Design& d, const Inputs& in,
               const std::vector<LogRecord>& served,
               const std::vector<Direct>& direct) {
  std::vector<std::uint32_t> usable;
  for (std::uint32_t i = 0; i < served.size() && usable.size() < 2; ++i) {
    const std::optional<serve::DiagnosisResponse>& r = served[i].first;
    if (r && !r->atpg_report.candidates.empty() &&
        !r->outcome.report.candidates.empty() && direct[i].resim_ok) {
      usable.push_back(i);
    }
  }
  if (usable.size() < 2) {
    std::fprintf(stderr, "self-test: no two usable responses\n");
    return false;
  }
  const serve::DiagnosisResponse& a = *served[usable[0]].first;
  const serve::DiagnosisResponse& b = *served[usable[1]].first;
  const sim::FailureLog log_a =
      sim::failure_log_from_text(in.log_texts[usable[0]]).log;
  std::unique_ptr<sim::FaultSimulator> sim = d.fsim->clone();
  const std::uint64_t ref_a = e2ebench::response_fingerprint(
      direct[usable[0]].atpg, direct[usable[0]].outcome);

  struct Verdict {
    const char* corruption;
    bool resim, policy, paths;  // true = the check rejected it
    bool want_resim, want_policy, want_paths;
  };
  std::vector<Verdict> verdicts;
  auto judge = [&](const char* name, const diag::DiagnosisReport& atpg,
                   const core::PolicyOutcome& outcome, bool want_resim,
                   bool want_policy, bool want_paths) {
    verdicts.push_back(
        {name, !e2ebench::resim_reproduces(d, *sim, log_a, atpg),
         !e2ebench::policy_violation(atpg, outcome).empty(),
         e2ebench::response_fingerprint(atpg, outcome) != ref_a,
         want_resim, want_policy, want_paths});
  };

  {  // One candidate's polarity flipped (the best ATPG candidate).
    diag::DiagnosisReport atpg = a.atpg_report;
    auto best = std::max_element(
        atpg.candidates.begin(), atpg.candidates.end(),
        [](const auto& x, const auto& y) { return x.score < y.score; });
    best->polarity = flipped(best->polarity);
    judge("polarity flipped", atpg, a.outcome, true, true, true);
  }
  {  // One candidate duplicated into the backup.
    core::PolicyOutcome outcome = a.outcome;
    outcome.backup.push_back(outcome.report.candidates.front());
    judge("candidate duplicated into backup", a.atpg_report, outcome, false,
          true, true);
  }
  // Another log's response handed back for this log.
  judge("response swapped with another log's", b.atpg_report, b.outcome,
        true, false, true);

  bool ok = true;
  bool rejected[3] = {false, false, false};
  for (const Verdict& v : verdicts) {
    std::fprintf(stderr,
                 "self-test: %-36s resim %-8s policy %-8s two-paths %s\n",
                 v.corruption, v.resim ? "rejects" : "passes",
                 v.policy ? "rejects" : "passes",
                 v.paths ? "rejects" : "passes");
    ok &= (v.resim || !v.want_resim) && (v.policy || !v.want_policy) &&
          (v.paths || !v.want_paths);
    rejected[0] |= v.resim;
    rejected[1] |= v.policy;
    rejected[2] |= v.paths;
  }
  return ok && rejected[0] && rejected[1] && rejected[2];
}

/// Shortest round-trip decimal form of a double.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload, inputs, spans;
  double seconds = 0.0;
  int trace = -1;
};

int run(const Args& args) {
  const e2ebench::Workload* w = e2ebench::find_workload(args.workload);
  Inputs in;
  std::string error;
  if (!e2ebench::read_inputs(args.inputs, in, &error)) {
    std::fprintf(stderr, "e2e_run: %s\n", error.c_str());
    return 1;
  }
  if (in.workload != args.workload) {
    std::fprintf(stderr, "e2e_run: inputs are for %s\n", in.workload.c_str());
    return 1;
  }
  const bool traced = args.trace == 1;
  SpanRecorder client_rec(traced, 0);

  // ---- Set-up -------------------------------------------------------------
  Clock::time_point t = Clock::now();
  const eval::Design& d =
      eval::cached_design(e2ebench::spec_of(*w), e2ebench::kConfig);
  const double design_build_s = secs(t, Clock::now());
  client_rec.add("eval.design_build", 0, -1, t, Clock::now());

  t = Clock::now();
  eval::TrainedFramework fw;
  if (!eval::load_framework_file(fw, e2ebench::framework_path(args.inputs),
                                 &error)) {
    std::fprintf(stderr, "e2e_run: framework: %s\n", error.c_str());
    return 1;
  }
  const double framework_load_s = secs(t, Clock::now());
  client_rec.add("eval.framework_load", 0, -1, t, Clock::now());

  Ledger ledger(in.log_texts.size(), client_rec);
  double register_s = 0.0, warmup_s = 0.0, setup_s = 0.0, serve_s = 0.0;
  double peak_rss_mb = 0.0;
  // Throughput and CPU are taken per window (Workload::windows per round,
  // from one window's first submission to the next's) and reported as the
  // median over the run's windows, which keeps a burst of host noise in one
  // window out of the figure. The marks are reserved up front so that the
  // timed phase does not grow the client's memory either.
  struct Mark {
    Clock::time_point t;
    double cpu_s;
    std::size_t completed;
  };
  std::vector<Mark> marks;
  marks.reserve(kMaxMarks);
  serve::MetricsSnapshot snap0, snap1;
  {
    serve::ModelRegistry registry;
    registry.publish("default", fw, "e2ebench");
    serve::DiagnosisService svc(registry);
    t = Clock::now();
    svc.register_design(d);
    register_s = secs(t, Clock::now());
    client_rec.add("serve.register", 0, -1, t, Clock::now());
    t = Clock::now();
    warm_up(svc, d, in, ledger);
    warmup_s = secs(t, Clock::now());
    client_rec.add("serve.warmup", 0, -1, t, Clock::now());

    // ---- Timed phase ------------------------------------------------------
    snap0 = svc.metrics().snapshot();
    const Clock::time_point t_start = Clock::now();
    setup_s = secs(g_process_start, t_start);
    const std::size_t round_len = in.round.size();
    const std::size_t window_len = round_len / w->windows;
    std::size_t pos = 0, busy = 0, completed = 0;
    bool stop = false;
    Slots slots;
    auto submit_next = [&](std::size_t slot) {
      if (stop || (pos > 0 && pos % round_len == 0 &&
                   secs(t_start, Clock::now()) >= args.seconds)) {
        stop = true;  // Only whole rounds are attempted.
        return;
      }
      if (pos % window_len == 0) {
        marks.push_back({Clock::now(), cpu_seconds(), completed});
      }
      slots.fill(slot,
                 parse_and_submit(svc, d, in, in.round[pos % round_len], true));
      ++pos;
      ++busy;
    };
    for (std::size_t i = 0; i < kInFlight; ++i) submit_next(i);
    while (busy > 0) {
      for (std::size_t i : slots.wait_done(ledger)) {
        --busy;
        ++completed;
        submit_next(i);
      }
    }
    const Clock::time_point t_end = Clock::now();
    serve_s = secs(t_start, t_end);
    marks.push_back({t_end, cpu_seconds(), completed});
    peak_rss_mb = status_mb("VmHWM");
    snap1 = svc.metrics().snapshot();
  }  // The service and its worker contexts end here.

  std::vector<double> window_rate, window_cpu_ms;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const double logs =
        static_cast<double>(marks[i].completed - marks[i - 1].completed);
    window_rate.push_back(logs / secs(marks[i - 1].t, marks[i].t));
    window_cpu_ms.push_back(1e3 * (marks[i].cpu_s - marks[i - 1].cpu_s) / logs);
  }
  const std::size_t attempted = ledger.latency().count();

  // ---- Direct pass: the reference composition, traced when asked -------
  const std::size_t n = in.log_texts.size();
  std::vector<Direct> direct(n);
  std::vector<std::unique_ptr<SpanRecorder>> recs;
  std::vector<std::unique_ptr<Context>> ctxs(kInFlight);
  for (std::size_t i = 0; i < kInFlight; ++i) {
    recs.push_back(std::make_unique<SpanRecorder>(traced, i + 1));
  }
  // One context built alone, so its time and memory are its own. Its memory
  // is the heap it holds (mallinfo2 counts every arena and mmap'd chunk),
  // which does not depend on what the freed service contexts left behind.
  const struct mallinfo2 heap0 = mallinfo2();
  t = Clock::now();
  ctxs[0] = std::make_unique<Context>(d);
  const double construct_s = secs(t, Clock::now());
  const struct mallinfo2 heap1 = mallinfo2();
  const double context_rss_mb =
      (static_cast<double>(heap1.uordblks + heap1.hblkhd) -
       static_cast<double>(heap0.uordblks + heap0.hblkhd)) /
      (1024.0 * 1024.0);
  const Clock::time_point t_direct = Clock::now();
  std::vector<std::exception_ptr> errors(kInFlight);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kInFlight; ++i) {
    threads.emplace_back([&, i] {
      try {
        if (!ctxs[i]) ctxs[i] = std::make_unique<Context>(d);
        const std::unique_ptr<sim::FaultSimulator> check_sim = d.fsim->clone();
        for (std::size_t j = i; j < n; j += kInFlight) {
          compose(d, fw, in, static_cast<std::uint32_t>(j), *ctxs[i],
                  *check_sim, *recs[i], direct[j]);
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  const double direct_s = secs(t_direct, Clock::now());
  ctxs.clear();

  // ---- Checks ---------------------------------------------------------------
  std::size_t failed = 0;
  bool correct = true;
  auto problem = [&correct](std::uint32_t log, const std::string& what) {
    if (correct) std::fprintf(stderr, "e2e_run: log %u: %s\n", log, what.c_str());
    correct = false;
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const LogRecord& r = ledger.logs()[i];
    // Every request for a log whose best candidate does not reproduce it
    // fails, and so does every error response.
    const bool resim_ok = direct[i].resim_ok;
    failed += resim_ok ? r.timed_errors : r.timed;
    if (!w->may_fail && r.errors > 0) {
      problem(i, "the service returned an error");
    }
    if (!w->may_fail && !resim_ok && r.served > r.errors) {
      problem(i, "best candidate does not reproduce the log");
    }
    // Every successful response equals the first, which must equal the
    // direct composition.
    if (!r.first) continue;
    if (r.mismatches > 0 ||
        r.fingerprint != e2ebench::response_fingerprint(direct[i].atpg,
                                                        direct[i].outcome)) {
      problem(i, "served response differs from the direct composition");
    }
    const std::string violation =
        e2ebench::policy_violation(r.first->atpg_report, r.first->outcome);
    if (!violation.empty()) problem(i, violation);
  }
  if (!self_test(d, in, ledger.logs(), direct)) {
    std::fprintf(stderr, "e2e_run: self-test failed\n");
    correct = false;
  }

  // ---- Reference figures (stderr only) -----------------------------------
  core::QualityAccumulator q_atpg, q_final;
  core::TierLocalizationCounter loc;
  std::size_t pruned = 0, failing = 0;
  std::vector<double> report_size, sub_nodes, sim_calls, sim_events,
      sim_words, sim_skips;
  for (std::size_t i = 0; i < n; ++i) {
    const Direct& r = direct[i];
    const netlist::SiteId truth[] = {in.truth[i].fault.site};
    q_atpg.add(r.atpg, truth);
    q_final.add(r.outcome.report, truth);
    loc.add(r.atpg.single_tier(),
            r.outcome.predicted_tier == static_cast<netlist::Tier>(in.truth[i].tier));
    pruned += r.outcome.pruned;
    failing += !r.resim_ok;
    report_size.push_back(static_cast<double>(r.atpg.candidates.size()));
    sub_nodes.push_back(static_cast<double>(r.sub_nodes));
    sim_calls.push_back(static_cast<double>(r.stats.observed_diff_calls));
    sim_events.push_back(static_cast<double>(r.stats.events_processed));
    sim_words.push_back(static_cast<double>(r.stats.words_evaluated));
    sim_skips.push_back(static_cast<double>(r.stats.cone_skips));
  }
  const core::QualityStats qa = q_atpg.stats(), qf = q_final.stats();
  std::fprintf(stderr,
               "quality over %zu distinct logs: accuracy %.4f -> %.4f, "
               "resolution %.3f -> %.3f, first-hit index %.3f -> %.3f, "
               "tier localization %.4f over %zu, pruned %zu, failing %zu\n",
               n, qa.accuracy, qf.accuracy, qa.mean_resolution,
               qf.mean_resolution, qa.mean_fhi, qf.mean_fhi, loc.rate(),
               loc.considered(), pruned, failing);
  const std::uint64_t batches = snap1.batches - snap0.batches;
  const double hit_ratio =
      attempted ? static_cast<double>(ledger.cache_hits()) / attempted : 0.0;
  // Samples ranked above the p95 sample, whose rank is 0.95 * (count - 1).
  const std::size_t above_p95 =
      attempted -
      static_cast<std::size_t>(0.95 * static_cast<double>(attempted - 1)) - 1;
  std::fprintf(stderr,
               "served: %zu timed requests (%zu rounds of %zu) in %.3f s, "
               "%zu warm-up rounds, %llu batches; latency samples %zu, "
               "above p95 %zu; direct pass %.3f s\n",
               attempted, attempted / in.round.size(), in.round.size(),
               serve_s, kWarmupRounds,
               static_cast<unsigned long long>(batches), attempted, above_p95,
               direct_s);

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"logs_per_s", quantile(window_rate, 0.5), "logs/s"},
        {"latency_p50_ms", 1e3 * ledger.latency().quantile(0.50), "ms"},
        {"latency_p95_ms", 1e3 * ledger.latency().quantile(0.95), "ms"},
        {"cpu_ms_per_log", quantile(window_cpu_ms, 0.5), "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    std::map<std::string, std::vector<double>> span_s;
    for (const auto& r : recs) {
      for (const e2ebench::Span& s : r->spans()) {
        span_s[s.name].push_back(s.seconds());
      }
    }
    auto med = [&span_s](const char* name, double scale) {
      return scale * quantile(span_s[name], 0.5);
    };
    const double accounted =
        mean(span_s["diagnosis.diagnose"]) +
        (1.0 - hit_ratio) * mean(span_s["graphx.backtrace"]) +
        mean(span_s["core.policy"]);
    std::fprintf(stderr,
                 "layer calls account for %.4f of the mean served service "
                 "time\n",
                 accounted / (ledger.service_total_s() / attempted));
    metrics = {
        {"serve.queue_ms", 1e3 * ledger.queue().quantile(0.5), "ms"},
        {"serve.batch_mean",
         batches ? static_cast<double>(snap1.batch_items - snap0.batch_items) /
                       batches
                 : 0.0,
         "count"},
        {"serve.flush_deadline_share",
         batches ? static_cast<double>(snap1.flush_deadline -
                                       snap0.flush_deadline) /
                       batches
                 : 0.0,
         "ratio"},
        {"serve.service_ms", 1e3 * ledger.service().quantile(0.5), "ms"},
        {"serve.cache_hit_ratio", hit_ratio, "ratio"},
        {"serve.register_s", register_s, "s"},
        {"serve.warmup_s", warmup_s, "s"},
        {"eval.design_build_s", design_build_s, "s"},
        {"eval.framework_load_ms", 1e3 * framework_load_s, "ms"},
        {"diagnosis.construct_s", construct_s, "s"},
        {"diagnosis.context_rss_mb", context_rss_mb, "MB"},
        {"diagnosis.diagnose_ms", med("diagnosis.diagnose", 1e3), "ms"},
        {"diagnosis.diagnose_p95_ms",
         1e3 * quantile(span_s["diagnosis.diagnose"], 0.95), "ms"},
        {"diagnosis.report_size", mean(report_size), "count"},
        {"sim.observed_diff_calls_per_log", mean(sim_calls), "count"},
        {"sim.events_per_log", mean(sim_events), "count"},
        {"sim.words_per_log", mean(sim_words), "count"},
        {"sim.cone_skips_per_log", mean(sim_skips), "count"},
        {"graphx.backtrace_ms", med("graphx.backtrace", 1e3), "ms"},
        {"graphx.subgraph_nodes", mean(sub_nodes), "count"},
        {"gnn.tier_us", med("gnn.tier", 1e6), "us"},
        {"gnn.miv_us", med("gnn.miv", 1e6), "us"},
        {"gnn.classifier_us", med("gnn.classifier", 1e6), "us"},
        {"core.policy_us", med("core.policy", 1e6), "us"},
        {"sim.faillog_parse_us", med("sim.faillog_parse", 1e6), "us"},
    };
    std::vector<const SpanRecorder*> all = {&client_rec};
    for (const auto& r : recs) all.push_back(r.get());
    if (!args.spans.empty() &&
        !e2ebench::write_chrome_trace(args.spans, all, g_process_start)) {
      std::fprintf(stderr, "e2e_run: cannot write %s\n", args.spans.c_str());
      return 1;
    }
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool ok = argc % 2 == 1;
  for (int i = 1; ok && i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--inputs") {
      args.inputs = value;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      ok = false;
    }
  }
  if (!ok || !e2ebench::find_workload(args.workload) || args.inputs.empty() ||
      !(args.seconds > 0.0) || args.trace < 0) {
    std::fprintf(stderr,
                 "usage: e2e_run --workload <name> --inputs <dir> --seconds "
                 "<n> --trace <0|1> [--spans <file>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_run: %s\n", e.what());
    return 1;
  }
}
