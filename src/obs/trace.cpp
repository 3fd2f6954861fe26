#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>

namespace m3dfl::obs {

/// One seqlock-protected ring slot. Every field is an atomic so concurrent
/// snapshot() reads are race-free under TSan; the sequence number filters
/// out torn cross-field combinations:
///   writer: seq -> odd (relaxed), release fence, payload (relaxed),
///           seq -> even (release);
///   reader: seq (acquire; skip if odd), payload (relaxed), acquire fence,
///           re-read seq (skip if changed).
/// Only the owning thread ever writes a slot, so writers never contend.
struct Slot {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<std::uint32_t> tid{0};
  std::atomic<std::uint32_t> depth{0};
};

struct Tracer::ThreadLog {
  std::array<Slot, Tracer::kRingCapacity> slots;
  std::atomic<std::uint64_t> head{0};  ///< Total spans ever written.
  std::uint32_t tid = 0;
};

namespace {

/// Owns the thread-local log pointer; returns the log to the tracer's free
/// list on thread exit so short-lived worker threads (the Executor spawns a
/// fresh set per pipeline call) recycle rings instead of growing the set.
struct TlsHolderImpl {
  Tracer::ThreadLog* log = nullptr;
  ~TlsHolderImpl();
};

thread_local TlsHolderImpl tls_log;

}  // namespace

// Defined after Tracer's members are visible.
struct TlsHolder {
  static void retire(Tracer::ThreadLog* log) {
    Tracer::instance().retire_log(log);
  }
  static Tracer::ThreadLog* acquire() {
    return Tracer::instance().acquire_log();
  }
};

namespace {
TlsHolderImpl::~TlsHolderImpl() {
  if (log != nullptr) TlsHolder::retire(log);
}
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Tracer::ThreadLog* Tracer::acquire_log() {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadLog* log;
  if (!free_.empty()) {
    log = free_.back();
    free_.pop_back();
  } else {
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
  }
  // A recycled ring keeps its old events (each slot carries its tid, so
  // they stay attributed correctly); the new owner overwrites them as it
  // records. Fresh tid either way: one tid never spans two OS threads.
  log->tid = next_tid_++;
  return log;
}

void Tracer::retire_log(ThreadLog* log) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(log);
}

void Tracer::record(const char* name, const char* category,
                    std::uint64_t start_ns, std::uint64_t dur_ns,
                    std::uint32_t depth) {
  if (!enabled()) return;
  ThreadLog* log = tls_log.log;
  if (log == nullptr) {
    log = TlsHolder::acquire();
    tls_log.log = log;
  }
  const std::uint64_t h = log->head.load(std::memory_order_relaxed);
  Slot& s = log->slots[h & (kRingCapacity - 1)];
  const std::uint32_t sq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(sq + 1, std::memory_order_relaxed);  // Odd: write in progress.
  std::atomic_thread_fence(std::memory_order_release);
  s.name.store(name, std::memory_order_relaxed);
  s.category.store(category, std::memory_order_relaxed);
  s.start_ns.store(start_ns, std::memory_order_relaxed);
  s.dur_ns.store(dur_ns, std::memory_order_relaxed);
  s.tid.store(log->tid, std::memory_order_relaxed);
  s.depth.store(depth, std::memory_order_relaxed);
  s.seq.store(sq + 2, std::memory_order_release);  // Even: committed.
  log->head.store(h + 1, std::memory_order_release);
}

std::vector<SpanEvent> Tracer::snapshot() const {
  std::vector<const ThreadLog*> logs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    logs.reserve(logs_.size());
    for (const auto& l : logs_) logs.push_back(l.get());
  }
  std::vector<SpanEvent> out;
  for (const ThreadLog* log : logs) {
    const std::uint64_t head = log->head.load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(head, kRingCapacity);
    for (std::uint64_t i = head - count; i < head; ++i) {
      const Slot& s = log->slots[i & (kRingCapacity - 1)];
      const std::uint32_t sq1 = s.seq.load(std::memory_order_acquire);
      if (sq1 & 1) continue;  // Writer mid-update.
      SpanEvent e;
      e.name = s.name.load(std::memory_order_relaxed);
      e.category = s.category.load(std::memory_order_relaxed);
      e.start_ns = s.start_ns.load(std::memory_order_relaxed);
      e.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      e.tid = s.tid.load(std::memory_order_relaxed);
      e.depth = s.depth.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != sq1) continue;  // Torn.
      if (e.name == nullptr) continue;  // Slot overwritten by clear().
      out.push_back(e);
    }
  }
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& log : logs_) {
    const std::uint64_t head = log->head.load(std::memory_order_relaxed);
    if (head > kRingCapacity) total += head - kRingCapacity;
  }
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (Slot& s : log->slots) {
      s.seq.store(0, std::memory_order_relaxed);
      s.name.store(nullptr, std::memory_order_relaxed);
    }
    log->head.store(0, std::memory_order_relaxed);
  }
}

void Tracer::write_chrome_trace(std::ostream& os,
                                const std::string& extra_sections) const {
  std::vector<SpanEvent> events = snapshot();
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.start_ns < b.start_ns;
            });
  // Span names are static identifiers ("datagen.shard") by construction, so
  // no JSON string escaping is required.
  os << "{\"traceEvents\":[\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"m3dfl\"}}";
  char buf[64];
  for (const SpanEvent& e : events) {
    os << ",\n{\"name\":\"" << e.name << "\",\"cat\":\"" << e.category
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid;
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.start_ns) / 1e3);
    os << ",\"ts\":" << buf;
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.dur_ns) / 1e3);
    os << ",\"dur\":" << buf << ",\"args\":{\"depth\":" << e.depth << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"";
  if (!extra_sections.empty()) os << ',' << extra_sections;
  os << "}\n";
}

std::vector<SpanSummary> summarize_spans(
    const std::vector<SpanEvent>& events) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::vector<std::uint32_t> tids;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanEvent& e : events) {
    Agg& a = by_name[e.name];
    ++a.count;
    a.total_ns += e.dur_ns;
    if (std::find(a.tids.begin(), a.tids.end(), e.tid) == a.tids.end()) {
      a.tids.push_back(e.tid);
    }
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (const auto& [name, a] : by_name) {
    out.push_back({name, a.count, static_cast<double>(a.total_ns) / 1e6,
                   static_cast<std::uint32_t>(a.tids.size())});
  }
  std::sort(out.begin(), out.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.name < b.name;
            });
  return out;
}

}  // namespace m3dfl::obs
