#include "obs/prof/counters.h"

#if M3DFL_OBS_ENABLED

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#if defined(__linux__)
#define M3DFL_PERF_SUPPORTED 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define M3DFL_PERF_SUPPORTED 0
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#endif

namespace m3dfl::obs::prof {

namespace {

/// Event set for each hardware rung, in open order (leader first). The
/// read() buffer returns values in this same order.
struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

#if M3DFL_PERF_SUPPORTED

constexpr EventSpec kFullEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
};
constexpr EventSpec kBasicEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
};

int perf_open(const EventSpec& ev, int group_fd) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = ev.type;
  attr.config = ev.config;
  attr.disabled = 0;  // Count from open; scopes diff two readings.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 0;  // Per-thread: each worker counts its own cycles.
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(::syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                    /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

/// Tries to open a whole group on the calling thread; returns the number
/// of events opened (0 on failure) and the fds via `fds`.
int open_group(const EventSpec* events, int n, int* fds, int* err) {
  for (int i = 0; i < n; ++i) fds[i] = -1;
  for (int i = 0; i < n; ++i) {
    fds[i] = perf_open(events[i], i == 0 ? -1 : fds[0]);
    if (fds[i] < 0) {
      if (err != nullptr) *err = errno;
      for (int j = 0; j < i; ++j) {
        ::close(fds[j]);
        fds[j] = -1;
      }
      return 0;
    }
  }
  return n;
}

#endif  // M3DFL_PERF_SUPPORTED

bool force_no_perf_event_env() {
  const char* v = std::getenv("M3DFL_NO_PERF_EVENT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

double thread_cpu_seconds() {
#if defined(RUSAGE_THREAD)
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) != 0) return 0.0;
#elif defined(RUSAGE_SELF)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#else
  return 0.0;
#endif
#if defined(RUSAGE_THREAD) || defined(RUSAGE_SELF)
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
#endif
}

CounterAvailability do_probe(bool force_no_perf_event) {
  CounterAvailability av;
#if !defined(RUSAGE_SELF)
  av.mode = CounterMode::kUnavailable;
  av.detail = "no getrusage on this platform";
  return av;
#else
  av.mode = CounterMode::kRusage;
#endif
  if (force_no_perf_event) {
    av.detail = "forced off via M3DFL_NO_PERF_EVENT";
    return av;
  }
#if M3DFL_PERF_SUPPORTED
  int fds[4];
  int err = 0;
  if (open_group(kFullEvents, 4, fds, &err) == 4) {
    for (int fd : fds) ::close(fd);
    av.mode = CounterMode::kFull;
    av.detail = "ok";
    return av;
  }
  const int full_err = err;
  if (open_group(kBasicEvents, 2, fds, &err) == 2) {
    for (int i = 0; i < 2; ++i) ::close(fds[i]);
    av.mode = CounterMode::kBasic;
    av.detail = std::string("cache/branch events unavailable: ") +
                std::strerror(full_err);
    return av;
  }
  av.detail = std::string("perf_event_open: ") + std::strerror(err);
#else
  av.detail = "perf_event_open requires Linux";
#endif
  return av;
}

#if M3DFL_PERF_SUPPORTED

/// Per-thread perf group, opened lazily on the first read and closed when
/// the thread exits.
struct ThreadGroup {
  int fds[4] = {-1, -1, -1, -1};
  int n_events = 0;
  bool attempted = false;
  ~ThreadGroup() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

thread_local ThreadGroup tls_group;

bool read_group(CounterValues* out) {
  const CounterAvailability& av = counter_availability();
  if (av.mode != CounterMode::kFull && av.mode != CounterMode::kBasic) {
    return false;
  }
  ThreadGroup& g = tls_group;
  if (!g.attempted) {
    g.attempted = true;
    if (av.mode == CounterMode::kFull) {
      g.n_events = open_group(kFullEvents, 4, g.fds, nullptr);
    } else {
      g.n_events = open_group(kBasicEvents, 2, g.fds, nullptr);
    }
  }
  if (g.n_events == 0) return false;
  // {nr, time_enabled, time_running, values[nr]}
  std::uint64_t buf[3 + 4] = {};
  const ssize_t want =
      static_cast<ssize_t>((3 + g.n_events) * sizeof(std::uint64_t));
  if (::read(g.fds[0], buf, static_cast<std::size_t>(want)) != want) {
    return false;
  }
  const std::uint64_t te = buf[1];
  const std::uint64_t tr = buf[2];
  // Multiplex correction: scale counts up by enabled/running time. tr == 0
  // means the group never ran (no data yet) — report raw zeros.
  const double scale =
      tr > 0 ? static_cast<double>(te) / static_cast<double>(tr) : 1.0;
  auto scaled = [&](int i) {
    return static_cast<std::uint64_t>(static_cast<double>(buf[3 + i]) *
                                      scale);
  };
  out->cycles = scaled(0);
  out->instructions = scaled(1);
  if (g.n_events >= 4) {
    out->llc_misses = scaled(2);
    out->branch_misses = scaled(3);
  }
  out->hw_valid = true;
  return true;
}

#endif  // M3DFL_PERF_SUPPORTED

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

}  // namespace

const char* counter_mode_name(CounterMode mode) {
  switch (mode) {
    case CounterMode::kFull: return "full";
    case CounterMode::kBasic: return "basic";
    case CounterMode::kRusage: return "rusage";
    case CounterMode::kUnavailable: return "unavailable";
  }
  return "unavailable";
}

CounterAvailability probe_counters(bool force_no_perf_event) {
  return do_probe(force_no_perf_event);
}

const CounterAvailability& counter_availability() {
  static const CounterAvailability av = do_probe(force_no_perf_event_env());
  return av;
}

bool read_thread_counters(CounterValues* out) {
  *out = CounterValues{};
  const CounterAvailability& av = counter_availability();
  if (av.mode == CounterMode::kUnavailable) return false;
  out->cpu_seconds = thread_cpu_seconds();
#if M3DFL_PERF_SUPPORTED
  read_group(out);
#endif
  return true;
}

double ScopeTotals::ipc() const {
  return cycles > 0
             ? static_cast<double>(instructions) / static_cast<double>(cycles)
             : 0.0;
}

double ScopeTotals::llc_misses_per_kinstr() const {
  return instructions > 0 ? static_cast<double>(llc_misses) * 1000.0 /
                                static_cast<double>(instructions)
                          : 0.0;
}

double ScopeTotals::branch_misses_per_kinstr() const {
  return instructions > 0 ? static_cast<double>(branch_misses) * 1000.0 /
                                static_cast<double>(instructions)
                          : 0.0;
}

struct CounterRegistry::Scope {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> llc_misses{0};
  std::atomic<std::uint64_t> branch_misses{0};
  std::atomic<std::uint64_t> cpu_nanos{0};
};

namespace {

struct RegistryState {
  std::atomic<bool> enabled{false};
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<CounterRegistry::Scope>> scopes;
};

RegistryState& state() {
  static RegistryState* s = new RegistryState();  // Never destroyed: scope
  return *s;  // references outlive static destruction order.
}

}  // namespace

CounterRegistry& CounterRegistry::instance() {
  static CounterRegistry reg;
  return reg;
}

void CounterRegistry::set_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

bool CounterRegistry::enabled() const {
  return state().enabled.load(std::memory_order_relaxed);
}

CounterRegistry::Scope& CounterRegistry::scope(const std::string& name) {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.scopes.find(name);
  if (it == s.scopes.end()) {
    it = s.scopes.emplace(name, std::make_unique<Scope>()).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, ScopeTotals>> CounterRegistry::snapshot()
    const {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<std::pair<std::string, ScopeTotals>> out;
  out.reserve(s.scopes.size());
  for (const auto& [name, sc] : s.scopes) {
    ScopeTotals t;
    t.count = sc->count.load(std::memory_order_relaxed);
    t.cycles = sc->cycles.load(std::memory_order_relaxed);
    t.instructions = sc->instructions.load(std::memory_order_relaxed);
    t.llc_misses = sc->llc_misses.load(std::memory_order_relaxed);
    t.branch_misses = sc->branch_misses.load(std::memory_order_relaxed);
    t.cpu_seconds =
        static_cast<double>(sc->cpu_nanos.load(std::memory_order_relaxed)) /
        1e9;
    out.emplace_back(name, t);
  }
  return out;
}

std::string CounterRegistry::to_json() const {
  const CounterAvailability& av = counter_availability();
  const bool hw = av.mode == CounterMode::kFull ||
                  av.mode == CounterMode::kBasic;
  std::ostringstream os;
  os << "{\"availability\":{\"mode\":\"" << counter_mode_name(av.mode)
     << "\",\"detail\":\"";
  for (char c : av.detail) {  // detail is strerror text: escape minimally.
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << "\"},\"enabled\":" << (enabled() ? "true" : "false")
     << ",\"scopes\":{";
  bool first = true;
  for (const auto& [name, t] : snapshot()) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":{\"count\":" << t.count
       << ",\"cpu_seconds\":" << num(t.cpu_seconds);
    if (hw) {
      os << ",\"cycles\":" << t.cycles
         << ",\"instructions\":" << t.instructions
         << ",\"ipc\":" << num(t.ipc());
      if (av.mode == CounterMode::kFull) {
        os << ",\"llc_misses\":" << t.llc_misses
           << ",\"llc_misses_per_kinstr\":" << num(t.llc_misses_per_kinstr())
           << ",\"branch_misses\":" << t.branch_misses
           << ",\"branch_misses_per_kinstr\":"
           << num(t.branch_misses_per_kinstr());
      }
    }
    os << '}';
  }
  os << "}}";
  return os.str();
}

void CounterRegistry::reset() {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (const auto& [name, sc] : s.scopes) {
    sc->count.store(0, std::memory_order_relaxed);
    sc->cycles.store(0, std::memory_order_relaxed);
    sc->instructions.store(0, std::memory_order_relaxed);
    sc->llc_misses.store(0, std::memory_order_relaxed);
    sc->branch_misses.store(0, std::memory_order_relaxed);
    sc->cpu_nanos.store(0, std::memory_order_relaxed);
  }
}

void CounterRegistry::add(Scope& scope, const CounterValues& start,
                          const CounterValues& end) {
  scope.count.fetch_add(1, std::memory_order_relaxed);
  const double dt = end.cpu_seconds - start.cpu_seconds;
  if (dt > 0) {
    scope.cpu_nanos.fetch_add(static_cast<std::uint64_t>(dt * 1e9),
                              std::memory_order_relaxed);
  }
  if (end.hw_valid && start.hw_valid) {
    auto add_delta = [](std::atomic<std::uint64_t>& dst, std::uint64_t a,
                        std::uint64_t b) {
      if (a > b) dst.fetch_add(a - b, std::memory_order_relaxed);
    };
    add_delta(scope.cycles, end.cycles, start.cycles);
    add_delta(scope.instructions, end.instructions, start.instructions);
    add_delta(scope.llc_misses, end.llc_misses, start.llc_misses);
    add_delta(scope.branch_misses, end.branch_misses, start.branch_misses);
  }
}

}  // namespace m3dfl::obs::prof

#endif  // M3DFL_OBS_ENABLED
