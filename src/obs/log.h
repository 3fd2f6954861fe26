#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace m3dfl::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* log_level_name(LogLevel level);

/// One structured key/value attached to a log record. In the JSON-lines
/// sink, `quoted == false` emits the value raw (numbers, booleans); the
/// text sink always renders `key=value`.
struct LogField {
  std::string key;
  std::string value;
  bool quoted = true;

  static LogField str(std::string key, std::string value);
  static LogField num(std::string key, double value);
  static LogField num(std::string key, std::uint64_t value);
  static LogField boolean(std::string key, bool value);
};

/// Process-wide leveled structured logger with two sinks:
///
///  * text (default): the bare message, then any fields as
///    `  key=value` suffixes, one record per line. A record with no fields
///    is byte-identical to the `std::fprintf(stderr, ...)` site it
///    replaced — which is what keeps the CLI's error text (and the tests
///    that match it) stable across the migration.
///  * JSON-lines (set_json(true)): one object per record —
///    {"ts_ms":...,"level":"error","component":"cli","msg":"...",
///     "fields":{...}} — for log shippers.
///
/// Mutators are cheap: level/format checks are relaxed atomic loads, and
/// only the final write takes a mutex (records interleave line-atomically
/// across threads). Like a stage's span hook, the M3DFL_LOG_DEBUG
/// macro compiles to nothing under -DM3DFL_OBS=OFF, so debug-level call
/// sites on hot paths carry zero logging code; info/warn/error always
/// compile in, because CLI error reporting must survive obs-off builds.
class Logger {
 public:
  static Logger& instance();

  void set_min_level(LogLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }
  bool enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  void set_json(bool on) { json_.store(on, std::memory_order_relaxed); }
  bool json() const { return json_.load(std::memory_order_relaxed); }

  /// Redirects the sink (default stderr). The stream must outlive the
  /// logger's use of it; tests point this at tmpfile()s.
  void set_stream(std::FILE* stream);

  void log(LogLevel level, const char* component, std::string_view message,
           const std::vector<LogField>& fields = {});

  /// printf-style convenience; the formatted text becomes the record's
  /// message (no fields).
  void logf(LogLevel level, const char* component, const char* fmt, ...)
      __attribute__((format(printf, 4, 5)));

  /// Records actually written (after level filtering).
  std::uint64_t records_written() const {
    return records_.load(std::memory_order_relaxed);
  }

 private:
  Logger() = default;

  std::atomic<int> min_level_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<bool> json_{false};
  std::atomic<std::uint64_t> records_{0};
  std::mutex mu_;  ///< Serializes writes to stream_.
  std::FILE* stream_ = nullptr;  ///< nullptr means stderr.
};

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by the logger's JSON sink and
/// the admin endpoints.
std::string json_escape(std::string_view s);

}  // namespace m3dfl::obs

// Logging macros. Debug compiles out with the obs layer (hot-path
// chattiness must cost nothing in production builds); info and above always
// emit — they carry user-facing CLI errors.
#define M3DFL_LOG_INFO(component, ...)                              \
  ::m3dfl::obs::Logger::instance().logf(::m3dfl::obs::LogLevel::kInfo, \
                                        (component), __VA_ARGS__)
#define M3DFL_LOG_WARN(component, ...)                              \
  ::m3dfl::obs::Logger::instance().logf(::m3dfl::obs::LogLevel::kWarn, \
                                        (component), __VA_ARGS__)
#define M3DFL_LOG_ERROR(component, ...)                              \
  ::m3dfl::obs::Logger::instance().logf(::m3dfl::obs::LogLevel::kError, \
                                        (component), __VA_ARGS__)
#if M3DFL_OBS_ENABLED
#define M3DFL_LOG_DEBUG(component, ...)                               \
  ::m3dfl::obs::Logger::instance().logf(::m3dfl::obs::LogLevel::kDebug, \
                                        (component), __VA_ARGS__)
#else
#define M3DFL_LOG_DEBUG(component, ...) ((void)0)
#endif
