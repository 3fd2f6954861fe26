#pragma once

// In-memory span recording for the traced pass. Spans are taken from
// outside the library, around each public call; one recorder per thread,
// merged and written as Chrome trace-event JSON when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::uint64_t request = 0;  ///< Request id shared by one request's spans.
  int parent = -1;            ///< Index of the enclosing span, or -1.
  Clock::time_point start, end;
  std::uint32_t tid = 0;
  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Records spans when on; when off, Scope does nothing (no clock reads).
class SpanRecorder {
 public:
  SpanRecorder(bool on, std::uint32_t tid) : on_(on), tid_(tid) {}

  class Scope {
   public:
    Scope(SpanRecorder& r, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& r_;
    int index_ = -1;
  };

  /// Adds a span measured elsewhere (served requests); returns its index.
  int add(const char* name, std::uint64_t request, int parent,
          Clock::time_point start, Clock::time_point end);

  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::uint32_t tid_;
  int open_ = -1;  ///< Innermost open span.
  std::vector<Span> spans_;
};

/// Writes every recorder's spans as one Chrome trace-event JSON file, with
/// times relative to `origin`. Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders,
                        Clock::time_point origin);

}  // namespace e2ebench
