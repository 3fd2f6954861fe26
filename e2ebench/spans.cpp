#include "spans.h"

#include <fstream>
#include <iomanip>

namespace e2ebench {

SpanRecorder::Scope::Scope(SpanRecorder& r, const char* name,
                           std::uint64_t request)
    : r_(r) {
  if (!r_.on_) return;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = r_.open_;
  s.tid = r_.tid_;
  index_ = static_cast<int>(r_.spans_.size());
  r_.spans_.push_back(s);
  r_.open_ = index_;
  r_.spans_[index_].start = Clock::now();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = r_.spans_[index_];
  s.end = Clock::now();
  r_.open_ = s.parent;
}

int SpanRecorder::add(const char* name, std::uint64_t request, int parent,
                      Clock::time_point start, Clock::time_point end) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.tid = tid_;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders,
                        Clock::time_point origin) {
  std::ofstream os(path);
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecorder* r : recorders) {
    for (const Span& s : r->spans()) {
      os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
         << ",\"ts\":" << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
         << ",\"args\":{\"request\":" << s.request
         << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace e2ebench
