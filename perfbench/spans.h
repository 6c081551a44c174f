// In-memory span recording for the benchmark's traced run. A span covers
// one call the benchmark makes into a layer (name, start, end, parent,
// request id); spans are kept in memory and written out as a Chrome
// trace when the run ends. Nothing in src/ is instrumented.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int64_t id = 0;
  int64_t parent = -1;  // -1 = root
  int64_t request = -1;
  int tid = 0;

  double micros() const { return Micros(start, end); }
};

/// One thread's spans. Not synchronized: each client thread owns one and
/// the logs are merged after the threads are joined.
class SpanLog {
 public:
  explicit SpanLog(int tid = 0, int64_t id_base = 0)
      : tid_(tid), next_id_(id_base) {}

  /// Times `fn()` as a span; returns its duration in microseconds.
  template <typename Fn>
  double Time(const char* name, int64_t parent, int64_t request, Fn&& fn) {
    Span s;
    s.name = name;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.tid = tid_;
    s.start = Clock::now();
    fn();
    s.end = Clock::now();
    spans_.push_back(s);
    return s.micros();
  }

  /// Opens a span whose end is stamped later with Close() (a request
  /// that encloses several timed calls).
  int64_t Open(const char* name, int64_t parent, int64_t request) {
    Span s;
    s.name = name;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.tid = tid_;
    s.start = Clock::now();
    open_.push_back(s);
    return s.id;
  }
  void Close(int64_t id) {
    for (size_t i = 0; i < open_.size(); ++i) {
      if (open_[i].id != id) continue;
      open_[i].end = Clock::now();
      spans_.push_back(open_[i]);
      open_.erase(open_.begin() + static_cast<long>(i));
      return;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  int64_t next_id_;
  std::vector<Span> spans_;
  std::vector<Span> open_;
};

/// Writes spans as Chrome-trace "X" events (chrome://tracing, Perfetto).
/// Timestamps are microseconds since `origin`.
bool WriteChromeTrace(const std::string& path, Clock::time_point origin,
                      const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
