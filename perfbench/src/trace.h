#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// In-memory span recorder for the benchmark's traced run. Spans are taken
/// around calls into the library's public API from the benchmark's own code;
/// nothing inside the library is instrumented. Each thread that records owns
/// a Lane, so recording never takes a lock; lanes are merged and written out
/// once, when the run ends.
///
/// A disabled Tracer hands out null lanes, and every recording helper is a
/// no-op on a null lane, so untraced runs pay one branch per call site.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< index of the enclosing span in the same lane
  uint64_t request = 0;   ///< request id (0 = not tied to one request)
};

/// One thread's spans. Not thread-safe: a lane belongs to one thread.
class Lane {
 public:
  explicit Lane(std::string name) : name_(std::move(name)) {}

  /// Opens a span nested in the innermost open span; returns its index.
  size_t Begin(const char* name, uint64_t request = 0);
  void End(size_t index);
  /// Records an already-timed span nested in the innermost open span.
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           uint64_t request = 0);

  const std::string& name() const { return name_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string name_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span on a possibly-null lane.
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name, uint64_t request = 0)
      : lane_(lane), index_(lane != nullptr ? lane->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Lane* lane_;
  size_t index_;
};

/// Per-name totals over every lane.
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< durations minus the time child spans cover
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// A new lane for the calling thread, or null when tracing is off.
  Lane* NewLane(const std::string& name);

  /// Totals per span name across all lanes.
  std::map<std::string, SpanTotals> Totals() const;
  uint64_t num_spans() const;

  /// Writes every span as JSON (one span per line) after a header line of
  /// caller-supplied metadata. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
