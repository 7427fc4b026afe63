// In-memory spans for the traced run. A span is {name, start, end,
// parent, op}: all spans of one served resolution or request share an op
// id, and a layer call's span names the layer ("index.query",
// "matcher.predict", ...). Spans are kept in memory and written out when
// the run ends; a span's self time is its duration minus the part of it
// its children cover. Every span is recorded from the benchmark's own
// code, around calls into the library's public entry points.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace sudowoodo::perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int64_t op = -1;
  };
  struct LayerTime {
    uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Opens a span that ends at End(id); returns its id.
  int Begin(const char* name, int parent = -1, int64_t op = -1);
  void End(int id);
  /// Records a span whose times are already known.
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent = -1, int64_t op = -1);

  /// Calls, total and self time per span name.
  std::map<std::string, LayerTime> ByName() const;
  /// Durations of every span with this name, in recording order.
  std::vector<double> DurationsSeconds(const std::string& name) const;
  /// Summed duration of the spans with this name; 0 when there are none.
  double TotalSeconds(const std::string& name) const;
  /// Mean self time per span with this name; 0 when there are none.
  double MeanSelfMicros(const std::string& name) const;
  /// Spans with this name.
  size_t Calls(const std::string& name) const;

  /// Writes one JSON object per span (times in microseconds from the
  /// first span). Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans() const;
  /// Per-span self time, indexed like spans().
  std::vector<double> SelfSeconds() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// In a traced run, served ops with an even index record spans and odd
/// ones do not, so the ratio of their latencies is the tracing overhead.
inline bool IsTracedOp(size_t i) { return i % 2 == 0; }

/// Opens a span for the enclosing scope; a no-op without a tracer, which
/// is how every untraced run calls it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1,
             int64_t op = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace sudowoodo::perfbench

#endif  // PERFBENCH_TRACE_H_
