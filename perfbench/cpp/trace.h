// In-memory span recorder for the traced run. Spans are opened and closed by
// the benchmark's own code around its calls into the library's public
// functions; nothing inside the library is instrumented. Spans are kept in
// memory and written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // id of the root span of this request
  std::string name;
  int64_t start_ns = 0;  // since the tracer was created
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction (a child of the calling thread's
  /// innermost open span), closes on destruction. A no-op when the tracer
  /// is disabled or null.
  class Span {
   public:
    Span(Tracer* tracer, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    SpanRecord record_;
  };

  /// Self time in ms of every span named `name`: its duration minus the
  /// union of its children's intervals.
  std::vector<double> SelfMs(const std::string& name) const;

  /// Median of SelfMs(name); per-layer timings are read this way.
  double MedianSelfMs(const std::string& name) const;

  size_t size() const;

  /// Writes all spans as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  void Close(const SpanRecord& record);
  int64_t NowNs() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;           // guarded by mu_
};

/// Runs `fn` `reps` times, each inside a span named `name`, and returns the
/// median self time of those spans in ms; -1 when `fn` fails.
template <typename Fn>
double MedianSpanMs(Tracer* tracer, const std::string& name, int reps, Fn fn) {
  for (int rep = 0; rep < reps; ++rep) {
    Tracer::Span span(tracer, name);
    if (!fn()) return -1.0;
  }
  return tracer->MedianSelfMs(name);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
