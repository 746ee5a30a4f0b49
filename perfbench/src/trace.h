#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced runs. Spans are recorded only by
// the benchmark's own code, around its calls into the library; the library
// itself is never instrumented. Each span carries a name, start, end, the
// span that caused it, and the op it belongs to. Spans stay in per-thread
// buffers until the run ends, then are collected, reduced to per-layer
// self times, and written out as a Chrome trace-event file.
//
// While no tracer is enabled a ScopedSpan costs one relaxed load, so the
// untraced runs go through exactly the same code.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal naming the layer
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = none
  uint64_t op = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Turns spans on (process-wide) until Disable().
void EnableTracing();
void DisableTracing();
bool TracingEnabled();

/// Marks the start of an op issued from the calling thread: opens its root
/// span. Spans opened on threads with no span of their own (pool workers
/// running the op's fan-out) become children of this root. Ops must not
/// overlap in time.
void BeginOp(uint64_t op, const char* name);
void EndOp();

/// Removes and returns every finished span. Call only while no traced work
/// is running.
std::vector<Span> TakeSpans();

/// Self time in ms per span name: each span's duration minus the part its
/// child spans cover (root op spans included under their name).
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON ("X" events, microseconds).
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
