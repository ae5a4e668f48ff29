// Low-overhead span tracer with Chrome trace_event export.
//
// Every pipeline stage (parse -> structure compile -> specialize ->
// store load/save -> plan lower -> queue wait -> execute -> boundary
// encode/decode) brackets itself with VCGRA_TRACE_SPAN("stage.name").
// A span is an RAII guard:
//
//   * tracer disabled and no job collector installed: the constructor is
//     one predictable branch (two relaxed thread/atomic loads) and the
//     destructor one more — cheap enough to leave compiled into the
//     router/annealer-adjacent hot paths (bench_runtime gate [G]);
//   * enabled: two steady_clock reads plus a handful of stores into a
//     per-thread ring buffer (no locks, no allocation on the hot path).
//
// Rings are exported as Chrome trace_event JSON ("X" complete events,
// microsecond timestamps) loadable by chrome://tracing and Perfetto.
// Spans record the per-thread nesting depth and the active job's trace
// id, so one job's tree can be followed across the submit thread, the
// executor worker and the write-behind thread.
//
// A JobTrace collector (installed thread-locally by JobTraceScope while
// a job executes) additionally captures the job's own spans even when
// the global tracer is off — that is what feeds JobResult's per-stage
// breakdown and the slow-job span-tree log.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vcgra::telemetry {

/// Monotonic nanoseconds since process start (one epoch for every ring).
std::uint64_t trace_now_ns();

/// One aggregated pipeline stage of a job, for JobResult.
struct StageTiming {
  std::string name;
  double seconds = 0;
};

/// Per-job span collector: closed spans, bounded, with depths relative
/// to the installing scope. Install via JobTraceScope; never shared
/// across threads.
class JobTrace {
 public:
  struct Span {
    const char* name = nullptr;  // string literal (from VCGRA_TRACE_SPAN)
    int depth = 0;               // 0 = direct child of the job scope
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };
  static constexpr std::size_t kMaxSpans = 96;

  std::uint64_t trace_id = 0;
  std::vector<Span> spans;      // closing order (children before parents)
  std::uint64_t dropped = 0;    // spans past kMaxSpans (tree stays bounded)
  /// Whether child_span_start()/record_child_span() pairs record into
  /// this collector. Those spans sit below a stage, so only the span tree
  /// shows them: a collector whose tree nobody reads turns this off and
  /// saves their clock reads. The global tracer records them either way.
  bool child_spans = true;

  void add(const char* name, int depth, std::uint64_t start_ns,
           std::uint64_t dur_ns);

  /// Spans at `depth` aggregated by name, in first-seen chronological
  /// order. At the default depth 0 this is the non-overlapping stage
  /// decomposition of the job (durations sum to ~the job latency minus
  /// untraced gaps); depth 1 decomposes a still-open depth-0 wrapper
  /// span (run_graph's graph.run -> its graph.stage sweeps).
  std::vector<StageTiming> stage_breakdown(int depth = 0) const;

  /// Indented span tree (chronological, nested) for slow-job logging.
  std::string tree_string() const;
};

class Tracer {
 public:
  /// Spans retained per thread ring; older spans are overwritten (and
  /// counted as dropped) past this.
  static constexpr std::size_t kRingCapacity = 1 << 14;

  static bool enabled();
  static void set_enabled(bool on);

  /// Drop every recorded span (rings stay registered). Tests/benches.
  static void reset();

  /// Record an already-measured complete span (e.g. queue wait, whose
  /// start happened on another thread). No-op when the tracer is off.
  static void record_span(const char* name, std::uint64_t start_ns,
                          std::uint64_t dur_ns, std::uint64_t trace_id = 0);

  /// Chrome trace_event JSON of every span recorded so far.
  static std::string chrome_trace_json();
  /// Write chrome_trace_json() to `path`; false (and a warning log) on
  /// I/O failure.
  static bool export_chrome_trace(const std::string& path);

  /// Total spans currently held across all thread rings (post-overwrite).
  static std::size_t recorded_spans();

  /// Spans lost to ring overwrite since the last reset(), summed across
  /// threads. Every drop also bumps the process-wide counter metric
  /// "trace.dropped_spans" (monotonic — reset() does not rewind it), so
  /// exports and the health engine see truncation without asking the
  /// tracer. chrome_trace_json() carries the same total as a top-level
  /// "droppedSpans" field, which `vcgra_stats --check-trace` warns on.
  static std::uint64_t dropped_spans();
};

/// For sequential stage blocks that share one scope (the compiler's
/// synth -> map -> place -> route) where an RAII guard cannot bracket a
/// single stage: capture child_span_start() before the stage, then
/// record_child_span() after it. The pair records a complete span as a
/// child of the currently open span; both are no-ops (child_span_start
/// returns 0 without reading the clock) when the tracer is off and no
/// job collector that keeps child spans is installed.
std::uint64_t child_span_start();
void record_child_span(const char* name, std::uint64_t start_ns);

/// Installs `collector` as the calling thread's job collector for the
/// scope's lifetime and stamps it with a fresh process-unique trace id.
/// Nested scopes stack (the outer one resumes on destruction).
class JobTraceScope {
 public:
  explicit JobTraceScope(JobTrace* collector);
  ~JobTraceScope();
  JobTraceScope(const JobTraceScope&) = delete;
  JobTraceScope& operator=(const JobTraceScope&) = delete;

 private:
  JobTrace* previous_ = nullptr;
  int previous_base_depth_ = 0;
};

namespace detail {

extern std::atomic<bool> g_trace_enabled;
extern thread_local JobTrace* t_collector;
extern thread_local int t_depth;
extern thread_local int t_base_depth;

void span_begin_slow(const char* name, std::uint64_t* start_ns);
void span_end_slow(const char* name, std::uint64_t start_ns);

/// RAII span. The inactive path (tracer off, no collector) is a single
/// well-predicted branch in both constructor and destructor.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (!g_trace_enabled.load(std::memory_order_relaxed) &&
        t_collector == nullptr) {
      return;  // the one-branch disabled path
    }
    name_ = name;
    span_begin_slow(name, &start_ns_);
  }
  ~SpanGuard() {
    if (name_ == nullptr) return;
    span_end_slow(name_, start_ns_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace detail
}  // namespace vcgra::telemetry

#define VCGRA_TRACE_CONCAT_INNER(a, b) a##b
#define VCGRA_TRACE_CONCAT(a, b) VCGRA_TRACE_CONCAT_INNER(a, b)
/// Brackets the enclosing scope as one trace span. `name` must be a
/// string literal (the tracer stores the pointer, not a copy).
#define VCGRA_TRACE_SPAN(name)                                \
  ::vcgra::telemetry::detail::SpanGuard VCGRA_TRACE_CONCAT(   \
      vcgra_trace_span_, __LINE__)(name)
