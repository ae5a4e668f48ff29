#include "vcgra/telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "vcgra/common/log.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/telemetry/metrics.hpp"

namespace vcgra::telemetry {

namespace {

std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// Forces the epoch to initialize at static-init time so the first
/// traced span does not pay the one-time cost.
const bool g_epoch_primed = (process_epoch(), true);

/// One closed span as held in a thread ring.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t trace_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::int32_t depth = 0;
};

/// Fixed-capacity overwrite ring of one thread's closed spans. The
/// owning thread writes lock-free; readers (export/reset) snapshot under
/// the registry mutex — a racing write can tear one in-flight record,
/// which at worst drops or duplicates a single span in an export taken
/// while traffic is still running.
struct SpanRing {
  static constexpr std::size_t kCapacity = Tracer::kRingCapacity;
  std::vector<SpanRecord> records{kCapacity};
  std::atomic<std::uint64_t> next{0};  // monotonic; % kCapacity = slot
  std::atomic<std::uint64_t> dropped{0};  // overwrites since last reset
  int tid = 0;

  void push(const SpanRecord& record) {
    const std::uint64_t slot = next.load(std::memory_order_relaxed);
    if (slot >= kCapacity) {
      // Overwrite: the oldest span is gone. Count it here (per ring,
      // rewound by reset) and in the monotonic registry counter so
      // metrics exports and the health engine see the truncation.
      dropped.fetch_add(1, std::memory_order_relaxed);
      static Counter& drop_counter = metrics().counter("trace.dropped_spans");
      drop_counter.add(1);
    }
    records[slot % kCapacity] = record;
    next.store(slot + 1, std::memory_order_release);
  }
};

struct RingRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<SpanRing>> rings;
  int next_tid = 1;
};

RingRegistry& ring_registry() {
  static RingRegistry* registry = new RingRegistry();  // outlives all threads
  return *registry;
}

/// The calling thread's ring, registered (and kept alive process-wide —
/// export works after the thread exits) on first use.
SpanRing& thread_ring() {
  thread_local std::shared_ptr<SpanRing> ring = [] {
    auto fresh = std::make_shared<SpanRing>();
    RingRegistry& registry = ring_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    fresh->tid = registry.next_tid++;
    registry.rings.push_back(fresh);
    return fresh;
  }();
  return *ring;
}

std::atomic<std::uint64_t> g_next_trace_id{1};

thread_local std::uint64_t t_trace_id = 0;

/// The installed job collector, when it keeps child spans.
JobTrace* child_collector() {
  JobTrace* collector = detail::t_collector;
  return collector != nullptr && collector->child_spans ? collector : nullptr;
}

}  // namespace

namespace detail {

std::atomic<bool> g_trace_enabled{false};
thread_local JobTrace* t_collector = nullptr;
thread_local int t_depth = 0;
thread_local int t_base_depth = 0;

void span_begin_slow(const char* /*name*/, std::uint64_t* start_ns) {
  ++t_depth;
  *start_ns = trace_now_ns();
}

void span_end_slow(const char* name, std::uint64_t start_ns) {
  const std::uint64_t end_ns = trace_now_ns();
  const int depth = --t_depth;
  const std::uint64_t dur_ns = end_ns - start_ns;
  if (t_collector != nullptr) {
    t_collector->add(name, depth - t_base_depth, start_ns, dur_ns);
  }
  if (g_trace_enabled.load(std::memory_order_relaxed)) {
    SpanRecord record;
    record.name = name;
    record.trace_id = t_trace_id;
    record.start_ns = start_ns;
    record.dur_ns = dur_ns;
    record.depth = depth;
    thread_ring().push(record);
  }
}

}  // namespace detail

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

std::uint64_t child_span_start() {
  if (!detail::g_trace_enabled.load(std::memory_order_relaxed) &&
      child_collector() == nullptr) {
    return 0;
  }
  return trace_now_ns();
}

void record_child_span(const char* name, std::uint64_t start_ns) {
  if (start_ns == 0) return;  // tracing was off when the stage started
  const bool enabled = detail::g_trace_enabled.load(std::memory_order_relaxed);
  JobTrace* const collector = child_collector();
  if (!enabled && collector == nullptr) return;
  const std::uint64_t dur_ns = trace_now_ns() - start_ns;
  // t_depth counts *open* guards, so a manual span inside them lands at
  // the same depth a nested SpanGuard would have recorded.
  if (collector != nullptr) {
    collector->add(name, detail::t_depth - detail::t_base_depth, start_ns,
                   dur_ns);
  }
  if (enabled) {
    SpanRecord record;
    record.name = name;
    record.trace_id = t_trace_id;
    record.start_ns = start_ns;
    record.dur_ns = dur_ns;
    record.depth = detail::t_depth;
    thread_ring().push(record);
  }
}

void JobTrace::add(const char* name, int depth, std::uint64_t start_ns,
                   std::uint64_t dur_ns) {
  if (spans.size() >= kMaxSpans) {
    ++dropped;
    return;
  }
  // One allocation covers a service job's handful of spans.
  if (spans.capacity() == 0) spans.reserve(16);
  spans.push_back(Span{name, depth, start_ns, dur_ns});
}

std::vector<StageTiming> JobTrace::stage_breakdown(int depth) const {
  std::vector<StageTiming> stages;
  // Same-depth spans close in chronological order (they cannot nest),
  // so a start-sorted copy keeps the pipeline reading left to right.
  std::vector<const Span*> top;
  top.reserve(spans.size());
  for (const Span& span : spans) {
    if (span.depth == depth) top.push_back(&span);
  }
  std::sort(top.begin(), top.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  stages.reserve(top.size());
  for (const Span* span : top) {
    const double seconds = static_cast<double>(span->dur_ns) * 1e-9;
    auto it = std::find_if(stages.begin(), stages.end(),
                           [&](const StageTiming& stage) {
                             return stage.name == span->name;
                           });
    if (it == stages.end()) {
      stages.push_back(StageTiming{span->name, seconds});
    } else {
      it->seconds += seconds;  // a repeated stage aggregates
    }
  }
  return stages;
}

std::string JobTrace::tree_string() const {
  // Chronological order with depth indent reads as the span tree: a
  // parent starts before (and ends after) its children.
  std::vector<Span> ordered = spans;
  std::sort(ordered.begin(), ordered.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // parent before equal-start child
  });
  std::string out;
  for (const Span& span : ordered) {
    out += common::strprintf(
        "%*s%s: %s\n", 2 * std::max(0, span.depth) + 2, "", span.name,
        common::human_seconds(static_cast<double>(span.dur_ns) * 1e-9).c_str());
  }
  if (dropped > 0) {
    out += common::strprintf("  (+%llu spans dropped)\n",
                             static_cast<unsigned long long>(dropped));
  }
  return out;
}

JobTraceScope::JobTraceScope(JobTrace* collector) {
  previous_ = detail::t_collector;
  previous_base_depth_ = detail::t_base_depth;
  detail::t_collector = collector;
  detail::t_base_depth = detail::t_depth;
  if (collector != nullptr) {
    collector->trace_id =
        g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
    t_trace_id = collector->trace_id;
  }
}

JobTraceScope::~JobTraceScope() {
  detail::t_collector = previous_;
  detail::t_base_depth = previous_base_depth_;
  t_trace_id = previous_ != nullptr ? previous_->trace_id : 0;
}

bool Tracer::enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

void Tracer::set_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void Tracer::reset() {
  RingRegistry& registry = ring_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& ring : registry.rings) {
    ring->next.store(0, std::memory_order_relaxed);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
}

void Tracer::record_span(const char* name, std::uint64_t start_ns,
                         std::uint64_t dur_ns, std::uint64_t trace_id) {
  if (!enabled()) return;
  SpanRecord record;
  record.name = name;
  record.trace_id = trace_id;
  record.start_ns = start_ns;
  record.dur_ns = dur_ns;
  // Cross-thread spans (queue wait: started on the submitter, finished
  // on the worker) get depth -1: they may overlap the recording thread's
  // own spans, so the trace checker keeps them out of the per-(tid,
  // depth) non-overlap invariant.
  record.depth = -1;
  thread_ring().push(record);
}

std::size_t Tracer::recorded_spans() {
  RingRegistry& registry = ring_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::size_t total = 0;
  for (const auto& ring : registry.rings) {
    total += static_cast<std::size_t>(std::min<std::uint64_t>(
        ring->next.load(std::memory_order_acquire), SpanRing::kCapacity));
  }
  return total;
}

std::uint64_t Tracer::dropped_spans() {
  RingRegistry& registry = ring_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::uint64_t total = 0;
  for (const auto& ring : registry.rings) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string Tracer::chrome_trace_json() {
  struct TidSpans {
    int tid;
    std::uint64_t dropped = 0;
    std::vector<SpanRecord> records;
  };
  std::vector<TidSpans> threads;
  std::uint64_t total_dropped = 0;
  {
    RingRegistry& registry = ring_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto& ring : registry.rings) {
      const std::uint64_t written = ring->next.load(std::memory_order_acquire);
      const std::uint64_t held = std::min<std::uint64_t>(written,
                                                         SpanRing::kCapacity);
      if (held == 0) continue;
      TidSpans out;
      out.tid = ring->tid;
      out.dropped = ring->dropped.load(std::memory_order_relaxed);
      total_dropped += out.dropped;
      out.records.reserve(static_cast<std::size_t>(held));
      // Oldest first: slot (written - held) .. (written - 1).
      for (std::uint64_t i = written - held; i < written; ++i) {
        out.records.push_back(ring->records[i % SpanRing::kCapacity]);
      }
      threads.push_back(std::move(out));
    }
  }

  // "droppedSpans" is a vcgra extension; chrome://tracing ignores unknown
  // top-level keys, vcgra_stats --check-trace warns when it is nonzero.
  std::string json = common::strprintf(
      "{\"displayTimeUnit\": \"ms\", \"droppedSpans\": %llu, "
      "\"traceEvents\": [",
      static_cast<unsigned long long>(total_dropped));
  bool first = true;
  for (const TidSpans& thread : threads) {
    json += common::strprintf(
        "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": %d, \"args\": {\"name\": \"vcgra-%d\"}}",
        first ? "" : ",", thread.tid, thread.tid);
    first = false;
    if (thread.dropped > 0) {
      json += common::strprintf(
          ",\n{\"name\": \"dropped_spans\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": %d, \"args\": {\"count\": %llu}}",
          thread.tid, static_cast<unsigned long long>(thread.dropped));
    }
    // chrome://tracing nests same-tid "X" events by containment; sorting
    // by start (ties: longest first) keeps parents before children.
    std::vector<SpanRecord> ordered = thread.records;
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.dur_ns > b.dur_ns;
              });
    for (const SpanRecord& record : ordered) {
      json += common::strprintf(
          ",\n{\"name\": \"%s\", \"cat\": \"vcgra\", \"ph\": \"X\", "
          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
          "\"args\": {\"trace\": %llu, \"depth\": %d}}",
          record.name != nullptr ? record.name : "?",
          static_cast<double>(record.start_ns) * 1e-3,
          static_cast<double>(record.dur_ns) * 1e-3, thread.tid,
          static_cast<unsigned long long>(record.trace_id), record.depth);
    }
  }
  json += "\n]}\n";
  return json;
}

bool Tracer::export_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    VCGRA_LOG_WARN() << "trace export: cannot open '" << path << "'";
    return false;
  }
  const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), file);
  const bool ok = std::fclose(file) == 0 && wrote == json.size();
  if (!ok) VCGRA_LOG_WARN() << "trace export: short write to '" << path << "'";
  return ok;
}

}  // namespace vcgra::telemetry
