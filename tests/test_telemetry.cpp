// Telemetry layer: histogram exactness, snapshot diffs, concurrent
// recording, the span tracer's Chrome export, per-job stage breakdowns,
// slow-job logging, the log macros' short-circuit contract, the
// continuous-observability layer (time-series windows, health/SLO
// transitions, perf-regression comparison, the vcgra_top renderer,
// Prometheus exposition conformance), and the per-service ledger (two
// services' health and stats kept apart, shutdown with everything live,
// the stats JSON key set).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "vcgra/common/log.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/runtime/stats.hpp"
#include "vcgra/telemetry/health.hpp"
#include "vcgra/telemetry/json.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/regress.hpp"
#include "vcgra/telemetry/timeseries.hpp"
#include "vcgra/telemetry/top.hpp"
#include "vcgra/telemetry/trace.hpp"

using namespace vcgra;
using telemetry::JsonValue;
using telemetry::LatencyHistogram;

namespace {

/// Log-uniform nanosecond samples: every decade of the histogram's range
/// gets exercised, not just the dense low end.
std::vector<std::uint64_t> fuzzed_ns(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> exponent(0.0, 40.0);
  std::vector<std::uint64_t> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(static_cast<std::uint64_t>(std::pow(2.0, exponent(rng))));
  }
  return samples;
}

/// Exact nearest-rank percentile over raw nanosecond samples — the
/// reference the bucketed histogram is checked against.
std::uint64_t exact_percentile_ns(std::vector<std::uint64_t> samples,
                                  double fraction) {
  std::sort(samples.begin(), samples.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(samples.size())));
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, samples.size());
  return samples[rank - 1];
}

}  // namespace

TEST(LatencyHistogram, BucketIndexInvariants) {
  for (const std::uint64_t ns : fuzzed_ns(4096, 7)) {
    const int index = LatencyHistogram::bucket_index(ns);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, LatencyHistogram::kBucketCount);
    EXPECT_LE(LatencyHistogram::bucket_min_ns(index), ns);
    EXPECT_GE(LatencyHistogram::bucket_max_ns(index), ns);
    // Log buckets are at most 1/16 of the value wide (exact below 16 ns).
    const std::uint64_t width = LatencyHistogram::bucket_max_ns(index) -
                                LatencyHistogram::bucket_min_ns(index) + 1;
    if (ns >= LatencyHistogram::kSubBuckets) {
      EXPECT_LE(width * LatencyHistogram::kSubBuckets,
                2 * LatencyHistogram::bucket_min_ns(index));
    } else {
      EXPECT_EQ(width, 1u);
    }
  }
  // Bucket edges tile the range: max(i) + 1 == min(i + 1).
  for (int i = 0; i + 1 < LatencyHistogram::kBucketCount; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_max_ns(i) + 1,
              LatencyHistogram::bucket_min_ns(i + 1));
  }
}

TEST(LatencyHistogram, PercentilesMatchSortedReferenceOnFuzzedSamples) {
  const std::vector<std::uint64_t> samples = fuzzed_ns(20000, 42);
  LatencyHistogram hist;
  for (const std::uint64_t ns : samples) hist.record_ns(ns);
  const telemetry::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, samples.size());

  for (const double fraction : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const std::uint64_t exact = exact_percentile_ns(samples, fraction);
    const std::uint64_t reported =
        static_cast<std::uint64_t>(std::llround(snap.percentile(fraction) * 1e9));
    // Bucketed percentile = the upper edge of the exact sample's bucket.
    EXPECT_EQ(LatencyHistogram::bucket_index(reported),
              LatencyHistogram::bucket_index(exact))
        << "fraction " << fraction << ": exact " << exact << " ns, histogram "
        << reported << " ns";
    EXPECT_GE(reported, exact);
  }
  const std::uint64_t max_ns = *std::max_element(samples.begin(), samples.end());
  EXPECT_NEAR(snap.max_seconds, static_cast<double>(max_ns) * 1e-9,
              static_cast<double>(max_ns) * 1e-9 * 1e-6);
}

TEST(LatencyHistogram, MultiPercentileWalkMatchesSingleCalls) {
  LatencyHistogram hist;
  for (const std::uint64_t ns : fuzzed_ns(5000, 3)) hist.record_ns(ns);
  const telemetry::HistogramSnapshot snap = hist.snapshot();
  const std::vector<double> fractions{0.5, 0.9, 0.99, 0.999};
  const std::vector<double> walked = snap.percentiles(fractions);
  ASSERT_EQ(walked.size(), fractions.size());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    EXPECT_DOUBLE_EQ(walked[i], snap.percentile(fractions[i]));
  }
}

TEST(LatencyHistogram, SnapshotDiffIsolatesNewSamples) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.record_ns(1000);
  const telemetry::HistogramSnapshot base = hist.snapshot();
  for (int i = 0; i < 50; ++i) hist.record_ns(8ull << 20);  // ~8.4 ms
  const telemetry::HistogramSnapshot diff = hist.snapshot().diff_since(base);
  EXPECT_EQ(diff.count, 50u);
  // Every new sample landed in one (high) bucket; the old bucket zeroed out.
  const std::uint64_t exact =
      static_cast<std::uint64_t>(std::llround(diff.percentile(0.5) * 1e9));
  EXPECT_EQ(LatencyHistogram::bucket_index(exact),
            LatencyHistogram::bucket_index(8ull << 20));
}

TEST(MetricsRegistry, SnapshotDiffCountersDeltaGaugesLevel) {
  telemetry::MetricsRegistry registry;
  registry.counter("jobs").add(10);
  registry.gauge("depth").set(7);
  registry.histogram("lat").record_ns(500);
  const telemetry::MetricsSnapshot base = registry.snapshot();

  registry.counter("jobs").add(5);
  registry.gauge("depth").set(3);
  registry.histogram("lat").record_ns(900);
  registry.counter("fresh").add(2);  // absent from base: diffs against zero

  const telemetry::MetricsSnapshot diff = registry.snapshot().diff_since(base);
  EXPECT_EQ(diff.counters.at("jobs"), 5u);
  EXPECT_EQ(diff.counters.at("fresh"), 2u);
  EXPECT_EQ(diff.gauges.at("depth"), 3);  // a level, not a flow
  EXPECT_EQ(diff.histograms.at("lat").count, 1u);
}

TEST(MetricsRegistry, ConcurrentRecordingConservesCounts) {
  telemetry::MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t]() {
      telemetry::Counter& counter = registry.counter("ops");
      telemetry::LatencyHistogram& hist = registry.histogram("lat");
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.record_ns(static_cast<std::uint64_t>(100 + t * 1000 + i % 97));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(registry.counter("ops").value(), kTotal);
  const telemetry::HistogramSnapshot snap =
      registry.histogram("lat").snapshot();
  EXPECT_EQ(snap.count, kTotal);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kTotal);  // no sample lost or double-bucketed
}

TEST(MetricsRegistry, ExportsContainRegisteredNames) {
  telemetry::MetricsRegistry registry;
  registry.counter("cache.hits").add(3);
  registry.histogram("exec.run").record_ns(1 << 20);
  const telemetry::MetricsSnapshot snap = registry.snapshot();

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(snap.to_json(), &parsed, &error)) << error;
  const JsonValue* counters = parsed.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* hits = counters->find("cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->number, 3.0);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("vcgra_cache_hits 3"), std::string::npos);
  EXPECT_NE(prom.find("vcgra_exec_run_count"), std::string::npos);
}

TEST(JobTrace, CollectorCapturesRelativeDepths) {
  telemetry::JobTrace trace;
  {
    telemetry::JobTraceScope scope(&trace);
    {
      VCGRA_TRACE_SPAN("stage.one");
      VCGRA_TRACE_SPAN("stage.one.sub");
    }
    VCGRA_TRACE_SPAN("stage.two");
  }
  EXPECT_GT(trace.trace_id, 0u);
  ASSERT_EQ(trace.spans.size(), 3u);
  std::map<std::string, int> depths;
  for (const telemetry::JobTrace::Span& span : trace.spans) {
    depths[span.name] = span.depth;
  }
  EXPECT_EQ(depths.at("stage.one"), 0);
  EXPECT_EQ(depths.at("stage.one.sub"), 1);
  EXPECT_EQ(depths.at("stage.two"), 0);

  const std::vector<telemetry::StageTiming> stages = trace.stage_breakdown();
  ASSERT_EQ(stages.size(), 2u);  // the depth-1 sub-span is not a stage
  EXPECT_EQ(stages[0].name, "stage.one");
  EXPECT_EQ(stages[1].name, "stage.two");
}

TEST(JobTrace, StageBreakdownAggregatesRepeatedStages) {
  telemetry::JobTrace trace;
  trace.add("exec", 0, 100, 50);
  trace.add("lookup", 0, 10, 40);
  trace.add("inner", 1, 15, 5);
  trace.add("exec", 0, 200, 10);
  const std::vector<telemetry::StageTiming> stages = trace.stage_breakdown();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "lookup");  // chronological by first start
  EXPECT_NEAR(stages[0].seconds, 40e-9, 1e-15);
  EXPECT_EQ(stages[1].name, "exec");
  EXPECT_NEAR(stages[1].seconds, 60e-9, 1e-15);  // repeated stage aggregates
}

TEST(Tracer, DisabledSpansRecordNothing) {
  telemetry::Tracer::set_enabled(false);
  telemetry::Tracer::reset();
  {
    VCGRA_TRACE_SPAN("should.not.appear");
  }
  EXPECT_EQ(telemetry::Tracer::recorded_spans(), 0u);
}

TEST(Tracer, ChromeTraceIsWellFormedNestedAndNonOverlapping) {
  telemetry::Tracer::reset();
  telemetry::Tracer::set_enabled(true);
  {
    VCGRA_TRACE_SPAN("test.outer");
    {
      VCGRA_TRACE_SPAN("test.inner");
    }
    {
      VCGRA_TRACE_SPAN("test.inner2");
    }
  }
  std::thread worker([]() {
    VCGRA_TRACE_SPAN("test.worker");
  });
  worker.join();
  telemetry::Tracer::set_enabled(false);
  const std::string json = telemetry::Tracer::chrome_trace_json();

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(json, &parsed, &error)) << error;
  const JsonValue* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  struct Span {
    double start = 0, end = 0;
    long long tid = 0, depth = 0;
  };
  std::map<std::string, Span> by_name;
  std::map<std::pair<long long, long long>, std::vector<Span>> lanes;
  for (const JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") continue;
    ASSERT_EQ(ph->string, "X");
    const JsonValue* name = event.find("name");
    const JsonValue* ts = event.find("ts");
    const JsonValue* dur = event.find("dur");
    const JsonValue* tid = event.find("tid");
    ASSERT_TRUE(name != nullptr && name->is_string());
    ASSERT_TRUE(ts != nullptr && ts->is_number());
    ASSERT_TRUE(dur != nullptr && dur->is_number());
    ASSERT_TRUE(tid != nullptr && tid->is_number());
    EXPECT_GE(ts->number, 0.0);
    EXPECT_GE(dur->number, 0.0);
    Span span;
    span.start = ts->number;
    span.end = ts->number + dur->number;
    span.tid = static_cast<long long>(tid->number);
    const JsonValue* args = event.find("args");
    if (args != nullptr) {
      if (const JsonValue* depth = args->find("depth")) {
        span.depth = static_cast<long long>(depth->number);
      }
    }
    by_name[name->string] = span;
    if (span.depth >= 0) lanes[{span.tid, span.depth}].push_back(span);
  }

  ASSERT_TRUE(by_name.count("test.outer"));
  ASSERT_TRUE(by_name.count("test.inner"));
  ASSERT_TRUE(by_name.count("test.inner2"));
  ASSERT_TRUE(by_name.count("test.worker"));

  // Nesting: the inner spans sit inside the outer, on the same thread.
  const Span& outer = by_name["test.outer"];
  for (const char* inner_name : {"test.inner", "test.inner2"}) {
    const Span& inner = by_name[inner_name];
    EXPECT_EQ(inner.tid, outer.tid);
    EXPECT_EQ(inner.depth, outer.depth + 1);
    EXPECT_GE(inner.start, outer.start);
    EXPECT_LE(inner.end, outer.end);
  }
  EXPECT_NE(by_name["test.worker"].tid, outer.tid);

  // Same-depth spans on one thread never overlap and close in order.
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].start, spans[i - 1].end)
          << "overlap on tid " << lane.first << " depth " << lane.second;
    }
  }
}

namespace {

std::mutex g_captured_mutex;
std::vector<std::string> g_captured_logs;

void capture_sink(common::LogLevel /*level*/, const std::string& message) {
  std::lock_guard<std::mutex> lock(g_captured_mutex);
  g_captured_logs.push_back(message);
}

runtime::JobRequest triad_request() {
  runtime::JobRequest request;
  request.kernel_text =
      "input a; input b;\nparam alpha = 3.0;\n"
      "t = mul(b, alpha);\ny = add(a, t);\noutput y;\n";
  for (const char* name : {"a", "b"}) {
    std::vector<double> stream;
    for (int i = 0; i < 256; ++i) stream.push_back(0.03125 * (i - 128));
    request.inputs[name] = std::move(stream);
  }
  return request;
}

}  // namespace

TEST(Service, StageBreakdownCoversJobLatency) {
  runtime::ServiceOptions options;
  options.threads = 1;
  runtime::OverlayService service(options);
  service.run(triad_request());  // cold job warms the cache
  const runtime::JobResult result = service.run(triad_request());

  EXPECT_GT(result.trace_id, 0u);
  ASSERT_FALSE(result.stages.empty());
  std::map<std::string, double> stages;
  double stage_sum = 0;
  for (const telemetry::StageTiming& stage : result.stages) {
    stages[stage.name] = stage.seconds;
    stage_sum += stage.seconds;
  }
  EXPECT_TRUE(stages.count("cache.lookup"));
  EXPECT_TRUE(stages.count("exec.run"));
  EXPECT_TRUE(stages.count("queue.wait"));
  // Stages are the non-overlapping depth-0 decomposition of the job:
  // their sum can only trail the latency by untraced gaps, never exceed
  // it materially.
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_LE(stage_sum, result.latency_seconds * 1.10);
  EXPECT_GE(stage_sum, result.latency_seconds * 0.5);

  // The histogram-backed service percentiles see every completed job.
  const runtime::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_GT(stats.p50_latency_seconds, 0.0);
  EXPECT_LE(stats.p50_latency_seconds, stats.p999_latency_seconds);
  EXPECT_LE(stats.p999_latency_seconds, stats.max_latency_seconds * 1.0651);
}

TEST(Service, SlowJobThresholdLogsSpanTree) {
  const common::LogLevel saved_level = common::log_level();
  common::set_log_level(common::LogLevel::kWarn);
  {
    std::lock_guard<std::mutex> lock(g_captured_mutex);
    g_captured_logs.clear();
  }
  common::set_log_sink(&capture_sink);

  int fused_batch_size = 0;
  {
    runtime::ServiceOptions options;
    options.threads = 1;
    options.slow_job_threshold = 1e-12;  // every job is "slow"
    runtime::OverlayService service(options);
    service.run(triad_request());

    // A plugged-worker wave drains as one fused batch, which logs too.
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::future<int> plug = service.submit_task([gate] {
      gate.wait();
      return 0;
    });
    std::vector<std::future<runtime::JobResult>> futures;
    for (int i = 0; i < 4; ++i) futures.push_back(service.submit(triad_request()));
    release.set_value();
    plug.get();
    for (std::future<runtime::JobResult>& future : futures) {
      fused_batch_size = std::max(fused_batch_size, future.get().batch_size);
    }
  }

  common::set_log_sink(nullptr);
  common::set_log_level(saved_level);

  ASSERT_GE(fused_batch_size, 2) << "the wave did not fuse";
  const std::string fused_tag =
      "batch of " + std::to_string(fused_batch_size) + ")";
  std::lock_guard<std::mutex> lock(g_captured_mutex);
  bool found = false;
  bool found_fused = false;
  bool found_children = false;
  for (const std::string& message : g_captured_logs) {
    if (message.find("slow job trace") != std::string::npos &&
        message.find("exec.run") != std::string::npos) {
      found = true;
      found_fused = found_fused || message.find(fused_tag) != std::string::npos;
      // The datapath's child spans under exec.run.
      found_children = found_children ||
                       (message.find("exec.tape") != std::string::npos &&
                        message.find("exec.decode") != std::string::npos);
    }
  }
  EXPECT_TRUE(found) << "no slow-job span tree was logged";
  EXPECT_TRUE(found_fused) << "no fused batch logged its span tree";
  EXPECT_TRUE(found_children) << "no tree showed exec.tape and exec.decode";
}

TEST(Log, MacrosShortCircuitBelowLevel) {
  const common::LogLevel saved_level = common::log_level();
  {
    std::lock_guard<std::mutex> lock(g_captured_mutex);
    g_captured_logs.clear();
  }
  common::set_log_sink(&capture_sink);

  int evaluations = 0;
  common::set_log_level(common::LogLevel::kError);
  VCGRA_LOG_INFO() << "side effect " << ++evaluations;
  EXPECT_EQ(evaluations, 0) << "streamed operands ran below the log level";

  common::set_log_level(common::LogLevel::kDebug);
  VCGRA_LOG_INFO() << "side effect " << ++evaluations;
  EXPECT_EQ(evaluations, 1);

  common::set_log_sink(nullptr);
  common::set_log_level(saved_level);
  std::lock_guard<std::mutex> lock(g_captured_mutex);
  ASSERT_EQ(g_captured_logs.size(), 1u);
  EXPECT_NE(g_captured_logs[0].find("side effect 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Continuous observability: time-series windows, health/SLO transitions,
// perf-regression comparison, the vcgra_top renderer, and Prometheus
// exposition conformance.

TEST(TimeSeries, WindowRatesAndPercentilesMatchHandComputedDeltas) {
  telemetry::MetricsRegistry registry;
  telemetry::MonitorOptions mopts;
  mopts.interval_seconds = 1.0;
  telemetry::Monitor monitor(registry, mopts);  // ticked by hand, never started

  constexpr std::uint64_t kSecond = 1'000'000'000ull;
  // Window 1 establishes the baseline snapshot — and lifetime history
  // that later windows must NOT see again.
  registry.counter("jobs").add(10);
  registry.gauge("depth").set(4);
  registry.histogram("lat").record_ns(1'000'000);  // 1 ms
  monitor.tick_at(1 * kSecond);

  // Window 2, exactly 2 s wide: 30 new jobs -> 15/s, three new samples
  // (2, 2, 4 ms) -> rate 1.5/s and a window p50 of 2 ms, even though
  // the lifetime population still holds the older 1 ms sample.
  registry.counter("jobs").add(30);
  registry.gauge("depth").set(9);
  registry.histogram("lat").record_ns(2'000'000);
  registry.histogram("lat").record_ns(2'000'000);
  registry.histogram("lat").record_ns(4'000'000);
  monitor.tick_at(3 * kSecond);

  const telemetry::TimeSeriesStore& store = monitor.series();
  EXPECT_EQ(store.windows(), 2u);
  telemetry::SeriesPoint point;
  ASSERT_TRUE(store.latest("jobs.rate", &point));
  EXPECT_DOUBLE_EQ(point.value, 15.0);
  EXPECT_DOUBLE_EQ(point.interval_seconds, 2.0);
  ASSERT_TRUE(store.latest("depth", &point));
  EXPECT_DOUBLE_EQ(point.value, 9.0);
  ASSERT_TRUE(store.latest("lat.rate", &point));
  EXPECT_DOUBLE_EQ(point.value, 1.5);
  ASSERT_TRUE(store.latest("lat.p50", &point));
  EXPECT_EQ(LatencyHistogram::bucket_index(
                static_cast<std::uint64_t>(std::llround(point.value * 1e9))),
            LatencyHistogram::bucket_index(2'000'000));
  ASSERT_TRUE(store.latest("lat.p99", &point));
  EXPECT_EQ(LatencyHistogram::bucket_index(
                static_cast<std::uint64_t>(std::llround(point.value * 1e9))),
            LatencyHistogram::bucket_index(4'000'000));

  // Window 3 is idle: rates drop to 0, but the percentile series keep a
  // gap instead of pushing a poisonous 0-latency point.
  monitor.tick_at(4 * kSecond);
  ASSERT_TRUE(store.latest("lat.rate", &point));
  EXPECT_DOUBLE_EQ(point.value, 0.0);
  ASSERT_TRUE(store.latest("lat.p50", &point));
  EXPECT_EQ(point.end_ns, 3 * kSecond);  // still the window-2 point

  // The JSON export round-trips through the bundled parser.
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(store.to_json(), &parsed, &error)) << error;
  EXPECT_NE(parsed.find("series"), nullptr);
}

TEST(TimeSeries, EwmaBaselineFlagsSpikeAfterWarmup) {
  telemetry::TimeSeriesStore store;
  constexpr std::uint64_t kSecond = 1'000'000'000ull;
  const telemetry::MetricsSnapshot level;
  for (std::uint64_t w = 1; w <= 20; ++w) {
    telemetry::MetricsSnapshot delta;
    delta.counters["jobs"] = 100;  // rock-steady 100/s
    store.push_window(w * kSecond, 1.0, delta, level);
  }
  EXPECT_TRUE(store.last_anomalies().empty());
  telemetry::MetricsSnapshot spike;
  spike.counters["jobs"] = 1000;  // 10x jump
  store.push_window(21 * kSecond, 1.0, spike, level);
  const std::vector<std::string> anomalies = store.last_anomalies();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0], "jobs.rate");
}

TEST(Health, RulesTransitionOkDegradedFailingOkUnderInjectedLatency) {
  telemetry::MetricsRegistry registry;
  telemetry::HealthRule rule;
  rule.name = "latency_p99";
  rule.input = telemetry::HealthRule::Input::kHistogramP99;
  rule.metric = "svc.lat";
  rule.direction = telemetry::HealthRule::Direction::kBelow;
  rule.warn_threshold = 0.010;
  rule.fail_threshold = 0.100;
  telemetry::MonitorOptions mopts;
  mopts.interval_seconds = 1.0;
  mopts.rules = {rule};
  telemetry::Monitor monitor(registry, mopts);

  const common::LogLevel saved_level = common::log_level();
  common::set_log_level(common::LogLevel::kInfo);
  {
    std::lock_guard<std::mutex> lock(g_captured_mutex);
    g_captured_logs.clear();
  }
  common::set_log_sink(&capture_sink);

  constexpr std::uint64_t kSecond = 1'000'000'000ull;
  const auto record_ms = [&registry](double ms, int n) {
    for (int i = 0; i < n; ++i) {
      registry.histogram("svc.lat").record_ns(
          static_cast<std::uint64_t>(ms * 1e6));
    }
  };

  record_ms(1.0, 10);  // healthy window
  telemetry::HealthReport report = monitor.tick_at(1 * kSecond);
  EXPECT_EQ(report.overall, telemetry::HealthStatus::kOk);

  record_ms(50.0, 10);  // injected latency: window p99 past the 10 ms warn
  report = monitor.tick_at(2 * kSecond);
  EXPECT_EQ(report.overall, telemetry::HealthStatus::kDegraded);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_TRUE(report.verdicts[0].has_data);
  EXPECT_GT(report.verdicts[0].value, 0.010);

  record_ms(500.0, 10);  // past the 100 ms fail threshold
  report = monitor.tick_at(3 * kSecond);
  EXPECT_EQ(report.overall, telemetry::HealthStatus::kFailing);

  record_ms(1.0, 10);  // recovered
  report = monitor.tick_at(4 * kSecond);
  EXPECT_EQ(report.overall, telemetry::HealthStatus::kOk);

  // An idle window has nothing to measure: ok, not degraded.
  report = monitor.tick_at(5 * kSecond);
  EXPECT_EQ(report.overall, telemetry::HealthStatus::kOk);
  EXPECT_FALSE(report.verdicts[0].has_data);
  EXPECT_EQ(monitor.health().overall, telemetry::HealthStatus::kOk);

  common::set_log_sink(nullptr);
  common::set_log_level(saved_level);

  std::lock_guard<std::mutex> lock(g_captured_mutex);
  bool worsened = false, recovered = false;
  for (const std::string& message : g_captured_logs) {
    if (message.find("'latency_p99' ok -> degraded") != std::string::npos) {
      worsened = true;
    }
    if (message.find("'latency_p99' failing -> ok") != std::string::npos) {
      recovered = true;
    }
  }
  EXPECT_TRUE(worsened) << "no ok -> degraded transition was logged";
  EXPECT_TRUE(recovered) << "no recovery transition was logged";
}

TEST(Health, DefaultServiceRulesCoverTheSloSurface) {
  const std::vector<telemetry::HealthRule> rules =
      telemetry::default_service_rules();
  std::map<std::string, const telemetry::HealthRule*> by_name;
  for (const telemetry::HealthRule& rule : rules) by_name[rule.name] = &rule;
  for (const char* name : {"latency_p99", "error_rate", "cache_hit_rate",
                           "queue_depth", "arena_grows", "trace_drops"}) {
    EXPECT_TRUE(by_name.count(name)) << "missing default rule " << name;
  }
  // The zero-tolerance structural rules degrade but never fail alone.
  EXPECT_EQ(by_name.at("arena_grows")->warn_threshold, 0.0);
  EXPECT_GT(by_name.at("arena_grows")->fail_threshold, 1e100);
}

TEST(Regress, FlagsInjectedRegressionAndPassesIdenticalPair) {
  const char* kOld = R"({
    "p99_latency_seconds": 0.010,
    "jobs_per_second": 1000,
    "jobs_completed": 50,
    "tiny_latency_seconds": 3e-9
  })";
  const char* kNew = R"({
    "p99_latency_seconds": 0.020,
    "jobs_per_second": 400,
    "jobs_completed": 999,
    "tiny_latency_seconds": 7e-9
  })";
  JsonValue old_doc, new_doc;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(kOld, &old_doc, &error)) << error;
  ASSERT_TRUE(telemetry::parse_json(kNew, &new_doc, &error)) << error;

  // Identical pair: clean, and the default table has nothing to show.
  const telemetry::RegressReport same =
      telemetry::compare_snapshots(old_doc, old_doc);
  EXPECT_TRUE(same.ok());
  EXPECT_EQ(same.fails, 0);
  EXPECT_EQ(same.warns, 0);
  EXPECT_GT(same.passes, 0);
  EXPECT_TRUE(same.table().empty());

  const telemetry::RegressReport report =
      telemetry::compare_snapshots(old_doc, new_doc);
  EXPECT_FALSE(report.ok());
  std::map<std::string, telemetry::RegressEntry> by_name;
  for (const telemetry::RegressEntry& entry : report.entries) {
    by_name[entry.metric] = entry;
  }
  // 2x p99 latency: +100% against the 30% tail-noise threshold -> fail.
  EXPECT_EQ(by_name.at("p99_latency_seconds").status,
            telemetry::RegressEntry::Status::kFail);
  // A 60% throughput drop regresses in the higher-better direction.
  EXPECT_EQ(by_name.at("jobs_per_second").status,
            telemetry::RegressEntry::Status::kFail);
  // Counts carry no direction: informational, never a failure.
  EXPECT_EQ(by_name.at("jobs_completed").status,
            telemetry::RegressEntry::Status::kInfo);
  // 3 ns -> 7 ns is a huge ratio under the absolute floor: nanosecond
  // jitter cannot fail a run.
  EXPECT_EQ(by_name.at("tiny_latency_seconds").status,
            telemetry::RegressEntry::Status::kPass);

  const std::string table = report.table();
  EXPECT_NE(table.find("p99_latency_seconds"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
  EXPECT_EQ(table.find("jobs_completed"), std::string::npos);  // info hidden
  JsonValue parsed;
  ASSERT_TRUE(telemetry::parse_json(report.to_json(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.find("fails")->number, report.fails);
}

// A leaf only one side has is added or removed, not a measurement of
// zero: it shows no missing value and no change, and the JSON says which.
TEST(Regress, LeafMissingFromOneSideIsAddedOrRemovedNotZero) {
  const char* kOld = R"({"kernels": {"add_ns": 2.0, "gone_ns": 7.0}})";
  const char* kNew = R"({"kernels": {"add_ns": 2.0, "lanes_ns": 0.4}})";
  JsonValue old_doc, new_doc;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(kOld, &old_doc, &error)) << error;
  ASSERT_TRUE(telemetry::parse_json(kNew, &new_doc, &error)) << error;
  const telemetry::RegressReport report =
      telemetry::compare_snapshots(old_doc, new_doc);
  EXPECT_TRUE(report.ok());
  std::map<std::string, telemetry::RegressEntry> by_name;
  for (const telemetry::RegressEntry& entry : report.entries) {
    by_name[entry.metric] = entry;
  }
  ASSERT_TRUE(by_name.count("kernels.lanes_ns (added)"));
  ASSERT_TRUE(by_name.count("kernels.gone_ns (removed)"));
  EXPECT_FALSE(by_name.count("kernels.lanes_ns"));
  const telemetry::RegressEntry& added = by_name.at("kernels.lanes_ns (added)");
  EXPECT_TRUE(added.added);
  EXPECT_FALSE(added.removed);
  EXPECT_EQ(added.status, telemetry::RegressEntry::Status::kInfo);
  EXPECT_EQ(added.new_value, 0.4);
  EXPECT_TRUE(by_name.at("kernels.gone_ns (removed)").removed);
  EXPECT_FALSE(by_name.at("kernels.add_ns").added);

  // The table row of each carries a "-" for the side it lacks and for
  // the change, never an old value of 0 or "+0.0%".
  const std::string table = report.table(true);
  const auto row_of = [&](const std::string& metric) {
    const std::size_t at = table.find(metric);
    EXPECT_NE(at, std::string::npos) << metric;
    return table.substr(at, table.find('\n', at) - at);
  };
  const std::string added_row = row_of("kernels.lanes_ns (added)");
  EXPECT_EQ(added_row.find("+0.0%"), std::string::npos) << added_row;
  EXPECT_NE(added_row.find("| -"), std::string::npos) << added_row;
  EXPECT_NE(added_row.find("0.4"), std::string::npos) << added_row;
  EXPECT_EQ(row_of("kernels.gone_ns (removed)").find("+0.0%"), std::string::npos);
  EXPECT_NE(row_of("kernels.add_ns ").find("+0.0%"), std::string::npos);

  JsonValue parsed;
  ASSERT_TRUE(telemetry::parse_json(report.to_json(), &parsed, &error)) << error;
  const JsonValue* entries = parsed.find("entries");
  ASSERT_NE(entries, nullptr);
  int added_flags = 0, removed_flags = 0;
  for (const JsonValue& entry : entries->array) {
    const std::string& metric = entry.find("metric")->string;
    const JsonValue* added_flag = entry.find("added");
    const JsonValue* removed_flag = entry.find("removed");
    ASSERT_NE(added_flag, nullptr) << metric;
    ASSERT_NE(removed_flag, nullptr) << metric;
    added_flags += added_flag->boolean;
    removed_flags += removed_flag->boolean;
    EXPECT_EQ(added_flag->boolean, metric == "kernels.lanes_ns (added)") << metric;
  }
  EXPECT_EQ(added_flags, 1);
  EXPECT_EQ(removed_flags, 1);
}

TEST(Top, RendersFrameHeadlesslyFromSnapshotDoc) {
  const char* kDoc = R"({
    "service": {
      "jobs_completed": 42, "jobs_failed": 1, "jobs_per_second": 1234.5,
      "p50_latency_seconds": 0.001, "p95_latency_seconds": 0.002,
      "p99_latency_seconds": 0.003, "p999_latency_seconds": 0.004,
      "max_latency_seconds": 0.005,
      "p50_queue_seconds": 0.0001, "p99_queue_seconds": 0.0002,
      "fused_batches": 3, "batched_jobs": 12, "sessions_open": 1,
      "cache": {"hit_rate": 0.75, "structure_hit_rate": 1.0, "hits": 9,
                "misses": 3, "disk_hits": 2, "plans_built": 4, "plan_hits": 8},
      "scheduler": {"assignments": 10, "reconfigurations": 4,
                    "param_respecializations": 2,
                    "reconfigurations_avoided": 3}
    },
    "process": {
      "counters": {"trace.dropped_spans": 7},
      "gauges": {"pool.queue_depth": 5}
    },
    "monitor": {
      "health": {
        "overall": "degraded", "windows_evaluated": 12,
        "rules": {
          "latency_p99": {"status": "ok", "value": 0.003, "has_data": true},
          "cache_hit_rate": {"status": "degraded", "value": 0.42,
                             "has_data": true}
        },
        "anomalies": ["service.latency.p99"]
      },
      "series": {
        "series": [
          {"name": "service.jobs_ok.rate",
           "points": [{"t_ns": 1, "dt": 1, "v": 10},
                      {"t_ns": 2, "dt": 1, "v": 40}]}
        ]
      }
    }
  })";
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(kDoc, &doc, &error)) << error;
  const std::string frame = telemetry::render_top_frame(doc);
  EXPECT_NE(frame.find("overall: degraded"), std::string::npos);
  EXPECT_NE(frame.find("42 done"), std::string::npos);
  EXPECT_NE(frame.find("1234.5 jobs/s"), std::string::npos);
  EXPECT_NE(frame.find("hit-rate 75.0%"), std::string::npos);
  EXPECT_NE(frame.find("cache_hit_rate=degraded(0.42)"), std::string::npos);
  EXPECT_NE(frame.find("7 spans dropped"), std::string::npos);
  EXPECT_NE(frame.find("service.jobs_ok.rate"), std::string::npos);
  EXPECT_NE(frame.find("service.latency.p99"), std::string::npos);
  EXPECT_EQ(frame.find("\x1b["), std::string::npos);  // no ANSI without color

  // The Monitor's bare live-export shape ({"health","series"}) renders too.
  const JsonValue* monitor_doc = doc.find("monitor");
  ASSERT_NE(monitor_doc, nullptr);
  EXPECT_NE(telemetry::render_top_frame(*monitor_doc).find("overall: degraded"),
            std::string::npos);

  telemetry::TopOptions color;
  color.color = true;
  EXPECT_NE(telemetry::render_top_frame(doc, color).find("\x1b[33m"),
            std::string::npos);  // degraded paints yellow
}

TEST(Top, SparklineScalesToSeriesRange) {
  EXPECT_EQ(telemetry::sparkline({}, 8), "");
  const std::string line = telemetry::sparkline({0, 5, 10}, 8);
  ASSERT_EQ(line.size(), 3u);
  EXPECT_EQ(line.front(), ' ');  // min maps to the blank level
  EXPECT_EQ(line.back(), '@');   // max maps to the top level
  // Flat nonzero series render mid-level, not blank.
  const std::string flat = telemetry::sparkline({3, 3, 3}, 8);
  EXPECT_EQ(flat, std::string(3, flat[0]));
  EXPECT_NE(flat[0], ' ');
  // Only the last `width` points are drawn.
  EXPECT_EQ(telemetry::sparkline({9, 9, 0, 10}, 2).size(), 2u);
}

TEST(Prometheus, NameSanitizationLabelEscapingAndCumulativeBuckets) {
  EXPECT_EQ(telemetry::prometheus_metric_name("cache.hits"),
            "vcgra_cache_hits");
  EXPECT_EQ(telemetry::prometheus_metric_name("weird-name/with spaces"),
            "vcgra_weird_name_with_spaces");
  EXPECT_EQ(telemetry::prometheus_metric_name("exec:run"), "vcgra_exec:run");
  EXPECT_EQ(telemetry::prometheus_label_escape("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");

  telemetry::MetricsRegistry registry;
  for (const std::uint64_t ns : fuzzed_ns(2000, 9)) {
    registry.histogram("lat").record_ns(ns);
  }
  const std::string prom = registry.snapshot().to_prometheus();
  EXPECT_NE(prom.find("# TYPE vcgra_lat histogram"), std::string::npos);

  // Cumulative bucket contract: counts never decrease with le, and the
  // +Inf bucket equals _count.
  std::vector<double> cumulative;
  double inf_count = -1, total_count = -1;
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("vcgra_lat_bucket{le=\"+Inf\"}", 0) == 0) {
      inf_count = std::atof(line.c_str() + line.find("} ") + 2);
    } else if (line.rfind("vcgra_lat_bucket{le=", 0) == 0) {
      cumulative.push_back(std::atof(line.c_str() + line.find("} ") + 2));
    } else if (line.rfind("vcgra_lat_count ", 0) == 0) {
      total_count = std::atof(line.c_str() + line.find(' ') + 1);
    }
  }
  ASSERT_GT(cumulative.size(), 10u);  // one edge per power-of-two block
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket " << i;
  }
  EXPECT_EQ(inf_count, 2000);
  EXPECT_EQ(total_count, 2000);
  EXPECT_GE(inf_count, cumulative.back());
}

TEST(Tracer, RingOverwriteCountsDroppedSpans) {
  telemetry::Tracer::reset();
  telemetry::Tracer::set_enabled(true);
  const std::uint64_t drops_before = telemetry::Tracer::dropped_spans();
  // One past the per-thread ring capacity: exactly one span overwritten.
  for (std::uint64_t i = 0; i <= telemetry::Tracer::kRingCapacity; ++i) {
    VCGRA_TRACE_SPAN("spin");
  }
  telemetry::Tracer::set_enabled(false);
  EXPECT_EQ(telemetry::Tracer::dropped_spans(), drops_before + 1);
  const std::string json = telemetry::Tracer::chrome_trace_json();
  EXPECT_NE(json.find("\"droppedSpans\""), std::string::npos);
  EXPECT_NE(json.find("dropped_spans"), std::string::npos);
  telemetry::Tracer::reset();
  EXPECT_EQ(telemetry::Tracer::dropped_spans(), 0u);
}

TEST(Service, FusedBatchStagesCoverEveryJobInTheBatch) {
  runtime::ServiceOptions options;
  options.threads = 1;
  runtime::OverlayService service(options);
  service.run(triad_request());  // cold job warms the cache

  // Plug the single worker so every subsequent same-config job queues
  // behind it and drains as one fused batch.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::future<int> plug = service.submit_task([gate] {
    gate.wait();
    return 0;
  });
  constexpr int kJobs = 6;
  std::vector<std::future<runtime::JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(service.submit(triad_request()));
  }
  release.set_value();
  plug.get();

  for (std::future<runtime::JobResult>& future : futures) {
    const runtime::JobResult result = future.get();
    EXPECT_GE(result.batch_size, 2) << "jobs did not fuse";
    ASSERT_FALSE(result.stages.empty());
    // Each fused job's breakdown substitutes its OWN queue wait into the
    // shared batch pipeline, so stage-sum ~= latency holds batch-wide
    // (not just for the lead job).
    double stage_sum = 0;
    bool saw_queue_wait = false;
    for (const telemetry::StageTiming& stage : result.stages) {
      stage_sum += stage.seconds;
      if (stage.name == "queue.wait") {
        saw_queue_wait = true;
        EXPECT_DOUBLE_EQ(stage.seconds, result.queue_seconds);
      }
    }
    EXPECT_TRUE(saw_queue_wait);
    EXPECT_GT(result.latency_seconds, 0.0);
    EXPECT_LE(stage_sum, result.latency_seconds * 1.10);
    EXPECT_GE(stage_sum, result.latency_seconds * 0.5);
  }
  // The batch accounting lands after the last promise is fulfilled, so
  // drain the worker before reading the counters.
  service.wait_idle();
  const runtime::ServiceStats stats = service.stats();
  EXPECT_GE(stats.fused_batches, 1u);
  EXPECT_GE(stats.batched_jobs, static_cast<std::uint64_t>(kJobs));
}

TEST(Graph, RunReportsPerInvocationStageTimings) {
  runtime::ServiceOptions options;
  options.threads = 1;
  runtime::OverlayService service(options);
  runtime::GraphRequest request;
  runtime::GraphStage producer;
  producer.name = "producer";
  producer.kernel_text =
      "input x;\nparam a = 2.0;\ny = mul(x, a);\noutput y;\n";
  {
    std::vector<double> stream;
    for (int i = 0; i < 64; ++i) stream.push_back(0.125 * (i - 32));
    producer.inputs["x"] = std::move(stream);
  }
  runtime::GraphStage consumer;
  consumer.name = "consumer";
  consumer.kernel_text =
      "input x;\nparam b = 0.5;\ny = mul(x, b);\noutput y;\n";
  consumer.keep_output = true;
  request.stages = {std::move(producer), std::move(consumer)};
  request.edges.push_back({"producer", "y", "consumer", "x"});

  const runtime::GraphResult result = service.run_graph(request);
  EXPECT_EQ(result.stages, 2);
  ASSERT_FALSE(result.stage_timings.empty());
  double stage_sum = 0;
  for (const telemetry::StageTiming& stage : result.stage_timings) {
    EXPECT_FALSE(stage.name.empty());
    stage_sum += stage.seconds;
  }
  // The sweeps under graph.run execute sequentially on the invoking
  // thread, so their sum can only trail the graph's exec time by the
  // untraced gaps between them — the graph analogue of the per-job
  // stage-sum contract.
  EXPECT_GT(result.exec_seconds, 0.0);
  EXPECT_LE(stage_sum, result.exec_seconds * 1.10);
}

TEST(Json, ParserHandlesEscapesNestingAndErrors) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(
      R"({"a": [1, -2.5e3, true, null], "s": "q\"\\\nA", "o": {"k": 1, "k": 2}})",
      &value, &error))
      << error;
  const JsonValue* array = value.find("a");
  ASSERT_NE(array, nullptr);
  ASSERT_EQ(array->array.size(), 4u);
  EXPECT_EQ(array->array[1].number, -2500.0);
  const JsonValue* text = value.find("s");
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(text->string, "q\"\\\nA");
  const JsonValue* object = value.find("o");
  ASSERT_NE(object, nullptr);
  const JsonValue* key = object->find("k");
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->number, 2.0);  // duplicate keys: last wins

  EXPECT_FALSE(telemetry::parse_json("{\"a\": 1} trailing", &value, &error));
  EXPECT_FALSE(telemetry::parse_json("{\"a\": }", &value, &error));
  EXPECT_FALSE(telemetry::parse_json("", &value, &error));
}

// Nesting is capped so a hostile file cannot overflow the recursive
// descent's stack: 512 levels parse, one more is a typed parse error,
// and a 1,000,000-deep document fails the same way instead of crashing.
TEST(Json, NestingDepthIsCappedWithAParseError) {
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  JsonValue value;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(nested(512, '[', ']'), &value, &error))
      << error;
  const JsonValue* level = &value;
  for (int i = 1; i < 512; ++i) {
    ASSERT_EQ(level->array.size(), 1u) << "level " << i;
    level = &level->array[0];
  }
  EXPECT_TRUE(level->array.empty());

  // Objects count toward the same depth as arrays.
  std::string mixed;
  for (int i = 0; i < 256; ++i) mixed += "{\"k\": [";
  for (int i = 0; i < 256; ++i) mixed += "]}";
  EXPECT_TRUE(telemetry::parse_json(mixed, &value, &error)) << error;

  EXPECT_FALSE(telemetry::parse_json(nested(513, '[', ']'), &value, &error));
  EXPECT_EQ(error, "nesting deeper than 512 at byte 512");

  EXPECT_FALSE(
      telemetry::parse_json(nested(1000000, '[', ']'), &value, &error));
  EXPECT_EQ(error, "nesting deeper than 512 at byte 512");
  std::string deep_object;
  for (int i = 0; i < 1000000; ++i) deep_object += "{\"k\":";
  EXPECT_FALSE(telemetry::parse_json(deep_object, &value, &error));
  EXPECT_EQ(error, "nesting deeper than 512 at byte 2560");
}

// --- one ledger per service ---------------------------------------------------

namespace {

/// The verdict `rule` of `report` (a failed lookup fails the test).
telemetry::HealthVerdict verdict_of(const telemetry::HealthReport& report,
                                    const std::string& rule) {
  for (const telemetry::HealthVerdict& verdict : report.verdicts) {
    if (verdict.rule == rule) return verdict;
  }
  ADD_FAILURE() << "no verdict for rule " << rule;
  return {};
}

/// A triad job that misses the cache (coefficient `alpha` is new to the
/// service) and then fails on ragged input streams.
runtime::JobRequest failing_triad_request(int alpha) {
  runtime::JobRequest request = triad_request();
  request.params["alpha"] = 4.0 + alpha;
  request.inputs["b"].pop_back();
  return request;
}

}  // namespace

// Two services share a process; only A has a monitor, ticked by hand. B
// fails every job, after a cache miss, and holds a deep pool queue at a
// window's end. A's verdicts and each service's stats() see only their
// own service's traffic.
TEST(ServiceLedger, HealthAndStatsReadOnlyTheirOwnService) {
  constexpr std::uint64_t kSecond = 1'000'000'000ULL;
  constexpr int kJobs = 50;
  constexpr int kFailing = 100;
  runtime::ServiceOptions a_options;
  a_options.threads = 1;
  a_options.monitor_interval_seconds = 3600;  // ticked by hand below
  runtime::OverlayService a(a_options);
  runtime::ServiceOptions b_options;
  b_options.threads = 1;
  runtime::OverlayService b(b_options);
  ASSERT_NE(a.monitor(), nullptr);
  ASSERT_EQ(b.monitor(), nullptr);
  const common::LogLevel saved_level = common::log_level();
  common::set_log_level(common::LogLevel::kError);  // transition logs

  a.monitor()->tick_at(1 * kSecond);  // baseline window

  // Window 2: B's only worker is plugged under a deep queue while A
  // serves good jobs.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::future<int> plug = b.submit_task([gate] {
    gate.wait();
    return 0;
  });
  std::vector<std::future<runtime::JobResult>> failing;
  for (int i = 0; i < kFailing; ++i) {
    failing.push_back(b.submit(failing_triad_request(i)));
  }
  for (int i = 0; i < kJobs; ++i) a.run(triad_request());
  telemetry::HealthReport report = a.monitor()->tick_at(2 * kSecond);
  const telemetry::HealthVerdict depth = verdict_of(report, "queue_depth");
  EXPECT_TRUE(depth.has_data);
  EXPECT_EQ(depth.value, 0.0) << "A read B's pool queue";
  EXPECT_STREQ(telemetry::to_string(depth.status), "ok");

  // Window 3: B's queue drains and every job fails after a cache miss;
  // A serves good jobs that all hit its cache.
  release.set_value();
  plug.get();
  for (std::future<runtime::JobResult>& future : failing) {
    EXPECT_ANY_THROW(future.get());
  }
  for (int i = 0; i < kJobs; ++i) a.run(triad_request());
  report = a.monitor()->tick_at(3 * kSecond);
  const telemetry::HealthVerdict errors = verdict_of(report, "error_rate");
  EXPECT_TRUE(errors.has_data);
  EXPECT_EQ(errors.value, 0.0) << "A read B's failures";
  EXPECT_STREQ(telemetry::to_string(errors.status), "ok");
  const telemetry::HealthVerdict hits = verdict_of(report, "cache_hit_rate");
  EXPECT_TRUE(hits.has_data);
  EXPECT_EQ(hits.value, 1.0) << "A read B's cache misses";
  EXPECT_STREQ(telemetry::to_string(hits.status), "ok");
  EXPECT_EQ(verdict_of(a.health(), "error_rate").value, 0.0);
  common::set_log_level(saved_level);

  const runtime::ServiceStats a_stats = a.stats();
  EXPECT_EQ(a_stats.jobs_submitted, 2u * kJobs);
  EXPECT_EQ(a_stats.jobs_completed, 2u * kJobs);
  EXPECT_EQ(a_stats.jobs_failed, 0u);
  EXPECT_EQ(a_stats.tasks_submitted, 0u);
  EXPECT_EQ(a_stats.cache.hits, 2u * kJobs - 1);
  EXPECT_EQ(a_stats.cache.misses, 1u);
  EXPECT_EQ(a_stats.scheduler.assignments, 2u * kJobs);
  const runtime::ServiceStats b_stats = b.stats();
  EXPECT_EQ(b_stats.jobs_submitted, static_cast<std::uint64_t>(kFailing));
  EXPECT_EQ(b_stats.jobs_completed, 0u);
  EXPECT_EQ(b_stats.jobs_failed, static_cast<std::uint64_t>(kFailing));
  EXPECT_EQ(b_stats.tasks_completed, 1u);
  EXPECT_EQ(b_stats.cache.hits, 0u);
  EXPECT_EQ(b_stats.cache.misses, static_cast<std::uint64_t>(kFailing));
  EXPECT_GT(b_stats.p50_latency_seconds, 0.0);  // the task's latency
}

// A service destroyed with everything live: a 1 ms monitor sampling its
// registry, an open Session and GraphSession, a graph in flight on the
// pool, queued submit() jobs whose cold compiles wait on the store's
// write-behind thread, and an inline run() on another thread. The
// destructor waits for the work; the sessions, destroyed last, never
// touch the destroyed service or its registry. The sanitizer CI jobs run
// this for the member order.
TEST(ServiceLedger, DestroyedWithMonitorSessionsQueuedAndInlineJobsLive) {
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() /
      ("vcgra-test-ledger-shutdown-" + std::to_string(::getpid()));
  std::filesystem::remove_all(store_dir);
  runtime::ServiceOptions options;
  options.threads = 2;
  options.virtual_instances = 2;
  options.monitor_interval_seconds = 0.001;
  options.store_dir = store_dir.string();
  const common::LogLevel saved_level = common::log_level();
  common::set_log_level(common::LogLevel::kError);
  auto service = std::make_unique<runtime::OverlayService>(options);
  runtime::OverlayService* const raw = service.get();

  const runtime::JobRequest triad = triad_request();
  raw->run(triad_request());  // warm: one structure, one plan
  runtime::SessionRequest session_request;
  session_request.kernel_text = triad.kernel_text;
  std::unique_ptr<runtime::Session> session = raw->open_session(session_request);
  runtime::GraphRequest graph_request;
  runtime::GraphStage stage;
  stage.name = "triad";
  stage.kernel_text = triad.kernel_text;
  stage.keep_output = true;
  stage.inputs = triad.inputs;
  graph_request.stages.push_back(stage);
  const std::shared_ptr<const runtime::KernelGraph> graph =
      raw->admit_graph(graph_request);
  std::unique_ptr<runtime::GraphSession> graph_session =
      raw->open_graph_session(graph);
  session->feed(triad.inputs);
  graph_session->feed({{"triad", triad.inputs}});

  // A long inline run on another thread, admitted before anything queues
  // (jobs_submitted counts it once run() has claimed the caller's thread).
  runtime::JobRequest long_job = triad_request();
  for (auto& [name, stream] : long_job.inputs) {
    stream.resize(std::size_t{1} << 16, 0.5);
  }
  std::thread runner([raw, &long_job] {
    const runtime::JobResult result = raw->run(std::move(long_job));
    EXPECT_EQ(result.queue_seconds, 0.0);  // ran inline
  });
  while (raw->stats().jobs_submitted < 2) std::this_thread::yield();
  std::future<runtime::GraphResult> graph_run = raw->submit_graph(graph);
  std::vector<std::future<runtime::JobResult>> queued;
  for (int i = 0; i < 8; ++i) {
    runtime::JobRequest request = triad_request();
    if (i % 2 == 1) {  // a second structure: a cold compile, then a persist
      request.kernel_text = "input a; input b;\ny = mul(a, b);\noutput y;\n";
      request.seed = 1 + static_cast<std::uint64_t>(i);
    }
    queued.push_back(raw->submit(std::move(request)));
  }

  service.reset();
  runner.join();
  EXPECT_EQ(graph_run.get().stages, 1);
  for (std::future<runtime::JobResult>& future : queued) {
    EXPECT_GT(future.get().run.cycles, 0u);
  }
  EXPECT_THROW(session->feed(triad.inputs), std::logic_error);
  EXPECT_THROW(graph_session->feed({{"triad", triad.inputs}}), std::logic_error);
  session.reset();
  graph_session.reset();
  common::set_log_level(saved_level);
  std::filesystem::remove_all(store_dir);
}

// The spent-job list at shutdown: jobs parked from an earlier wave, queued
// jobs (one of them failing) whose futures are not yet read, and a client
// thread whose submit() calls take the list while the workers park into
// it. The destructor drains the queue and frees whatever is parked; every
// future still resolves. The sanitizer CI jobs run this for the list's
// lock and lifetime.
TEST(ServiceLedger, DestroyedWithSpentJobsParkedAndASubmitRacingTheLastDrain) {
  runtime::ServiceOptions options;
  options.threads = 2;
  auto service = std::make_unique<runtime::OverlayService>(options);
  runtime::OverlayService* const raw = service.get();
  for (int i = 0; i < 4; ++i) raw->submit(triad_request()).get();
  raw->wait_idle();  // that wave is parked

  std::vector<std::future<runtime::JobResult>> unread;
  runtime::JobRequest bad = triad_request();
  bad.kernel_text = "definitely not a kernel";
  std::future<runtime::JobResult> failed = raw->submit(std::move(bad));
  for (int i = 0; i < 8; ++i) unread.push_back(raw->submit(triad_request()));
  std::thread client([raw, &unread] {
    for (int i = 0; i < 8; ++i) {
      unread.push_back(raw->submit(triad_request()));
      std::this_thread::yield();
    }
  });
  client.join();

  service.reset();
  EXPECT_THROW(failed.get(), std::invalid_argument);
  for (std::future<runtime::JobResult>& future : unread) {
    EXPECT_GT(future.get().run.cycles, 0u);
  }
}

// ServiceStats::to_json's key set is an export schema (vcgra_stats
// --regress diffs it leaf by leaf, vcgra_top renders it): a renamed key
// must fail here instead of reading as a new metric.
TEST(ServiceLedger, StatsJsonKeysAreTheExportSchema) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(runtime::ServiceStats{}.to_json(), &doc,
                                    &error))
      << error;
  const auto keys = [](const JsonValue* object) {
    std::vector<std::string> names;
    if (object != nullptr) {
      for (const auto& [name, value] : object->object) names.push_back(name);
    }
    return names;
  };
  EXPECT_EQ(keys(&doc),
            (std::vector<std::string>{
                "jobs_submitted", "jobs_completed", "jobs_failed",
                "tasks_submitted", "tasks_completed", "tasks_failed",
                "fused_batches", "batched_jobs", "graphs_executed",
                "graph_stages", "graph_edges_raw", "graph_edges_converted",
                "sessions_opened", "sessions_open", "chunks_fed",
                "p50_latency_seconds", "p95_latency_seconds",
                "p99_latency_seconds", "p999_latency_seconds",
                "max_latency_seconds", "mean_latency_seconds",
                "p50_queue_seconds", "p99_queue_seconds", "exec_seconds",
                "wall_seconds", "jobs_per_second", "cache", "scheduler"}));
  EXPECT_EQ(keys(doc.find("cache")),
            (std::vector<std::string>{
                "hits", "misses", "evictions", "inflight_joins",
                "structure_hits", "structure_misses", "specializations",
                "plans_built", "plans_rebound", "plan_hits", "disk_hits",
                "disk_misses", "disk_errors", "disk_writes", "disk_preloads",
                "disk_load_seconds", "disk_write_seconds", "entries",
                "specialized_entries", "capacity", "compile_seconds",
                "specialize_seconds", "hit_rate", "structure_hit_rate"}));
  EXPECT_EQ(keys(doc.find("scheduler")),
            (std::vector<std::string>{
                "assignments", "reconfigurations", "reconfigurations_avoided",
                "param_respecializations", "modeled_reconfig_seconds",
                "param_reconfig_seconds", "avoided_reconfig_seconds"}));
}
