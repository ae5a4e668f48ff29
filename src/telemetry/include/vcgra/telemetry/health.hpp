// Health/SLO engine and the continuous Monitor that feeds it.
//
// A rule is declarative: pick a window-scoped input (counter rate,
// counter/sum ratio, gauge level, histogram window-p50/p99/mean/rate),
// a direction, and two thresholds. Each sampling window every rule is
// evaluated against that window's delta + level snapshots:
//
//   kBelow:  ok when value <= warn, degraded when value <= fail
//   kAbove:  ok when value >= warn, degraded when value >= fail
//   (anything past `fail` is failing)
//
// Rules with nothing to measure this window (metric absent, histogram
// saw no samples, ratio denominator zero) report ok with
// `has_data = false` — an idle service is not an unhealthy one.
//
// The Monitor is the production driver: a background thread snapshots
// its registries every `interval_seconds`, diffs against the
// previous snapshot, pushes the window into a TimeSeriesStore (rates,
// window percentiles, EWMA+z anomaly flags), evaluates the rule set,
// logs every per-rule and overall status transition through the
// leveled logger, and optionally atomically rewrites a JSON export for
// live consumers (`vcgra_top --watch`). `tick_at(now_ns)` is the whole
// deterministic core — tests drive it directly with synthetic clocks
// and never start the thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/timeseries.hpp"

namespace vcgra::telemetry {

enum class HealthStatus { kOk = 0, kDegraded = 1, kFailing = 2 };

const char* to_string(HealthStatus status);

struct HealthRule {
  enum class Input {
    kCounterRate,    // metric delta / interval (1/s)
    kCounterRatio,   // metric delta / sum of denominator deltas
    kGaugeLevel,     // sampled gauge value
    kHistogramP50,   // window-delta p50 (seconds)
    kHistogramP99,   // window-delta p99 (seconds)
    kHistogramMean,  // window-delta mean (seconds)
    kHistogramRate,  // window-delta count / interval (1/s)
  };
  enum class Direction {
    kBelow,  // healthy when small (latency, errors, depth)
    kAbove,  // healthy when large (hit rates)
  };

  std::string name;    // verdict key, e.g. "latency_p99"
  Input input = Input::kCounterRate;
  std::string metric;  // registry metric the rule reads
  std::vector<std::string> denominator;  // kCounterRatio only
  Direction direction = Direction::kBelow;
  double warn_threshold = 0;  // ok/degraded boundary
  double fail_threshold = 0;  // degraded/failing boundary
};

struct HealthVerdict {
  std::string rule;
  HealthStatus status = HealthStatus::kOk;
  double value = 0;
  bool has_data = false;  // false: nothing to measure this window -> ok
};

struct HealthReport {
  HealthStatus overall = HealthStatus::kOk;
  std::vector<HealthVerdict> verdicts;
  std::vector<std::string> anomalies;  // series flagged by EWMA+z this window
  std::uint64_t window_end_ns = 0;
  std::uint64_t windows_evaluated = 0;

  std::string to_json() const;
  std::string to_string() const;  // one line: "degraded [latency_p99=...]"
};

/// Stateless per-window rule evaluation (the Monitor adds continuity:
/// transition logs, anomaly series, report history).
class HealthEngine {
 public:
  explicit HealthEngine(std::vector<HealthRule> rules);

  const std::vector<HealthRule>& rules() const { return rules_; }

  /// Evaluates every rule against one window. `interval_seconds` scales
  /// rate inputs; `delta` carries counter/histogram activity since the
  /// previous snapshot; `level` carries gauge levels.
  HealthReport evaluate(double interval_seconds, const MetricsSnapshot& delta,
                        const MetricsSnapshot& level) const;

 private:
  std::vector<HealthRule> rules_;
};

/// The default SLO set for an OverlayService process. Thresholds are
/// ServiceOptions-tunable where they matter (latency, error rate); the
/// structural rules (arena grows, span drops) are zero-tolerance by
/// design — both events mean a sizing assumption broke.
struct ServiceSloOptions {
  double latency_warn_seconds = 0.050;
  double latency_fail_seconds = 0.500;
  double error_rate_warn = 0.01;
  double error_rate_fail = 0.10;
  double cache_hit_rate_warn = 0.50;  // kAbove: below this is degraded
  double cache_hit_rate_fail = 0.05;  // below this is failing
  double queue_depth_warn = 64;
  double queue_depth_fail = 4096;
};

std::vector<HealthRule> default_service_rules(const ServiceSloOptions& slo = {});

struct MonitorOptions {
  double interval_seconds = 0.1;      // sampling window
  TimeSeriesOptions series;           // ring capacity, EWMA, z threshold
  std::vector<HealthRule> rules;      // empty -> default_service_rules()
  std::string export_path;            // non-empty: atomic JSON rewrite per tick
  std::size_t export_last_windows = 120;  // series tail length in the export
};

/// Background sampler + health evaluator over one or more registries.
class Monitor {
 public:
  explicit Monitor(const MetricsRegistry& registry, MonitorOptions options = {});
  /// Samples every registry into one snapshot; where a name is in more
  /// than one, the earliest registry's value wins (a service's own
  /// registry first, then the process registry). The registries must
  /// outlive the monitor.
  Monitor(std::vector<const MetricsRegistry*> registries,
          MonitorOptions options = {});
  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Starts the background sampling thread (idempotent).
  void start();
  /// Stops and joins the thread; tick state is kept.
  void stop();

  /// One deterministic sampling window ending at `now_ns`: snapshot,
  /// diff, series push, rule evaluation, transition logs, export.
  /// Thread-safe; the background thread is just a timed loop over this.
  HealthReport tick_at(std::uint64_t now_ns);

  /// Latest report (default-constructed all-ok before the first tick).
  HealthReport health() const;
  const TimeSeriesStore& series() const { return store_; }

  /// {"health": ..., "series": ...} — the export_path payload.
  std::string to_json() const;

 private:
  void run();

  std::vector<const MetricsRegistry*> registries_;
  MonitorOptions options_;
  HealthEngine engine_;
  TimeSeriesStore store_;

  mutable std::mutex mutex_;  // tick state + last report
  MetricsSnapshot previous_;
  std::uint64_t previous_ns_ = 0;
  bool have_previous_ = false;
  HealthReport last_report_;
  std::map<std::string, HealthStatus> last_status_;

  std::mutex thread_mutex_;
  std::condition_variable wake_;
  std::thread thread_;
  bool running_ = false;
};

/// Writes `payload` to `path` atomically (temp file + rename) so a
/// concurrent reader never sees a torn write. Returns false on IO error.
bool atomic_write_file(const std::string& path, const std::string& payload);

}  // namespace vcgra::telemetry
