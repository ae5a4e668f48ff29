// Runtime metrics: counters, gauges and fixed-log-bucket latency
// histograms, in registries (one per OverlayService, plus the process
// registry for what no service owns).
//
// The paper's whole argument is a latency budget (microsecond
// respecialization vs. seconds of place & route), so the serving layer
// needs measurement that is exact, cheap enough for the hot path, and
// machine-readable:
//
//   * Counter / Gauge — one relaxed std::atomic word each.
//   * LatencyHistogram — HDR-style fixed log buckets over nanoseconds:
//     values below 16 ns land in exact 1 ns buckets, above that each
//     power of two splits into 16 sub-buckets (<= 6.25% relative bucket
//     width) up to ~4400 s. Recording is one atomic increment plus two
//     atomic adds; percentiles are computed from the full population of
//     counts (no sampling window, no overwrite ring), so p50/p95/p99/
//     p999 are exact to one bucket width at any job count.
//   * MetricsRegistry — named metrics with stable references (register
//     once, update lock-free forever). Snapshots are plain values:
//     diffable (benches assert on deltas) and serializable as JSON or a
//     Prometheus-style text dump.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vcgra::telemetry {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Value-type copy of a histogram's bucket population at one instant.
/// Percentiles, diffs and serialization all operate on snapshots so the
/// live histogram never needs more than relaxed atomics.
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  // kBucketCount entries (empty = all zero)
  std::uint64_t count = 0;
  double sum_seconds = 0;
  double max_seconds = 0;

  /// Nearest-rank percentile over the bucket population, returned as the
  /// matched bucket's upper edge (so the true sample value is <= the
  /// returned value and within one bucket width of it). 0 when empty.
  double percentile(double fraction) const;
  /// Several fractions in one bucket walk. `fractions` must be sorted.
  std::vector<double> percentiles(const std::vector<double>& fractions) const;
  double mean_seconds() const { return count ? sum_seconds / static_cast<double>(count) : 0.0; }

  /// Samples recorded since `base` (bucket-wise subtraction). `base`
  /// must be an earlier snapshot of the same histogram.
  HistogramSnapshot diff_since(const HistogramSnapshot& base) const;

  /// "n=120 mean=1.2 ms p50=900 us p99=4.1 ms max=6 ms"
  std::string summary() const;
};

/// Fixed-log-bucket latency histogram over [1 ns, ~4400 s], lock-free.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 4;  // 16 sub-buckets per power of two
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMaxExponent = 41;  // covers 2^42-1 ns (~4400 s > 1 ks)
  static constexpr int kBucketCount =
      (kMaxExponent - kSubBucketBits + 2) * kSubBuckets;  // 624

  /// Bucket index of a nanosecond value (clamped into range).
  static int bucket_index(std::uint64_t ns);
  /// Largest nanosecond value mapping to `index` (the bucket upper edge).
  static std::uint64_t bucket_max_ns(int index);
  /// Smallest nanosecond value mapping to `index`.
  static std::uint64_t bucket_min_ns(int index);

  void record_ns(std::uint64_t ns);
  void record_seconds(double seconds);

  /// Samples recorded and their total, without copying the buckets.
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

  HistogramSnapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> counts_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Value snapshot of a whole registry; diffable and serializable.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Activity since `base`: counter/histogram deltas (gauges keep their
  /// current value — they are levels, not flows). Metrics absent from
  /// `base` diff against zero.
  MetricsSnapshot diff_since(const MetricsSnapshot& base) const;

  /// Adds every metric of `other` whose name this snapshot lacks; where
  /// a name is in both, this snapshot's value stays.
  void merge(MetricsSnapshot other);

  std::string to_json() const;
  /// Prometheus text exposition: counters/gauges as-is, histograms as
  /// cumulative `_bucket{le="..."}` series (one edge per power-of-two
  /// block, so bucket counts are non-decreasing and end at `+Inf` ==
  /// `_count`) plus `_sum`/`_count`. Metric names go through
  /// prometheus_metric_name(); label values through
  /// prometheus_label_escape().
  std::string to_prometheus() const;
};

/// Prometheus-conformant metric name: any character outside
/// [a-zA-Z0-9_:] becomes '_', a leading digit gets an extra '_', and
/// the result is prefixed "vcgra_".
std::string prometheus_metric_name(const std::string& name);

/// Escapes a label value for the text exposition format: backslash,
/// double quote and newline become \\, \" and \n.
std::string prometheus_label_escape(const std::string& value);

/// Named-metric directory. Registration takes a mutex once per name;
/// the returned references are stable for the registry's lifetime, so
/// hot paths cache them (e.g. in a function-local static) and update
/// without any lock.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// The process-wide registry: the metrics no service owns (exec.*,
  /// trace.*, store.*, vision.*).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
MetricsRegistry& metrics();

}  // namespace vcgra::telemetry
