#include "vcgra/telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "vcgra/common/strings.hpp"

namespace vcgra::telemetry {

namespace {

constexpr std::uint64_t kMaxNs =
    (std::uint64_t{1} << (LatencyHistogram::kMaxExponent + 1)) - 1;

std::uint64_t seconds_to_ns(double seconds) {
  if (!(seconds > 0)) return 0;  // negatives and NaNs clamp to the floor
  const double ns = seconds * 1e9;
  if (ns >= static_cast<double>(kMaxNs)) return kMaxNs;
  return static_cast<std::uint64_t>(std::llround(ns));
}

}  // namespace

int LatencyHistogram::bucket_index(std::uint64_t ns) {
  if (ns > kMaxNs) ns = kMaxNs;
  if (ns < kSubBuckets) return static_cast<int>(ns);
  const int msb = std::bit_width(ns) - 1;  // >= kSubBucketBits
  const int shift = msb - kSubBucketBits;
  const int sub = static_cast<int>((ns >> shift) & (kSubBuckets - 1));
  return (msb - kSubBucketBits + 1) * kSubBuckets + sub;
}

std::uint64_t LatencyHistogram::bucket_min_ns(int index) {
  if (index < kSubBuckets) return static_cast<std::uint64_t>(index);
  const int msb = index / kSubBuckets + kSubBucketBits - 1;
  const int sub = index % kSubBuckets;
  const int shift = msb - kSubBucketBits;
  return (std::uint64_t{kSubBuckets} + static_cast<std::uint64_t>(sub)) << shift;
}

std::uint64_t LatencyHistogram::bucket_max_ns(int index) {
  if (index < kSubBuckets) return static_cast<std::uint64_t>(index);
  const int msb = index / kSubBuckets + kSubBucketBits - 1;
  const int shift = msb - kSubBucketBits;
  return bucket_min_ns(index) + (std::uint64_t{1} << shift) - 1;
}

void LatencyHistogram::record_ns(std::uint64_t ns) {
  if (ns > kMaxNs) ns = kMaxNs;
  counts_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::record_seconds(double seconds) {
  record_ns(seconds_to_ns(seconds));
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.counts.resize(kBucketCount);
  for (int i = 0; i < kBucketCount; ++i) {
    snap.counts[static_cast<std::size_t>(i)] =
        counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count();
  snap.sum_seconds = sum_seconds();
  snap.max_seconds =
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

double HistogramSnapshot::percentile(double fraction) const {
  return percentiles({fraction}).front();
}

std::vector<double> HistogramSnapshot::percentiles(
    const std::vector<double>& fractions) const {
  std::vector<double> out(fractions.size(), 0.0);
  if (count == 0 || counts.empty()) return out;
  std::size_t f = 0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size() && f < fractions.size(); ++i) {
    seen += counts[i];
    while (f < fractions.size()) {
      const double fraction = std::clamp(fractions[f], 0.0, 1.0);
      std::uint64_t rank = static_cast<std::uint64_t>(
          std::ceil(fraction * static_cast<double>(count)));
      if (rank == 0) rank = 1;  // nearest-rank, like runtime::percentile
      if (seen < rank) break;
      out[f] = static_cast<double>(
                   LatencyHistogram::bucket_max_ns(static_cast<int>(i))) *
               1e-9;
      ++f;
    }
  }
  return out;
}

HistogramSnapshot HistogramSnapshot::diff_since(
    const HistogramSnapshot& base) const {
  HistogramSnapshot out = *this;
  if (!base.counts.empty()) {
    for (std::size_t i = 0; i < out.counts.size() && i < base.counts.size();
         ++i) {
      out.counts[i] -= base.counts[i];
    }
  }
  out.count -= base.count;
  out.sum_seconds -= base.sum_seconds;
  // max is not subtractable; keep the later snapshot's (documented
  // behavior: the max over the whole history, not the interval).
  return out;
}

std::string HistogramSnapshot::summary() const {
  const std::vector<double> p = percentiles({0.50, 0.95, 0.99, 0.999});
  return common::strprintf(
      "n=%llu mean=%s p50=%s p95=%s p99=%s p999=%s max=%s",
      static_cast<unsigned long long>(count),
      common::human_seconds(mean_seconds()).c_str(),
      common::human_seconds(p[0]).c_str(), common::human_seconds(p[1]).c_str(),
      common::human_seconds(p[2]).c_str(), common::human_seconds(p[3]).c_str(),
      common::human_seconds(max_seconds).c_str());
}

MetricsSnapshot MetricsSnapshot::diff_since(const MetricsSnapshot& base) const {
  MetricsSnapshot out = *this;
  for (auto& [name, value] : out.counters) {
    const auto it = base.counters.find(name);
    if (it != base.counters.end()) value -= it->second;
  }
  for (auto& [name, hist] : out.histograms) {
    const auto it = base.histograms.find(name);
    if (it != base.histograms.end()) hist = hist.diff_since(it->second);
  }
  return out;
}

void MetricsSnapshot::merge(MetricsSnapshot other) {
  counters.merge(other.counters);
  gauges.merge(other.gauges);
  histograms.merge(other.histograms);
}

namespace {

void append_json_histogram(std::string& out, const HistogramSnapshot& hist) {
  const std::vector<double> p = hist.percentiles({0.50, 0.95, 0.99, 0.999});
  out += common::strprintf(
      "{\"count\": %llu, \"sum_seconds\": %.9g, \"max_seconds\": %.9g, "
      "\"p50\": %.9g, \"p95\": %.9g, \"p99\": %.9g, \"p999\": %.9g}",
      static_cast<unsigned long long>(hist.count), hist.sum_seconds,
      hist.max_seconds, p[0], p[1], p[2], p[3]);
}

}  // namespace

std::string prometheus_metric_name(const std::string& name) {
  // [a-zA-Z_:][a-zA-Z0-9_:]* — the "vcgra_" prefix supplies the legal
  // first character, everything else is sanitized to '_'.
  std::string out = "vcgra_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_label_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += common::strprintf("%s\n    \"%s\": %llu", first ? "" : ",",
                             name.c_str(),
                             static_cast<unsigned long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += common::strprintf("%s\n    \"%s\": %lld", first ? "" : ",",
                             name.c_str(), static_cast<long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out += common::strprintf("%s\n    \"%s\": ", first ? "" : ",", name.c_str());
    append_json_histogram(out, hist);
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string prom = prometheus_metric_name(name);
    out += common::strprintf("# TYPE %s counter\n%s %llu\n", prom.c_str(),
                             prom.c_str(),
                             static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : gauges) {
    const std::string prom = prometheus_metric_name(name);
    out += common::strprintf("# TYPE %s gauge\n%s %lld\n", prom.c_str(),
                             prom.c_str(), static_cast<long long>(value));
  }
  for (const auto& [name, hist] : histograms) {
    const std::string prom = prometheus_metric_name(name);
    out += common::strprintf("# TYPE %s histogram\n", prom.c_str());
    // Cumulative le-labeled buckets at one edge per power-of-two block
    // (the 16 sub-buckets collapse into their block's upper edge), so
    // the exposition stays ~39 lines per histogram while every count is
    // still attributed below an exact edge. Counts are non-decreasing
    // and the +Inf bucket equals _count, as the format requires.
    std::uint64_t cumulative = 0;
    std::size_t i = 0;
    for (int edge = LatencyHistogram::kSubBuckets - 1;
         edge < LatencyHistogram::kBucketCount;
         edge += LatencyHistogram::kSubBuckets) {
      for (; i < hist.counts.size() && i <= static_cast<std::size_t>(edge);
           ++i) {
        cumulative += hist.counts[i];
      }
      const double le =
          static_cast<double>(LatencyHistogram::bucket_max_ns(edge)) * 1e-9;
      out += common::strprintf(
          "%s_bucket{le=\"%s\"} %llu\n", prom.c_str(),
          prometheus_label_escape(common::strprintf("%.9g", le)).c_str(),
          static_cast<unsigned long long>(cumulative));
    }
    out += common::strprintf("%s_bucket{le=\"+Inf\"} %llu\n", prom.c_str(),
                             static_cast<unsigned long long>(hist.count));
    out += common::strprintf("%s_sum %.9g\n%s_count %llu\n", prom.c_str(),
                             hist.sum_seconds, prom.c_str(),
                             static_cast<unsigned long long>(hist.count));
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->snapshot();
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace vcgra::telemetry
