#include "vcgra/telemetry/health.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "vcgra/common/log.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/telemetry/trace.hpp"

namespace vcgra::telemetry {

const char* to_string(HealthStatus status) {
  switch (status) {
    case HealthStatus::kOk:
      return "ok";
    case HealthStatus::kDegraded:
      return "degraded";
    case HealthStatus::kFailing:
      return "failing";
  }
  return "ok";
}

namespace {

HealthStatus judge(HealthRule::Direction direction, double value, double warn,
                   double fail) {
  if (direction == HealthRule::Direction::kBelow) {
    if (value <= warn) return HealthStatus::kOk;
    if (value <= fail) return HealthStatus::kDegraded;
    return HealthStatus::kFailing;
  }
  if (value >= warn) return HealthStatus::kOk;
  if (value >= fail) return HealthStatus::kDegraded;
  return HealthStatus::kFailing;
}

}  // namespace

HealthEngine::HealthEngine(std::vector<HealthRule> rules)
    : rules_(std::move(rules)) {}

HealthReport HealthEngine::evaluate(double interval_seconds,
                                    const MetricsSnapshot& delta,
                                    const MetricsSnapshot& level) const {
  const double dt = interval_seconds > 0 ? interval_seconds : 1e-9;
  HealthReport report;
  report.verdicts.reserve(rules_.size());
  for (const HealthRule& rule : rules_) {
    HealthVerdict verdict;
    verdict.rule = rule.name;
    switch (rule.input) {
      case HealthRule::Input::kCounterRate: {
        const auto it = delta.counters.find(rule.metric);
        if (it != delta.counters.end()) {
          verdict.has_data = true;
          verdict.value = static_cast<double>(it->second) / dt;
        }
        break;
      }
      case HealthRule::Input::kCounterRatio: {
        const auto it = delta.counters.find(rule.metric);
        const double numerator =
            it != delta.counters.end() ? static_cast<double>(it->second) : 0.0;
        double denominator = 0;
        for (const std::string& name : rule.denominator) {
          const auto dit = delta.counters.find(name);
          if (dit != delta.counters.end()) {
            denominator += static_cast<double>(dit->second);
          }
        }
        if (denominator > 0) {
          verdict.has_data = true;
          verdict.value = numerator / denominator;
        }
        break;
      }
      case HealthRule::Input::kGaugeLevel: {
        const auto it = level.gauges.find(rule.metric);
        if (it != level.gauges.end()) {
          verdict.has_data = true;
          verdict.value = static_cast<double>(it->second);
        }
        break;
      }
      case HealthRule::Input::kHistogramP50:
      case HealthRule::Input::kHistogramP99:
      case HealthRule::Input::kHistogramMean:
      case HealthRule::Input::kHistogramRate: {
        const auto it = delta.histograms.find(rule.metric);
        if (it != delta.histograms.end()) {
          const HistogramSnapshot& hist = it->second;
          if (rule.input == HealthRule::Input::kHistogramRate) {
            verdict.has_data = true;
            verdict.value = static_cast<double>(hist.count) / dt;
          } else if (hist.count > 0) {
            verdict.has_data = true;
            if (rule.input == HealthRule::Input::kHistogramP50) {
              verdict.value = hist.percentile(0.50);
            } else if (rule.input == HealthRule::Input::kHistogramP99) {
              verdict.value = hist.percentile(0.99);
            } else {
              verdict.value = hist.mean_seconds();
            }
          }
        }
        break;
      }
    }
    // A window with nothing to measure is healthy by definition: idle
    // is not degraded, and a ratio without a denominator has no signal.
    verdict.status = verdict.has_data
                         ? judge(rule.direction, verdict.value,
                                 rule.warn_threshold, rule.fail_threshold)
                         : HealthStatus::kOk;
    report.overall = std::max(report.overall, verdict.status);
    report.verdicts.push_back(std::move(verdict));
  }
  return report;
}

std::vector<HealthRule> default_service_rules(const ServiceSloOptions& slo) {
  // The structural rules are zero-tolerance: one arena grow or one
  // dropped span per window means a sizing assumption broke, which is
  // worth a degraded verdict but never failing on its own.
  constexpr double kNeverFail = 1e300;
  std::vector<HealthRule> rules;
  rules.push_back({"latency_p99", HealthRule::Input::kHistogramP99,
                   "service.latency", {}, HealthRule::Direction::kBelow,
                   slo.latency_warn_seconds, slo.latency_fail_seconds});
  rules.push_back({"error_rate", HealthRule::Input::kCounterRatio,
                   "service.jobs_failed",
                   {"service.jobs_ok", "service.jobs_failed"},
                   HealthRule::Direction::kBelow, slo.error_rate_warn,
                   slo.error_rate_fail});
  rules.push_back({"cache_hit_rate", HealthRule::Input::kCounterRatio,
                   "cache.hits", {"cache.hits", "cache.misses"},
                   HealthRule::Direction::kAbove, slo.cache_hit_rate_warn,
                   slo.cache_hit_rate_fail});
  rules.push_back({"queue_depth", HealthRule::Input::kGaugeLevel,
                   "pool.queue_depth", {}, HealthRule::Direction::kBelow,
                   slo.queue_depth_warn, slo.queue_depth_fail});
  rules.push_back({"arena_grows", HealthRule::Input::kCounterRate,
                   "exec.arena_grows", {}, HealthRule::Direction::kBelow, 0.0,
                   kNeverFail});
  rules.push_back({"trace_drops", HealthRule::Input::kCounterRate,
                   "trace.dropped_spans", {}, HealthRule::Direction::kBelow,
                   0.0, kNeverFail});
  return rules;
}

std::string HealthReport::to_json() const {
  std::string out = common::strprintf(
      "{\n  \"overall\": \"%s\",\n  \"window_end_ns\": %llu,\n"
      "  \"windows_evaluated\": %llu,\n  \"rules\": {",
      telemetry::to_string(overall),
      static_cast<unsigned long long>(window_end_ns),
      static_cast<unsigned long long>(windows_evaluated));
  bool first = true;
  for (const HealthVerdict& v : verdicts) {
    out += common::strprintf(
        "%s\n    \"%s\": {\"status\": \"%s\", \"value\": %.9g, "
        "\"has_data\": %s}",
        first ? "" : ",", v.rule.c_str(), telemetry::to_string(v.status),
        v.value, v.has_data ? "true" : "false");
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"anomalies\": [";
  first = true;
  for (const std::string& name : anomalies) {
    out += common::strprintf("%s\"%s\"", first ? "" : ", ", name.c_str());
    first = false;
  }
  out += "]\n}\n";
  return out;
}

std::string HealthReport::to_string() const {
  std::string out = telemetry::to_string(overall);
  std::string detail;
  for (const HealthVerdict& v : verdicts) {
    if (v.status == HealthStatus::kOk) continue;
    if (!detail.empty()) detail += "; ";
    detail += common::strprintf("%s=%.6g %s", v.rule.c_str(), v.value,
                                telemetry::to_string(v.status));
  }
  if (!detail.empty()) out += " [" + detail + "]";
  return out;
}

bool atomic_write_file(const std::string& path, const std::string& payload) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(payload.data(), 1, payload.size(), f);
  const bool flushed = std::fclose(f) == 0 && written == payload.size();
  if (!flushed) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

Monitor::Monitor(const MetricsRegistry& registry, MonitorOptions options)
    : Monitor(std::vector<const MetricsRegistry*>{&registry},
              std::move(options)) {}

Monitor::Monitor(std::vector<const MetricsRegistry*> registries,
                 MonitorOptions options)
    : registries_(std::move(registries)),
      options_(std::move(options)),
      engine_(options_.rules.empty() ? default_service_rules()
                                     : options_.rules),
      store_(options_.series) {
  if (options_.interval_seconds < 1e-3) options_.interval_seconds = 1e-3;
}

Monitor::~Monitor() { stop(); }

HealthReport Monitor::tick_at(std::uint64_t now_ns) {
  MetricsSnapshot current;
  for (const MetricsRegistry* registry : registries_) {
    current.merge(registry->snapshot());
  }
  std::string export_payload;
  HealthReport report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    double interval = options_.interval_seconds;
    if (have_previous_ && now_ns > previous_ns_) {
      interval = static_cast<double>(now_ns - previous_ns_) * 1e-9;
    }
    const MetricsSnapshot delta = current.diff_since(previous_);
    store_.push_window(now_ns, interval, delta, current);
    report = engine_.evaluate(interval, delta, current);
    report.anomalies = store_.last_anomalies();
    report.window_end_ns = now_ns;
    report.windows_evaluated = store_.windows();

    // Transition logs: worsening is a warning, recovery is info. The
    // very first window only logs if it is already unhealthy.
    for (const HealthVerdict& v : report.verdicts) {
      const auto it = last_status_.find(v.rule);
      const HealthStatus before =
          it != last_status_.end() ? it->second : HealthStatus::kOk;
      if (v.status != before) {
        if (static_cast<int>(v.status) > static_cast<int>(before)) {
          VCGRA_LOG_WARN() << "health: rule '" << v.rule << "' "
                           << telemetry::to_string(before) << " -> "
                           << telemetry::to_string(v.status)
                           << " (value=" << v.value << ")";
        } else {
          VCGRA_LOG_INFO() << "health: rule '" << v.rule << "' "
                           << telemetry::to_string(before) << " -> "
                           << telemetry::to_string(v.status);
        }
      }
      last_status_[v.rule] = v.status;
    }
    if (report.overall != last_report_.overall) {
      if (static_cast<int>(report.overall) >
          static_cast<int>(last_report_.overall)) {
        VCGRA_LOG_WARN() << "health: overall "
                         << telemetry::to_string(last_report_.overall)
                         << " -> " << report.to_string();
      } else {
        VCGRA_LOG_INFO() << "health: overall "
                         << telemetry::to_string(last_report_.overall)
                         << " -> " << telemetry::to_string(report.overall);
      }
    }

    previous_ = current;
    previous_ns_ = now_ns;
    have_previous_ = true;
    last_report_ = report;
    if (!options_.export_path.empty()) {
      export_payload = "{\n\"health\": " + report.to_json() + ",\n\"series\": " +
                       store_.to_json(options_.export_last_windows) + "}\n";
    }
  }
  if (!export_payload.empty() &&
      !atomic_write_file(options_.export_path, export_payload)) {
    VCGRA_LOG_WARN() << "health: failed to export monitor state to '"
                     << options_.export_path << "'";
  }
  return report;
}

HealthReport Monitor::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_report_;
}

std::string Monitor::to_json() const {
  HealthReport report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    report = last_report_;
  }
  return "{\n\"health\": " + report.to_json() + ",\n\"series\": " +
         store_.to_json(options_.export_last_windows) + "}\n";
}

void Monitor::start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (running_) return;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void Monitor::stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!running_) return;
    running_ = false;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Monitor::run() {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.interval_seconds));
  std::unique_lock<std::mutex> lock(thread_mutex_);
  while (running_) {
    if (wake_.wait_for(lock, interval, [this] { return !running_; })) break;
    lock.unlock();
    tick_at(trace_now_ns());
    lock.lock();
  }
}

}  // namespace vcgra::telemetry
