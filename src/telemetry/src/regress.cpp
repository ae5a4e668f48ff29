#include "vcgra/telemetry/regress.hpp"

#include <algorithm>
#include <cmath>

#include "vcgra/common/strings.hpp"
#include "vcgra/common/table.hpp"

namespace vcgra::telemetry {

void flatten_numeric_leaves(const JsonValue& value, const std::string& prefix,
                            std::map<std::string, double>* out) {
  switch (value.kind) {
    case JsonValue::Kind::Number:
      (*out)[prefix] = value.number;
      break;
    case JsonValue::Kind::Object:
      for (const auto& [key, child] : value.object) {
        flatten_numeric_leaves(child,
                               prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case JsonValue::Kind::Array:
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        flatten_numeric_leaves(value.array[i],
                               prefix + "." + std::to_string(i), out);
      }
      break;
    default:
      break;  // bool/string/null leaves are not comparable metrics
  }
}

namespace {

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

RegressEntry::Direction infer_direction(const std::string& metric) {
  // Throughput-like first: "jobs_per_second" also matches "_seconds".
  if (contains(metric, "per_second") || contains(metric, "per_sec") ||
      contains(metric, "throughput") || contains(metric, "speedup") ||
      contains(metric, "hit_rate") || contains(metric, "ops_per")) {
    return RegressEntry::Direction::kHigherBetter;
  }
  if (contains(metric, "seconds") || contains(metric, "latency") ||
      contains(metric, "_ns") || contains(metric, "cycles") ||
      contains(metric, "p50") || contains(metric, "p95") ||
      contains(metric, "p99") || contains(metric, "mean") ||
      contains(metric, "max")) {
    return RegressEntry::Direction::kLowerBetter;
  }
  return RegressEntry::Direction::kNeutral;
}

double tolerance_for(const std::string& metric, const RegressOptions& options) {
  // Longest matching substring override wins; built-in tail-width
  // defaults apply underneath user overrides.
  std::size_t best_len = 0;
  double best = -1;
  for (const auto& [pattern, tol] : options.tolerance_overrides) {
    if (contains(metric, pattern.c_str()) && pattern.size() >= best_len) {
      best_len = pattern.size();
      best = tol;
    }
  }
  if (best >= 0) return best;
  if (contains(metric, "p999") || contains(metric, "max")) return 0.50;
  if (contains(metric, "p99")) return 0.30;
  if (contains(metric, "p95")) return 0.20;
  if (contains(metric, "p50") || contains(metric, "mean")) return 0.15;
  return options.default_tolerance;
}

}  // namespace

RegressReport compare_snapshots(const JsonValue& old_doc,
                                const JsonValue& new_doc,
                                const RegressOptions& options) {
  std::map<std::string, double> old_leaves;
  std::map<std::string, double> new_leaves;
  flatten_numeric_leaves(old_doc, "", &old_leaves);
  flatten_numeric_leaves(new_doc, "", &new_leaves);

  RegressReport report;
  for (const auto& [metric, new_value] : new_leaves) {
    RegressEntry entry;
    entry.metric = metric;
    entry.new_value = new_value;
    entry.direction = infer_direction(metric);
    entry.tolerance = tolerance_for(metric, options);

    const auto it = old_leaves.find(metric);
    if (it == old_leaves.end()) {
      // A new leaf has no baseline: no old value and no change to show.
      entry.metric += " (added)";
      entry.added = true;
      entry.status = RegressEntry::Status::kInfo;
      ++report.infos;
      report.entries.push_back(std::move(entry));
      continue;
    }
    entry.old_value = it->second;

    const double base = std::abs(entry.old_value);
    entry.change = base > 0 ? (entry.new_value - entry.old_value) / base
                            : (entry.new_value != 0 ? 1.0 : 0.0);

    if (entry.direction == RegressEntry::Direction::kNeutral) {
      entry.status = RegressEntry::Status::kInfo;
      ++report.infos;
    } else {
      // Regression magnitude: how far the change moved in the *bad*
      // direction (improvements are negative and always pass).
      const double regression =
          entry.direction == RegressEntry::Direction::kLowerBetter
              ? entry.change
              : -entry.change;
      const bool above_floor =
          std::abs(entry.new_value - entry.old_value) >= options.absolute_floor;
      if (regression >= 2 * entry.tolerance && above_floor) {
        entry.status = RegressEntry::Status::kFail;
        ++report.fails;
      } else if (regression >= entry.tolerance && above_floor) {
        entry.status = RegressEntry::Status::kWarn;
        ++report.warns;
      } else {
        entry.status = RegressEntry::Status::kPass;
        ++report.passes;
      }
    }
    report.entries.push_back(std::move(entry));
  }
  // Leaves that disappeared are informational too (a retired bench, a
  // renamed metric) — surfaced so a silently-vanishing metric is visible.
  for (const auto& [metric, old_value] : old_leaves) {
    if (new_leaves.count(metric)) continue;
    RegressEntry entry;
    entry.metric = metric + " (removed)";
    entry.old_value = old_value;
    entry.removed = true;
    entry.status = RegressEntry::Status::kInfo;
    ++report.infos;
    report.entries.push_back(std::move(entry));
  }
  return report;
}

namespace {

const char* status_name(RegressEntry::Status status) {
  switch (status) {
    case RegressEntry::Status::kPass:
      return "pass";
    case RegressEntry::Status::kWarn:
      return "warn";
    case RegressEntry::Status::kFail:
      return "FAIL";
    case RegressEntry::Status::kInfo:
      return "info";
  }
  return "info";
}

}  // namespace

std::string RegressReport::summary() const {
  return common::strprintf(
      "regression: %d fail, %d warn, %d pass (%d informational)", fails, warns,
      passes, infos);
}

std::string RegressReport::table(bool include_all) const {
  common::AsciiTable table({"metric", "old", "new", "change", "tol", "status"});
  // Fails first, then warns, then the rest, each group in path order.
  const auto rank = [](RegressEntry::Status s) {
    switch (s) {
      case RegressEntry::Status::kFail:
        return 0;
      case RegressEntry::Status::kWarn:
        return 1;
      case RegressEntry::Status::kPass:
        return 2;
      case RegressEntry::Status::kInfo:
        return 3;
    }
    return 3;
  };
  std::vector<const RegressEntry*> ordered;
  ordered.reserve(entries.size());
  for (const RegressEntry& entry : entries) ordered.push_back(&entry);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const RegressEntry* a, const RegressEntry* b) {
                     return rank(a->status) < rank(b->status);
                   });
  std::size_t rows = 0;
  for (const RegressEntry* entry : ordered) {
    if (!include_all && entry->status != RegressEntry::Status::kFail &&
        entry->status != RegressEntry::Status::kWarn) {
      continue;
    }
    const bool both = !entry->added && !entry->removed;
    table.add_row({entry->metric,
                   entry->added ? "-" : common::strprintf("%.6g", entry->old_value),
                   entry->removed ? "-" : common::strprintf("%.6g", entry->new_value),
                   both ? common::strprintf("%+.1f%%", entry->change * 100.0) : "-",
                   common::strprintf("%.0f%%", entry->tolerance * 100.0),
                   status_name(entry->status)});
    ++rows;
  }
  return rows == 0 ? std::string() : table.render();
}

std::string RegressReport::to_json() const {
  std::string out = common::strprintf(
      "{\n  \"fails\": %d,\n  \"warns\": %d,\n  \"passes\": %d,\n"
      "  \"infos\": %d,\n  \"entries\": [",
      fails, warns, passes, infos);
  bool first = true;
  for (const RegressEntry& entry : entries) {
    out += common::strprintf(
        "%s\n    {\"metric\": \"%s\", \"old\": %.9g, \"new\": %.9g, "
        "\"change\": %.6g, \"tolerance\": %.6g, \"status\": \"%s\", "
        "\"added\": %s, \"removed\": %s}",
        first ? "" : ",", entry.metric.c_str(), entry.old_value,
        entry.new_value, entry.change, entry.tolerance,
        status_name(entry.status), entry.added ? "true" : "false",
        entry.removed ? "true" : "false");
    first = false;
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace vcgra::telemetry
