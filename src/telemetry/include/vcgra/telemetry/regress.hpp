// Perf-regression comparison of two metrics/bench JSON snapshots.
//
// BENCH_exec.json is uploaded by every CI run but was never compared
// against the previous one — a 2x latency regression only surfaced if a
// human re-read the tables. compare_snapshots() diffs two snapshot
// documents leaf-wise (every numeric leaf, dotted-path keys) and judges
// each perf-relevant leaf against a per-metric noise threshold:
//
//   * direction is inferred from the metric name — throughput-like
//     leaves (per_second, speedup, hit_rate) regress when they drop,
//     time-like leaves (seconds, latency, p50/p99/..., cycles) regress
//     when they grow; other leaves are informational only (counts like
//     jobs_completed legitimately differ run to run);
//   * the noise threshold widens with tail depth (p999/max are far
//     noisier than a mean over thousands of jobs): warn at the
//     threshold, fail at 2x;
//   * leaves present in only one snapshot are informational (new
//     benches appear, old ones retire — that is not a regression).
//
// The report renders as a pass/warn/fail ASCII table and as JSON for
// the CI artifact. `vcgra_stats --regress old.json new.json` is the CLI
// wrapper; CI runs it report-only against the previous cached artifact.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "vcgra/telemetry/json.hpp"

namespace vcgra::telemetry {

struct RegressOptions {
  /// Noise threshold for leaves with no more specific rule.
  double default_tolerance = 0.10;
  /// Overrides matched by substring against the dotted leaf path, most
  /// specific (longest) match wins. Merged over the built-in defaults
  /// (p999/max 50%, p99 30%, p50/mean 15%).
  std::map<std::string, double> tolerance_overrides;
  /// Failures require the change to also exceed this absolute floor in
  /// seconds-like units, so a 3 ns -> 7 ns jitter on a nanosecond-scale
  /// leaf cannot fail a run on ratio alone.
  double absolute_floor = 1e-6;
};

struct RegressEntry {
  enum class Direction { kLowerBetter, kHigherBetter, kNeutral };
  enum class Status { kPass, kWarn, kFail, kInfo };

  std::string metric;     // dotted leaf path
  double old_value = 0;   // unset (0) for an added leaf
  double new_value = 0;   // unset (0) for a removed leaf
  double change = 0;      // (new - old) / |old|, signed; 0 unless both exist
  bool added = false;     // the leaf has no baseline: "<path> (added)"
  bool removed = false;   // the leaf is gone from the new doc: "<path> (removed)"
  double tolerance = 0;   // noise threshold applied
  Direction direction = Direction::kNeutral;
  Status status = Status::kInfo;
};

struct RegressReport {
  std::vector<RegressEntry> entries;  // leaf-path order
  int passes = 0;
  int warns = 0;
  int fails = 0;
  int infos = 0;

  bool ok() const { return fails == 0; }
  /// "regression: 2 fail, 1 warn, 40 pass (63 informational)"
  std::string summary() const;
  /// ASCII table of the verdicts. By default only fail/warn rows print
  /// (empty string when the run is clean); `include_all` adds the pass
  /// and informational rows.
  std::string table(bool include_all = false) const;
  std::string to_json() const;
};

/// Every numeric leaf of `value` under dotted paths into `out`
/// (booleans and strings are skipped; arrays index as ".0", ".1", ...).
void flatten_numeric_leaves(const JsonValue& value, const std::string& prefix,
                            std::map<std::string, double>* out);

/// Leaf-wise comparison of two parsed snapshot documents.
RegressReport compare_snapshots(const JsonValue& old_doc,
                                const JsonValue& new_doc,
                                const RegressOptions& options = {});

}  // namespace vcgra::telemetry
