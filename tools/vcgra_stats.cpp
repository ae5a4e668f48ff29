// vcgra_stats — pretty-print, diff, regression-check and validate the
// runtime's telemetry exports.
//
//   vcgra_stats stats.json                    pretty-print one snapshot
//   vcgra_stats --diff before.json after.json activity between snapshots
//   vcgra_stats --regress old.json new.json   perf pass/warn/fail table
//   vcgra_stats --check-trace trace.json      validate a Chrome trace file
//   vcgra_stats --trajectory BENCH_vbench.jsonl   pair statistics per claim
//
// Snapshots are the JSON written by MetricsSnapshot::to_json() or
// ServiceStats::to_json() (any JSON object of numeric leaves works: the
// tool walks the tree generically). --diff subtracts `before` from
// `after` leaf-wise and prints only what changed.
//
// --regress is the CI perf gate: it compares two BENCH_exec.json (or any
// metrics snapshot) leaf-wise with per-metric noise thresholds and
// direction inference (telemetry/regress.hpp), prints the pass/warn/fail
// table, optionally writes the JSON report (--out report.json), and
// exits 1 when any metric regressed past 2x its noise threshold — CI
// currently runs it report-only against the previous cached artifact.
//
// --check-trace enforces what chrome://tracing/Perfetto need: a
// traceEvents array whose "X" events carry name/ts/dur/pid/tid, with
// non-negative durations and, per (tid, depth), non-overlapping spans.
// It also warns (without failing) when the trace reports dropped spans —
// ring overwrite means the oldest spans are missing, not that the file
// is malformed. Exit status is the check result, so CI can gate on it.
//
// --trajectory reads the committed benchmark trajectory: one JSON object
// per line, tagged with the parent `commit` a pair was measured against,
// its `side` (parent or change), `workload`, `seed`, `pair` and run
// length `seconds`, carrying the `result` object vbench printed (report
// lines are skipped). For every (commit, workload, seed, seconds) and
// end-to-end metric it prints each
// side's median and quartiles (linear interpolation), the change's pair
// wins, and whether the medians lie further apart than the parent's
// interquartile range. A metric whose unit ends in "/s" is better
// higher; every other (time, memory) is better lower.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "vcgra/telemetry/json.hpp"
#include "vcgra/telemetry/regress.hpp"

using vcgra::telemetry::JsonValue;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "vcgra_stats: cannot read '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

JsonValue parse_file(const std::string& path) {
  JsonValue value;
  std::string error;
  if (!vcgra::telemetry::parse_json(read_file(path), &value, &error)) {
    std::fprintf(stderr, "vcgra_stats: %s: %s\n", path.c_str(), error.c_str());
    std::exit(2);
  }
  return value;
}

/// Flattens nested objects to "a.b.c" -> number leaves; non-numeric
/// leaves are skipped (names, booleans).
void flatten(const JsonValue& value, const std::string& prefix,
             std::map<std::string, double>* out) {
  if (value.is_number()) {
    (*out)[prefix] = value.number;
    return;
  }
  if (value.is_object()) {
    for (const auto& [key, child] : value.object) {
      flatten(child, prefix.empty() ? key : prefix + "." + key, out);
    }
  }
}

void print_leaves(const std::map<std::string, double>& leaves) {
  std::size_t width = 0;
  for (const auto& [name, value] : leaves) {
    (void)value;
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : leaves) {
    if (value == static_cast<double>(static_cast<long long>(value))) {
      std::printf("%-*s %lld\n", static_cast<int>(width), name.c_str(),
                  static_cast<long long>(value));
    } else {
      std::printf("%-*s %.6g\n", static_cast<int>(width), name.c_str(), value);
    }
  }
}

int cmd_print(const std::string& path) {
  std::map<std::string, double> leaves;
  flatten(parse_file(path), "", &leaves);
  if (leaves.empty()) {
    std::fprintf(stderr, "vcgra_stats: no numeric fields in '%s'\n",
                 path.c_str());
    return 1;
  }
  print_leaves(leaves);
  return 0;
}

int cmd_diff(const std::string& before_path, const std::string& after_path) {
  std::map<std::string, double> before, after;
  flatten(parse_file(before_path), "", &before);
  flatten(parse_file(after_path), "", &after);
  std::map<std::string, double> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const double base = it == before.end() ? 0.0 : it->second;
    if (value != base) delta[name] = value - base;
  }
  for (const auto& [name, value] : before) {
    (void)value;
    if (!after.count(name)) delta[name + " (removed)"] = -value;
  }
  if (delta.empty()) {
    std::printf("no change\n");
    return 0;
  }
  print_leaves(delta);
  return 0;
}

int cmd_regress(const std::string& old_path, const std::string& new_path,
                const std::string& out_path, bool verbose) {
  const JsonValue old_doc = parse_file(old_path);
  const JsonValue new_doc = parse_file(new_path);
  const vcgra::telemetry::RegressReport report =
      vcgra::telemetry::compare_snapshots(old_doc, new_doc);
  std::printf("%s\n", report.summary().c_str());
  const std::string table = report.table(verbose);
  if (!table.empty()) std::printf("%s", table.c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "vcgra_stats: cannot write '%s'\n",
                   out_path.c_str());
      return 2;
    }
    out << report.to_json();
  }
  return report.ok() ? 0 : 1;
}

int trace_fail(const std::string& message) {
  std::fprintf(stderr, "vcgra_stats: trace invalid: %s\n", message.c_str());
  return 1;
}

int cmd_check_trace(const std::string& path) {
  const JsonValue root = parse_file(path);
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return trace_fail("missing traceEvents array");
  }
  struct Span {
    double start = 0;
    double end = 0;
  };
  // Per (tid, depth): complete spans, for the overlap check.
  std::map<std::pair<long long, long long>, std::vector<Span>> lanes;
  std::size_t complete = 0;
  for (const JsonValue& event : events->array) {
    if (!event.is_object()) return trace_fail("event is not an object");
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string()) {
      return trace_fail("event lacks a ph phase");
    }
    if (ph->string == "M") continue;  // metadata (thread names)
    if (ph->string != "X") {
      return trace_fail("unexpected phase '" + ph->string + "'");
    }
    const JsonValue* name = event.find("name");
    const JsonValue* ts = event.find("ts");
    const JsonValue* dur = event.find("dur");
    const JsonValue* pid = event.find("pid");
    const JsonValue* tid = event.find("tid");
    if (name == nullptr || !name->is_string() || name->string.empty()) {
      return trace_fail("X event lacks a name");
    }
    if (ts == nullptr || !ts->is_number() || dur == nullptr ||
        !dur->is_number() || pid == nullptr || !pid->is_number() ||
        tid == nullptr || !tid->is_number()) {
      return trace_fail("X event '" + name->string +
                        "' lacks numeric ts/dur/pid/tid");
    }
    if (ts->number < 0 || dur->number < 0) {
      return trace_fail("X event '" + name->string + "' has negative ts/dur");
    }
    long long depth = 0;
    if (const JsonValue* args = event.find("args")) {
      if (const JsonValue* d = args->find("depth")) {
        depth = static_cast<long long>(d->number);
      }
    }
    // Negative depth marks cross-thread spans (queue wait): they live on
    // the finishing thread's lane but overlap it legitimately.
    if (depth >= 0) {
      lanes[{static_cast<long long>(tid->number), depth}].push_back(
          Span{ts->number, ts->number + dur->number});
    }
    ++complete;
  }
  if (complete == 0) return trace_fail("no complete (ph=X) spans");
  // Same-depth spans of one thread are strictly sequential by
  // construction (a thread closes a span before opening the next at that
  // depth), so any overlap means broken timestamps or ring corruption.
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].start < spans[i - 1].end) {
        return trace_fail(
            "overlapping same-depth spans on tid " +
            std::to_string(lane.first) + " depth " +
            std::to_string(lane.second));
      }
    }
  }
  // Drops don't invalidate the file — the events present are still
  // well-formed — but the trace is incomplete, which CI should see.
  double dropped = 0;
  if (const JsonValue* top_drops = root.find("droppedSpans")) {
    dropped = top_drops->number;
  }
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.find("ph");
    const JsonValue* name = event.find("name");
    if (ph != nullptr && ph->string == "M" && name != nullptr &&
        name->string == "dropped_spans") {
      if (const JsonValue* args = event.find("args")) {
        if (const JsonValue* count = args->find("count")) {
          const JsonValue* tid = event.find("tid");
          std::fprintf(stderr,
                       "vcgra_stats: warning: tid %lld dropped %lld spans to "
                       "ring overwrite\n",
                       tid != nullptr ? static_cast<long long>(tid->number) : -1,
                       static_cast<long long>(count->number));
        }
      }
    }
  }
  if (dropped > 0) {
    std::fprintf(stderr,
                 "vcgra_stats: warning: trace dropped %lld spans total — the "
                 "oldest spans were overwritten; treat stage coverage as "
                 "incomplete\n",
                 static_cast<long long>(dropped));
  }
  std::printf("trace ok: %zu spans across %zu (tid, depth) lanes\n", complete,
              lanes.size());
  return 0;
}

/// The q-quantile of sorted `v`, interpolating linearly between order
/// statistics.
double quantile(const std::vector<double>& v, double q) {
  const double at = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

int cmd_trajectory(const std::string& path) {
  struct Metric {
    std::string unit;
    std::map<long long, double> side[2];  // [parent, change] by pair
  };
  struct Claim {
    std::string commit, workload;
    long long seed = 0;
    double seconds = 0;
    std::vector<std::string> order;  // metric names, first-seen
    std::map<std::string, Metric> metrics;
  };
  std::vector<Claim> claims;
  std::istringstream lines(read_file(path));
  std::string line;
  for (int n = 1; std::getline(lines, line); ++n) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue entry;
    std::string error;
    if (!vcgra::telemetry::parse_json(line, &entry, &error)) {
      std::fprintf(stderr, "vcgra_stats: %s:%d: %s\n", path.c_str(), n,
                   error.c_str());
      return 2;
    }
    const JsonValue* result = entry.find("result");
    if (result == nullptr) continue;  // a report line
    const JsonValue* commit = entry.find("commit");
    const JsonValue* side = entry.find("side");
    const JsonValue* workload = entry.find("workload");
    const JsonValue* seed = entry.find("seed");
    const JsonValue* pair = entry.find("pair");
    const JsonValue* seconds = entry.find("seconds");
    const JsonValue* metrics = result->find("metrics");
    if (commit == nullptr || !commit->is_string() || side == nullptr ||
        (side->string != "parent" && side->string != "change") ||
        workload == nullptr || !workload->is_string() || seed == nullptr ||
        !seed->is_number() || pair == nullptr || !pair->is_number() ||
        seconds == nullptr || !seconds->is_number() || metrics == nullptr ||
        !metrics->is_object()) {
      std::fprintf(stderr,
                   "vcgra_stats: %s:%d: result line lacks commit, side, "
                   "workload, seed, pair, seconds or metrics\n",
                   path.c_str(), n);
      return 2;
    }
    const long long seed_value = static_cast<long long>(seed->number);
    auto claim = std::find_if(claims.begin(), claims.end(), [&](const Claim& c) {
      return c.commit == commit->string && c.workload == workload->string &&
             c.seed == seed_value && c.seconds == seconds->number;
    });
    if (claim == claims.end()) {
      claims.push_back(
          {commit->string, workload->string, seed_value, seconds->number, {}, {}});
      claim = claims.end() - 1;
    }
    for (const auto& [name, metric] : metrics->object) {
      const JsonValue* value = metric.find("value");
      if (value == nullptr || !value->is_number()) continue;
      if (!claim->metrics.count(name)) claim->order.push_back(name);
      Metric& m = claim->metrics[name];
      if (const JsonValue* unit = metric.find("unit")) m.unit = unit->string;
      m.side[side->string == "change"][static_cast<long long>(pair->number)] =
          value->number;
    }
  }
  if (claims.empty()) {
    std::fprintf(stderr, "vcgra_stats: no result lines in '%s'\n", path.c_str());
    return 1;
  }
  for (const Claim& claim : claims) {
    std::printf("%s seed %lld, %g s runs, parent %.12s\n",
                claim.workload.c_str(), claim.seed, claim.seconds,
                claim.commit.c_str());
    std::printf("  %-14s %-34s %-34s %8s %6s %s\n", "metric",
                "parent median [q1, q3]", "change median [q1, q3]", "change",
                "wins", "gap > parent IQR");
    for (const std::string& name : claim.order) {
      const Metric& m = claim.metrics.at(name);
      const bool higher = m.unit.size() >= 2 &&
                          m.unit.compare(m.unit.size() - 2, 2, "/s") == 0;
      std::vector<double> sorted[2];
      std::string cell[2];
      for (int s = 0; s < 2; ++s) {
        for (const auto& [pair, value] : m.side[s]) sorted[s].push_back(value);
        std::sort(sorted[s].begin(), sorted[s].end());
        if (sorted[s].empty()) continue;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.4g [%.4g, %.4g]",
                      quantile(sorted[s], 0.5), quantile(sorted[s], 0.25),
                      quantile(sorted[s], 0.75));
        cell[s] = buf;
      }
      int wins = 0, pairs = 0;
      for (const auto& [pair, parent] : m.side[0]) {
        const auto it = m.side[1].find(pair);
        if (it == m.side[1].end()) continue;
        ++pairs;
        wins += higher ? it->second > parent : it->second < parent;
      }
      if (sorted[0].empty() || sorted[1].empty()) {
        std::printf("  %-14s %-34s %-34s (one side only)\n", name.c_str(),
                    cell[0].c_str(), cell[1].c_str());
        continue;
      }
      const double before = quantile(sorted[0], 0.5);
      const double after = quantile(sorted[1], 0.5);
      const double iqr = quantile(sorted[0], 0.75) - quantile(sorted[0], 0.25);
      const double gain = higher ? after - before : before - after;
      std::printf("  %-14s %-34s %-34s %+7.1f%% %3d/%-2d %s\n", name.c_str(),
                  cell[0].c_str(), cell[1].c_str(),
                  before != 0 ? 100.0 * (after - before) / std::abs(before) : 0.0,
                  wins, pairs,
                  std::abs(after - before) <= iqr ? "no"
                  : gain > 0                      ? "yes, better"
                                                  : "yes, worse");
    }
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: vcgra_stats <stats.json>\n"
               "       vcgra_stats --diff <before.json> <after.json>\n"
               "       vcgra_stats --regress <old.json> <new.json> "
               "[--out report.json] [--verbose]\n"
               "       vcgra_stats --check-trace <trace.json>\n"
               "       vcgra_stats --trajectory <BENCH_vbench.jsonl>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strncmp(argv[1], "--", 2) != 0) {
    return cmd_print(argv[1]);
  }
  if (argc == 4 && std::strcmp(argv[1], "--diff") == 0) {
    return cmd_diff(argv[2], argv[3]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "--regress") == 0) {
    std::string out_path;
    bool verbose = false;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        out_path = argv[++i];
      } else if (std::strcmp(argv[i], "--verbose") == 0) {
        verbose = true;
      } else {
        return usage();
      }
    }
    return cmd_regress(argv[2], argv[3], out_path, verbose);
  }
  if (argc == 3 && std::strcmp(argv[1], "--check-trace") == 0) {
    return cmd_check_trace(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--trajectory") == 0) {
    return cmd_trajectory(argv[2]);
  }
  return usage();
}
