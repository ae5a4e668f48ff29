// vbench command line:
//
//   vbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   vbench --list
//
// Prints a human-readable report line ({"report": ...}) and, as the last
// line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Traced runs write their spans to
// .bench_out/traces/. Exit code 0 when every output was correct and every
// exact count repeated; 1 when not; 2 on a usage or set-up error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using namespace vbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10;
  bool trace = false;
  bool list = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
      args.seed_given = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--list") {
      args.list = true;
    } else {
      throw std::invalid_argument("unknown argument '" + flag + "'");
    }
  }
  if (!args.list && args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Passes over the op sequence, each after a fresh set-up, until `budget`
/// seconds have gone by (at least two, so exact counts always have
/// something to repeat against). `rss_after_two_mb`, when given, receives
/// the peak resident set once two passes are done: a fixed amount of work,
/// where the run's final peak also grows with how many passes a host's
/// speed allowed.
std::vector<PassResult> measure(Workload& workload, SpanRecorder* rec, double budget,
                                double* rss_after_two_mb = nullptr) {
  std::vector<PassResult> passes;
  const std::uint64_t start = now_ns();
  do {
    const double setup_s = workload.setup();
    passes.push_back(workload.run_pass(rec));
    passes.back().setup_s = setup_s;
    if (passes.size() == 2 && rss_after_two_mb) *rss_after_two_mb = peak_rss_mb();
  } while (passes.size() < 2 ||
           static_cast<double>(now_ns() - start) * 1e-9 < budget);
  return passes;
}

/// Share of passes (by busy time) and of restarts (by summed reload time)
/// whose samples give the latency, throughput and reload figures.
constexpr double kQuietShare = 0.05;

/// One phase's samples. Latency and throughput figures come from its quiet
/// passes: the fastest twentieth. Every pass runs the same ops from the same
/// state, so a slower pass differs only by host interference (other
/// tenants of a shared machine only ever add time); a change to the
/// program moves every pass alike and shows in full. Reload figures come
/// from the quiet restarts, chosen the same way among all restarts: each
/// re-serves the same jobs from the same store.
struct Phase {
  std::vector<double> op_us, ops_per_s, melem_per_s, setup_s, reload_us, queue_us;
  std::size_t quiet_passes = 0;
  std::uint64_t attempted = 0, failed = 0;
};

Phase summarize(const std::vector<PassResult>& passes) {
  Phase phase;
  std::vector<double> busy, restart_us;
  for (const PassResult& p : passes) {
    busy.push_back(p.busy_s);
    phase.setup_s.push_back(p.setup_s);
    phase.queue_us.insert(phase.queue_us.end(), p.queue_us.begin(), p.queue_us.end());
    phase.attempted += p.attempted;
    phase.failed += p.failed;
    for (const std::vector<double>& restart : p.reload_us) {
      restart_us.push_back(std::accumulate(restart.begin(), restart.end(), 0.0));
    }
  }
  const double cut = quantile(busy, kQuietShare);
  const double restart_cut = quantile(restart_us, kQuietShare);
  for (const PassResult& p : passes) {
    for (const std::vector<double>& restart : p.reload_us) {
      if (std::accumulate(restart.begin(), restart.end(), 0.0) > restart_cut) continue;
      phase.reload_us.insert(phase.reload_us.end(), restart.begin(), restart.end());
    }
    if (p.busy_s > cut) continue;
    ++phase.quiet_passes;
    phase.op_us.insert(phase.op_us.end(), p.op_us.begin(), p.op_us.end());
    phase.ops_per_s.push_back(static_cast<double>(p.op_us.size()) / p.busy_s);
    phase.melem_per_s.push_back(p.elems / p.busy_s * 1e-6);
  }
  return phase;
}

/// First pass whose counts differ from pass 0's, or -1.
int count_mismatch(const std::vector<PassResult>& passes) {
  for (std::size_t i = 1; i < passes.size(); ++i) {
    if (passes[i].counts != passes[0].counts) return static_cast<int>(i);
  }
  return -1;
}

std::string counts_json(const std::map<std::string, std::uint64_t>& counts) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : counts) {
    out << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  out << "}";
  return out.str();
}

std::string number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string metrics_json(const std::vector<std::pair<std::string, std::string>>& catalog,
                         const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    const auto it = values.find(name);
    if (it == values.end()) throw std::runtime_error("metric '" + name + "' not measured");
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number(it->second)
        << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

/// Per-layer values from the traced run's spans and samples.
std::map<std::string, double> layer_metrics(const SpanRecorder& rec,
                                            const std::vector<double>& queue_us) {
  const auto self = rec.self_by_name();
  const auto per_elem = rec.self_per_elem_by_name();
  const auto& samples = rec.samples();
  const auto med = [](const auto& map, const std::string& key) {
    const auto it = map.find(key);
    if (it == map.end() || it->second.empty()) {
      throw std::runtime_error("no trace samples for '" + key + "'");
    }
    return median(it->second);
  };
  std::map<std::string, double> m;
  for (const char* op : {"mul", "add", "axpy", "mac", "encode", "decode"}) {
    m[std::string("softfloat.") + op + "_ns_per_elem"] =
        med(per_elem, std::string("softfloat.") + op);
  }
  m["vcgra.exec.tape_ns_per_elem"] = med(per_elem, "vcgra.exec.tape");
  m["vcgra.exec.boundary_ns_per_elem"] = med(samples, "vcgra.exec.boundary_ns_per_elem");
  m["vcgra.parse_us"] = med(self, "vcgra.parse") * 1e-3;
  for (const char* stage : {"synth", "map", "place", "route"}) {
    m[std::string("vcgra.compile.") + stage + "_us"] =
        med(samples, std::string("vcgra.compile.") + stage + "_us");
  }
  const std::pair<const char*, const char*> us_spans[] = {
      {"vcgra.specialize_us", "vcgra.specialize"},
      {"vcgra.plan_lower_us", "vcgra.plan_lower"},
      {"store.serialize_us", "store.serialize"},
      {"store.save_us", "store.save"},
      {"store.load_us", "store.load"},
      {"runtime.front_end_us", "runtime.front_end"},
      {"runtime.cache.full_hit_us", "runtime.cache.full_hit"},
      {"runtime.cache.respecialize_us", "runtime.cache.respecialize"},
      {"runtime.cache.plan_for_us", "runtime.cache.plan_for"},
      {"runtime.sched.acquire_us", "runtime.sched.acquire"},
  };
  for (const auto& [metric, span] : us_spans) m[metric] = med(self, span) * 1e-3;
  m["runtime.service.overhead_us"] =
      median(rec.unattributed_ns("ledger.service", "ledger.replay")) * 1e-3;
  m["runtime.service.queue_wait_us"] =
      queue_us.empty() ? med(samples, "ledger.queue_wait_us") : median(queue_us);
  m["runtime.graph.admit_ms"] = med(self, "runtime.graph.admit") * 1e-6;
  m["runtime.graph.feed_ms"] = med(self, "runtime.graph.feed") * 1e-6;
  m["vision.host_ms"] = med(self, "vision.host") * 1e-6;
  const std::vector<double> unattributed = rec.unattributed_ns("op.service", "op.replay");
  if (unattributed.empty()) throw std::runtime_error("no traced ops");
  m["unattributed_us"] = median(unattributed) * 1e-3;
  return m;
}

/// Per-layer counts and ratios of one pass (the first; for single-client
/// workloads every pass repeats them exactly).
std::map<std::string, double> count_metrics(const PassResult& pass) {
  const auto c = [&](const std::string& key) {
    const auto it = pass.counts.find(key);
    return it == pass.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double lookups = c("cache.hits") + c("cache.misses");
  const double skipped = c("cache.hits") + c("cache.structure_hits") + c("cache.disk_hits");
  return {
      {"runtime.cache.hit_rate", lookups > 0 ? c("cache.hits") / lookups : 0.0},
      {"runtime.cache.structure_hit_rate", lookups > 0 ? skipped / lookups : 0.0},
      {"runtime.cache.specializations", c("cache.specializations")},
      {"runtime.cache.plans_built", c("cache.plans_built")},
      {"runtime.fused_job_share",
       c("fused_jobs") / static_cast<double>(std::max<std::size_t>(pass.op_us.size(), 1))},
      {"runtime.sched.reconfigs", c("sched.reconfigs")},
      {"store.disk_hits", c("reload.disk_hits")},
      // The measured service persists (cold_start) or the restart's first
      // lifetime did; the other is zero.
      {"store.disk_writes", c("cache.disk_writes") + c("reload.disk_writes")},
      {"sim.cycles", c("sim.cycles")},
      {"sim.fp_ops", c("sim.fp_ops")},
  };
}

int run(const Args& args) {
  auto workload = make_workload(args.workload);
  const std::uint64_t seed = args.seed_given ? args.seed : default_seed(args.workload);
  workload->generate(seed);
  const double probe_before_ms = host_probe_ms();

  // Untraced measurement; a traced run splits its time between this and
  // the traced phase, whose op p50 against this one is the trace overhead.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  double rss_after_two_mb = 0;
  const std::vector<PassResult> passes =
      measure(*workload, nullptr, budget, &rss_after_two_mb);
  const Phase phase = summarize(passes);
  std::uint64_t attempted = phase.attempted;
  std::uint64_t failed = phase.failed;

  SpanRecorder rec;
  std::vector<PassResult> traced;
  if (args.trace) {
    traced = measure(*workload, &rec, budget);
    run_ledger(workload->probe_set(), rec);
  }
  std::vector<PassResult> all = passes;
  all.insert(all.end(), traced.begin(), traced.end());
  const int mismatch = workload->exact_counts() ? count_mismatch(all) : -1;
  workload->teardown();

  std::map<std::string, double> e2e = {
      {"setup_s", median(phase.setup_s)},
      {"ops_per_s", median(phase.ops_per_s)},
      {"op_p50_us", quantile(phase.op_us, 0.5)},
      {"op_p90_us", quantile(phase.op_us, 0.9)},
      {"melem_per_s", median(phase.melem_per_s)},
      {"reload_p50_us", median(phase.reload_us)},
      {"peak_rss_mb", rss_after_two_mb},
  };

  std::map<std::string, double> layers;
  if (args.trace) {
    const Phase traced_phase = summarize(traced);
    attempted += traced_phase.attempted;
    failed += traced_phase.failed;
    std::vector<double> queue_us = phase.queue_us;
    queue_us.insert(queue_us.end(), traced_phase.queue_us.begin(),
                    traced_phase.queue_us.end());
    layers = layer_metrics(rec, queue_us);
    const std::map<std::string, double> counts =
        count_metrics(passes.front());
    layers.insert(counts.begin(), counts.end());
    layers["trace.overhead_frac"] =
        quantile(traced_phase.op_us, 0.5) / e2e["op_p50_us"] - 1.0;
    const std::string trace_path = scratch_dir("traces") + "/" + args.workload + "-" +
                                   std::to_string(seed) + ".json";
    rec.write_json(trace_path);
  }

  const bool correct = failed == 0 && mismatch < 0;
  const double probe_after_ms = host_probe_ms();
  std::ostringstream report;
  report << "{\"report\": {\"workload\": \"" << args.workload << "\", \"seed\": " << seed
         << ", \"held_out_seed\": " << held_out_seed(args.workload)
         << ", \"threads\": " << workload->threads()
         << ", \"input_digest\": \"" << std::hex << workload->input_digest() << std::dec
         << "\", \"machine\": " << fingerprint_json()
         << ", \"host_probe_ms\": [" << number(probe_before_ms) << ", "
         << number(probe_after_ms) << "], \"passes\": " << passes.size()
         << ", \"quiet_passes\": " << phase.quiet_passes
         << ", \"op_samples\": " << phase.op_us.size()
         << ", \"op_p99_us\": " << number(quantile(phase.op_us, 0.99))
         << ", \"final_peak_rss_mb\": " << number(peak_rss_mb())
         << ", \"setup_samples\": " << phase.setup_s.size()
         << ", \"reload_samples\": " << phase.reload_us.size()
         << ", \"failed_frac\": "
         << number(static_cast<double>(failed) / static_cast<double>(attempted))
         << ", \"pass_counts\": " << counts_json(passes.front().counts)
         << ", \"exact_counts\": \""
         << (workload->exact_counts() ? (mismatch < 0 ? "repeated" : "MISMATCH")
                                      : "not asserted (timing-dependent)")
         << "\", \"end_to_end\": " << metrics_json(end_to_end_catalog(), e2e) << "}}";
  std::cout << report.str() << "\n";
  {
    // Per-pass series for offline analysis of a run.
    std::ofstream series(scratch_dir("reports") + "/" + args.workload + "-" +
                         std::to_string(seed) + "-trace" + (args.trace ? "1" : "0") +
                         ".json");
    series << "{\"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const PassResult& p = passes[i];
      series << (i ? ",\n" : "\n") << "{\"busy_s\": " << number(p.busy_s)
             << ", \"elems\": " << number(p.elems) << ", \"setup_s\": " << number(p.setup_s)
             << ", \"op_us\": [";
      for (std::size_t k = 0; k < p.op_us.size(); ++k) {
        series << (k ? "," : "") << number(p.op_us[k]);
      }
      series << "], \"reload_us\": [";
      for (std::size_t r = 0; r < p.reload_us.size(); ++r) {
        series << (r ? ",[" : "[");
        for (std::size_t k = 0; k < p.reload_us[r].size(); ++k) {
          series << (k ? "," : "") << number(p.reload_us[r][k]);
        }
        series << "]";
      }
      series << "]}";
    }
    series << "\n]}\n";
  }
  if (mismatch >= 0) {
    std::cerr << "vbench: exact counts of pass " << mismatch
              << " differ from pass 0: " << counts_json(all[static_cast<std::size_t>(mismatch)].counts)
              << " vs " << counts_json(all.front().counts) << "\n";
  }
  if (failed > 0) std::cerr << "vbench: " << failed << " of " << attempted << " ops failed\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << (args.trace ? metrics_json(per_layer_catalog(), layers)
                           : metrics_json(end_to_end_catalog(), e2e))
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.list) {
      for (const std::string& name : workload_names()) {
        std::cout << name << " default_seed=" << default_seed(name)
                  << " held_out_seed=" << held_out_seed(name) << "\n";
      }
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "vbench: " << e.what() << "\n";
    return 2;
  }
}
