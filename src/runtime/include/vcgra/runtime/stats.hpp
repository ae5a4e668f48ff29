// Metrics block of the overlay runtime service.
//
// Everything a capacity planner needs from one number dump: how much
// compile work the cache absorbed, how the executor pool kept up
// (latency percentiles, jobs/sec) and how much fabric respecialization
// the reconfiguration-aware scheduler avoided.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vcgra::runtime {

struct CacheStats {
  std::uint64_t hits = 0;    // full artifact served: no tool flow, no specialize
  std::uint64_t misses = 0;  // anything less than a full hit
  std::uint64_t evictions = 0;       // structures (with their specializations)
  std::uint64_t inflight_joins = 0;  // misses coalesced onto a running compile
  // The two-level split of the misses: a structure hit pays only a
  // microsecond respecialization; a structure miss pays place & route.
  std::uint64_t structure_hits = 0;
  std::uint64_t structure_misses = 0;  // structural compiles actually run
  std::uint64_t specializations = 0;   // specialize() calls executed
  // Execution-plan layer: plans built vs. cached tapes reused. Repeat
  // jobs of a resident specialization should be pure plan hits.
  std::uint64_t plans_built = 0;
  std::uint64_t plan_hits = 0;
  /// Of plans_built, those rebound from a sibling specialization's plan
  /// (coefficient swap on a resident structure) instead of lowered.
  std::uint64_t plans_rebound = 0;
  // The persistent store tier (zero everywhere unless a store is
  // attached): structure misses that were served by deserializing an
  // on-disk record instead of re-running place & route.
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;    // went to disk, record absent -> compiled
  std::uint64_t disk_errors = 0;    // corrupt/stale records skipped (typed)
  std::uint64_t disk_writes = 0;    // newly compiled structures persisted
  std::uint64_t disk_preloads = 0;  // structures warm-started at boot
  double disk_load_seconds = 0;     // read + deserialize time
  double disk_write_seconds = 0;    // serialize + publish time (write-behind)
  std::size_t entries = 0;             // resident structural artifacts
  std::size_t specialized_entries = 0;  // resident specializations (all structures)
  std::size_t capacity = 0;
  double compile_seconds = 0;  // total time spent in the synth/map/place/route flow
  double specialize_seconds = 0;  // total time binding coefficients

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
  /// Fraction of lookups that skipped place & route entirely: full hits,
  /// param-only respecializations, and structures served by the store's
  /// disk tier.
  double structure_hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits + structure_hits + disk_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
  std::string to_string() const;
  /// `{"hits": ..., "misses": ..., ...}` — one flat JSON object.
  std::string to_json() const;
};

struct SchedulerStats {
  std::uint64_t assignments = 0;
  std::uint64_t reconfigurations = 0;          // instance had a different overlay loaded
  std::uint64_t reconfigurations_avoided = 0;  // instance already held the overlay
  /// Of the reconfigurations, how many were param-only swaps: the
  /// instance already held the same *structure*, so the modeled cost is
  /// just the register/frame delta over the parameter words.
  std::uint64_t param_respecializations = 0;
  double modeled_reconfig_seconds = 0;         // SCG + frame-write time the fabric would spend
  double param_reconfig_seconds = 0;           // ... portion paid by param-only swaps
  double avoided_reconfig_seconds = 0;         // ... that affinity placement saved

  std::string to_string() const;
  std::string to_json() const;
};

struct ServiceStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t tasks_submitted = 0;  // submit_task() work (e.g. submit_graph)
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t fused_batches = 0;  // fused multi-job batches executed
  std::uint64_t batched_jobs = 0;   // jobs that rode a fused batch (>= 2)
  std::uint64_t graphs_executed = 0;  // kernel-graph invocations
  std::uint64_t graph_stages = 0;     // stages run across those invocations
  std::uint64_t graph_edges_raw = 0;  // interior edges moved as raw bits
  std::uint64_t graph_edges_converted = 0;  // ... that paid a convert hop
  std::uint64_t sessions_opened = 0;  // streaming sessions ever opened
  std::uint64_t sessions_open = 0;    // currently live
  std::uint64_t chunks_fed = 0;       // session feed() calls
  CacheStats cache;
  SchedulerStats scheduler;
  // Latency percentiles (submit -> result ready) come from the service's
  // fixed-log-bucket histogram: exact over every completed job (no
  // sampling window), to within one bucket width (<= 6.25%).
  double p50_latency_seconds = 0;
  double p95_latency_seconds = 0;
  double p99_latency_seconds = 0;
  double p999_latency_seconds = 0;
  double max_latency_seconds = 0;
  double mean_latency_seconds = 0;
  double p50_queue_seconds = 0;  // submit -> worker pickup (queue wait)
  double p99_queue_seconds = 0;
  double exec_seconds = 0;   // total simulator time across workers
  double wall_seconds = 0;   // service lifetime so far
  double jobs_per_second = 0;  // completed jobs + tasks per wall second

  std::string to_string() const;
  /// Machine-readable snapshot: nested `cache`/`scheduler` objects plus
  /// the latency percentiles, for vcgra_stats and CI artifacts.
  std::string to_json() const;
};

/// Percentile over an unsorted sample set (nearest-rank); 0 when empty.
double percentile(std::vector<double> samples, double fraction);

}  // namespace vcgra::runtime
