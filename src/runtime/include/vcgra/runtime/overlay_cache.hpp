// Two-level compiled-overlay cache: structure, then specialization.
//
// The paper's Dynamic Circuit Specialization splits a configuration into
// a rarely-changing *structure* (DFG topology, placement, routing) and
// frequently-changing *parameters* (coefficients). The cache mirrors that
// split:
//
//   level 1  structural key  ->  CompiledStructure  (place & route ran)
//   level 2  param signature ->  Compiled           (coefficients bound)
//
// A job that differs from a cached one only in `param` values (or in
// whitespace/comments/signal names — keys are built from the
// alpha-renamed canonical structural text) hits level 1 and pays only a
// microsecond specialize(), never the milliseconds-long tool flow.
// Cached structures are compiled from the *canonical* DFG, so every
// kernel isomorphic to the first one seen shares the artifact; the
// service translates stream/param names at the boundary.
//
// With a persistent store attached the cache grows a third tier:
//
//   memory structure LRU -> on-disk overlay store -> cold compile
//
// A structure miss first tries to deserialize the store's record
// (microseconds-to-tens-of-microseconds, vs a milliseconds tool flow);
// newly compiled structures are persisted *behind* the request on a
// write-behind thread, so publication never adds to job latency.
// warm_start() preloads the store's hottest records at boot.
//
// Structure entries are evicted with their specializations when over
// capacity, by weight rather than raw LRU order: an entry's eviction
// cost scales with its live specialization count and its recompile work
// (bucketed placed PEs + routed hops, never wall-clock time), so a
// structure with a hot specialization set outlives a cold one of equal
// age. Concurrent misses for one structure coalesce onto a single
// compile via a shared_future, and specializations are handed out as
// shared_ptr so eviction can never dangle a running simulator.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "vcgra/runtime/stats.hpp"
#include "vcgra/store/overlay_store.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/exec_plan.hpp"

namespace vcgra::runtime {

/// Canonical text form of every architecture field that changes compile
/// results; two archs with equal signatures are interchangeable keys.
std::string arch_signature(const overlay::OverlayArch& arch);

/// Level-1 key: arch + placer seed + canonicalized structural text.
/// Whitespace, comments and coefficient values do not participate.
std::string structure_key(const std::string& structural_text,
                          const overlay::OverlayArch& arch, std::uint64_t seed);

/// The two cache coordinates of one job, derived once at submit time.
struct CacheKeys {
  std::string structure;  // level-1 key
  std::string params;     // param_signature of the fully merged binding
  /// Full configuration key: equal keys mean a bit-identical Compiled
  /// artifact. This is also the scheduler's exact-affinity currency.
  std::string full() const { return structure + "|" + params; }
};

/// What the service's front end derives from a request's kernel text,
/// arch, seed and params. Built once per distinct request and shared,
/// immutable, by every job, graph stage and session that repeats it.
struct JobKeys {
  overlay::ParamBinding binding;  // kernel defaults merged with overrides
  CacheKeys keys;
};

/// Build both keys for a parsed kernel and its final (defaults merged
/// with overrides) binding.
CacheKeys cache_keys(const overlay::ParsedKernel& parsed,
                     const overlay::OverlayArch& arch, std::uint64_t seed,
                     const overlay::ParamBinding& binding);

/// Canonical full key of (kernel text, arch, seed) with the kernel's own
/// default parameter values. Parses the text: equal keys now survive
/// reformatting, and kernels differing only in coefficients share the
/// structural prefix. Throws ParseError on invalid kernel text.
std::string overlay_key(const std::string& kernel_text,
                        const overlay::OverlayArch& arch, std::uint64_t seed);

/// What one lookup did, for stats/latency attribution.
struct CacheOutcome {
  bool hit = false;            // full artifact served, nothing ran
  /// Place & route was skipped: the structure was resident in memory or
  /// deserialized from the persistent store.
  bool structure_hit = false;
  bool disk_hit = false;          // ... served by the store tier
  double compile_seconds = 0;     // structural tool-flow time this call paid
  double specialize_seconds = 0;  // coefficient-binding time this call paid
  double disk_load_seconds = 0;   // store read + deserialize time this call paid
};

class OverlayCache {
 public:
  /// The counts (cache.*, compile.structure) land in a registry the cache
  /// owns, so stats() counts only this cache's lookups.
  explicit OverlayCache(std::size_t capacity);
  /// As above, with the counts in `registry` (an owning service's), which
  /// must outlive the cache.
  OverlayCache(std::size_t capacity, telemetry::MetricsRegistry& registry);

  /// Joins the write-behind thread after draining pending persists, and
  /// flushes resident-entry heat to the attached store.
  ~OverlayCache();

  /// Specializations kept per structure entry (coefficient working set);
  /// beyond this the least recently used specialization is dropped —
  /// recomputing one costs microseconds, so the bound is about memory.
  static constexpr std::size_t kSpecializationsPerStructure = 64;

  /// Return the compiled overlay for (parsed kernel, arch, seed, binding),
  /// compiling the structure and/or specializing on demand. `keys` must
  /// equal cache_keys(parsed, arch, seed, binding) — the service builds
  /// them at submit time so the hot path never re-derives them.
  /// Compile failures propagate as exceptions and are not cached.
  std::shared_ptr<const overlay::Compiled> get_or_specialize(
      const CacheKeys& keys, const overlay::ParsedKernel& parsed,
      const overlay::OverlayArch& arch, std::uint64_t seed,
      const overlay::ParamBinding& binding, CacheOutcome* outcome = nullptr);

  /// Text-based convenience (parses, merges nothing beyond the kernel's
  /// own defaults). `hit` and `compile_seconds` mirror CacheOutcome.
  std::shared_ptr<const overlay::Compiled> get_or_compile(
      const std::string& kernel_text, const overlay::OverlayArch& arch,
      std::uint64_t seed = 1, bool* hit = nullptr,
      double* compile_seconds = nullptr);

  /// The execution plan of a specialization handed out by
  /// get_or_specialize. Plans are built lazily, once per (cached
  /// specialization, sim options): repeat jobs reuse the tape and its
  /// precomputed schedule. Lowering runs once per resident structure
  /// and sim options: a coefficient swap copies the structure's latest
  /// plan under the same options and rebinds its coefficients
  /// (ExecPlan::rebind), the plan-level mirror of compile_structure /
  /// specialize. `compiled` must be the handle this cache returned for
  /// `keys`; if the entry was evicted meanwhile the plan is lowered and
  /// handed out uncached.
  std::shared_ptr<const overlay::ExecPlan> plan_for(
      const CacheKeys& keys,
      const std::shared_ptr<const overlay::Compiled>& compiled,
      const overlay::SimOptions& sim);

  /// Lookup without compiling; nullptr on any miss, unparsable text or
  /// bad override (does not count in stats).
  std::shared_ptr<const overlay::Compiled> peek(
      const std::string& kernel_text, const overlay::OverlayArch& arch,
      std::uint64_t seed = 1,
      const overlay::ParamBinding& overrides = {}) const;

  /// Level-1 lookup without compiling; nullptr on a miss.
  std::shared_ptr<const overlay::CompiledStructure> peek_structure(
      const std::string& kernel_text, const overlay::OverlayArch& arch,
      std::uint64_t seed = 1) const;

  /// Attach a persistent store as the tier between the memory LRU and a
  /// cold compile. With `write_behind` (the default) newly compiled
  /// structures are persisted on a background thread; otherwise they are
  /// saved synchronously on the compiling caller. Call before traffic.
  void attach_store(std::shared_ptr<store::OverlayStore> store,
                    bool write_behind = true);

  /// Preload up to `limit` of the store's hottest structures into the
  /// memory tier (bounded by capacity). Returns how many were loaded;
  /// unreadable records are skipped and counted as disk_errors.
  std::size_t warm_start(std::size_t limit);

  /// Block until every write-behind persist has been published (bench /
  /// test determinism; shutdown does this implicitly).
  void flush_store();

  const std::shared_ptr<store::OverlayStore>& store() const { return store_; }

  /// Recompile-cost class of a structure: base-4 buckets over 32 units
  /// of deterministic place & route work (CompileReport pes_used +
  /// total_hops), never the recorded tool-flow seconds — a compile slowed
  /// by load must not change which entry is evicted. Coarse on purpose:
  /// typical kernels tie in class 0, so recency decides among them.
  static int recompile_cost_class(const overlay::CompiledStructure& structure);

  void clear();
  CacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

 private:
  /// One cached specialization: the bound artifact plus its lazily
  /// built execution plan (nullptr until the first plan_for under a
  /// given set of sim options).
  struct Specialization {
    std::string params;  // level-2 key
    std::shared_ptr<const overlay::Compiled> compiled;
    std::shared_ptr<const overlay::ExecPlan> plan;  // built under plan->sim
  };
  using SpecialList = std::list<Specialization>;
  struct Entry {
    std::string key;  // structure key
    std::shared_ptr<const overlay::CompiledStructure> structure;
    SpecialList specials;  // front = most recently used
    std::unordered_map<std::string, SpecialList::iterator> special_index;
    /// The structure's most recently built plan: a plan miss under the
    /// same sim options rebinds it instead of lowering (it outlives the
    /// specialization it was built for).
    std::shared_ptr<const overlay::ExecPlan> latest_plan;
    std::uint64_t uses = 0;  // lookups since residency (flushed as store heat)
  };
  using LruList = std::list<Entry>;

  /// Specialize `structure` for `binding` and publish it under `keys`,
  /// reusing a cached specialization when one already landed (joiners
  /// racing after one structural compile). Never touches hit/miss stats.
  std::shared_ptr<const overlay::Compiled> specialize_and_cache(
      const CacheKeys& keys,
      const std::shared_ptr<const overlay::CompiledStructure>& structure,
      const overlay::ParamBinding& binding, CacheOutcome* outcome);

  /// Insert a structure entry at the MRU front and evict by weight
  /// while over capacity (the front is never a victim, so the returned
  /// reference — the new entry, or the already-resident one for the
  /// key — stays valid). Caller holds mutex_.
  Entry& insert_structure_locked(
      const std::string& key,
      const std::shared_ptr<const overlay::CompiledStructure>& structure);
  void evict_by_weight_locked();
  /// Push an entry's accumulated heat to the attached store.
  void flush_entry_uses_locked(Entry& entry);

  /// Queue (or synchronously perform) the persist of a fresh compile.
  void persist(const std::string& key,
               const std::shared_ptr<const overlay::CompiledStructure>& structure);
  void persist_now(const std::string& key,
                   const overlay::CompiledStructure& structure);
  void persist_worker();

  /// The cache's metrics, resolved once in its registry and updated under
  /// mutex_. stats() reads them back: cache.specialize's count and sum
  /// are specializations and specialize_seconds, compile.structure's sum
  /// is compile_seconds.
  struct Meters {
    telemetry::MetricsRegistry& r;  // where every meter below lives
    telemetry::Counter& hits = r.counter("cache.hits");
    telemetry::Counter& misses = r.counter("cache.misses");
    telemetry::Counter& evictions = r.counter("cache.evictions");
    telemetry::Counter& inflight_joins = r.counter("cache.inflight_joins");
    telemetry::Counter& structure_hits = r.counter("cache.structure_hits");
    telemetry::Counter& structure_misses = r.counter("cache.structure_misses");
    telemetry::Counter& plans_built = r.counter("cache.plans_built");
    telemetry::Counter& plan_hits = r.counter("cache.plan_hits");
    telemetry::Counter& plans_rebound = r.counter("cache.plans_rebound");
    telemetry::Counter& disk_hits = r.counter("cache.disk_hits");
    telemetry::Counter& disk_misses = r.counter("cache.disk_misses");
    telemetry::Counter& disk_errors = r.counter("cache.disk_errors");
    telemetry::Counter& disk_writes = r.counter("cache.disk_writes");
    telemetry::Counter& disk_preloads = r.counter("cache.disk_preloads");
    telemetry::Gauge& persist_queue_depth = r.gauge("cache.persist_queue_depth");
    telemetry::LatencyHistogram& compile = r.histogram("compile.structure");
    telemetry::LatencyHistogram& specialize = r.histogram("cache.specialize");
  };

  std::unique_ptr<telemetry::MetricsRegistry> own_registry_;  // standalone only
  const Meters meters_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used structure
  std::unordered_map<std::string, LruList::iterator> index_;
  std::unordered_map<
      std::string,
      std::shared_future<std::shared_ptr<const overlay::CompiledStructure>>>
      inflight_;
  // Store-tier seconds, which no metric records; guarded by mutex_.
  double disk_load_seconds_ = 0;
  double disk_write_seconds_ = 0;

  // Persistent store tier (all null/idle when no store is attached).
  std::shared_ptr<store::OverlayStore> store_;
  bool write_behind_ = false;
  std::deque<std::pair<std::string,
                       std::shared_ptr<const overlay::CompiledStructure>>>
      persist_queue_;
  std::condition_variable persist_cv_;
  bool persist_busy_ = false;
  bool persist_stop_ = false;
  std::thread persist_thread_;
};

}  // namespace vcgra::runtime
