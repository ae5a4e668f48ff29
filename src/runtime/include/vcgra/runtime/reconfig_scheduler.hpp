// Reconfiguration-aware scheduling over N virtual grid instances.
//
// The fully parameterized overlay pays for kernel swaps in SCG time:
// every PE whose settings change costs PPC evaluation plus dirty-frame
// micro-reconfiguration (~hundreds of ms per PE over HWICAP, §V). A
// service running several virtual grids therefore wants kernel-affinity
// placement: send a job to the instance whose currently-loaded
// configuration is cheapest to turn into the job's configuration —
// ideally one already holding it, which costs nothing.
//
// Two cost models are provided. RegisterDiffCostModel is a fast proxy
// (changed settings-register words x bus-write time, the conventional
// backend's currency). ScgCostModel is the paper's model: it builds the
// ParameterizedBackend (TCONMAP + PPC over the real MAC PE) once per
// architecture and prices a swap as PPC evaluation + HWICAP frame
// rewrites of the PEs that actually changed.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <condition_variable>

#include "vcgra/runtime/stats.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/vcgra/backend.hpp"
#include "vcgra/vcgra/compiler.hpp"

namespace vcgra::runtime {

class ReconfigCostModel {
 public:
  virtual ~ReconfigCostModel() = default;

  /// Modeled seconds to respecialize a grid currently holding `from`
  /// (nullptr = blank fabric) into `to`. Must be deterministic.
  virtual double switch_seconds(const overlay::Compiled* from,
                                const overlay::Compiled& to) = 0;
};

/// Proxy model: count settings-register words that differ and charge one
/// conventional bus write per changed word. Fabrics are compared field by
/// field and words are diffed in place, so a call allocates nothing once
/// the calling thread's VSB scratch is warm; the scheduler calls it
/// directly, without a memo.
class RegisterDiffCostModel final : public ReconfigCostModel {
 public:
  explicit RegisterDiffCostModel(double word_write_seconds = 100e-9)
      : word_write_seconds_(word_write_seconds) {}
  double switch_seconds(const overlay::Compiled* from,
                        const overlay::Compiled& to) override;

 private:
  double word_write_seconds_;
};

/// The pconf/SCG model (micro-reconfiguration through HWICAP).
/// ParameterizedBackend construction is expensive (TCONMAP over the MAC
/// PE netlist), so backends are built lazily and shared per architecture.
/// A swap between two loaded configurations evaluates the PPC per changed
/// PE (~1 ms), so those prices are memoized per architecture, keyed by
/// exactly what the backend reads — every PE's used flag, coefficient
/// bits and count on both sides — and compared in full, never by hash
/// alone. The memo is bounded (dropped wholesale once it holds
/// kMemoLimit swaps of one architecture) and, like the rest of the model,
/// safe to call from several threads.
class ScgCostModel final : public ReconfigCostModel {
 public:
  static constexpr std::size_t kMemoLimit = 4096;

  explicit ScgCostModel(fpga::FrameModel frames = {}) : frames_(frames) {}
  double switch_seconds(const overlay::Compiled* from,
                        const overlay::Compiled& to) override;

  /// Memoized swaps across all architectures (tests check the bound).
  std::size_t memo_size() const;

 private:
  /// Four words per PE: `from` coefficient, `from` count|used, then the
  /// same for `to`.
  using SwapKey = std::vector<std::uint64_t>;
  struct Fabric {
    std::unique_ptr<overlay::ParameterizedBackend> backend;
    std::map<SwapKey, double> memo;
  };

  /// The architecture's fabric slot, building its backend on first use.
  /// Caller holds mutex_; the slot's address is stable.
  Fabric& fabric_for_locked(const overlay::OverlayArch& arch);

  fpga::FrameModel frames_;
  mutable std::mutex mutex_;
  std::map<std::string, Fabric> fabrics_;
};

struct Assignment {
  int instance = -1;
  bool reconfigured = false;       // the instance had to load a new overlay
  /// The reconfiguration only swapped coefficients: the instance already
  /// held the same structure, so the modeled cost is the parameter-word
  /// delta (near-zero), not a full configuration.
  bool param_only = false;
  double reconfig_seconds = 0;     // modeled cost of that load (0 when avoided)
};

class ReconfigScheduler {
 public:
  /// `instances` < 1 is clamped to 1. The cost model must outlive the
  /// scheduler and be safe to call from several threads. The counts
  /// (sched.*) land in a registry the scheduler owns, so stats() counts
  /// only this scheduler's assignments.
  ReconfigScheduler(int instances, std::shared_ptr<ReconfigCostModel> cost_model);
  /// As above, with the counts in `registry` (an owning service's), which
  /// must outlive the scheduler.
  ReconfigScheduler(int instances, std::shared_ptr<ReconfigCostModel> cost_model,
                    telemetry::MetricsRegistry& registry);

  /// Block until an instance is free, then pick, in order:
  ///   1. an instance already holding `config_key` — the swap is free;
  ///   2. an instance holding the same `structure_key` — a param-only
  ///      respecialization, priced as the register/frame delta over just
  ///      the coefficient words (the DCS fast path);
  ///   3. a blank instance (populate the grid before evicting warm
  ///      configurations);
  ///   4. the free instance whose loaded configuration is cheapest to
  ///      respecialize into `compiled` (index as tie-break).
  /// `config_key` is the canonical full overlay key, `structure_key` its
  /// place-&-route half; equal full keys mean equal configurations.
  /// Pair with release().
  Assignment acquire(const std::string& config_key,
                     const std::string& structure_key,
                     const std::shared_ptr<const overlay::Compiled>& compiled);

  /// Convenience for callers without a structural key (treats the full
  /// key as the structure, so only exact matches get affinity).
  Assignment acquire(const std::string& config_key,
                     const std::shared_ptr<const overlay::Compiled>& compiled) {
    return acquire(config_key, config_key, compiled);
  }

  void release(int instance);

  /// True when acquire() would return without waiting and without
  /// overtaking anyone: some instance is free and no caller is blocked in
  /// acquire() for one. The service asks this (under its queue mutex)
  /// before running a synchronous job on the caller's thread.
  bool has_free_instance() const;

  /// True when some currently-free instance already holds `config_key`.
  /// Point query for external callers/tests; the service's batch scheduler
  /// instead matches its scan window in one for_each_free_loaded().
  bool free_instance_holds(const std::string& config_key) const;

  /// Calls visit(config_key, structure_key) for every currently-free
  /// instance with an overlay loaded, in instance order, under one
  /// scheduler lock — lets the batch scheduler match a whole queue window,
  /// exactly or structure-only, without copying a key. The keys are views
  /// valid only during the call, and `visit` must not call back into the
  /// scheduler.
  template <typename Visit>
  void for_each_free_loaded(Visit&& visit) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Instance& g : grid_) {
      if (!g.busy && !g.loaded_key.empty()) {
        visit(g.loaded_key, g.loaded_structure_key);
      }
    }
  }

  int instances() const { return static_cast<int>(grid_.size()); }
  SchedulerStats stats() const;

 private:
  struct Instance {
    std::string loaded_key;            // empty = blank fabric
    std::string loaded_structure_key;  // place-&-route half of loaded_key
    std::shared_ptr<const overlay::Compiled> loaded;
    bool busy = false;
  };

  /// The scheduler's counters, resolved once in its registry and updated
  /// under mutex_.
  struct Meters {
    telemetry::MetricsRegistry& r;  // where every meter below lives
    telemetry::Counter& assignments = r.counter("sched.assignments");
    telemetry::Counter& reconfigurations = r.counter("sched.reconfigurations");
    telemetry::Counter& param_respecializations =
        r.counter("sched.param_respecializations");
    telemetry::Counter& reconfigurations_avoided =
        r.counter("sched.reconfigurations_avoided");
  };

  std::unique_ptr<telemetry::MetricsRegistry> own_registry_;  // standalone only
  const Meters meters_;

  std::shared_ptr<ReconfigCostModel> cost_model_;
  mutable std::mutex mutex_;
  std::condition_variable free_cv_;
  int waiters_ = 0;  // callers blocked in acquire() for a free instance
  std::vector<Instance> grid_;
  // Modeled seconds, which no metric records; guarded by mutex_.
  double modeled_reconfig_seconds_ = 0;
  double param_reconfig_seconds_ = 0;
  double avoided_reconfig_seconds_ = 0;
};

}  // namespace vcgra::runtime
