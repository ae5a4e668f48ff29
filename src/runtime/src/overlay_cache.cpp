#include "vcgra/runtime/overlay_cache.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <utility>

#include "vcgra/common/timer.hpp"
#include "vcgra/telemetry/trace.hpp"

namespace vcgra::runtime {

namespace {

template <typename Int>
void append_int(std::string& out, Int value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out.append(digits, end);
}

/// arch_signature's "%dx%d t%d s%d c%d fp(%d,%d) pe[%d%d%d%d%d]" layout,
/// appended without a printf pass (it runs on every submit).
void append_arch_signature(std::string& out, const overlay::OverlayArch& arch) {
  append_int(out, arch.rows);
  out += 'x';
  append_int(out, arch.cols);
  out += " t";
  append_int(out, arch.tracks);
  out += " s";
  append_int(out, arch.settings_bits);
  out += " c";
  append_int(out, arch.counter_bits);
  out += " fp(";
  append_int(out, arch.format.we);
  out += ',';
  append_int(out, arch.format.wf);
  out += ") pe[";
  for (const bool flag : {arch.pe.mul, arch.pe.add, arch.pe.sub, arch.pe.mac,
                          arch.pe.pass}) {
    out += flag ? '1' : '0';
  }
  out += ']';
}

}  // namespace

std::string arch_signature(const overlay::OverlayArch& arch) {
  std::string signature;
  append_arch_signature(signature, arch);
  return signature;
}

std::string structure_key(const std::string& structural_text,
                          const overlay::OverlayArch& arch, std::uint64_t seed) {
  std::string key;
  key.reserve(structural_text.size() + 80);
  append_arch_signature(key, arch);
  key += "|seed=";
  append_int(key, seed);
  key += '|';
  key += structural_text;
  return key;
}

CacheKeys cache_keys(const overlay::ParsedKernel& parsed,
                     const overlay::OverlayArch& arch, std::uint64_t seed,
                     const overlay::ParamBinding& binding) {
  CacheKeys keys;
  keys.structure = structure_key(parsed.structural_text, arch, seed);
  // The signature is taken over canonical names, so isomorphic kernels
  // carrying the same values share the *full* key, not just the
  // structural half. (No rekeyed copy when the names already are.)
  keys.params = overlay::param_signature(
      parsed.names_are_canonical ? binding : parsed.to_canonical(binding));
  return keys;
}

std::string overlay_key(const std::string& kernel_text,
                        const overlay::OverlayArch& arch, std::uint64_t seed) {
  const overlay::ParsedKernel parsed = overlay::parse_kernel_symbolic(kernel_text);
  return cache_keys(parsed, arch, seed, parsed.params).full();
}

OverlayCache::OverlayCache(std::size_t capacity)
    : own_registry_(std::make_unique<telemetry::MetricsRegistry>()),
      meters_{*own_registry_},
      capacity_(capacity == 0 ? 1 : capacity) {}

OverlayCache::OverlayCache(std::size_t capacity,
                           telemetry::MetricsRegistry& registry)
    : meters_{registry}, capacity_(capacity == 0 ? 1 : capacity) {}

OverlayCache::~OverlayCache() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    persist_stop_ = true;
  }
  persist_cv_.notify_all();
  if (persist_thread_.joinable()) persist_thread_.join();
  if (store_) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Entry& entry : lru_) flush_entry_uses_locked(entry);
  }
}

void OverlayCache::attach_store(std::shared_ptr<store::OverlayStore> store,
                                bool write_behind) {
  std::lock_guard<std::mutex> lock(mutex_);
  store_ = std::move(store);
  write_behind_ = write_behind && store_ != nullptr;
  if (write_behind_ && !persist_thread_.joinable()) {
    persist_thread_ = std::thread([this]() { persist_worker(); });
  }
}

int OverlayCache::recompile_cost_class(
    const overlay::CompiledStructure& structure) {
  // Placed PEs plus routed hops: the work place & route redoes on a
  // recompile. Counted, never timed, so load cannot reorder victims.
  const long work = static_cast<long>(structure.report.pes_used) +
                    static_cast<long>(structure.report.total_hops);
  int cls = 0;
  long edge = 32;  // everything up to 32 units ties in class 0
  while (work > edge && cls < 8) {
    edge *= 4;
    ++cls;
  }
  return cls;
}

namespace {

/// Eviction weight: what losing this entry costs. Scales with the live
/// specialization working set and the (bucketed) recompile work.
double entry_weight(std::size_t live_specializations, int cost_class) {
  return (1.0 + static_cast<double>(live_specializations)) *
         (1.0 + static_cast<double>(cost_class));
}

}  // namespace

void OverlayCache::evict_by_weight_locked() {
  while (lru_.size() > capacity_) {
    // Never evict the MRU front (it is what the current caller is
    // touching). Among the rest, the lightest entry goes; `<=` makes the
    // most-LRU of equal-weight entries win, so equal-weight behavior is
    // exactly the old pure LRU.
    auto victim = lru_.end();
    double best = 0;
    for (auto it = std::next(lru_.begin()); it != lru_.end(); ++it) {
      const double weight =
          entry_weight(it->specials.size(), recompile_cost_class(*it->structure));
      if (victim == lru_.end() || weight <= best) {
        victim = it;
        best = weight;
      }
    }
    if (victim == lru_.end()) break;  // capacity 0 is clamped; unreachable
    flush_entry_uses_locked(*victim);
    index_.erase(victim->key);
    lru_.erase(victim);
    meters_.evictions.add();
  }
}

void OverlayCache::flush_entry_uses_locked(Entry& entry) {
  if (store_ && entry.uses > 0) {
    store_->add_uses(entry.key, entry.uses);
    entry.uses = 0;
  }
}

OverlayCache::Entry& OverlayCache::insert_structure_locked(
    const std::string& key,
    const std::shared_ptr<const overlay::CompiledStructure>& structure) {
  const auto it = index_.find(key);
  if (it != index_.end()) return *it->second;
  lru_.push_front(Entry{key, structure, {}, {}, nullptr, 0});
  index_[key] = lru_.begin();
  Entry& entry = lru_.front();
  evict_by_weight_locked();
  return entry;  // valid: eviction never removes the MRU front
}

std::shared_ptr<const overlay::Compiled> OverlayCache::get_or_specialize(
    const CacheKeys& keys, const overlay::ParsedKernel& parsed,
    const overlay::OverlayArch& arch, std::uint64_t seed,
    const overlay::ParamBinding& binding, CacheOutcome* outcome) {
  if (outcome) *outcome = CacheOutcome{};
  // All cache-internal artifacts live under canonical signal names, so
  // isomorphic kernels share them; callers keep real names. Skip the
  // rekeying (and its map copy) when the kernel's names are canonical.
  overlay::ParamBinding rekeyed;
  if (!parsed.names_are_canonical) rekeyed = parsed.to_canonical(binding);
  const overlay::ParamBinding& canonical =
      parsed.names_are_canonical ? binding : rekeyed;

  std::shared_ptr<const overlay::CompiledStructure> structure;
  std::shared_future<std::shared_ptr<const overlay::CompiledStructure>> join;
  std::promise<std::shared_ptr<const overlay::CompiledStructure>> mine;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(keys.structure);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      Entry& entry = *it->second;
      ++entry.uses;
      const auto special = entry.special_index.find(keys.params);
      if (special != entry.special_index.end()) {
        entry.specials.splice(entry.specials.begin(), entry.specials,
                              special->second);
        meters_.hits.add();
        if (outcome) {
          outcome->hit = true;
          outcome->structure_hit = true;
        }
        return special->second->compiled;
      }
      // Structure resident, coefficients not bound yet: the fast path of
      // the whole refactor — no place & route, just specialize below.
      meters_.misses.add();
      meters_.structure_hits.add();
      if (outcome) outcome->structure_hit = true;
      structure = entry.structure;
    } else {
      const auto inflight = inflight_.find(keys.structure);
      if (inflight != inflight_.end()) {
        meters_.misses.add();
        meters_.inflight_joins.add();
        join = inflight->second;
      } else {
        // We will own the structural resolution (disk tier or compile);
        // which of the two it was is counted at publish time.
        meters_.misses.add();
        inflight_.emplace(keys.structure, mine.get_future().share());
      }
    }
  }

  if (structure) {
    return specialize_and_cache(keys, structure, canonical, outcome);
  }
  if (join.valid()) {
    // Another thread is compiling this structure; wait without holding
    // the lock, then bind our own coefficients onto the shared result.
    return specialize_and_cache(keys, join.get(), canonical, outcome);
  }

  // We own the structural resolution for this key. Everything up to the
  // publish must stay inside the guard: leaving inflight_ populated with
  // an unsatisfied promise would poison the key forever (every later
  // request would join a broken future instead of retrying the compile).
  //
  // Tier 2: the persistent store. A hit deserializes a finished place &
  // route in microseconds; any typed store error degrades to a miss and
  // the cold compile below repairs the record via write-behind.
  common::WallTimer timer;
  double disk_elapsed = 0;
  std::string disk_error;
  if (store_) {
    structure = store_->try_load(keys.structure, &disk_error);
    disk_elapsed = timer.seconds();
  }
  const bool disk_hit = structure != nullptr;

  double compile_elapsed = 0;
  std::shared_ptr<const overlay::Compiled> compiled;
  try {
    if (!structure) {
      VCGRA_TRACE_SPAN("compile.structure");
      timer.restart();
      structure = std::make_shared<const overlay::CompiledStructure>(
          overlay::compile_structure_canonical(parsed, arch, seed));
      compile_elapsed = timer.seconds();
    }
    VCGRA_TRACE_SPAN("cache.specialize");
    timer.restart();
    compiled = std::make_shared<const overlay::Compiled>(
        overlay::specialize(*structure, canonical));
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(keys.structure);
    mine.set_exception(std::current_exception());
    throw;
  }
  const double specialize_elapsed = timer.seconds();
  if (outcome) {
    outcome->compile_seconds = compile_elapsed;
    outcome->specialize_seconds = specialize_elapsed;
    outcome->disk_hit = disk_hit;
    outcome->disk_load_seconds = disk_elapsed;
    // Either way the tool flow did not run for a disk hit.
    outcome->structure_hit = outcome->structure_hit || disk_hit;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!disk_hit) {
      // A tool flow actually ran.
      meters_.compile.record_seconds(compile_elapsed);
      meters_.structure_misses.add();
    }
    meters_.specialize.record_seconds(specialize_elapsed);
    if (store_) {
      disk_load_seconds_ += disk_elapsed;
      if (disk_hit) {
        meters_.disk_hits.add();
      } else {
        meters_.disk_misses.add();
        if (!disk_error.empty()) meters_.disk_errors.add();
      }
    }
    inflight_.erase(keys.structure);
    Entry& entry = insert_structure_locked(keys.structure, structure);
    ++entry.uses;
    if (entry.special_index.find(keys.params) == entry.special_index.end()) {
      entry.specials.push_front(Specialization{keys.params, compiled, nullptr});
      entry.special_index[keys.params] = entry.specials.begin();
    }
  }
  mine.set_value(structure);
  if (!disk_hit) persist(keys.structure, structure);
  return compiled;
}

std::shared_ptr<const overlay::Compiled> OverlayCache::specialize_and_cache(
    const CacheKeys& keys,
    const std::shared_ptr<const overlay::CompiledStructure>& structure,
    const overlay::ParamBinding& canonical_binding, CacheOutcome* outcome) {
  {
    // A racing caller (typical after an in-flight join of duplicates) may
    // already have published this exact specialization.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(keys.structure);
    if (it != index_.end()) {
      Entry& entry = *it->second;
      const auto special = entry.special_index.find(keys.params);
      if (special != entry.special_index.end()) {
        entry.specials.splice(entry.specials.begin(), entry.specials,
                              special->second);
        return special->second->compiled;
      }
    }
  }

  common::WallTimer timer;
  std::shared_ptr<const overlay::Compiled> compiled;
  {
    VCGRA_TRACE_SPAN("cache.specialize");
    compiled = std::make_shared<const overlay::Compiled>(
        overlay::specialize(*structure, canonical_binding));
  }
  const double elapsed = timer.seconds();
  if (outcome) outcome->specialize_seconds = elapsed;

  std::lock_guard<std::mutex> lock(mutex_);
  meters_.specialize.record_seconds(elapsed);
  const auto it = index_.find(keys.structure);
  if (it != index_.end()) {
    Entry& entry = *it->second;
    if (entry.special_index.find(keys.params) == entry.special_index.end()) {
      entry.specials.push_front(Specialization{keys.params, compiled, nullptr});
      entry.special_index[keys.params] = entry.specials.begin();
      while (entry.specials.size() > kSpecializationsPerStructure) {
        entry.special_index.erase(entry.specials.back().params);
        entry.specials.pop_back();
      }
    }
  }
  // Structure evicted meanwhile: hand the artifact out uncached.
  return compiled;
}

std::shared_ptr<const overlay::ExecPlan> OverlayCache::plan_for(
    const CacheKeys& keys,
    const std::shared_ptr<const overlay::Compiled>& compiled,
    const overlay::SimOptions& sim) {
  std::shared_ptr<const overlay::ExecPlan> sibling;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(keys.structure);
    if (it != index_.end()) {
      const auto special = it->second->special_index.find(keys.params);
      if (special != it->second->special_index.end() &&
          special->second->compiled == compiled && special->second->plan &&
          special->second->plan->sim == sim) {
        meters_.plan_hits.add();
        return special->second->plan;
      }
      // Any plan of this structure under the same options carries the
      // whole tape and schedule; only the coefficients need rebinding.
      const auto& latest = it->second->latest_plan;
      if (latest && latest->sim == sim) sibling = latest;
    }
  }

  // Build outside the lock (microseconds, but no reason to serialize
  // concurrent first-touches of different specializations). A racing
  // build of the same specialization publishes last-wins — both plans
  // are identical by construction.
  std::shared_ptr<const overlay::ExecPlan> plan;
  if (sibling) {
    VCGRA_TRACE_SPAN("plan.rebind");
    plan = std::make_shared<const overlay::ExecPlan>(
        overlay::ExecPlan::rebind(*sibling, *compiled));
  } else {
    VCGRA_TRACE_SPAN("plan.lower");
    plan = std::make_shared<const overlay::ExecPlan>(
        overlay::ExecPlan::lower(*compiled, sim));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  meters_.plans_built.add();
  if (sibling) meters_.plans_rebound.add();
  const auto it = index_.find(keys.structure);
  if (it != index_.end()) {
    it->second->latest_plan = plan;
    const auto special = it->second->special_index.find(keys.params);
    if (special != it->second->special_index.end() &&
        special->second->compiled == compiled) {
      special->second->plan = plan;
    }
  }
  // Entry or specialization evicted meanwhile: hand the plan out uncached.
  return plan;
}

void OverlayCache::persist(
    const std::string& key,
    const std::shared_ptr<const overlay::CompiledStructure>& structure) {
  if (!store_) return;
  if (!write_behind_) {
    persist_now(key, *structure);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    persist_queue_.emplace_back(key, structure);
    meters_.persist_queue_depth.set(
        static_cast<std::int64_t>(persist_queue_.size()));
  }
  persist_cv_.notify_all();
}

void OverlayCache::persist_now(const std::string& key,
                               const overlay::CompiledStructure& structure) {
  common::WallTimer timer;
  bool wrote = false;
  bool failed = false;
  try {
    wrote = store_->save(key, structure);
  } catch (const store::StoreError&) {
    failed = true;
  }
  const double elapsed = timer.seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed) {
    meters_.disk_errors.add();
  } else if (wrote) {
    meters_.disk_writes.add();
    disk_write_seconds_ += elapsed;
  }
}

void OverlayCache::persist_worker() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    persist_cv_.wait(
        lock, [this]() { return persist_stop_ || !persist_queue_.empty(); });
    if (persist_queue_.empty()) {
      if (persist_stop_) return;  // drained: safe to exit
      continue;
    }
    auto [key, structure] = std::move(persist_queue_.front());
    persist_queue_.pop_front();
    meters_.persist_queue_depth.set(
        static_cast<std::int64_t>(persist_queue_.size()));
    persist_busy_ = true;
    lock.unlock();
    persist_now(key, *structure);  // takes the lock itself for stats
    lock.lock();
    persist_busy_ = false;
    persist_cv_.notify_all();  // wake flush_store() waiters
  }
}

void OverlayCache::flush_store() {
  std::unique_lock<std::mutex> lock(mutex_);
  persist_cv_.wait(lock, [this]() {
    return persist_queue_.empty() && !persist_busy_;
  });
}

std::size_t OverlayCache::warm_start(std::size_t limit) {
  if (!store_ || limit == 0) return 0;
  const std::vector<store::OverlayStore::RecordInfo> records = store_->list();
  std::vector<store::OverlayStore::LoadedRecord> loaded;
  common::WallTimer timer;
  for (const auto& info : records) {
    if (loaded.size() >= std::min(limit, capacity_)) break;
    try {
      loaded.push_back(store_->load_record(info.filename));
    } catch (const store::StoreError&) {
      std::lock_guard<std::mutex> lock(mutex_);
      meters_.disk_errors.add();
    }
  }
  const double elapsed = timer.seconds();

  std::size_t inserted = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  disk_load_seconds_ += elapsed;
  // Insert coldest-first so the hottest record ends at the LRU front.
  for (auto it = loaded.rbegin(); it != loaded.rend(); ++it) {
    if (index_.find(it->structure_key) != index_.end()) continue;
    if (lru_.size() >= capacity_) continue;
    insert_structure_locked(it->structure_key, it->structure);
    meters_.disk_preloads.add();
    ++inserted;
  }
  return inserted;
}

std::shared_ptr<const overlay::Compiled> OverlayCache::get_or_compile(
    const std::string& kernel_text, const overlay::OverlayArch& arch,
    std::uint64_t seed, bool* hit, double* compile_seconds) {
  if (hit) *hit = false;
  if (compile_seconds) *compile_seconds = 0;
  const overlay::ParsedKernel parsed = overlay::parse_kernel_symbolic(kernel_text);
  const CacheKeys keys = cache_keys(parsed, arch, seed, parsed.params);
  CacheOutcome outcome;
  auto compiled =
      get_or_specialize(keys, parsed, arch, seed, parsed.params, &outcome);
  if (hit) *hit = outcome.hit;
  if (compile_seconds) *compile_seconds = outcome.compile_seconds;
  return compiled;
}

std::shared_ptr<const overlay::Compiled> OverlayCache::peek(
    const std::string& kernel_text, const overlay::OverlayArch& arch,
    std::uint64_t seed, const overlay::ParamBinding& overrides) const {
  try {
    const overlay::ParsedKernel parsed =
        overlay::parse_kernel_symbolic(kernel_text);
    const overlay::ParamBinding binding =
        overlay::merge_params(parsed.params, overrides);
    const CacheKeys keys = cache_keys(parsed, arch, seed, binding);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(keys.structure);
    if (it == index_.end()) return nullptr;
    const auto special = it->second->special_index.find(keys.params);
    return special == it->second->special_index.end() ? nullptr
                                                      : special->second->compiled;
  } catch (const std::invalid_argument&) {
    return nullptr;
  }
}

std::shared_ptr<const overlay::CompiledStructure> OverlayCache::peek_structure(
    const std::string& kernel_text, const overlay::OverlayArch& arch,
    std::uint64_t seed) const {
  try {
    const overlay::ParsedKernel parsed =
        overlay::parse_kernel_symbolic(kernel_text);
    const std::string key = structure_key(parsed.structural_text, arch, seed);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : it->second->structure;
  } catch (const std::invalid_argument&) {
    return nullptr;
  }
}

void OverlayCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_) {
    for (Entry& entry : lru_) flush_entry_uses_locked(entry);
  }
  lru_.clear();
  index_.clear();
}

CacheStats OverlayCache::stats() const {
  CacheStats stats;
  std::lock_guard<std::mutex> lock(mutex_);
  stats.hits = meters_.hits.value();
  stats.misses = meters_.misses.value();
  stats.evictions = meters_.evictions.value();
  stats.inflight_joins = meters_.inflight_joins.value();
  stats.structure_hits = meters_.structure_hits.value();
  stats.structure_misses = meters_.structure_misses.value();
  stats.specializations = meters_.specialize.count();
  stats.plans_built = meters_.plans_built.value();
  stats.plan_hits = meters_.plan_hits.value();
  stats.plans_rebound = meters_.plans_rebound.value();
  stats.disk_hits = meters_.disk_hits.value();
  stats.disk_misses = meters_.disk_misses.value();
  stats.disk_errors = meters_.disk_errors.value();
  stats.disk_writes = meters_.disk_writes.value();
  stats.disk_preloads = meters_.disk_preloads.value();
  stats.disk_load_seconds = disk_load_seconds_;
  stats.disk_write_seconds = disk_write_seconds_;
  stats.entries = lru_.size();
  for (const Entry& entry : lru_) {
    stats.specialized_entries += entry.specials.size();
  }
  stats.capacity = capacity_;
  stats.compile_seconds = meters_.compile.sum_seconds();
  stats.specialize_seconds = meters_.specialize.sum_seconds();
  return stats;
}

}  // namespace vcgra::runtime
