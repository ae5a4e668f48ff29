#include "vcgra/runtime/reconfig_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "vcgra/runtime/overlay_cache.hpp"
#include "vcgra/telemetry/trace.hpp"

namespace vcgra::runtime {

double RegisterDiffCostModel::switch_seconds(const overlay::Compiled* from,
                                             const overlay::Compiled& to) {
  // Word layout of VcgraSettings::register_words: three words per PE,
  // then one per VSB.
  const std::size_t vsbs =
      static_cast<std::size_t>(std::max(0, to.arch.num_vsbs()));
  if (from == nullptr || from->arch != to.arch) {
    // Blank fabric (or a different grid entirely): every word is written.
    return static_cast<double>(3 * to.settings.pes.size() + vsbs) *
           word_write_seconds_;
  }
  const std::vector<overlay::PeSettings>& from_pes = from->settings.pes;
  const std::vector<overlay::PeSettings>& to_pes = to.settings.pes;
  const std::size_t common_pes = std::min(from_pes.size(), to_pes.size());
  std::size_t changed =
      3 * (std::max(from_pes.size(), to_pes.size()) - common_pes);
  for (std::size_t i = 0; i < common_pes; ++i) {
    using overlay::VcgraSettings;
    const auto from_words = VcgraSettings::pe_register_words(from_pes[i]);
    const auto to_words = VcgraSettings::pe_register_words(to_pes[i]);
    for (std::size_t w = 0; w < from_words.size(); ++w) {
      if (from_words[w] != to_words[w]) ++changed;
    }
  }
  thread_local std::vector<std::uint32_t> from_vsb, to_vsb;
  from->settings.vsb_register_words(from->arch, from_vsb);
  to.settings.vsb_register_words(to.arch, to_vsb);
  for (std::size_t i = 0; i < vsbs; ++i) {
    if (from_vsb[i] != to_vsb[i]) ++changed;
  }
  return static_cast<double>(changed) * word_write_seconds_;
}

ScgCostModel::Fabric& ScgCostModel::fabric_for_locked(
    const overlay::OverlayArch& arch) {
  Fabric& fabric = fabrics_[arch_signature(arch)];
  if (!fabric.backend) {
    fabric.backend =
        std::make_unique<overlay::ParameterizedBackend>(arch, frames_);
  }
  return fabric;
}

double ScgCostModel::switch_seconds(const overlay::Compiled* from,
                                    const overlay::Compiled& to) {
  std::unique_lock<std::mutex> lock(mutex_);
  Fabric& fabric = fabric_for_locked(to.arch);
  const overlay::ParameterizedBackend& backend = *fabric.backend;
  if (from == nullptr || from->arch != to.arch) {
    return backend.full_config_cost(to.settings).hwicap_seconds;
  }
  if (from->settings.pes.size() != to.settings.pes.size()) {
    throw std::invalid_argument("reconfigure_cost: settings shape mismatch");
  }
  SwapKey key;
  key.reserve(4 * to.settings.pes.size());
  for (std::size_t i = 0; i < to.settings.pes.size(); ++i) {
    for (const overlay::PeSettings* pe :
         {&from->settings.pes[i], &to.settings.pes[i]}) {
      key.push_back(pe->coeff_bits);
      key.push_back((std::uint64_t{pe->count} << 1) | (pe->used ? 1 : 0));
    }
  }
  if (const auto hit = fabric.memo.find(key); hit != fabric.memo.end()) {
    return hit->second;
  }
  // PPC evaluation runs outside the lock; a racing miss on the same swap
  // computes the identical value and the first insert wins.
  lock.unlock();
  const double seconds =
      backend.reconfigure_cost(from->settings, to.settings).hwicap_seconds;
  lock.lock();
  if (fabric.memo.size() >= kMemoLimit) fabric.memo.clear();
  fabric.memo.emplace(std::move(key), seconds);
  return seconds;
}

std::size_t ScgCostModel::memo_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t size = 0;
  for (const auto& [signature, fabric] : fabrics_) size += fabric.memo.size();
  return size;
}

ReconfigScheduler::ReconfigScheduler(int instances,
                                     std::shared_ptr<ReconfigCostModel> cost_model)
    : own_registry_(std::make_unique<telemetry::MetricsRegistry>()),
      meters_{*own_registry_},
      cost_model_(std::move(cost_model)),
      grid_(static_cast<std::size_t>(std::max(1, instances))) {}

ReconfigScheduler::ReconfigScheduler(int instances,
                                     std::shared_ptr<ReconfigCostModel> cost_model,
                                     telemetry::MetricsRegistry& registry)
    : meters_{registry},
      cost_model_(std::move(cost_model)),
      grid_(static_cast<std::size_t>(std::max(1, instances))) {}

Assignment ReconfigScheduler::acquire(
    const std::string& config_key, const std::string& structure_key,
    const std::shared_ptr<const overlay::Compiled>& compiled) {
  std::unique_lock<std::mutex> lock(mutex_);
  {
    // Only the instance wait is bracketed (not the selection scan): a
    // fat sched.wait_free span means every virtual grid was busy, i.e.
    // the fleet needs more instances, not a faster policy.
    VCGRA_TRACE_SPAN("sched.wait_free");
    ++waiters_;
    free_cv_.wait(lock, [this]() {
      return std::any_of(grid_.begin(), grid_.end(),
                         [](const Instance& g) { return !g.busy; });
    });
    --waiters_;
  }

  // Selection policy, in order:
  //   1. an instance already holding this exact overlay — the swap is free;
  //   2. an instance holding the same structure — the swap rewrites only
  //      the coefficient words (DCS fast path), so it is always cheaper
  //      than a blank load and never thrashes placement/routing;
  //   3. a blank instance — populating the grid costs a full configuration
  //      now but preserves warm configurations other jobs will return to
  //      (a myopic min-cost rule would diff onto a warm instance, since a
  //      diff is always cheaper than a blank load, and thrash it forever);
  //   4. the loaded instance with the cheapest modeled respecialization.
  int exact = -1, param = -1, blank = -1, other = -1;
  double param_cost = 0, other_cost = 0;
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    Instance& instance = grid_[i];
    if (instance.busy) continue;
    if (instance.loaded_key == config_key) {
      exact = static_cast<int>(i);
      break;
    }
    if (instance.loaded_key.empty()) {
      if (blank < 0) blank = static_cast<int>(i);
      continue;
    }
    if (instance.loaded_structure_key == structure_key) {
      const double cost =
          cost_model_->switch_seconds(instance.loaded.get(), *compiled);
      if (param < 0 || cost < param_cost) {
        param = static_cast<int>(i);
        param_cost = cost;
      }
      continue;
    }
    if (blank >= 0 || param >= 0) continue;  // outranked anyway
    const double cost =
        cost_model_->switch_seconds(instance.loaded.get(), *compiled);
    if (other < 0 || cost < other_cost) {
      other = static_cast<int>(i);
      other_cost = cost;
    }
  }

  Assignment assignment;
  if (exact >= 0) {
    assignment.instance = exact;
  } else if (param >= 0) {
    assignment.instance = param;
    assignment.reconfigured = true;
    assignment.param_only = true;
    assignment.reconfig_seconds = param_cost;
  } else if (blank >= 0) {
    assignment.instance = blank;
    assignment.reconfigured = true;
    assignment.reconfig_seconds =
        cost_model_->switch_seconds(nullptr, *compiled);
  } else {
    assignment.instance = other;
    assignment.reconfigured = true;
    assignment.reconfig_seconds = other_cost;
  }

  meters_.assignments.add();
  if (assignment.reconfigured) {
    meters_.reconfigurations.add();
    modeled_reconfig_seconds_ += assignment.reconfig_seconds;
    if (assignment.param_only) {
      meters_.param_respecializations.add();
      param_reconfig_seconds_ += assignment.reconfig_seconds;
    }
  } else {
    meters_.reconfigurations_avoided.add();
    // Counterfactual: the respecialization a blank grid would have paid.
    avoided_reconfig_seconds_ += cost_model_->switch_seconds(nullptr, *compiled);
  }

  Instance& chosen = grid_[static_cast<std::size_t>(assignment.instance)];
  chosen.loaded_key = config_key;
  chosen.loaded_structure_key = structure_key;
  chosen.loaded = compiled;
  chosen.busy = true;
  return assignment;
}

void ReconfigScheduler::release(int instance) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (instance < 0 || instance >= static_cast<int>(grid_.size())) return;
    grid_[static_cast<std::size_t>(instance)].busy = false;
  }
  free_cv_.notify_one();
}

bool ReconfigScheduler::has_free_instance() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return waiters_ == 0 &&
         std::any_of(grid_.begin(), grid_.end(),
                     [](const Instance& g) { return !g.busy; });
}

bool ReconfigScheduler::free_instance_holds(const std::string& config_key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(grid_.begin(), grid_.end(), [&](const Instance& g) {
    return !g.busy && g.loaded_key == config_key;
  });
}

SchedulerStats ReconfigScheduler::stats() const {
  SchedulerStats stats;
  std::lock_guard<std::mutex> lock(mutex_);
  stats.assignments = meters_.assignments.value();
  stats.reconfigurations = meters_.reconfigurations.value();
  stats.reconfigurations_avoided = meters_.reconfigurations_avoided.value();
  stats.param_respecializations = meters_.param_respecializations.value();
  stats.modeled_reconfig_seconds = modeled_reconfig_seconds_;
  stats.param_reconfig_seconds = param_reconfig_seconds_;
  stats.avoided_reconfig_seconds = avoided_reconfig_seconds_;
  return stats;
}

}  // namespace vcgra::runtime
