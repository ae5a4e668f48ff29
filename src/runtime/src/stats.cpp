#include "vcgra/runtime/stats.hpp"

#include <algorithm>
#include <cmath>

#include "vcgra/common/strings.hpp"

namespace vcgra::runtime {

double percentile(std::vector<double> samples, double fraction) {
  if (samples.empty()) return 0.0;
  fraction = std::clamp(fraction, 0.0, 1.0);
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(samples.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index),
                   samples.end());
  return samples[index];
}

std::string CacheStats::to_string() const {
  std::string text = common::strprintf(
      "cache: %llu hits / %llu misses (%.1f%% full, %.1f%% structure), "
      "%zu structures (+%zu specializations) / %zu capacity, "
      "%llu evictions, %llu in-flight joins, "
      "%s compiling + %s specializing",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), 100.0 * hit_rate(),
      100.0 * structure_hit_rate(), entries, specialized_entries, capacity,
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(inflight_joins),
      common::human_seconds(compile_seconds).c_str(),
      common::human_seconds(specialize_seconds).c_str());
  if (plans_built || plan_hits) {
    text += common::strprintf(
        "\n  plans: %llu built (%llu rebound), %llu reused",
        static_cast<unsigned long long>(plans_built),
        static_cast<unsigned long long>(plans_rebound),
        static_cast<unsigned long long>(plan_hits));
  }
  if (disk_hits || disk_misses || disk_writes || disk_preloads || disk_errors) {
    text += common::strprintf(
        "\n  store: %llu disk hits / %llu disk misses, %llu preloaded, "
        "%llu written, %llu bad records, %s loading + %s persisting",
        static_cast<unsigned long long>(disk_hits),
        static_cast<unsigned long long>(disk_misses),
        static_cast<unsigned long long>(disk_preloads),
        static_cast<unsigned long long>(disk_writes),
        static_cast<unsigned long long>(disk_errors),
        common::human_seconds(disk_load_seconds).c_str(),
        common::human_seconds(disk_write_seconds).c_str());
  }
  return text;
}

std::string SchedulerStats::to_string() const {
  return common::strprintf(
      "scheduler: %llu assignments, %llu reconfigurations "
      "(%llu param-only, %s modeled of which %s param), "
      "%llu avoided (%s saved)",
      static_cast<unsigned long long>(assignments),
      static_cast<unsigned long long>(reconfigurations),
      static_cast<unsigned long long>(param_respecializations),
      common::human_seconds(modeled_reconfig_seconds).c_str(),
      common::human_seconds(param_reconfig_seconds).c_str(),
      static_cast<unsigned long long>(reconfigurations_avoided),
      common::human_seconds(avoided_reconfig_seconds).c_str());
}

std::string CacheStats::to_json() const {
  return common::strprintf(
      "{\"hits\": %llu, \"misses\": %llu, \"evictions\": %llu, "
      "\"inflight_joins\": %llu, \"structure_hits\": %llu, "
      "\"structure_misses\": %llu, \"specializations\": %llu, "
      "\"plans_built\": %llu, \"plans_rebound\": %llu, \"plan_hits\": %llu, "
      "\"disk_hits\": %llu, "
      "\"disk_misses\": %llu, \"disk_errors\": %llu, \"disk_writes\": %llu, "
      "\"disk_preloads\": %llu, \"disk_load_seconds\": %.9g, "
      "\"disk_write_seconds\": %.9g, \"entries\": %zu, "
      "\"specialized_entries\": %zu, \"capacity\": %zu, "
      "\"compile_seconds\": %.9g, \"specialize_seconds\": %.9g, "
      "\"hit_rate\": %.9g, \"structure_hit_rate\": %.9g}",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(inflight_joins),
      static_cast<unsigned long long>(structure_hits),
      static_cast<unsigned long long>(structure_misses),
      static_cast<unsigned long long>(specializations),
      static_cast<unsigned long long>(plans_built),
      static_cast<unsigned long long>(plans_rebound),
      static_cast<unsigned long long>(plan_hits),
      static_cast<unsigned long long>(disk_hits),
      static_cast<unsigned long long>(disk_misses),
      static_cast<unsigned long long>(disk_errors),
      static_cast<unsigned long long>(disk_writes),
      static_cast<unsigned long long>(disk_preloads), disk_load_seconds,
      disk_write_seconds, entries, specialized_entries, capacity,
      compile_seconds, specialize_seconds, hit_rate(), structure_hit_rate());
}

std::string SchedulerStats::to_json() const {
  return common::strprintf(
      "{\"assignments\": %llu, \"reconfigurations\": %llu, "
      "\"reconfigurations_avoided\": %llu, \"param_respecializations\": %llu, "
      "\"modeled_reconfig_seconds\": %.9g, \"param_reconfig_seconds\": %.9g, "
      "\"avoided_reconfig_seconds\": %.9g}",
      static_cast<unsigned long long>(assignments),
      static_cast<unsigned long long>(reconfigurations),
      static_cast<unsigned long long>(reconfigurations_avoided),
      static_cast<unsigned long long>(param_respecializations),
      modeled_reconfig_seconds, param_reconfig_seconds,
      avoided_reconfig_seconds);
}

std::string ServiceStats::to_json() const {
  return common::strprintf(
      "{\n"
      "  \"jobs_submitted\": %llu, \"jobs_completed\": %llu, "
      "\"jobs_failed\": %llu,\n"
      "  \"tasks_submitted\": %llu, \"tasks_completed\": %llu, "
      "\"tasks_failed\": %llu,\n"
      "  \"fused_batches\": %llu, \"batched_jobs\": %llu,\n"
      "  \"graphs_executed\": %llu, \"graph_stages\": %llu,\n"
      "  \"graph_edges_raw\": %llu, \"graph_edges_converted\": %llu,\n"
      "  \"sessions_opened\": %llu, \"sessions_open\": %llu, "
      "\"chunks_fed\": %llu,\n"
      "  \"p50_latency_seconds\": %.9g, \"p95_latency_seconds\": %.9g,\n"
      "  \"p99_latency_seconds\": %.9g, \"p999_latency_seconds\": %.9g,\n"
      "  \"max_latency_seconds\": %.9g, \"mean_latency_seconds\": %.9g,\n"
      "  \"p50_queue_seconds\": %.9g, \"p99_queue_seconds\": %.9g,\n"
      "  \"exec_seconds\": %.9g, \"wall_seconds\": %.9g, "
      "\"jobs_per_second\": %.9g,\n"
      "  \"cache\": %s,\n"
      "  \"scheduler\": %s\n"
      "}\n",
      static_cast<unsigned long long>(jobs_submitted),
      static_cast<unsigned long long>(jobs_completed),
      static_cast<unsigned long long>(jobs_failed),
      static_cast<unsigned long long>(tasks_submitted),
      static_cast<unsigned long long>(tasks_completed),
      static_cast<unsigned long long>(tasks_failed),
      static_cast<unsigned long long>(fused_batches),
      static_cast<unsigned long long>(batched_jobs),
      static_cast<unsigned long long>(graphs_executed),
      static_cast<unsigned long long>(graph_stages),
      static_cast<unsigned long long>(graph_edges_raw),
      static_cast<unsigned long long>(graph_edges_converted),
      static_cast<unsigned long long>(sessions_opened),
      static_cast<unsigned long long>(sessions_open),
      static_cast<unsigned long long>(chunks_fed), p50_latency_seconds,
      p95_latency_seconds, p99_latency_seconds, p999_latency_seconds,
      max_latency_seconds, mean_latency_seconds, p50_queue_seconds,
      p99_queue_seconds, exec_seconds, wall_seconds, jobs_per_second,
      cache.to_json().c_str(), scheduler.to_json().c_str());
}

std::string ServiceStats::to_string() const {
  std::string text = common::strprintf(
      "service: %llu jobs (%llu done, %llu failed) + %llu tasks "
      "(%llu done, %llu failed), "
      "%.1f jobs/s, "
      "p50 %s / p99 %s latency, %s simulating over %s wall\n  %s\n  %s",
      static_cast<unsigned long long>(jobs_submitted),
      static_cast<unsigned long long>(jobs_completed),
      static_cast<unsigned long long>(jobs_failed),
      static_cast<unsigned long long>(tasks_submitted),
      static_cast<unsigned long long>(tasks_completed),
      static_cast<unsigned long long>(tasks_failed), jobs_per_second,
      common::human_seconds(p50_latency_seconds).c_str(),
      common::human_seconds(p99_latency_seconds).c_str(),
      common::human_seconds(exec_seconds).c_str(),
      common::human_seconds(wall_seconds).c_str(), cache.to_string().c_str(),
      scheduler.to_string().c_str());
  if (fused_batches) {
    text += common::strprintf(
        "\n  fused: %llu batches carrying %llu jobs",
        static_cast<unsigned long long>(fused_batches),
        static_cast<unsigned long long>(batched_jobs));
  }
  if (graphs_executed) {
    text += common::strprintf(
        "\n  graphs: %llu invocations over %llu stages, %llu raw edges "
        "(%llu converted)",
        static_cast<unsigned long long>(graphs_executed),
        static_cast<unsigned long long>(graph_stages),
        static_cast<unsigned long long>(graph_edges_raw),
        static_cast<unsigned long long>(graph_edges_converted));
  }
  if (sessions_opened) {
    text += common::strprintf(
        "\n  sessions: %llu opened (%llu live), %llu chunks fed",
        static_cast<unsigned long long>(sessions_opened),
        static_cast<unsigned long long>(sessions_open),
        static_cast<unsigned long long>(chunks_fed));
  }
  return text;
}

}  // namespace vcgra::runtime
