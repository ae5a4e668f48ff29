// Overlay runtime service benchmark: what the new src/runtime layer buys
// over calling the tool flow per request.
//
//   A. Compiled-overlay cache — a hit skips synth/map/place/route
//      entirely; the bench demands the hit path be >= 10x faster.
//   B. Batched multi-threaded execution — the same job mix through 1..N
//      executor threads, with bit-exact output equality asserted across
//      all thread counts (determinism is part of the contract, not a
//      best-effort property).
//   C. Reconfiguration-aware scheduling — recurring kernels over N
//      virtual grid instances under the pconf/SCG cost model (§V):
//      kernel-affinity placement turns almost every grid swap into a
//      no-op, and the modeled HWICAP seconds saved are reported.
//
// Exits non-zero if the cache speedup target or bit-exactness fails, so
// CI can run it as a smoke check.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "vcgra/common/log.hpp"
#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/common/table.hpp"
#include "vcgra/common/timer.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/telemetry/health.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/vision/pipeline.hpp"
#include "vcgra/vision/pipeline_service.hpp"
#include "vcgra/vision/synthetic.hpp"

using namespace vcgra;

namespace {

/// N-tap dot product y = sum c_i * x_i in the kernel language
/// (N mul PEs + N-1 add PEs; N=8 fills 15 of the 16 PEs of a 4x4 grid).
///
/// `variant` rotates (and, past N, reverses) the order the products
/// enter the reduction tree: kernels with different variants are
/// distinct *structures* — the association order is structural, so the
/// canonicalized text differs even though alpha-renaming erases the
/// signal-name suffixes. Kernels differing only in `scale` share one
/// structure and differ only in their parameter binding — the
/// distinction sections A, D and E measure from different sides.
/// (Variants must stay within 2N per section for distinctness.)
std::string dot_kernel(int taps, double scale, int variant = 0) {
  std::string text;
  for (int i = 0; i < taps; ++i) {
    text += common::strprintf("input x%dv%d; param c%dv%d = %.17g;\n", i,
                              variant, i, variant,
                              scale * (i + 1) * (i % 2 ? -0.25 : 0.375));
    text += common::strprintf("p%d = mul(x%dv%d, c%dv%d);\n", i, i, variant, i,
                              variant);
  }
  const int start = variant % taps;
  const bool reversed = (variant / taps) % 2 != 0;
  std::vector<std::string> terms;
  for (int i = 0; i < taps; ++i) {
    const int step = reversed ? taps - 1 - i : i;
    terms.push_back(common::strprintf("p%d", (start + step) % taps));
  }
  int level = 0;
  while (terms.size() > 1) {
    std::vector<std::string> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      std::string name = terms.size() == 2
                             ? std::string("y")
                             : common::strprintf("s%d_%zu", level, i / 2);
      text += common::strprintf("%s = add(%s, %s);\n", name.c_str(),
                               terms[i].c_str(), terms[i + 1].c_str());
      next.push_back(std::move(name));
    }
    if (terms.size() % 2) next.push_back(terms.back());
    terms = std::move(next);
    ++level;
  }
  text += "output y;\n";
  return text;
}

std::map<std::string, std::vector<double>> job_inputs(int taps,
                                                      std::size_t length,
                                                      double phase,
                                                      int variant = 0) {
  std::map<std::string, std::vector<double>> inputs;
  for (int t = 0; t < taps; ++t) {
    std::vector<double> stream;
    stream.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      stream.push_back(((static_cast<double>(i) + phase) / 16.0 - 2.0) *
                       (t % 2 ? -1.0 : 1.0));
    }
    inputs[common::strprintf("x%dv%d", t, variant)] = std::move(stream);
  }
  return inputs;
}

std::uint64_t fold_bits(std::uint64_t hash, const overlay::RunResult& run) {
  for (const auto& [name, stream] : run.outputs) {
    for (const auto& value : stream) {
      hash ^= value.bits();
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

constexpr int kTaps = 8;

}  // namespace

int main() {
  std::printf("== Overlay runtime service: cache, batching, reconfig-aware scheduling ==\n");
  bool ok = true;

  // --- A: compiled-overlay cache ---------------------------------------------
  {
    std::printf("\n[A] Overlay cache: hit path vs full tool flow\n");

    constexpr int kDistinct = 16;
    constexpr int kHitRounds = 12;
    constexpr int kAttempts = 3;
    // Short streams keep the hit path near its floor (dispatch + a brief
    // simulation), so the ratio isolates the avoided tool flow.
    const std::size_t stream = 16;

    // One attempt = fresh service, measure median miss and hit latency.
    // The gate is the miss/hit *ratio* (machine-speed independent), and
    // the attempt medians + a median over 3 attempts absorb scheduler
    // hiccups and CPU-frequency excursions on loaded CI machines.
    struct Attempt {
      double miss_median = 0;
      double hit_median = 0;
      double speedup() const {
        return hit_median > 0 ? miss_median / hit_median : 0.0;
      }
    };
    std::vector<Attempt> attempts;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      runtime::ServiceOptions options;
      options.threads = 1;  // isolate the cache effect
      runtime::OverlayService service(options);

      std::vector<double> miss_latencies;
      for (int k = 0; k < kDistinct; ++k) {
        runtime::JobRequest request;
        // Distinct variants: 16 distinct *structures*, so every first
        // run pays the full place & route flow (param-only reuse is
        // measured separately by section D).
        request.kernel_text = dot_kernel(kTaps, 1.0 + 0.01 * k, k);
        request.inputs = job_inputs(kTaps, stream, 0.0, k);
        const runtime::JobResult result = service.run(std::move(request));
        if (result.cache_hit || result.structure_hit) ok = false;
        miss_latencies.push_back(result.latency_seconds);
      }

      std::vector<double> hit_latencies;
      for (int round = 0; round < kHitRounds; ++round) {
        for (int k = 0; k < kDistinct; ++k) {
          runtime::JobRequest request;
          request.kernel_text = dot_kernel(kTaps, 1.0 + 0.01 * k, k);
          request.inputs = job_inputs(kTaps, stream, 0.0, k);
          const runtime::JobResult result = service.run(std::move(request));
          if (!result.cache_hit) ok = false;
          hit_latencies.push_back(result.latency_seconds);
        }
      }
      Attempt measured;
      measured.miss_median = runtime::percentile(miss_latencies, 0.5);
      measured.hit_median = runtime::percentile(hit_latencies, 0.5);
      attempts.push_back(measured);
      if (attempt == 0) {
        std::printf("  %s\n", service.cache().stats().to_string().c_str());
      }
    }

    std::vector<double> speedups;
    for (const Attempt& attempt : attempts) {
      speedups.push_back(attempt.speedup());
    }
    const double speedup = runtime::percentile(speedups, 0.5);
    std::printf("  %d distinct kernels, %zu-sample streams, %d attempts\n",
                kDistinct, stream, kAttempts);
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      const Attempt& measured = attempts[static_cast<std::size_t>(attempt)];
      std::printf("  attempt %d: miss %s  hit %s  speedup %.1fx\n", attempt + 1,
                  common::human_seconds(measured.miss_median).c_str(),
                  common::human_seconds(measured.hit_median).c_str(),
                  measured.speedup());
    }
    if (speedup < 10.0) {
      std::printf("  FAIL: median cache hit speedup %.1fx below the 10x target\n",
                  speedup);
      ok = false;
    } else {
      std::printf("  PASS: hit path >= 10x faster than the tool flow "
                  "(median of %d attempts: %.1fx)\n",
                  kAttempts, speedup);
    }
  }

  // --- B: batched multi-threaded execution ------------------------------------
  {
    std::printf("\n[B] Multi-threaded throughput (bit-exact across thread counts)\n");
    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<int> thread_counts{1, 2, 4};
    if (hw > 4) thread_counts.push_back(static_cast<int>(hw));

    constexpr int kKernels = 8;
    constexpr int kJobs = 96;
    const std::size_t stream = 2048;

    common::AsciiTable table({"Threads", "Wall", "Jobs/s", "Speedup", "p99"});
    double base_seconds = 0;
    std::uint64_t reference_hash = 0;
    bool first = true;
    for (const int threads : thread_counts) {
      runtime::ServiceOptions options;
      options.threads = threads;
      runtime::OverlayService service(options);

      common::WallTimer timer;
      std::vector<std::future<runtime::JobResult>> futures;
      futures.reserve(kJobs);
      for (int j = 0; j < kJobs; ++j) {
        runtime::JobRequest request;
        request.kernel_text = dot_kernel(kTaps, 2.0 + 0.01 * (j % kKernels));
        request.inputs = job_inputs(kTaps, stream, 0.25 * j);
        futures.push_back(service.submit(std::move(request)));
      }
      std::uint64_t hash = 0xcbf29ce484222325ULL;
      for (auto& future : futures) hash = fold_bits(hash, future.get().run);
      const double wall = timer.seconds();
      if (first) {
        base_seconds = wall;
        reference_hash = hash;
        first = false;
      } else if (hash != reference_hash) {
        std::printf("  FAIL: outputs at %d threads differ from 1-thread run\n",
                    threads);
        ok = false;
      }
      const runtime::ServiceStats stats = service.stats();
      table.add_row({common::strprintf("%d", threads),
                     common::human_seconds(wall),
                     common::strprintf("%.1f", kJobs / wall),
                     common::strprintf("%.2fx", base_seconds / wall),
                     common::human_seconds(stats.p99_latency_seconds)});
    }
    table.print();
    std::printf("  outputs bit-exact across all thread counts: %s\n",
                ok ? "yes" : "NO");
    if (hw <= 1) {
      std::printf("  (1 hardware thread available: wall-clock scaling is not\n"
                  "   observable on this machine; determinism still holds)\n");
    }
  }

  // --- C: reconfiguration-aware scheduling -------------------------------------
  {
    std::printf("\n[C] Reconfig-aware scheduling (pconf/SCG cost model, Section V)\n");
    constexpr int kKernels = 4;
    constexpr int kJobs = 200;
    struct Policy {
      const char* name;
      int instances;
      std::size_t scan_window;  // 1 = plain FIFO, no batch reordering
    };
    const Policy policies[] = {
        {"FIFO, 1 grid", 1, 1},
        {"batched, 1 grid", 1, 32},
        {"batched, 4 grids", kKernels, 32},
    };
    common::AsciiTable table({"Policy", "Reconfigs", "Param-only", "Avoided",
                              "HWICAP modeled", "HWICAP saved"});
    for (const Policy& policy : policies) {
      runtime::ServiceOptions options;
      options.threads = 2;
      options.virtual_instances = policy.instances;
      options.schedule_scan_window = policy.scan_window;
      options.cost_model = runtime::ServiceOptions::CostModel::kScg;
      runtime::OverlayService service(options);

      std::vector<std::future<runtime::JobResult>> futures;
      for (int j = 0; j < kJobs; ++j) {
        runtime::JobRequest request;
        request.kernel_text = dot_kernel(kTaps, 3.0 + 0.01 * (j % kKernels));
        request.inputs = job_inputs(kTaps, 32, 0.5 * j);
        futures.push_back(service.submit(std::move(request)));
      }
      for (auto& future : futures) future.get();

      const runtime::SchedulerStats stats = service.stats().scheduler;
      table.add_row({policy.name,
                     common::strprintf("%llu",
                                       static_cast<unsigned long long>(
                                           stats.reconfigurations)),
                     common::strprintf("%llu",
                                       static_cast<unsigned long long>(
                                           stats.param_respecializations)),
                     common::strprintf("%llu",
                                       static_cast<unsigned long long>(
                                           stats.reconfigurations_avoided)),
                     common::human_seconds(stats.modeled_reconfig_seconds),
                     common::human_seconds(stats.avoided_reconfig_seconds)});
    }
    table.print();
    std::printf(
        "  %d recurring kernels round-robin over %d jobs. The kernels share\n"
        "  one structure (they differ only in coefficients), so every swap is\n"
        "  a cheap param-only respecialization; queue batching still groups\n"
        "  same-configuration jobs between swaps, and affinity placement over\n"
        "  %d instances pins each coefficient set and avoids even those.\n",
        kKernels, kJobs, kKernels);
  }

  // --- D: parameter respecialization vs cold compile ---------------------------
  {
    std::printf("\n[D] Param sweep: respecialize vs cold compile "
                "(Dynamic Circuit Specialization)\n");
    constexpr int kColdStructures = 4;
    constexpr int kRespecs = 16;
    constexpr int kAttempts = 3;
    constexpr int kSweepTaps = 16;  // 31 PEs: needs the 6x6 grid below
    const std::size_t stream = 16;
    overlay::OverlayArch sweep_arch;
    sweep_arch.rows = 6;
    sweep_arch.cols = 6;

    // Per attempt: a fresh service compiles kColdStructures distinct
    // structures (the cold baseline), then sweeps kRespecs coefficient
    // sets over the first structure — each sweep job must skip place &
    // route entirely. Gate on the cold/respec *ratio*, median of
    // medians, same de-flaking as the cache gate in section A.
    struct Attempt {
      double cold_median = 0;
      double respec_median = 0;
      double speedup() const {
        return respec_median > 0 ? cold_median / respec_median : 0.0;
      }
    };
    std::vector<Attempt> attempts;
    bool fast_path_correct = true;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      runtime::ServiceOptions options;
      options.threads = 1;
      runtime::OverlayService service(options);

      std::vector<double> cold_latencies;
      for (int k = 0; k < kColdStructures; ++k) {
        runtime::JobRequest request;
        request.arch = sweep_arch;
        request.kernel_text = dot_kernel(kSweepTaps, 5.0, 100 + k);
        request.inputs = job_inputs(kSweepTaps, stream, 0.0, 100 + k);
        const runtime::JobResult result = service.run(std::move(request));
        if (result.structure_hit) fast_path_correct = false;
        cold_latencies.push_back(result.latency_seconds);
      }

      std::vector<double> respec_latencies;
      for (int r = 0; r < kRespecs; ++r) {
        runtime::JobRequest request;
        // Same structure as cold kernel 100, new coefficients each time:
        // half via text literals, half via the JobRequest::params
        // override map — both must ride the fast path.
        request.arch = sweep_arch;
        if (r % 2) {
          request.kernel_text = dot_kernel(kSweepTaps, 6.0 + 0.01 * r, 100);
        } else {
          request.kernel_text = dot_kernel(kSweepTaps, 5.0, 100);
          for (int i = 0; i < kSweepTaps; ++i) {
            request.params[common::strprintf("c%dv100", i)] =
                7.0 + 0.01 * r + i;
          }
        }
        request.inputs = job_inputs(kSweepTaps, stream, 0.0, 100);
        const runtime::JobResult result = service.run(std::move(request));
        // The acceptance criterion: zero place & route work on the sweep.
        if (!result.structure_hit || result.compile_seconds != 0) {
          fast_path_correct = false;
        }
        respec_latencies.push_back(result.latency_seconds);
      }

      Attempt measured;
      measured.cold_median = runtime::percentile(cold_latencies, 0.5);
      measured.respec_median = runtime::percentile(respec_latencies, 0.5);
      attempts.push_back(measured);
      if (attempt == 0) {
        std::printf("  %s\n", service.cache().stats().to_string().c_str());
      }
    }

    std::vector<double> speedups;
    for (const Attempt& attempt : attempts) speedups.push_back(attempt.speedup());
    const double speedup = runtime::percentile(speedups, 0.5);
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      const Attempt& measured = attempts[static_cast<std::size_t>(attempt)];
      std::printf("  attempt %d: cold %s  respec %s  speedup %.1fx\n",
                  attempt + 1,
                  common::human_seconds(measured.cold_median).c_str(),
                  common::human_seconds(measured.respec_median).c_str(),
                  measured.speedup());
    }
    if (!fast_path_correct) {
      std::printf("  FAIL: a sweep job re-ran place & route (or a cold job "
                  "unexpectedly hit)\n");
      ok = false;
    }
    if (speedup < 10.0) {
      std::printf("  FAIL: median respecialization speedup %.1fx below the "
                  "10x target\n", speedup);
      ok = false;
    } else if (fast_path_correct) {
      std::printf("  PASS: coefficient changes respecialize >= 10x faster "
                  "than a cold compile (median of %d attempts: %.1fx)\n",
                  kAttempts, speedup);
    }
  }

  // --- E: persistent overlay store — restart warm gate -------------------------
  {
    std::printf("\n[E] Persistent store: service restart vs cold start "
                "(disk-load + specialize vs tool flow)\n");
    constexpr int kStructures = 6;
    constexpr int kAttempts = 5;
    constexpr int kStoreTaps = 16;  // 31 PEs: the 6x6 grid below
    const std::size_t stream = 4;   // keep simulation out of the ratio
    overlay::OverlayArch store_arch;
    store_arch.rows = 6;
    store_arch.cols = 6;

    // VCGRA_STORE_DIR lets CI cache the store directory across workflow
    // runs (the restart phase then also exercises cross-run reuse); by
    // default a scratch directory keeps local runs hermetic.
    const char* env_dir = std::getenv("VCGRA_STORE_DIR");
    const std::filesystem::path store_dir =
        env_dir ? std::filesystem::path(env_dir)
                : std::filesystem::temp_directory_path() /
                      common::strprintf("vcgra-bench-store-%d",
                                        static_cast<int>(getpid()));

    const auto kernel_for = [](int k) {
      return dot_kernel(kStoreTaps, 9.0, 300 + k);
    };

    // The gate compares the two quantities the store actually trades:
    // the tool-flow seconds a cold compile pays (per-job compile_seconds)
    // against the store's own `store.load` histogram over the restart
    // phase. End-to-end job latency — which also carries scheduler,
    // queue and simulation noise from the rest of the process — is
    // reported but no longer gated; it made this gate flaky.
    struct Attempt {
      double cold_median = 0;   // end-to-end, report-only
      double disk_median = 0;   // end-to-end, report-only
      double compile_median = 0;  // per-job tool-flow seconds (cold phase)
      double load_p50 = 0;        // store.load histogram over the restart
      double end_to_end() const {
        return disk_median > 0 ? cold_median / disk_median : 0.0;
      }
      double speedup() const {
        return load_p50 > 0 ? compile_median / load_p50 : 0.0;
      }
    };
    std::vector<Attempt> attempts;
    bool restart_clean = true;
    double steady_p50 = 0;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      // Cold baseline: no store attached, every kernel pays the tool flow.
      std::vector<double> cold_latencies;
      std::vector<double> cold_compiles;
      {
        runtime::ServiceOptions options;
        options.threads = 1;
        runtime::OverlayService service(options);
        for (int k = 0; k < kStructures; ++k) {
          runtime::JobRequest request;
          request.arch = store_arch;
          request.kernel_text = kernel_for(k);
          request.inputs = job_inputs(kStoreTaps, stream, 0.0, 300 + k);
          const runtime::JobResult result = service.run(std::move(request));
          if (result.structure_hit) restart_clean = false;
          cold_latencies.push_back(result.latency_seconds);
          cold_compiles.push_back(result.compile_seconds);
        }
      }

      // Populate: a store-backed service compiles (or disk-loads, when CI
      // handed us a cached directory) and persists on shutdown.
      {
        runtime::ServiceOptions options;
        options.threads = 1;
        options.store_dir = store_dir.string();
        runtime::OverlayService service(options);
        for (int k = 0; k < kStructures; ++k) {
          runtime::JobRequest request;
          request.arch = store_arch;
          request.kernel_text = kernel_for(k);
          request.inputs = job_inputs(kStoreTaps, stream, 0.0, 300 + k);
          service.run(std::move(request));
        }
      }  // destructor drains the write-behind queue

      // Restart against the populated store: the gate. Zero place &
      // route; every structure deserializes off disk. The store.load
      // histogram delta over this phase is exactly the disk-tier cost.
      std::vector<double> disk_latencies;
      double load_p50 = 0;
      const telemetry::HistogramSnapshot load_base =
          telemetry::metrics().histogram("store.load").snapshot();
      {
        runtime::ServiceOptions options;
        options.threads = 1;
        options.store_dir = store_dir.string();
        runtime::OverlayService service(options);
        for (int k = 0; k < kStructures; ++k) {
          runtime::JobRequest request;
          request.arch = store_arch;
          request.kernel_text = kernel_for(k);
          request.inputs = job_inputs(kStoreTaps, stream, 0.0, 300 + k);
          const runtime::JobResult result = service.run(std::move(request));
          if (!result.disk_hit || !result.structure_hit ||
              result.compile_seconds != 0) {
            restart_clean = false;
          }
          disk_latencies.push_back(result.latency_seconds);
        }
        const telemetry::HistogramSnapshot loads =
            telemetry::metrics().histogram("store.load").snapshot().diff_since(
                load_base);
        if (loads.count != static_cast<std::uint64_t>(kStructures)) {
          restart_clean = false;  // a structure skipped the disk tier
        }
        load_p50 = loads.percentile(0.5);
        // Steady state on the restarted service: memory hits only.
        for (int k = 0; k < kStructures; ++k) {
          runtime::JobRequest request;
          request.arch = store_arch;
          request.kernel_text = kernel_for(k);
          request.inputs = job_inputs(kStoreTaps, stream, 0.0, 300 + k);
          service.run(std::move(request));
        }
        const runtime::ServiceStats stats = service.stats();
        if (stats.cache.structure_misses != 0 ||
            stats.cache.compile_seconds != 0) {
          restart_clean = false;  // some place & route ran after restart
        }
        if (attempt == 0) {
          steady_p50 = stats.p50_latency_seconds;
          std::printf("  %s\n", stats.cache.to_string().c_str());
        }
      }

      Attempt measured;
      measured.cold_median = runtime::percentile(cold_latencies, 0.5);
      measured.disk_median = runtime::percentile(disk_latencies, 0.5);
      measured.compile_median = runtime::percentile(cold_compiles, 0.5);
      measured.load_p50 = load_p50;
      attempts.push_back(measured);
    }

    std::vector<double> speedups;
    for (const Attempt& attempt : attempts) speedups.push_back(attempt.speedup());
    const double speedup = runtime::percentile(speedups, 0.5);
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      const Attempt& measured = attempts[static_cast<std::size_t>(attempt)];
      std::printf("  attempt %d: compile %s  store.load p50 %s  speedup "
                  "%.1fx  (end-to-end cold %s / disk %s = %.1fx, "
                  "report-only)\n",
                  attempt + 1,
                  common::human_seconds(measured.compile_median).c_str(),
                  common::human_seconds(measured.load_p50).c_str(),
                  measured.speedup(),
                  common::human_seconds(measured.cold_median).c_str(),
                  common::human_seconds(measured.disk_median).c_str(),
                  measured.end_to_end());
    }
    std::printf("  restarted-service steady-state p50: %s\n",
                common::human_seconds(steady_p50).c_str());
    if (!restart_clean) {
      std::printf("  FAIL: a restarted-service job re-ran place & route (or "
                  "missed the disk tier)\n");
      ok = false;
    }
    if (speedup < 10.0) {
      std::printf("  FAIL: median compile-vs-disk-load speedup %.1fx below "
                  "the 10x target\n", speedup);
      ok = false;
    } else if (restart_clean) {
      std::printf("  PASS: restart reaches steady state with zero place & "
                  "route; disk load >= 10x faster than the tool flow it "
                  "replaces (median of %d attempts: %.1fx)\n",
                  kAttempts, speedup);
    }

    if (!env_dir) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir, ec);
    }
  }

  // --- F: precompiled execution plans — steady-state datapath gate -------------
  {
    std::printf("\n[F] Execution plans: batched SoA executor vs legacy "
                "interpreter (warm service, STREAM-triad shape)\n");
    constexpr int kAttempts = 3;
    constexpr int kReps = 7;          // measured jobs per attempt (post-warm)
    const std::size_t stream = 1 << 15;

    // STREAM triad y[i] = a[i] + alpha * b[i] — the shape the paper's
    // overlay streams at one sample per cycle.
    const std::string triad_text =
        "input a; input b;\nparam alpha = 3.0;\n"
        "t = mul(b, alpha);\ny = add(a, t);\noutput y;\n";
    const auto triad_inputs = [&]() {
      std::map<std::string, std::vector<double>> inputs;
      for (const char* name : {"a", "b"}) {
        std::vector<double>& s = inputs[name];
        s.reserve(stream);
        for (std::size_t i = 0; i < stream; ++i) {
          s.push_back((static_cast<double>(i % 509) / 128.0 - 2.0) *
                      (name[0] == 'a' ? 1.0 : -0.75));
        }
      }
      return inputs;
    };

    // Warm-service steady state on both engines: compile once, then
    // measure the executor time of repeat jobs only. Ratio-only gate
    // (median of per-attempt medians), like every other gate here.
    struct Attempt {
      double legacy_median = 0;
      double plan_median = 0;
      double speedup() const {
        return plan_median > 0 ? legacy_median / plan_median : 0.0;
      }
    };
    const auto measure = [&](bool use_plan, bool* engine_ok) {
      runtime::ServiceOptions options;
      options.threads = 1;
      options.use_plan_executor = use_plan;
      runtime::OverlayService service(options);
      std::vector<double> exec_seconds;
      std::uint64_t hash = 0xcbf29ce484222325ULL;
      for (int r = 0; r < kReps + 1; ++r) {  // job 0 warms the cache/plan
        runtime::JobRequest request;
        request.kernel_text = triad_text;
        request.inputs = triad_inputs();
        const runtime::JobResult result = service.run(std::move(request));
        if (result.plan_executed != use_plan) *engine_ok = false;
        if (r > 0) exec_seconds.push_back(result.exec_seconds);
        hash = fold_bits(hash, result.run);
      }
      return std::pair<double, std::uint64_t>(
          runtime::percentile(exec_seconds, 0.5), hash);
    };

    std::vector<Attempt> attempts;
    bool engine_ok = true;
    bool bits_equal = true;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      Attempt measured;
      const auto [legacy_median, legacy_hash] = measure(false, &engine_ok);
      const auto [plan_median, plan_hash] = measure(true, &engine_ok);
      measured.legacy_median = legacy_median;
      measured.plan_median = plan_median;
      if (legacy_hash != plan_hash) bits_equal = false;
      attempts.push_back(measured);
    }

    // Allocation-freedom at steady state: two identical jobs on this
    // thread's warm arena must not grow any pool.
    {
      // Compiled directly (not through the cache) so the artifact keeps
      // the kernel's real stream names.
      const overlay::Compiled compiled =
          overlay::compile_kernel(triad_text, overlay::OverlayArch{});
      auto plan = std::make_shared<const overlay::ExecPlan>(
          overlay::ExecPlan::lower(compiled));
      const overlay::PlanExecutor executor(plan);
      executor.run_doubles(triad_inputs());  // warm-up
      const auto before = overlay::PlanExecutor::thread_arena_stats();
      executor.run_doubles(triad_inputs());
      executor.run_doubles(triad_inputs());
      const auto after = overlay::PlanExecutor::thread_arena_stats();
      if (after.grows != before.grows) {
        std::printf("  FAIL: warm arena grew during steady-state jobs "
                    "(%llu -> %llu grows)\n",
                    static_cast<unsigned long long>(before.grows),
                    static_cast<unsigned long long>(after.grows));
        ok = false;
      } else {
        std::printf("  arena: zero per-job allocations after warm-up "
                    "(capacity %zu words, %llu grows total)\n",
                    after.capacity_words,
                    static_cast<unsigned long long>(after.grows));
      }
    }

    std::vector<double> speedups;
    for (const Attempt& attempt : attempts) speedups.push_back(attempt.speedup());
    const double speedup = runtime::percentile(speedups, 0.5);
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      const Attempt& measured = attempts[static_cast<std::size_t>(attempt)];
      std::printf("  attempt %d: interpreter %s  plan %s  (%.1f vs %.1f "
                  "Melem/s)  speedup %.1fx\n",
                  attempt + 1,
                  common::human_seconds(measured.legacy_median).c_str(),
                  common::human_seconds(measured.plan_median).c_str(),
                  measured.legacy_median > 0
                      ? static_cast<double>(stream) / measured.legacy_median / 1e6
                      : 0.0,
                  measured.plan_median > 0
                      ? static_cast<double>(stream) / measured.plan_median / 1e6
                      : 0.0,
                  measured.speedup());
    }
    if (!bits_equal) {
      std::printf("  FAIL: plan executor outputs differ from the legacy "
                  "interpreter\n");
      ok = false;
    }
    if (!engine_ok) {
      std::printf("  FAIL: a job ran on the wrong execution engine\n");
      ok = false;
    }
    if (speedup < 5.0) {
      std::printf("  FAIL: median steady-state speedup %.1fx below the 5x "
                  "target\n", speedup);
      ok = false;
    } else if (bits_equal && engine_ok) {
      std::printf("  PASS: plan executor >= 5x the legacy interpreter at "
                  "steady state, bit-exact (median of %d attempts: %.1fx)\n",
                  kAttempts, speedup);
    }
  }

  // --- G: telemetry overhead gate ----------------------------------------------
  {
    std::printf("\n[G] Telemetry: disabled-span cost + tracing overhead "
                "(warm service, STREAM-triad shape)\n");
    bool span_budgets_ok = true;

    // G1: a disabled span must cost one well-predicted branch — the
    // whole point of leaving VCGRA_TRACE_SPAN compiled into hot paths.
    // 15ns is deliberately generous (the real cost is ~1ns): the gate
    // catches an accidental clock read or allocation on the off path,
    // not scheduler jitter.
    {
      telemetry::Tracer::set_enabled(false);
      constexpr int kIters = 1 << 24;  // 16M spans
      common::WallTimer timer;
      for (int i = 0; i < kIters; ++i) {
        VCGRA_TRACE_SPAN("bench.noop");
        asm volatile("" ::: "memory");  // keep the guard from folding away
      }
      const double ns_per_span = timer.seconds() * 1e9 / kIters;
      std::printf("  disabled span: %.2f ns each over %d iterations\n",
                  ns_per_span, kIters);
      if (ns_per_span > 15.0) {
        std::printf("  FAIL: disabled span costs %.2f ns (> 15 ns budget — "
                    "something heavier than a branch is on the off path)\n",
                    ns_per_span);
        ok = false;
        span_budgets_ok = false;
      }
    }

    // G2: an enabled span (two clock reads + a ring record + a
    // histogram bucket) must stay within a fixed nanosecond budget.
    // This is the stable quantity behind the old "tracing keeps
    // >= 0.97x of disabled throughput" gate: a warm service job emits
    // a few dozen spans, so span cost is what actually decides the
    // throughput ratio — but the end-to-end ratio rides ~100us jobs
    // whose run-to-run noise modes exceed the few-percent budget, so
    // runs failed on machine weather, not regressions (the same flake
    // class gate [E] had). Gate the microbenchmark (deterministic,
    // catches an allocation/syscall/lock sneaking into the record
    // path); the end-to-end ratio is reported below, report-only.
    {
      telemetry::Tracer::set_enabled(true);
      constexpr int kIters = 1 << 20;  // 1M spans, wraps the ring
      common::WallTimer timer;
      for (int i = 0; i < kIters; ++i) {
        VCGRA_TRACE_SPAN("bench.noop");
        asm volatile("" ::: "memory");
      }
      const double ns_per_span = timer.seconds() * 1e9 / kIters;
      telemetry::Tracer::set_enabled(false);
      telemetry::Tracer::reset();
      std::printf("  enabled span: %.2f ns each over %d iterations\n",
                  ns_per_span, kIters);
      if (ns_per_span > 400.0) {
        std::printf("  FAIL: enabled span costs %.2f ns (> 400 ns budget — "
                    "something heavier than clocks + ring + histogram is "
                    "on the record path)\n",
                    ns_per_span);
        ok = false;
        span_budgets_ok = false;
      }
    }

    // G2b (report-only): end-to-end throughput with tracing on vs off,
    // interleaved at job granularity on one warm service so adjacent
    // off/on jobs share the same instantaneous machine state; the
    // median per-pair ratio is the fairest available estimate, printed
    // for the record.
    constexpr int kAttempts = 5;
    constexpr int kReps = 9;  // off/on job pairs per attempt
    const std::size_t stream = 1 << 14;
    const std::string triad_text =
        "input a; input b;\nparam alpha = 3.0;\n"
        "t = mul(b, alpha);\ny = add(a, t);\noutput y;\n";
    const auto triad_inputs = [&]() {
      std::map<std::string, std::vector<double>> inputs;
      for (const char* name : {"a", "b"}) {
        std::vector<double>& s = inputs[name];
        s.reserve(stream);
        for (std::size_t i = 0; i < stream; ++i) {
          s.push_back((static_cast<double>(i % 509) / 128.0 - 2.0) *
                      (name[0] == 'a' ? 1.0 : -0.75));
        }
      }
      return inputs;
    };
    std::vector<double> all_latencies;  // feeds the G3 histogram check
    const auto run_job = [&](runtime::OverlayService& service, bool traced) {
      telemetry::Tracer::set_enabled(traced);
      runtime::JobRequest request;
      request.kernel_text = triad_text;
      request.inputs = triad_inputs();
      return service.run(std::move(request)).latency_seconds;
    };
    std::vector<double> pair_ratios;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      runtime::ServiceOptions options;
      options.threads = 1;
      runtime::OverlayService service(options);
      run_job(service, false);  // warm the cache/plan/arena
      std::vector<double> attempt_ratios;
      for (int r = 0; r < kReps; ++r) {
        const bool off_first = r % 2 == 0;  // alternate within the pair too
        const double first = run_job(service, !off_first);
        const double second = run_job(service, off_first);
        const double off_latency = off_first ? first : second;
        const double on_latency = off_first ? second : first;
        all_latencies.push_back(off_latency);
        all_latencies.push_back(on_latency);
        attempt_ratios.push_back(on_latency > 0 ? off_latency / on_latency
                                                : 0.0);
      }
      std::printf("  attempt %d: median pair throughput ratio %.3fx over "
                  "%d off/on job pairs\n",
                  attempt + 1, runtime::percentile(attempt_ratios, 0.5),
                  kReps);
      pair_ratios.insert(pair_ratios.end(), attempt_ratios.begin(),
                         attempt_ratios.end());
    }
    telemetry::Tracer::set_enabled(false);
    telemetry::Tracer::reset();
    const double ratio = runtime::percentile(pair_ratios, 0.5);
    std::printf("  tracing-enabled throughput %.3fx of disabled "
                "(median of %d interleaved job pairs; report-only — the "
                "gated quantity is the span cost above)\n",
                ratio, kAttempts * kReps);
    if (span_budgets_ok) {
      std::printf("  PASS: enabled span within the 400 ns budget; disabled "
                  "span within 15 ns\n");
    }

    // G3: the histogram percentiles the service now reports must agree
    // with the exact sorted-sample percentile to within one bucket
    // (buckets are <= 6.25% wide).
    {
      telemetry::LatencyHistogram hist;
      for (const double latency : all_latencies) hist.record_seconds(latency);
      const double exact = runtime::percentile(all_latencies, 0.5);
      const double from_hist = hist.snapshot().percentile(0.5);
      const int exact_bucket = telemetry::LatencyHistogram::bucket_index(
          static_cast<std::uint64_t>(exact * 1e9));
      const int hist_bucket = telemetry::LatencyHistogram::bucket_index(
          static_cast<std::uint64_t>(from_hist * 1e9));
      std::printf("  histogram p50 %s vs exact p50 %s (bucket %d vs %d)\n",
                  common::human_seconds(from_hist).c_str(),
                  common::human_seconds(exact).c_str(), hist_bucket,
                  exact_bucket);
      if (std::abs(hist_bucket - exact_bucket) > 1) {
        std::printf("  FAIL: histogram p50 more than one bucket away from "
                    "the exact percentile\n");
        ok = false;
      }
    }
  }

  // --- H: fused multi-job batches — shared-structure many-small-jobs gate ------
  {
    std::printf("\n[H] Fused batches: waves of small same-config jobs, "
                "fused batches vs per-job plan execution\n");
    constexpr int kAttempts = 3;
    constexpr int kWaves = 5;  // measured waves per run (wave 0 warms)
    constexpr int kJobsPerWave = 64;
    // Short streams on purpose: the gate measures the per-job fixed
    // costs (lookup, acquire, plan fetch, span accounting) that fusion
    // amortizes, not the datapath — section [F] already gates that.
    const std::size_t stream = 4;
    const std::string fused_kernel = dot_kernel(kTaps, 5.0, 7);

    // One worker thread and a plugged pool per wave: every job queues
    // before the first drain, so the fused service gathers real batches
    // while the per-job service drains the identical backlog one at a
    // time. Ratio-only (median of per-attempt wave medians), bit-exact
    // hash against the interpreter service as the oracle.
    const auto make_service = [](std::size_t max_batch, bool use_plan) {
      runtime::ServiceOptions options;
      options.threads = 1;
      options.max_batch_jobs = max_batch;
      options.use_plan_executor = use_plan;
      return std::make_unique<runtime::OverlayService>(options);
    };
    // One wave on `service`: folds every result into `hash` and returns
    // the wave's wall time.
    const auto run_wave = [&](runtime::OverlayService& service,
                              std::uint64_t* hash, int* max_batch_seen) {
      std::promise<void> release;
      std::shared_future<void> gate(release.get_future());
      service.executor().submit_detached([gate]() { gate.wait(); });
      std::vector<std::future<runtime::JobResult>> futures;
      for (int j = 0; j < kJobsPerWave; ++j) {
        runtime::JobRequest request;
        request.kernel_text = fused_kernel;
        request.inputs = job_inputs(kTaps, stream, 0.25 * j, 7);
        futures.push_back(service.submit(std::move(request)));
      }
      common::WallTimer timer;
      release.set_value();
      for (auto& future : futures) {
        const runtime::JobResult result = future.get();
        if (max_batch_seen != nullptr) {
          *max_batch_seen = std::max(*max_batch_seen, result.batch_size);
        }
        *hash ^= result.run.cycles;
        *hash *= 0x100000001b3ULL;
        *hash ^= result.run.fp_ops;
        *hash *= 0x100000001b3ULL;
        *hash = fold_bits(*hash, result.run);
      }
      return timer.seconds();
    };
    constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ULL;

    struct Attempt {
      double per_job_median = 0;
      double fused_median = 0;
      double speedup() const {
        return fused_median > 0 ? per_job_median / fused_median : 0.0;
      }
    };
    std::vector<Attempt> attempts;
    bool bits_equal = true;
    bool batches_formed = true;
    bool arena_steady = true;
    std::uint64_t oracle_hash = kHashSeed;
    {
      const auto oracle = make_service(1, false);  // interpreter oracle
      for (int w = 0; w < kWaves + 1; ++w) run_wave(*oracle, &oracle_hash, nullptr);
    }
    // Each attempt keeps both plan services live and alternates their
    // waves, so a slow stretch of the host lands on both sides alike.
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      const auto per_job = make_service(1, true);
      const auto fused = make_service(16, true);
      std::uint64_t per_job_hash = kHashSeed;
      std::uint64_t fused_hash = kHashSeed;
      int max_batch_seen = 1;
      std::uint64_t fused_grows = 0;
      std::vector<double> per_job_waves, fused_waves;
      for (int w = 0; w < kWaves + 1; ++w) {  // wave 0 warms cache + arena
        const auto fused_wave = [&] {
          // Only the fused service runs here, so the global counter's
          // delta is its own arena growth.
          const std::uint64_t grows =
              telemetry::metrics().counter("exec.arena_grows").value();
          const double seconds = run_wave(*fused, &fused_hash, &max_batch_seen);
          if (w > 0) {
            fused_grows +=
                telemetry::metrics().counter("exec.arena_grows").value() - grows;
            fused_waves.push_back(seconds);
          }
        };
        if (w % 2 == 1) fused_wave();
        const double seconds = run_wave(*per_job, &per_job_hash, nullptr);
        if (w > 0) per_job_waves.push_back(seconds);
        if (w % 2 == 0) fused_wave();
      }
      Attempt measured;
      measured.per_job_median = runtime::percentile(per_job_waves, 0.5);
      measured.fused_median = runtime::percentile(fused_waves, 0.5);
      if (per_job_hash != oracle_hash || fused_hash != oracle_hash) {
        bits_equal = false;
      }
      if (max_batch_seen < 2) batches_formed = false;
      if (fused_grows != 0) arena_steady = false;
      attempts.push_back(measured);
      std::printf("  attempt %d: per-job wave %s  fused wave %s  speedup "
                  "%.1fx  (largest batch %d)\n",
                  attempt + 1,
                  common::human_seconds(measured.per_job_median).c_str(),
                  common::human_seconds(measured.fused_median).c_str(),
                  measured.speedup(), max_batch_seen);
    }

    std::vector<double> speedups;
    for (const Attempt& attempt : attempts) speedups.push_back(attempt.speedup());
    const double speedup = runtime::percentile(speedups, 0.5);
    if (!bits_equal) {
      std::printf("  FAIL: fused or per-job outputs differ from the "
                  "interpreter oracle\n");
      ok = false;
    }
    if (!batches_formed) {
      std::printf("  FAIL: no fused batch formed (batch_size never "
                  "exceeded 1)\n");
      ok = false;
    }
    if (!arena_steady) {
      std::printf("  FAIL: the executor arena grew during post-warm fused "
                  "waves\n");
      ok = false;
    }
    if (speedup < 2.0) {
      std::printf("  FAIL: median fused-batch speedup %.1fx below the 2x "
                  "target\n", speedup);
      ok = false;
    } else if (bits_equal && batches_formed && arena_steady) {
      std::printf("  PASS: fused batches run same-config job waves >= 2x "
                  "faster than per-job plans, bit-exact, no arena growth "
                  "(median of %d attempts: %.1fx)\n",
                  kAttempts, speedup);
    }
  }

  // --- I: kernel-graph pipelines — whole-DAG submit vs per-job DCS -------------
  {
    std::printf("\n[I] Kernel graphs: pinned pipeline graphs + sessions vs "
                "per-job DCS submit\n");
    constexpr int kAttempts = 3;
    constexpr int kRunsPerAttempt = 3;
    // A small frame on purpose: the gate measures the per-stage fixed
    // costs a pinned graph removes (queue round trips, per-job lookups,
    // per-frame admission, host glue between stages), not the pixel
    // datapath — which both engines share bit for bit.
    vision::FundusParams fparams;
    fparams.width = 8;
    fparams.height = 8;
    common::Rng rng(29);
    const vision::FundusImage fundus = vision::generate_fundus(fparams, rng);
    vision::PipelineParams params;
    params.denoise_size = 3;
    params.matched_size = 5;
    params.orientations = 3;
    params.texture_size = 5;
    const overlay::OverlayArch arch;

    // FNV over every stage image of the run: the two engines must agree
    // bit for bit (the graphs preserve the DCS association order).
    const auto fold_images = [](const vision::PipelineResult& result) {
      std::uint64_t hash = 0xcbf29ce484222325ULL;
      for (const auto* stage :
           {&result.stages.matched, &result.stages.textured}) {
        for (const float v : stage->data()) {
          std::uint32_t bits;
          std::memcpy(&bits, &v, sizeof bits);
          hash ^= bits;
          hash *= 0x100000001b3ULL;
        }
      }
      for (const float v : result.stages.segmented.data()) {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        hash ^= bits;
        hash *= 0x100000001b3ULL;
      }
      return hash;
    };

    // One warm run primes the cache; the measured runs are pure
    // steady-state service traffic. The graph path pins the pipeline up
    // front — PipelineGraphRunner admits the three bank graphs once
    // (the analog of the DCS warm run priming the service cache), so
    // every measured frame is session feeds only. Ratio-only, like
    // every gate here.
    const auto measure = [&](bool graph_path, std::uint64_t* hash_out,
                             std::uint64_t* arena_grows) {
      runtime::ServiceOptions options;
      options.threads = 1;
      runtime::OverlayService service(options);
      std::unique_ptr<vision::PipelineGraphRunner> runner;
      if (graph_path) {
        runner = std::make_unique<vision::PipelineGraphRunner>(params, arch,
                                                               service);
      }
      std::vector<double> run_seconds;
      std::uint64_t hash = 0;
      std::uint64_t grows_after_warm = 0;
      for (int r = 0; r < kRunsPerAttempt + 1; ++r) {  // run 0 warms
        common::WallTimer timer;
        const vision::PipelineResult result =
            graph_path ? runner->run(fundus.rgb, fundus.field_of_view)
                       : vision::run_pipeline_service_dcs(
                             fundus.rgb, fundus.field_of_view, params, arch,
                             service);
        const double seconds = timer.seconds();
        hash = fold_images(result);
        if (r == 0) {
          grows_after_warm =
              telemetry::metrics().counter("exec.arena_grows").value();
        } else {
          run_seconds.push_back(seconds);
        }
      }
      if (arena_grows != nullptr) {
        *arena_grows =
            telemetry::metrics().counter("exec.arena_grows").value() -
            grows_after_warm;
      }
      *hash_out = hash;
      return runtime::percentile(run_seconds, 0.5);
    };

    struct Attempt {
      double dcs_median = 0;
      double graph_median = 0;
      double speedup() const {
        return graph_median > 0 ? dcs_median / graph_median : 0.0;
      }
    };
    std::vector<Attempt> attempts;
    bool bits_equal = true;
    bool arena_steady = true;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      Attempt measured;
      std::uint64_t dcs_hash = 0;
      std::uint64_t graph_hash = 0;
      std::uint64_t graph_grows = 0;
      measured.dcs_median = measure(false, &dcs_hash, nullptr);
      measured.graph_median = measure(true, &graph_hash, &graph_grows);
      if (dcs_hash != graph_hash) bits_equal = false;
      if (graph_grows != 0) arena_steady = false;
      attempts.push_back(measured);
      std::printf("  attempt %d: per-job DCS %s  graph %s  speedup %.1fx\n",
                  attempt + 1,
                  common::human_seconds(measured.dcs_median).c_str(),
                  common::human_seconds(measured.graph_median).c_str(),
                  measured.speedup());
    }

    std::vector<double> speedups;
    for (const Attempt& attempt : attempts) speedups.push_back(attempt.speedup());
    const double speedup = runtime::percentile(speedups, 0.5);
    if (!bits_equal) {
      std::printf("  FAIL: graph pipeline images differ from the per-job DCS "
                  "engine\n");
      ok = false;
    }
    if (!arena_steady) {
      std::printf("  FAIL: the executor arena grew during post-warm graph "
                  "runs\n");
      ok = false;
    }
    if (speedup < 2.0) {
      std::printf("  FAIL: median graph-pipeline speedup %.1fx below the 2x "
                  "target\n", speedup);
      ok = false;
    } else if (bits_equal && arena_steady) {
      std::printf("  PASS: pinned graphs + streaming sessions run the vessel "
                  "pipeline >= 2x faster than per-job DCS, bit-exact, no "
                  "arena growth (median of %d attempts: %.1fx)\n",
                  kAttempts, speedup);
    }
  }

  // --- J: continuous-monitor overhead gate -------------------------------------
  {
    std::printf("\n[J] Continuous monitor: sampler + health tick cost and "
                "warm-service throughput with a 100 ms monitor\n");

    // J1 (gated): the cost of one monitor tick — registry snapshot,
    // window diff, series push, rule evaluation — on a warm service's own
    // monitor, over that service's registry plus the process registry
    // (which the gates above populated with exec.*, trace.*, store.* and
    // vision.* metrics). The service has served jobs, a graph and a
    // session first, so every name it records is populated. At the
    // production 100 ms interval the <= 1% throughput claim reduces to
    // "one tick costs <= 1 ms of one core"; the tick is deterministic, so
    // gate it directly instead of the weather-prone end-to-end ratio (the
    // gate [E]/[G] idiom).
    {
      runtime::ServiceOptions options;
      options.threads = 2;
      options.monitor_interval_seconds = 0.1;
      runtime::OverlayService service(options);
      const std::string text =
          "input a; input b;\nparam alpha = 3.0;\n"
          "t = mul(b, alpha);\ny = add(a, t);\noutput y;\n";
      std::map<std::string, std::vector<double>> streams;
      for (const char* name : {"a", "b"}) {
        for (int i = 0; i < 256; ++i) {
          streams[name].push_back(0.03125 * (i - 128));
        }
      }
      runtime::JobRequest job;
      job.kernel_text = text;
      job.inputs = streams;
      std::vector<std::future<runtime::JobResult>> wave;
      for (int i = 0; i < 16; ++i) wave.push_back(service.submit(job));
      for (auto& future : wave) future.get();
      service.run(job);
      runtime::GraphStage stage;
      stage.name = "triad";
      stage.kernel_text = text;
      stage.inputs = streams;
      stage.keep_output = true;
      runtime::GraphRequest graph;
      graph.stages.push_back(stage);
      service.run_graph(graph);
      runtime::SessionRequest session_request;
      session_request.kernel_text = text;
      service.open_session(session_request)->feed(streams);
      service.submit_task([] { return 0; }).get();

      telemetry::Monitor& monitor = *service.monitor();
      constexpr int kTicks = 200;
      // The gates above left degraded-looking history in the process
      // registry (deliberate arena growth, ring-wrapping span storms);
      // the resulting transition logs are expected, not bench output.
      const common::LogLevel saved_level = common::log_level();
      common::set_log_level(common::LogLevel::kError);
      monitor.tick_at(telemetry::trace_now_ns());  // baseline snapshot
      common::WallTimer timer;
      for (int i = 0; i < kTicks; ++i) {
        monitor.tick_at(telemetry::trace_now_ns());
      }
      const double us_per_tick = timer.seconds() * 1e6 / kTicks;
      common::set_log_level(saved_level);
      telemetry::MetricsSnapshot snap = service.metrics().snapshot();
      snap.merge(telemetry::metrics().snapshot());
      std::printf("  monitor tick: %.1f us each over %d ticks "
                  "(%zu metrics, %zu series)\n",
                  us_per_tick, kTicks,
                  snap.counters.size() + snap.gauges.size() +
                      snap.histograms.size(),
                  monitor.series().series().size());
      if (us_per_tick > 1000.0) {
        std::printf("  FAIL: a monitor tick costs %.1f us (> 1 ms budget = "
                    "1%% of the 100 ms interval on one core)\n",
                    us_per_tick);
        ok = false;
      } else {
        std::printf("  PASS: tick cost %.1f us <= 1 ms (1%% of the 100 ms "
                    "sampling interval)\n", us_per_tick);
      }
    }

    // J2 (report-only): end-to-end warm-service throughput with the
    // monitor on vs off, interleaved at job granularity across two warm
    // single-thread services so adjacent jobs share machine state; the
    // median per-pair ratio is printed for the record against the <= 1%
    // target. ~100 us jobs carry noise modes well past 1%, which is why
    // the gated quantity is J1.
    {
      constexpr int kAttempts = 3;
      constexpr int kReps = 9;
      const std::string triad_text =
          "input a; input b;\nparam alpha = 3.0;\n"
          "t = mul(b, alpha);\ny = add(a, t);\noutput y;\n";
      const auto triad_inputs = []() {
        std::map<std::string, std::vector<double>> inputs;
        for (const char* name : {"a", "b"}) {
          std::vector<double>& s = inputs[name];
          s.reserve(1 << 14);
          for (std::size_t i = 0; i < (1 << 14); ++i) {
            s.push_back((static_cast<double>(i % 509) / 128.0 - 2.0) *
                        (name[0] == 'a' ? 1.0 : -0.75));
          }
        }
        return inputs;
      };
      const auto run_job = [&](runtime::OverlayService& service) {
        runtime::JobRequest request;
        request.kernel_text = triad_text;
        request.inputs = triad_inputs();
        return service.run(std::move(request)).latency_seconds;
      };
      std::vector<double> pair_ratios;
      // The monitored services' first windows see the whole bench
      // lifetime as one delta and log the same expected transitions.
      const common::LogLevel saved_level = common::log_level();
      common::set_log_level(common::LogLevel::kError);
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        runtime::ServiceOptions plain_options;
        plain_options.threads = 1;
        runtime::OverlayService plain(plain_options);
        runtime::ServiceOptions monitored_options;
        monitored_options.threads = 1;
        monitored_options.monitor_interval_seconds = 0.1;
        runtime::OverlayService monitored(monitored_options);
        run_job(plain);      // warm both caches
        run_job(monitored);
        std::vector<double> attempt_ratios;
        for (int r = 0; r < kReps; ++r) {
          const bool plain_first = r % 2 == 0;
          const double first = run_job(plain_first ? plain : monitored);
          const double second = run_job(plain_first ? monitored : plain);
          const double off = plain_first ? first : second;
          const double on = plain_first ? second : first;
          attempt_ratios.push_back(on > 0 ? off / on : 0.0);
        }
        pair_ratios.insert(pair_ratios.end(), attempt_ratios.begin(),
                           attempt_ratios.end());
        std::printf("  attempt %d: median monitored/unmonitored throughput "
                    "ratio %.3fx over %d job pairs\n",
                    attempt + 1, runtime::percentile(attempt_ratios, 0.5),
                    kReps);
      }
      common::set_log_level(saved_level);
      std::printf("  monitored throughput %.3fx of unmonitored at a 100 ms "
                  "interval (median of %d interleaved pairs; target >= 0.99x; "
                  "report-only — the gated quantity is the tick cost above)\n",
                  runtime::percentile(pair_ratios, 0.5), kAttempts * kReps);
    }
  }

  std::printf("\n%s\n", ok ? "bench_runtime: PASS" : "bench_runtime: FAIL");
  return ok ? 0 : 1;
}
