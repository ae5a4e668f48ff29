// Persistent overlay library + warm start: build the library offline,
// serve online with zero place & route.
//
// Self-contained mode (no arguments): creates a scratch store, AOT-
// compiles a small kernel library into it (what `vcgra_overlayc` does
// from kernel files), then boots a warm-started OverlayService against
// the store and shows that every job — including a freshly "restarted"
// service — runs without a single tool-flow invocation.
//
// Deployment mode: pass a store directory (typically populated by
// `vcgra_overlayc --store DIR kernel.vk ...`) and, optionally, the same
// kernel files; the example then serves those kernels from the library:
//
//   ./build/tools/vcgra_overlayc --store /var/vcgra/store k1.vk k2.vk
//   ./build/examples/aot_warm_start /var/vcgra/store k1.vk k2.vk
//
// Observability flags (either mode):
//   --trace FILE   export a Chrome trace of the served jobs to FILE
//   --stats FILE   write the service + process metrics snapshot as JSON
//
// Exits non-zero if any served job re-ran place & route.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "vcgra/common/strings.hpp"
#include "vcgra/common/timer.hpp"
#include "vcgra/runtime/overlay_cache.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/store/overlay_store.hpp"
#include "vcgra/telemetry/health.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/dfg.hpp"

using namespace vcgra;

namespace {

/// The built-in demo library: dot trees of three widths plus a
/// streaming-MAC filter (all respecializable shapes).
std::vector<std::string> builtin_kernels() {
  std::vector<std::string> kernels;
  for (const int taps : {4, 6, 8}) {
    kernels.push_back(overlay::dot_tree_text(
        std::vector<double>(static_cast<std::size_t>(taps), 0.5)));
  }
  kernels.push_back("input x;\nparam c = 0.9;\ny = mac(x, c, 4);\noutput y;\n");
  return kernels;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read kernel file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  const overlay::OverlayArch arch;
  constexpr std::uint64_t kSeed = 1;

  std::string trace_path;
  std::string stats_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--trace" || arg == "--stats") && i + 1 < argc) {
      (arg == "--trace" ? trace_path : stats_path) = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: aot_warm_start [--trace FILE] [--stats FILE] "
                   "[store_dir [kernel.vk ...]]\n");
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  std::filesystem::path store_dir;
  bool scratch = false;
  std::vector<std::string> kernels;
  if (!positional.empty()) {
    store_dir = positional[0];
    for (std::size_t i = 1; i < positional.size(); ++i) {
      kernels.push_back(read_file(positional[i]));
    }
    if (kernels.empty()) kernels = builtin_kernels();
  } else {
    scratch = true;
    store_dir = std::filesystem::temp_directory_path() /
                common::strprintf("vcgra-aot-demo-%d", static_cast<int>(getpid()));
    kernels = builtin_kernels();
  }

  std::printf("== Persistent overlay library & warm start ==\n");
  std::printf("store: %s\n\n", store_dir.string().c_str());

  // --- Phase 1: build the library ahead of time ------------------------------
  // (This is exactly what `vcgra_overlayc --store DIR kernels...` does.)
  {
    store::OverlayStore library(store_dir);
    common::WallTimer timer;
    int compiled = 0;
    for (const std::string& text : kernels) {
      const overlay::ParsedKernel parsed = overlay::parse_kernel_symbolic(text);
      const std::string key =
          runtime::structure_key(parsed.structural_text, arch, kSeed);
      if (library.save(key,
                       overlay::compile_structure_canonical(parsed, arch, kSeed))) {
        ++compiled;
      }
    }
    std::printf("[AOT] %d/%zu kernels compiled into the library (%s); "
                "%zu records on disk\n",
                compiled, kernels.size(),
                common::human_seconds(timer.seconds()).c_str(),
                library.size());
  }

  // --- Phase 2: serve against the library, warm-started ----------------------
  bool ok = true;
  {
    runtime::ServiceOptions options;
    options.threads = 2;
    options.store_dir = store_dir.string();
    options.warm_start_structures = 64;  // preload the whole (small) library
    options.trace_path = trace_path;  // empty = tracer stays off
    // Continuous observability: sample the service's metrics every 50 ms
    // into time-series windows and evaluate the default service SLO
    // rules; the final window lands in the stats snapshot under
    // "monitor" so `vcgra_top` can render health + sparklines from it.
    if (!stats_path.empty()) options.monitor_interval_seconds = 0.05;
    common::WallTimer boot;
    runtime::OverlayService service(options);
    std::printf("\n[serve] warm-started service in %s: %llu structures "
                "preloaded\n",
                common::human_seconds(boot.seconds()).c_str(),
                static_cast<unsigned long long>(
                    service.stats().cache.disk_preloads));

    for (const std::string& text : kernels) {
      const overlay::ParsedKernel parsed = overlay::parse_kernel_symbolic(text);
      runtime::JobRequest request;
      request.kernel_text = text;
      request.seed = kSeed;
      for (const int input : parsed.dfg.inputs()) {
        std::vector<double> stream;
        for (int i = 0; i < 64; ++i) stream.push_back(0.0625 * (i - 32));
        request.inputs[parsed.dfg.nodes()[static_cast<std::size_t>(input)].name] =
            std::move(stream);
      }
      const runtime::JobResult result = service.run(std::move(request));
      const bool no_toolflow =
          result.structure_hit && result.compile_seconds == 0;
      std::printf("  job: %-11s place&route %s  (%s specialize, %s total)\n",
                  no_toolflow ? "warm" : "COLD",
                  no_toolflow ? "skipped" : "RAN",
                  common::human_seconds(result.specialize_seconds).c_str(),
                  common::human_seconds(result.latency_seconds).c_str());
      if (!result.stages.empty()) {
        std::printf("       stages:");
        for (const telemetry::StageTiming& stage : result.stages) {
          std::printf(" %s=%s", stage.name.c_str(),
                      common::human_seconds(stage.seconds).c_str());
        }
        std::printf("\n");
      }
      ok = ok && no_toolflow;
    }

    // Graph + streaming-session smoke: chain the first library kernel
    // into the last as one DAG (raw-bits edge), run it, then stream two
    // chunks through a pinned session. Both ride the same warm cache —
    // so they must stay tool-flow-free too — and they put graph.admit /
    // graph.run / session.feed spans in the exported trace and graph /
    // session counters in the stats snapshot.
    {
      const overlay::ParsedKernel front_parsed =
          overlay::parse_kernel_symbolic(kernels.front());
      const overlay::ParsedKernel back_parsed =
          overlay::parse_kernel_symbolic(kernels.back());
      const auto node_name = [](const overlay::ParsedKernel& parsed, int node) {
        return parsed.dfg.nodes()[static_cast<std::size_t>(node)].name;
      };
      runtime::GraphRequest graph_request;
      graph_request.arch = arch;
      runtime::GraphStage producer;
      producer.name = "producer";
      producer.kernel_text = kernels.front();
      producer.seed = kSeed;
      for (const int input : front_parsed.dfg.inputs()) {
        std::vector<double> stream;
        for (int i = 0; i < 64; ++i) stream.push_back(0.03125 * (i - 16));
        producer.inputs[node_name(front_parsed, input)] = std::move(stream);
      }
      runtime::GraphStage consumer;
      consumer.name = "consumer";
      consumer.kernel_text = kernels.back();
      consumer.seed = kSeed;
      consumer.keep_output = true;
      graph_request.stages = {std::move(producer), std::move(consumer)};
      graph_request.edges.push_back(
          {"producer", node_name(front_parsed, front_parsed.dfg.outputs().front()),
           "consumer", node_name(back_parsed, back_parsed.dfg.inputs().front())});
      const auto graph = service.admit_graph(graph_request);
      bool graph_warm = true;
      for (const auto& stage : graph->stages()) {
        graph_warm = graph_warm && stage.structure_hit;
      }
      const runtime::GraphResult run = service.run_graph(*graph);

      runtime::SessionRequest session_request;
      session_request.kernel_text = kernels.back();
      session_request.arch = arch;
      session_request.seed = kSeed;
      const auto session = service.open_session(session_request);
      for (int chunk = 0; chunk < 2; ++chunk) {
        std::map<std::string, std::vector<double>> feed;
        std::vector<double> stream;
        for (int i = 0; i < 32; ++i) stream.push_back(0.0625 * (i - 16));
        feed[node_name(back_parsed, back_parsed.dfg.inputs().front())] =
            std::move(stream);
        session->feed(feed);
      }
      std::printf("[serve] graph: %d stages, %d raw edge(s), place&route %s; "
                  "session: %llu chunks streamed\n",
                  run.stages, run.edges_raw,
                  graph_warm ? "skipped" : "RAN",
                  static_cast<unsigned long long>(session->chunks_fed()));
      ok = ok && graph_warm;
    }

    const runtime::CacheStats stats = service.stats().cache;
    std::printf("[serve] place & route runs this lifetime: %llu "
                "(disk hits %llu, preloads %llu)\n",
                static_cast<unsigned long long>(stats.structure_misses),
                static_cast<unsigned long long>(stats.disk_hits),
                static_cast<unsigned long long>(stats.disk_preloads));
    ok = ok && stats.structure_misses == 0;

    if (!stats_path.empty()) {
      // Service-exact percentiles plus the service's metric registry and
      // the process-wide one (exec.*, trace.*, store.*), one
      // machine-readable file (vcgra_stats pretty-prints/diffs it and
      // vcgra_top renders it). Close one last monitor window first so the
      // health verdict and series cover everything served above even when
      // the run finished inside a single sampling interval.
      std::string monitor_json = "null";
      if (telemetry::Monitor* monitor = service.monitor()) {
        monitor->tick_at(telemetry::trace_now_ns());
        monitor_json = monitor->to_json();
      }
      telemetry::MetricsSnapshot metrics = service.metrics().snapshot();
      metrics.merge(telemetry::metrics().snapshot());
      const std::string json =
          "{\"service\": " + service.stats().to_json() +
          ",\n\"process\": " + metrics.to_json() +
          ",\n\"monitor\": " + monitor_json + "}\n";
      std::ofstream out(stats_path);
      out << json;
      std::printf("[serve] stats snapshot written to %s (health: %s)\n",
                  stats_path.c_str(),
                  telemetry::to_string(service.health().overall));
    }
  }
  // The service destructor exports the Chrome trace on shutdown.
  if (!trace_path.empty()) {
    std::printf("[serve] trace written to %s (load in chrome://tracing)\n",
                trace_path.c_str());
  }

  if (scratch) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }
  std::printf("\naot_warm_start: %s\n", ok ? "PASS — the restarted service "
                                             "never ran the tool flow"
                                           : "FAIL — a job paid place & route");
  return ok ? 0 : 1;
}
