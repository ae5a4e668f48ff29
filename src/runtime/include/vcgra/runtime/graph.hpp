// Kernel graphs & streaming sessions — zero-decode DAG execution.
//
// The paper's overlay is a persistent streaming pipeline, but the base
// service API is one-shot request/response: a composed workload (the
// vision vessel pipeline, tiled GEMM) pays a full submit -> queue ->
// cache-lookup -> plan-fetch -> execute round trip per stage plus host
// glue between stages. A KernelGraph removes all of that fixed cost:
//
//   * clients declare producer -> consumer edges between named stages
//     and admit the whole DAG once; admission parses, compiles (through
//     the service cache), fetches every stage's execution plan, and
//     resolves every input stream to its plan buffer index — so an
//     invocation never touches a name, a parser or the job queue;
//   * interior edges carry raw u64 encodings end to end: a producer
//     stage's bit outputs are MOVED into the consumer's input view with
//     zero decode (and zero copy when formats match; a format-mismatch
//     edge pays one SIMD convert hop, mirroring a PE-boundary format
//     bridge);
//   * independent ready stages that share a configuration key execute
//     as ONE fused executor call (the batch path), so a bank of
//     same-shape stages still amortizes its fixed per-stage cost.
//
// A Session is the streaming complement: it pins one specialization (or
// a whole graph) and carries the ExecPlan's MAC/decimation state across
// feed(chunk) calls — an unbounded stream costs pure datapath per chunk,
// and the chunking is unobservable (bit-identical outputs and counters
// vs one-shot execution; enforced by test_graph's differential).
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vcgra/runtime/overlay_cache.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/exec_plan.hpp"

namespace vcgra::runtime {

class OverlayService;

/// One node of a graph request: a job minus the queue — kernel text,
/// coefficient overrides, placer seed and the stage's EXTERNAL input
/// streams. Streams arriving over graph edges are declared in
/// GraphRequest::edges instead and must not also appear here.
struct GraphStage {
  std::string name;  // unique within the graph; edge endpoint handle
  std::string kernel_text;
  overlay::ParamBinding params;
  std::uint64_t seed = 1;
  std::map<std::string, std::vector<double>> inputs;
  std::map<std::string, std::vector<std::uint64_t>> input_bits;
  /// Include this stage's output streams (raw u64 encodings, real
  /// names) in GraphResult::bit_outputs. Interior stages default to
  /// edge-only delivery with no boundary materialization.
  bool keep_output = false;
  /// Per-stage fabric override; unset (rows == 0) inherits
  /// GraphRequest::arch. An edge between stages of different FP formats
  /// becomes a format-convert hop (counted in edges_converted).
  static overlay::OverlayArch unset_arch() {
    overlay::OverlayArch arch;
    arch.rows = 0;
    arch.cols = 0;
    return arch;
  }
  overlay::OverlayArch arch = unset_arch();
};

/// A producer->consumer stream binding: the producer stage's named
/// output feeds the consumer stage's named input, as raw bits.
struct GraphEdge {
  std::string producer;  // stage name
  std::string output;    // producer's output stream (real name)
  std::string consumer;  // stage name
  std::string input;     // consumer's input stream (real name)
};

struct GraphRequest {
  overlay::OverlayArch arch;  // default fabric for every stage
  std::vector<GraphStage> stages;
  std::vector<GraphEdge> edges;
};

/// One graph invocation's outcome. Counters sum over the stages, so
/// they compare 1:1 against the per-job submit path's summed JobResults.
struct GraphResult {
  /// Raw output streams of every keep_output stage, keyed
  /// "stage:output" with the kernel's real stream names.
  std::map<std::string, std::vector<std::uint64_t>> bit_outputs;
  std::uint64_t cycles = 0;
  std::uint64_t fp_ops = 0;
  std::uint64_t mac_ops = 0;
  int stages = 0;
  int fused_groups = 0;    // executor calls that carried >= 2 stages
  int edges_raw = 0;       // interior edges delivered as raw bits
  int edges_converted = 0; // ... that paid a format-convert hop
  double exec_seconds = 0; // datapath time of the invocation
  /// Per-sweep timing decomposition of this invocation from its trace
  /// spans (the direct children of graph.run — "graph.stage" sweeps,
  /// aggregated in chronological order). Sweeps run sequentially on the
  /// invoking thread, so the durations sum to ~exec_seconds (minus wave
  /// bookkeeping) — the graph analogue of JobResult::stages.
  std::vector<telemetry::StageTiming> stage_timings;
};

/// An admitted graph: every stage parsed, compiled (through the service
/// cache), its execution plan fetched and its input streams resolved to
/// plan buffer indices — once. The handle is immutable and reusable:
/// run_graph() against it is pure datapath plus scheduler leases.
/// Build via OverlayService::admit_graph.
class KernelGraph {
 public:
  struct InputSlot {
    enum class Kind : std::uint8_t { kDoubles, kBits, kEdge };
    Kind kind = Kind::kDoubles;
    std::int32_t buffer = -1;  // plan buffer index (admission-resolved)
    /// External streams borrow the admitted stage spec's storage.
    const std::vector<double>* doubles = nullptr;
    const std::vector<std::uint64_t>* bits = nullptr;
    int edge = -1;  // GraphRequest::edges index for Kind::kEdge
  };
  struct Stage {
    GraphStage spec;
    overlay::OverlayArch arch;  // resolved (stage override or graph default)
    std::shared_ptr<const overlay::ParsedKernel> parsed;
    overlay::ParamBinding binding;
    CacheKeys keys;
    std::string config_key;
    std::shared_ptr<const overlay::Compiled> compiled;
    std::shared_ptr<const overlay::ExecPlan> plan;
    std::vector<InputSlot> slots;
    /// Real -> canonical names of the outputs consumed by edges or kept
    /// at the boundary (identity when names are already canonical).
    std::vector<std::pair<std::string, std::string>> kept_outputs;
    bool structure_hit = false;  // admission-time cache outcome
    double compile_seconds = 0;
    double specialize_seconds = 0;
  };
  struct Edge {
    int producer = -1;             // stage index
    int consumer = -1;
    std::string canonical_output;  // key into the producer's raw outputs
    std::string canonical_input;   // consumer's input stream, canonical name
    bool convert = false;          // producer/consumer formats differ
  };

  const std::vector<Stage>& stages() const { return stages_; }
  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<int>& topo_order() const { return topo_order_; }
  double admit_seconds = 0;

 private:
  friend class OverlayService;
  std::vector<Stage> stages_;
  std::vector<Edge> edges_;
  std::vector<int> topo_order_;  // stage indices, dependency-respecting
};

/// What a Session pins: one specialization, identified like a job but
/// with the streams left to feed().
struct SessionRequest {
  std::string kernel_text;
  overlay::OverlayArch arch;
  overlay::ParamBinding params;
  std::uint64_t seed = 1;
  /// feed() returns bit_outputs instead of FpValue streams.
  bool raw_output = false;
};

/// A long-lived streaming handle: the specialization's compiled
/// artifact, execution plan and MAC/decimation carry, pinned across
/// feed() calls. Chunking is unobservable — concatenated outputs and
/// the cumulative counters of the last chunk are bit-identical to a
/// one-shot run over the whole stream. Sessions execute inline on the
/// feeding thread (no queue, no scheduler lease): per-chunk cost is
/// pure datapath. A session may outlive the service that opened it:
/// feeding it afterwards throws std::logic_error, and destroying it is
/// safe. Feeding or destroying a session while its service is being
/// destroyed is a caller error.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feed one chunk of every input stream (double boundary).
  overlay::RunResult feed(
      const std::map<std::string, std::vector<double>>& chunk);
  /// Feed raw u64 encodings (the zero-decode chained-kernel boundary).
  overlay::RunResult feed_bits(
      const std::map<std::string, std::vector<std::uint64_t>>& chunk);

  const overlay::StreamCarry& carry() const { return carry_; }
  std::uint64_t chunks_fed() const { return chunks_; }

 private:
  friend class OverlayService;
  Session(OverlayService* service,
          std::shared_ptr<const overlay::ParsedKernel> parsed,
          std::shared_ptr<const overlay::ExecPlan> plan, bool raw);
  overlay::RunResult feed_impl(const overlay::BatchInputs& in);

  OverlayService* service_;
  std::weak_ptr<const bool> service_alive_;  // expires with the service
  std::shared_ptr<const overlay::ParsedKernel> parsed_;
  std::shared_ptr<const overlay::ExecPlan> plan_;
  overlay::StreamCarry carry_;
  bool raw_;
  std::uint64_t chunks_ = 0;
};

/// Streaming execution of a whole admitted graph: one StreamCarry per
/// stage, edges delivered chunk by chunk as raw bits. External inputs
/// come exclusively from feed() (the admitted spec's baked streams are
/// ignored in session mode); chunk streams are keyed stage -> input.
/// Outliving its service follows Session's rules.
class GraphSession {
 public:
  ~GraphSession();
  GraphSession(const GraphSession&) = delete;
  GraphSession& operator=(const GraphSession&) = delete;

  GraphResult feed(
      const std::map<std::string, std::map<std::string, std::vector<double>>>&
          chunk);

  std::uint64_t chunks_fed() const { return chunks_; }

 private:
  friend class OverlayService;
  GraphSession(OverlayService* service,
               std::shared_ptr<const KernelGraph> graph);

  OverlayService* service_;
  std::weak_ptr<const bool> service_alive_;  // expires with the service
  std::shared_ptr<const KernelGraph> graph_;
  std::vector<overlay::StreamCarry> carries_;  // one per stage
  std::uint64_t chunks_ = 0;
};

}  // namespace vcgra::runtime
