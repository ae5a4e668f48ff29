// HpcBench — runs the HPC kernel suite through the OverlayService.
//
// Each kernel is compiled by the service (cache + scheduler + executor
// pool), streamed through the cycle-level simulator, and validated two
// ways: bit-exact against its softfloat reference (the end-to-end
// correctness oracle for the compiler/place/route stack) and within a
// format-derived tolerance of its double-precision host reference. The
// report carries the paper-facing performance model: FLOP/cycle at
// initiation interval 1, pipeline-fill overhead, and the modeled fabric
// reconfiguration cost the runtime paid or avoided.
//
// run_gemm() composes the GEMV-tile kernel into a full tiled GEMM:
// C = A*B is decomposed per output column and per k-tile onto adder-tree
// dot kernels sized to the PE grid, all tiles submitted concurrently,
// and the partial columns accumulated on the host with the same FpValue
// arithmetic the references use.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/vcgra/arch.hpp"

namespace vcgra::hpc {

struct KernelReport {
  std::string name;
  std::size_t samples = 0;        // input stream length
  int pes_used = 0;
  std::uint64_t cycles = 0;       // pipelined schedule length
  std::uint64_t sim_fp_ops = 0;   // ops the simulator executed
  int pipeline_depth = 0;         // cycles to the first output
  double flop_per_cycle = 0;      // useful_flops / cycles
  double fill_fraction = 0;       // pipeline_depth / cycles
  double compile_seconds = 0;
  double specialize_seconds = 0;  // coefficient binding (the DCS fast path)
  double reconfig_seconds = 0;    // modeled fabric respecialization
  double exec_seconds = 0;
  /// Host-side streaming rate of the executor: input samples per wall
  /// second of simulator/executor time (the datapath throughput the
  /// plan-executor work optimizes; 0 when exec time was unmeasurably
  /// small).
  double elements_per_second = 0;
  bool cache_hit = false;
  bool structure_hit = false;     // place & route skipped for this kernel
  bool plan_executed = false;     // ran on the precompiled-plan datapath
  bool bit_exact = false;         // outputs == softfloat reference, bitwise
  double max_rel_err = 0;         // vs the double reference
  double tolerance = 0;
  bool within_tolerance = false;

  bool passed() const { return bit_exact && within_tolerance; }
};

struct GemmReport {
  int m = 0, n = 0, k = 0, tile_k = 0;
  int jobs = 0;                   // (column, k-tile) kernels submitted
  std::uint64_t cycles = 0;       // summed over all tile jobs
  double flop_per_cycle = 0;      // 2mnk / cycles
  double compile_seconds = 0;
  double reconfig_seconds = 0;
  std::uint64_t cache_hits = 0;      // tiles served fully from the overlay cache
  /// Tiles that skipped place & route (full hits plus respecializations).
  /// Tiles share one dot-tree shape per tap width, so after the first
  /// tile of each width this should be every remaining tile.
  std::uint64_t structure_hits = 0;
  /// Raw-bits batched-boundary accounting: tile jobs that rode a fused
  /// batch and the largest batch any tile landed in. All tiles use
  /// the u64 job boundary (raw_output), so the host fold never decodes.
  std::uint64_t batched_jobs = 0;
  int max_batch_size = 1;
  bool bit_exact = false;
  double max_rel_err = 0;
  double tolerance = 0;
  bool within_tolerance = false;

  bool passed() const { return bit_exact && within_tolerance; }
};

/// run_gemm_graph's outcome: the same tiled GEMM executed as ONE
/// KernelGraph per invocation — tile stages feed per-column chain-add
/// fold stages over raw-bits edges, replacing run_gemm's per-job
/// submits and host fp_add_n fold. The fold stages preserve run_gemm's
/// left-associative tile order, so bit_exact here (vs the same FpValue
/// reference run_gemm checks) implies the graph output is bit-identical
/// to the per-job path.
struct GemmGraphReport {
  int m = 0, n = 0, k = 0, tile_k = 0;
  int stages = 0;           // tile stages + fold stages in the DAG
  int fused_groups = 0;     // executor calls that carried >= 2 stages
  int edges_raw = 0;        // tile -> fold edges, raw u64 end to end
  int edges_converted = 0;  // format-convert hops (0: one format)
  int structure_hits = 0;   // admission compiles skipped
  std::uint64_t cycles = 0;
  double flop_per_cycle = 0;  // 2mnk / cycles
  double compile_seconds = 0;
  double admit_seconds = 0;   // one-time graph admission cost
  double exec_seconds = 0;    // pure-datapath invocation cost
  bool bit_exact = false;     // vs the FpValue tile-fold reference
  double max_rel_err = 0;
  double tolerance = 0;
  bool within_tolerance = false;

  bool passed() const { return bit_exact && within_tolerance; }
};

struct HpcBenchOptions {
  overlay::OverlayArch arch;        // grid + FP format under test
  runtime::ServiceOptions service;  // threads, cache, cost model, sim
};

class HpcBench {
 public:
  explicit HpcBench(HpcBenchOptions options = {});

  /// Compile + run one kernel through the service and validate it
  /// against both references.
  KernelReport run(const HpcKernel& kernel, std::uint64_t seed = 1);

  /// run_suite repeats each kernel this many times after its first
  /// (compiling) run; one job's exec time swings with the machine.
  static constexpr int kWarmReps = 9;

  /// The standard suite (kernels.hpp) at problem size n. A report's
  /// exec_seconds and elements_per_second come from the median of the
  /// kWarmReps warm runs; every run must validate for bit_exact and
  /// within_tolerance to hold.
  std::vector<KernelReport> run_suite(std::size_t n, std::uint64_t seed = 1);

  /// Tiled GEMM C[m x n] = A[m x k] * B[k x n]; each of the n output
  /// columns is decomposed into ceil(k / tile_k) adder-tree dot kernels
  /// (tile_k taps each, needing 2*tile_k - 1 PEs), submitted
  /// concurrently, with host-side FpValue accumulation across tiles.
  GemmReport run_gemm(int m, int n, int k, int tile_k, std::uint64_t seed = 1);

  /// The same tiled GEMM as a single KernelGraph: every (column, k-tile)
  /// dot kernel is a graph stage, each column's tiles feed a
  /// left-associative chain-add fold stage over raw-bits edges, and one
  /// run_graph() invocation replaces run_gemm's per-tile submits plus
  /// host fold. Bit-exact against the same FpValue reference as
  /// run_gemm (same association order), hence against run_gemm itself.
  GemmGraphReport run_gemm_graph(int m, int n, int k, int tile_k,
                                 std::uint64_t seed = 1);

  runtime::OverlayService& service() { return *service_; }
  const HpcBenchOptions& options() const { return options_; }

  /// Tolerance granted against the double reference: `rounding_depth`
  /// roundings at wf fraction bits, with 4x headroom.
  double tolerance_for(int rounding_depth) const;

  /// Render a suite's reports as the per-kernel metrics table.
  static std::string report_table(const std::vector<KernelReport>& reports);

 private:
  HpcBenchOptions options_;
  std::unique_ptr<runtime::OverlayService> service_;
};

}  // namespace vcgra::hpc
