// Service-backed Fig. 5 pipeline engines, the DCS way.
//
// Both engines here run pipeline.hpp's skeleton (run_pipeline_banks) and
// differ only in how a filter bank responds:
//   * run_pipeline_service_dcs tiles every filter's taps into dot-tree
//     jobs through the service (convolve_overlay_dcs), so the 12 hardware
//     filters (1 denoise + 7 matched orientations + 4 texture ridges)
//     place & route once per tap-group width and every later filter is a
//     coefficient respecialization;
//   * PipelineGraphRunner admits each bank as one pinned kernel graph
//     (the same tap groups plus fabric-side fold stages) and streams each
//     frame through GraphSessions.
//
// Determinism: both keep the DCS association order (adder tree, then a
// group-order fold) and fuse banks by pixelwise max in bank order, so
// they are bit-exact with each other at any thread count. The sequential
// run_pipeline_overlay streams a MAC per filter instead; its masks agree
// closely but not bit for bit.
#pragma once

#include "vcgra/runtime/service.hpp"
#include "vcgra/vision/pipeline.hpp"

namespace vcgra::vision {

/// The W-tap adder-tree kernel text convolve_overlay_dcs tiles a filter
/// onto (`param c0..cW-1`, defaults 0). Exposed so tests can compile the
/// specialized kernels from scratch and assert bit-exactness.
std::string dcs_tap_group_kernel(int taps);

/// Cost/result of one Dynamic-Circuit-Specialization convolution.
struct DcsConvResult {
  Image output;
  int jobs = 0;            // tap-group jobs submitted through the service
  int structure_hits = 0;  // ... that performed zero place & route work
  double compile_seconds = 0;     // structural tool-flow time paid
  double specialize_seconds = 0;  // coefficient-binding time paid
  std::uint64_t cycles = 0;   // summed pipelined schedule length of the jobs
  std::uint64_t fp_ops = 0;   // multiplies + adds the grid executed
};

/// Convolution through the real tool flow, the DCS way: the filter's taps
/// are tiled into dot-tree kernels sized to the grid, every tile shape is
/// compiled (placed & routed) at most once per service lifetime, and each
/// tile binds its coefficients via JobRequest::params — so convolving a
/// whole bank of same-sized filters respecializes one cached structure
/// per tap-group width instead of re-running the tool flow per filter.
///
/// Association order is the adder tree + group-order host accumulation,
/// so outputs are NOT comparable to convolve_overlay's sequential-MAC
/// ordering; they are bit-exact against a from-scratch compile of each
/// specialized tap-group kernel (asserted by test_vision).
DcsConvResult convolve_overlay_dcs(const Image& input, const Kernel& kernel,
                                   const overlay::OverlayArch& arch,
                                   runtime::OverlayService& service,
                                   std::uint64_t seed = 1);

/// Tool-flow accounting of a DCS pipeline run.
struct PipelineDcsStats {
  int jobs = 0;            // tap-group jobs over the whole pipeline
  int structure_hits = 0;  // ... that skipped place & route
  double compile_seconds = 0;
  double specialize_seconds = 0;
};

/// Full Fig. 5 pipeline with every hardware filter convolved through
/// convolve_overlay_dcs: the 12 filters tile onto shared dot-tree
/// structures per tap-group width, so the whole demo pipeline re-runs
/// *zero* place & route after the first filter of each width — every
/// later filter (and every later frame on a warm service) is a pure
/// coefficient respecialization. Deterministic: bit-identical at any
/// thread count and across cold/warm services (asserted by test_vision).
///
/// Association order is the DCS adder tree, so stages are close to — but
/// not bit-equal with — run_pipeline_overlay's sequential-MAC ordering;
/// examples/vessel_segmentation cross-checks the two paths.
PipelineResult run_pipeline_service_dcs(const RgbImage& input,
                                        const Mask& field_of_view,
                                        const PipelineParams& params,
                                        const overlay::OverlayArch& arch,
                                        runtime::OverlayService& service,
                                        PipelineDcsStats* dcs_stats = nullptr);

/// Graph accounting of a whole pipeline run.
struct PipelineGraphStats {
  int graphs = 0;           // kernel-graph invocations (one per filter bank)
  int stages = 0;           // graph stages across all invocations
  int structure_hits = 0;   // admission compiles skipped
  int edges_raw = 0;        // raw-bits interior edges delivered
  int edges_converted = 0;  // format-convert hops (0: one format throughout)
  double compile_seconds = 0;
  double specialize_seconds = 0;
};

/// The steady-state frame loop the streaming sessions exist for.
/// Construction admits each filter bank as ONE kernel graph — every
/// filter's tap groups plus its left-associative chain-add fold stages
/// (overlay::chain_add_text) over raw-bits edges — with no baked input
/// streams (the graphs are image-size independent; only the params are
/// bound at admission). run() then streams each frame through per-bank
/// GraphSessions, feeding the frame's shifted tap streams as one chunk.
/// Per-frame cost is host preprocessing plus pure graph datapath: no
/// parsing, no cache lookups, no admission, no job queue. The folds keep
/// the DCS engine's association order, so every stage image is bit-exact
/// with run_pipeline_service_dcs on every frame (asserted by test_graph);
/// bench_runtime gate [I] holds the speedup over the per-job DCS engine.
class PipelineGraphRunner {
 public:
  /// One external stream of a pinned bank graph: the tap-group stage
  /// and input it feeds, and the image shift of the tap it carries.
  struct TapFeed {
    std::string stage;
    std::string input;
    int dx = 0;
    int dy = 0;
  };

  PipelineGraphRunner(const PipelineParams& params,
                      const overlay::OverlayArch& arch,
                      runtime::OverlayService& service,
                      std::uint64_t seed = 1);

  /// Segment one frame. `graph_stats` reports this frame's invocation
  /// counters; admission accounting lives in admission_stats().
  PipelineResult run(const RgbImage& input, const Mask& field_of_view,
                     PipelineGraphStats* graph_stats = nullptr);

  /// Tool-flow cost paid once in the constructor (compiles, structure
  /// hits, admitted graphs/stages). Frames never add to it.
  const PipelineGraphStats& admission_stats() const { return admitted_; }

 private:
  struct PinnedBank {
    std::shared_ptr<const runtime::KernelGraph> graph;
    std::vector<TapFeed> taps;
    std::vector<std::string> finals;  // per-filter response stages, bank order
  };

  PinnedBank admit_bank(const std::vector<Kernel>& bank, std::uint64_t seed);
  Image bank_response(const PinnedBank& bank, const Image& input,
                      PipelineCost& cost, PipelineGraphStats& stats);

  runtime::OverlayService& service_;
  overlay::OverlayArch arch_;
  PipelineParams params_;
  PipelineGraphStats admitted_;
  std::array<PinnedBank, 3> banks_;  // pipeline_banks order
};

}  // namespace vcgra::vision
