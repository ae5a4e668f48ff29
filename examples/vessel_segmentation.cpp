// Fig. 5 end-to-end: retinal vessel segmentation on the VCGRA overlay,
// served through the runtime OverlayService — the Dynamic Circuit
// Specialization way.
//
// Generates a synthetic fundus image (clinical data substitute — see
// DESIGN.md), then runs the full pipeline with every hardware filter
// convolved through convolve_overlay_dcs: the 12 filters tile onto
// shared dot-tree structures per tap-group width, so the whole pipeline
// places & routes only once per width and every later filter is a
// microsecond coefficient respecialization. Writes every stage as a PGM
// image and prints quality metrics plus the service's runtime stats.
//
// Cross-checks: a 1-thread DCS rerun must be bit-identical (determinism
// is a contract, not luck), and the sequential-MAC overlay engine
// (run_pipeline_overlay) is run for comparison — associativity differs,
// so the masks are compared by agreement (>= 95 %) rather than demanded
// bit-equal. The exit status is non-zero unless both checks hold.
//
// Build & run:  ./build/examples/vessel_segmentation [output_dir]
#include <cstdio>
#include <string>

#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/common/timer.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/vcgra/arch.hpp"
#include "vcgra/vision/metrics.hpp"
#include "vcgra/vision/pipeline.hpp"
#include "vcgra/vision/pipeline_service.hpp"
#include "vcgra/vision/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace vcgra;
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  common::Rng rng(7);
  vision::FundusParams fparams;  // 256x256
  const vision::FundusImage fundus = vision::generate_fundus(fparams, rng);
  fundus.rgb.write_ppm(out_dir + "/fundus.ppm");
  fundus.ground_truth.write_pgm(out_dir + "/ground_truth.pgm");
  std::printf("Synthetic fundus written to %s/fundus.ppm\n", out_dir.c_str());

  overlay::OverlayArch arch;
  vision::PipelineParams params;

  runtime::OverlayService service;  // threads = hardware concurrency
  std::printf("Running the Fig. 5 pipeline on a %s via OverlayService/DCS (%d threads)...\n",
              arch.to_string().c_str(), service.executor().thread_count());
  common::WallTimer timer;
  vision::PipelineDcsStats dcs;
  const vision::PipelineResult result = vision::run_pipeline_service_dcs(
      fundus.rgb, fundus.field_of_view, params, arch, service, &dcs);
  const double concurrent_seconds = timer.seconds();

  result.stages.green.write_pgm(out_dir + "/stage1_green.pgm");
  result.stages.equalized.write_pgm(out_dir + "/stage2_equalized.pgm");
  result.stages.masked.write_pgm(out_dir + "/stage3_masked.pgm");
  result.stages.denoised.write_pgm(out_dir + "/stage4_denoised.pgm");
  result.stages.matched.normalized().write_pgm(out_dir + "/stage5_matched.pgm");
  result.stages.textured.normalized().write_pgm(out_dir + "/stage6_textured.pgm");
  result.stages.segmented.write_pgm(out_dir + "/stage7_segmented.pgm");
  std::printf("Stage images written to %s/stage*.pgm\n", out_dir.c_str());

  const auto metrics = vision::evaluate_segmentation(
      result.stages.segmented, fundus.ground_truth, fundus.field_of_view);
  std::printf("\nQuality vs ground truth: %s\n", metrics.to_string().c_str());
  std::printf("Workload: %s FP ops, %s overlay cycles\n",
              common::human_count(static_cast<double>(result.cost.macs)).c_str(),
              common::human_count(static_cast<double>(result.cost.cycles)).c_str());
  std::printf("Filters applied: %d (1 denoise + %d matched + 4 texture)\n",
              result.cost.filters_applied, params.orientations);
  std::printf(
      "DCS tool flow: %d tap-group jobs, %d structure hits -> %d place & "
      "route runs total (%s compiling, %s respecializing)\n",
      dcs.jobs, dcs.structure_hits, dcs.jobs - dcs.structure_hits,
      common::human_seconds(dcs.compile_seconds).c_str(),
      common::human_seconds(dcs.specialize_seconds).c_str());
  std::printf("\n%s\n", service.stats().to_string().c_str());

  // Cross-check 1: a 1-thread DCS service must produce the identical mask.
  runtime::ServiceOptions serial_options;
  serial_options.threads = 1;
  runtime::OverlayService serial(serial_options);
  timer.restart();
  const vision::PipelineResult reference = vision::run_pipeline_service_dcs(
      fundus.rgb, fundus.field_of_view, params, arch, serial);
  const double serial_seconds = timer.seconds();

  const bool identical =
      reference.stages.segmented.data() == result.stages.segmented.data();
  std::printf("1-thread DCS rerun: %s in %s (concurrent: %s, speedup %.2fx) — %s\n",
              identical ? "bit-identical" : "MISMATCH",
              common::human_seconds(serial_seconds).c_str(),
              common::human_seconds(concurrent_seconds).c_str(),
              serial_seconds / concurrent_seconds,
              identical ? "determinism holds" : "determinism BROKEN");

  // Cross-check 2: the sequential-MAC overlay engine. Different
  // association order (streaming MAC vs adder tree), so compare masks by
  // agreement.
  const vision::PipelineResult mac_path = vision::run_pipeline_overlay(
      fundus.rgb, fundus.field_of_view, params, arch);
  const auto& a = mac_path.stages.segmented.data();
  const auto& b = result.stages.segmented.data();
  std::size_t agree = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    agree += a[i] == b[i] ? 1u : 0u;
  }
  const double agreement =
      a.empty() ? 0.0
                : static_cast<double>(agree) / static_cast<double>(a.size());
  const bool close = agreement >= 0.95;
  std::printf("Sequential-MAC path agreement: %.2f%% of mask pixels — %s\n",
              100.0 * agreement,
              close ? "paths agree (association order aside)"
                    : "DIVERGED beyond rounding");
  return identical && close ? 0 : 1;
}
