// The Fig. 5 retinal-vessel-segmentation pipeline.
//
// Software tasks (preprocessing): green-channel extraction, histogram
// equalization, optic-disc and outer-region removal.
// Hardware modules (the filters the VCGRA accelerates): Gaussian denoise
// (5x5 / 9x9), steerable matched-filter bank (7 orientations), texture
// filtering, thresholding.
//
// Every engine runs one skeleton (run_pipeline_banks): the skeleton owns
// the preprocessing, the bank order and the threshold, and an engine only
// says how it responds to one filter bank. The overlay engine additionally
// returns the grid cost model (cycles, MACs, reconfigurations) used by
// bench_vessel.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "vcgra/vcgra/arch.hpp"
#include "vcgra/vision/filters.hpp"
#include "vcgra/vision/image.hpp"

namespace vcgra::vision {

struct PipelineParams {
  int denoise_size = 5;          // 5 or 9 in the paper
  double denoise_sigma = 1.0;
  int matched_size = 15;         // paper uses 16x16; odd support centres it
  double matched_sigma = 2.0;    // vessel cross-section sigma
  double matched_length = 9.0;   // matched segment length
  int orientations = 7;          // steerable directions
  int texture_size = 15;         // final texture filter support
  double texture_sigma = 2.5;
  double texture_length = 11.0;
  double threshold_quantile = 0.88;  // response quantile kept as vessel
};

struct StageImages {
  Image green;
  Image equalized;
  Image masked;       // optic disc + outer region removed
  Image denoised;
  Image matched;      // max over orientations
  Image textured;
  Mask segmented;
};

struct PipelineCost {
  std::uint64_t macs = 0;
  std::uint64_t cycles = 0;
  int reconfigurations = 0;  // PE respecializations over the whole pipeline
  int filters_applied = 0;
};

struct PipelineResult {
  StageImages stages;
  PipelineCost cost;
};

/// Histogram equalization over the field of view (preprocessing step).
Image equalize_histogram(const Image& input, const Mask& field_of_view);

/// Value at the given quantile of `image` restricted to `region`
/// (nth-element, no interpolation) — the threshold-selection primitive.
float quantile_level(const Image& image, const Mask& region, double quantile);

/// Remove optic disc (brightest blob) and the outer region: returns the
/// masked image and the valid-region mask actually used downstream.
Image remove_optic_disc_and_border(const Image& input, const Mask& field_of_view,
                                   Mask* valid_region);

/// The hardware filter banks in Fig. 5 order: the Gaussian denoise, the
/// matched-filter orientations, and the texture pass's four ridge kernels
/// (negated matched kernels). One construction for every engine, so their
/// banks are coefficient-identical by definition.
std::array<std::vector<Kernel>, 3> pipeline_banks(const PipelineParams& params);

/// An engine's response to filter bank `bank` (an index into
/// pipeline_banks, whose kernels are `kernels`) on `input`: the pixelwise
/// max over the bank's filters, in bank order. Adds the engine's macs,
/// cycles and reconfigurations to `cost`.
using BankResponder = std::function<Image(
    std::size_t bank, const std::vector<Kernel>& kernels, const Image& input,
    PipelineCost& cost)>;

/// The Fig. 5 skeleton every engine runs: the software preprocessing, the
/// three banks in order through `respond`, then the response-quantile
/// threshold over the valid region. Counts filters_applied.
PipelineResult run_pipeline_banks(const RgbImage& input, const Mask& field_of_view,
                                  const PipelineParams& params,
                                  const BankResponder& respond);

/// Full pipeline with the double-precision software engine.
PipelineResult run_pipeline(const RgbImage& input, const Mask& field_of_view,
                            const PipelineParams& params);

/// Full pipeline with the overlay (FloPoCo MAC) engine + cost model.
PipelineResult run_pipeline_overlay(const RgbImage& input, const Mask& field_of_view,
                                    const PipelineParams& params,
                                    const overlay::OverlayArch& arch);

}  // namespace vcgra::vision
