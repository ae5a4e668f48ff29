#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/simulator.hpp"
#include "vcgra/vision/filters.hpp"
#include "vcgra/vision/image.hpp"
#include "vcgra/vision/metrics.hpp"
#include "vcgra/vision/pipeline.hpp"
#include "vcgra/vision/pipeline_service.hpp"
#include "vcgra/vision/synthetic.hpp"

namespace vi = vcgra::vision;
namespace ov = vcgra::overlay;
namespace rt = vcgra::runtime;

TEST(Image, BasicAccessAndNormalize) {
  vi::Image image(4, 3, 0.5f);
  image.at(2, 1) = 1.5f;
  image.at(0, 0) = -0.5f;
  EXPECT_EQ(image.min_value(), -0.5f);
  EXPECT_EQ(image.max_value(), 1.5f);
  const vi::Image norm = image.normalized();
  EXPECT_FLOAT_EQ(norm.min_value(), 0.0f);
  EXPECT_FLOAT_EQ(norm.max_value(), 1.0f);
  // Border clamping.
  EXPECT_EQ(image.sample(-3, -3), image.at(0, 0));
  EXPECT_EQ(image.sample(100, 100), image.at(3, 2));
}

TEST(Image, PgmRoundTripHeader) {
  vi::Image image(8, 4, 0.25f);
  const std::string path = "/tmp/vcgra_test_image.pgm";
  image.write_pgm(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fscanf(f, "%2s", magic), 1);
  EXPECT_STREQ(magic, "P5");
  int w = 0, h = 0;
  ASSERT_EQ(std::fscanf(f, "%d %d", &w, &h), 2);
  EXPECT_EQ(w, 8);
  EXPECT_EQ(h, 4);
  std::fclose(f);
}

TEST(Filters, GaussianKernelNormalizedAndPeaked) {
  const vi::Kernel kernel = vi::gaussian_kernel(5, 1.0);
  const double sum =
      std::accumulate(kernel.weights.begin(), kernel.weights.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Centre is the max.
  for (const double w : kernel.weights) EXPECT_LE(w, kernel.at(2, 2) + 1e-12);
  EXPECT_THROW(vi::gaussian_kernel(4, 1.0), std::invalid_argument);
}

TEST(Filters, MatchedFilterIsZeroMeanOverSupport) {
  const vi::Kernel kernel = vi::matched_filter_kernel(15, 2.0, 9.0, 30.0);
  double sum = 0.0;
  for (const double w : kernel.weights) sum += w;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(Filters, MatchedFilterRespondsToOrientedValley) {
  // Vertical dark line in a bright field: the 90-degree matched filter
  // (vessel running along y) must respond stronger than the 0-degree one.
  vi::Image image(31, 31, 1.0f);
  for (int y = 0; y < 31; ++y) {
    for (int dx = -1; dx <= 1; ++dx) {
      image.at(15 + dx, y) = 0.3f;
    }
  }
  const vi::Kernel along = vi::matched_filter_kernel(15, 1.5, 9.0, 90.0);
  const vi::Kernel across = vi::matched_filter_kernel(15, 1.5, 9.0, 0.0);
  const vi::Image r_along = vi::convolve(image, along);
  const vi::Image r_across = vi::convolve(image, across);
  EXPECT_GT(r_along.at(15, 15), r_across.at(15, 15));
  EXPECT_GT(r_along.at(15, 15), 0.0f);  // valley detected
}

TEST(Filters, ConvolveIdentityKernel) {
  vi::Kernel identity;
  identity.size = 3;
  identity.weights.assign(9, 0.0);
  identity.at(1, 1) = 1.0;
  vcgra::common::Rng rng(1);
  vi::Image image(9, 7);
  for (auto& v : image.data()) v = static_cast<float>(rng.next_double());
  const vi::Image out = vi::convolve(image, identity);
  for (std::size_t i = 0; i < image.data().size(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], image.data()[i]);
  }
}

TEST(Filters, OverlayConvolutionMatchesSoftwareClosely) {
  vcgra::common::Rng rng(2);
  vi::Image image(24, 24);
  for (auto& v : image.data()) v = static_cast<float>(rng.next_double());
  const vi::Kernel kernel = vi::gaussian_kernel(5, 1.2);
  ov::OverlayArch arch;
  const vi::Image reference = vi::convolve(image, kernel);
  const vi::OverlayConvResult overlay = vi::convolve_overlay(image, kernel, arch);
  double max_err = 0.0;
  for (std::size_t i = 0; i < reference.data().size(); ++i) {
    max_err = std::max(max_err, std::fabs(static_cast<double>(
                                    reference.data()[i] - overlay.output.data()[i])));
  }
  // 26-bit mantissa: tiny rounding differences only.
  EXPECT_LT(max_err, 1e-5);
  EXPECT_EQ(overlay.macs, 24u * 24u * 25u);
  EXPECT_EQ(overlay.passes, (25 + arch.num_pes() - 1) / arch.num_pes());
  EXPECT_GT(overlay.cycles, 0u);
}

TEST(Filters, OverlayPassCountScalesWithKernel) {
  vi::Image image(8, 8, 0.5f);
  ov::OverlayArch arch;  // 16 PEs
  const auto small = vi::convolve_overlay(image, vi::gaussian_kernel(3, 1.0), arch);
  const auto large = vi::convolve_overlay(image, vi::gaussian_kernel(9, 2.0), arch);
  EXPECT_EQ(small.passes, 1);   // 9 taps on 16 PEs
  EXPECT_EQ(large.passes, 6);   // 81 taps -> 6 loads
  EXPECT_GT(large.cycles, small.cycles);
}

// --- Dynamic-Circuit-Specialization convolution -----------------------------

namespace {

/// Shifted tap stream exactly as convolve_overlay_dcs builds it.
std::vector<double> tap_stream(const vi::Image& image, int kernel_size,
                               int tap) {
  const int half = kernel_size / 2;
  const int kx = tap % kernel_size, ky = tap / kernel_size;
  std::vector<double> stream;
  stream.reserve(static_cast<std::size_t>(image.width()) *
                 static_cast<std::size_t>(image.height()));
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      stream.push_back(
          static_cast<double>(image.sample(x + kx - half, y + ky - half)));
    }
  }
  return stream;
}

vi::Image deterministic_image(int width, int height, std::uint64_t seed) {
  vcgra::common::Rng rng(seed);
  vi::Image image(width, height);
  for (auto& v : image.data()) v = static_cast<float>(rng.next_double());
  return image;
}

}  // namespace

// The DCS engine must match, bit for bit, a from-scratch compile of each
// specialized tap-group kernel — the acceptance criterion of the
// parameter-symbolic pipeline, stated at the vision layer.
TEST(DcsConvolution, BitExactVsFromScratchCompile) {
  const vi::Image image = deterministic_image(12, 10, 7);
  const vi::Kernel kernel = vi::gaussian_kernel(3, 0.8);  // 9 taps: groups 8+1
  const ov::OverlayArch arch;
  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);

  const vi::DcsConvResult conv =
      vi::convolve_overlay_dcs(image, kernel, arch, service);
  EXPECT_EQ(conv.jobs, 2);

  // From scratch: literal-coefficient kernels through compile_kernel (no
  // cache, no specialization), folded in the same group order.
  const int taps = kernel.taps();
  const int group_width = std::min(taps, (arch.num_pes() + 1) / 2);
  const std::size_t pixels = image.data().size();
  std::vector<vcgra::softfloat::FpValue> acc(
      pixels, vcgra::softfloat::FpValue::zero(arch.format));
  bool first = true;
  for (int base = 0; base < taps; base += group_width) {
    const int width = std::min(group_width, taps - base);
    std::vector<double> group_coeffs;
    std::map<std::string, std::vector<double>> inputs;
    for (int j = 0; j < width; ++j) {
      const int tap = base + j;
      group_coeffs.push_back(kernel.at(tap % kernel.size, tap / kernel.size));
      inputs[vcgra::common::strprintf("x%d", j)] =
          tap_stream(image, kernel.size, tap);
    }
    // Literal-coefficient text of the same tree shape; compile_kernel
    // runs the whole flow with no cache and no specialization.
    const std::string text = ov::dot_tree_text(group_coeffs);
    const ov::Simulator direct(ov::compile_kernel(text, arch, 1));
    const ov::RunResult run = direct.run_doubles(inputs);
    const auto& y = run.outputs.at("y");
    ASSERT_EQ(y.size(), pixels);
    for (std::size_t p = 0; p < pixels; ++p) {
      acc[p] = first ? y[p] : vcgra::softfloat::fp_add(acc[p], y[p]);
    }
    first = false;
  }
  for (std::size_t p = 0; p < pixels; ++p) {
    EXPECT_EQ(conv.output.data()[p], static_cast<float>(acc[p].to_double()))
        << "pixel " << p;
  }
}

// A bank of same-sized filters: after the first filter, every tap-group
// job is a pure coefficient respecialization of a resident structure —
// the "filter-coefficient updates respecialize in place" fast path.
TEST(DcsConvolution, FilterBankRespecializesInPlace) {
  const vi::Image image = deterministic_image(10, 8, 11);
  const std::vector<vi::Kernel> bank =
      vi::matched_filter_bank(5, 1.0, 3.0, 4);  // 4 x 25 taps: groups 8,8,8,1
  const ov::OverlayArch arch;
  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);

  for (std::size_t f = 0; f < bank.size(); ++f) {
    const vi::DcsConvResult conv =
        vi::convolve_overlay_dcs(image, bank[f], arch, service);
    EXPECT_EQ(conv.jobs, 4);
    if (f > 0) {
      // Structures resident: zero place & route for the whole filter.
      EXPECT_EQ(conv.structure_hits, conv.jobs) << "filter " << f;
      EXPECT_EQ(conv.compile_seconds, 0.0) << "filter " << f;
    }
  }
  // Two distinct tap-group shapes (8-wide tree, 1-wide pass) across the
  // whole bank: place & route ran exactly twice for 16 jobs.
  EXPECT_EQ(service.stats().cache.structure_misses, 2u);
}

// Satellite: the full vessel-segmentation pipeline re-routed through
// convolve_overlay_dcs — zero redundant place & route after the first
// filter of each tap-group width, deterministic across thread counts and
// cache states, and in close agreement with the sequential-MAC path.
TEST(DcsPipeline, ZeroRedundantPlaceRouteAndDeterministic) {
  vi::FundusParams fparams;
  fparams.width = 64;
  fparams.height = 64;
  vcgra::common::Rng rng(21);
  const vi::FundusImage fundus = vi::generate_fundus(fparams, rng);

  vi::PipelineParams params;  // small supports keep the test fast
  params.denoise_size = 3;
  params.matched_size = 5;
  params.orientations = 3;
  params.texture_size = 5;
  const ov::OverlayArch arch;

  rt::ServiceOptions options;
  options.threads = 4;
  rt::OverlayService service(options);
  vi::PipelineDcsStats dcs;
  const vi::PipelineResult result = vi::run_pipeline_service_dcs(
      fundus.rgb, fundus.field_of_view, params, arch, service, &dcs);

  // 3x3 taps tile as groups (8,1); 5x5 as (8,8,8,1): two distinct
  // tap-group widths across all 8 filters, so exactly two place & route
  // runs for the whole pipeline — everything else respecialized.
  EXPECT_GT(dcs.jobs, 8);
  EXPECT_EQ(service.stats().cache.structure_misses, 2u);
  EXPECT_EQ(dcs.structure_hits, dcs.jobs - 2);

  // A second frame on the warm service is pure respecialization-or-hit:
  // zero tool-flow seconds, bit-identical output.
  vi::PipelineDcsStats warm_dcs;
  const vi::PipelineResult warm = vi::run_pipeline_service_dcs(
      fundus.rgb, fundus.field_of_view, params, arch, service, &warm_dcs);
  EXPECT_EQ(warm_dcs.compile_seconds, 0.0);
  EXPECT_EQ(warm_dcs.structure_hits, warm_dcs.jobs);
  EXPECT_EQ(warm.stages.segmented.data(), result.stages.segmented.data());

  // Determinism across thread counts and a fresh cache.
  rt::ServiceOptions serial_options;
  serial_options.threads = 1;
  rt::OverlayService serial(serial_options);
  const vi::PipelineResult reference = vi::run_pipeline_service_dcs(
      fundus.rgb, fundus.field_of_view, params, arch, serial);
  EXPECT_EQ(reference.stages.textured.data(), result.stages.textured.data());
  EXPECT_EQ(reference.stages.segmented.data(), result.stages.segmented.data());

  // Cross-check against the sequential-MAC overlay engine: the
  // association order differs (adder tree vs streaming MAC), so demand
  // close agreement rather than bit equality — pixel masks may disagree
  // only on a small fraction near the threshold.
  const vi::PipelineResult mac_path = vi::run_pipeline_overlay(
      fundus.rgb, fundus.field_of_view, params, arch);
  const auto& a = mac_path.stages.segmented.data();
  const auto& b = result.stages.segmented.data();
  ASSERT_EQ(a.size(), b.size());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < a.size(); ++i) agree += a[i] == b[i];
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(a.size()), 0.95);
}

TEST(Filters, ThresholdAndOtsu) {
  vi::Image image(16, 16, 0.2f);
  for (int y = 0; y < 16; ++y) {
    for (int x = 8; x < 16; ++x) image.at(x, y) = 0.8f;
  }
  const float level = vi::otsu_level(image);
  EXPECT_GT(level, 0.2f);
  EXPECT_LT(level, 0.8f);
  const vi::Mask mask = vi::threshold(image, level);
  for (int y = 0; y < 16; ++y) {
    EXPECT_EQ(mask.at(0, y), 0.0f);
    EXPECT_EQ(mask.at(15, y), 1.0f);
  }
}

TEST(Metrics, ConfusionCounts) {
  vi::Mask pred(2, 2), truth(2, 2), region(2, 2, 1.0f);
  pred.at(0, 0) = 1;
  truth.at(0, 0) = 1;  // TP
  pred.at(1, 0) = 1;
  truth.at(1, 0) = 0;  // FP
  pred.at(0, 1) = 0;
  truth.at(0, 1) = 1;  // FN
  // (1,1): TN
  const auto metrics = vi::evaluate_segmentation(pred, truth, region);
  EXPECT_EQ(metrics.true_positive, 1u);
  EXPECT_EQ(metrics.false_positive, 1u);
  EXPECT_EQ(metrics.false_negative, 1u);
  EXPECT_EQ(metrics.true_negative, 1u);
  EXPECT_NEAR(metrics.dice(), 2.0 / 4.0, 1e-9);
  EXPECT_NEAR(metrics.accuracy(), 0.5, 1e-9);
}

TEST(Metrics, RegionMaskExcludesPixels) {
  vi::Mask pred(2, 1, 1.0f), truth(2, 1, 0.0f), region(2, 1, 0.0f);
  region.at(0, 0) = 1.0f;
  const auto metrics = vi::evaluate_segmentation(pred, truth, region);
  EXPECT_EQ(metrics.false_positive, 1u);
  EXPECT_EQ(metrics.true_negative + metrics.true_positive + metrics.false_negative,
            0u);
}

TEST(Synthetic, GeneratesPlausibleFundus) {
  vcgra::common::Rng rng(7);
  vi::FundusParams params;
  params.width = 128;
  params.height = 128;
  const vi::FundusImage fundus = vi::generate_fundus(params, rng);
  // Field of view covers a sensible fraction.
  double fov = 0.0, vessels = 0.0;
  for (const float v : fundus.field_of_view.data()) fov += v;
  for (const float v : fundus.ground_truth.data()) vessels += v;
  const double total = 128.0 * 128.0;
  EXPECT_GT(fov / total, 0.4);
  EXPECT_LT(fov / total, 0.9);
  // Vessels occupy a few percent of the image.
  EXPECT_GT(vessels / total, 0.005);
  EXPECT_LT(vessels / total, 0.30);
  // Vessels are darker than their surroundings in the green channel.
  const vi::Image green = fundus.rgb.channel(1);
  double vessel_sum = 0, vessel_count = 0, bg_sum = 0, bg_count = 0;
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) {
      if (fundus.field_of_view.at(x, y) < 0.5f) continue;
      if (fundus.ground_truth.at(x, y) >= 0.5f) {
        vessel_sum += green.at(x, y);
        ++vessel_count;
      } else {
        bg_sum += green.at(x, y);
        ++bg_count;
      }
    }
  }
  ASSERT_GT(vessel_count, 0);
  ASSERT_GT(bg_count, 0);
  EXPECT_LT(vessel_sum / vessel_count, bg_sum / bg_count - 0.05);
}

TEST(Synthetic, DeterministicForSeed) {
  vi::FundusParams params;
  params.width = 64;
  params.height = 64;
  vcgra::common::Rng rng_a(42), rng_b(42);
  const auto a = vi::generate_fundus(params, rng_a);
  const auto b = vi::generate_fundus(params, rng_b);
  EXPECT_EQ(a.ground_truth.data(), b.ground_truth.data());
}

TEST(Pipeline, HistogramEqualizationSpreadsValues) {
  vi::Image image(32, 32, 0.0f);
  vi::Mask fov(32, 32, 1.0f);
  vcgra::common::Rng rng(3);
  for (auto& v : image.data()) {
    v = 0.4f + 0.1f * static_cast<float>(rng.next_double());  // compressed range
  }
  const vi::Image eq = vi::equalize_histogram(image, fov);
  EXPECT_GT(eq.max_value() - eq.min_value(), 0.8f);
}

TEST(Pipeline, EndToEndSegmentationBeatsGlobalThresholdBaseline) {
  vcgra::common::Rng rng(11);
  vi::FundusParams fparams;
  fparams.width = 160;
  fparams.height = 160;
  const vi::FundusImage fundus = vi::generate_fundus(fparams, rng);

  vi::PipelineParams params;
  const vi::PipelineResult result =
      vi::run_pipeline(fundus.rgb, fundus.field_of_view, params);
  const auto metrics = vi::evaluate_segmentation(
      result.stages.segmented, fundus.ground_truth, fundus.field_of_view);

  // Baseline: Otsu global threshold on the inverted green channel.
  const vi::Image green = fundus.rgb.channel(1);
  vi::Image inverted(green.width(), green.height());
  for (std::size_t i = 0; i < green.data().size(); ++i) {
    inverted.data()[i] = 1.0f - green.data()[i];
  }
  const vi::Mask baseline =
      vi::threshold(inverted, vi::otsu_level(inverted));
  const auto baseline_metrics = vi::evaluate_segmentation(
      baseline, fundus.ground_truth, fundus.field_of_view);

  EXPECT_GT(metrics.dice(), baseline_metrics.dice())
      << "pipeline " << metrics.to_string() << " vs baseline "
      << baseline_metrics.to_string();
  EXPECT_GT(metrics.dice(), 0.3) << metrics.to_string();
  EXPECT_GT(metrics.specificity(), 0.85) << metrics.to_string();
  EXPECT_EQ(result.cost.filters_applied, 1 + params.orientations + 4);
}

// Every engine runs the one Fig. 5 skeleton; pin each engine's stage
// images (FNV-1a over the float bytes) and cost accounting on one small
// fundus so a change to the skeleton or an engine's bank response cannot
// move a single bit unnoticed.
TEST(Pipeline, StageDigestsArePinned) {
  vi::FundusParams fparams;
  fparams.width = 32;
  fparams.height = 32;
  vcgra::common::Rng rng(17);
  const vi::FundusImage fundus = vi::generate_fundus(fparams, rng);
  vi::PipelineParams params;
  params.denoise_size = 3;
  params.matched_size = 5;
  params.orientations = 3;
  params.texture_size = 5;
  const ov::OverlayArch arch;

  const auto digest = [](const vi::Image& image) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const float v : image.data()) {
      std::uint32_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  };
  struct Pinned {
    std::array<std::uint64_t, 7> stages;  // StageImages field order
    std::uint64_t macs;
    std::uint64_t cycles;
    int reconfigurations;
  };
  const auto expect_pinned = [&](const char* engine,
                                 const vi::PipelineResult& result,
                                 const Pinned& pinned) {
    SCOPED_TRACE(engine);
    const vi::StageImages& s = result.stages;
    const std::array<std::uint64_t, 7> stages = {
        digest(s.green),   digest(s.equalized), digest(s.masked),
        digest(s.denoised), digest(s.matched),  digest(s.textured),
        digest(s.segmented)};
    for (std::size_t i = 0; i < stages.size(); ++i) {
      EXPECT_EQ(stages[i], pinned.stages[i]) << "stage " << i;
    }
    EXPECT_EQ(result.cost.macs, pinned.macs);
    EXPECT_EQ(result.cost.cycles, pinned.cycles);
    EXPECT_EQ(result.cost.reconfigurations, pinned.reconfigurations);
    EXPECT_EQ(result.cost.filters_applied, 1 + params.orientations + 4);
  };

  // The preprocessing and the final mask are shared by all three engines.
  expect_pinned("run_pipeline",
                vi::run_pipeline(fundus.rgb, fundus.field_of_view, params),
                {{0x874fa20ccbd1375bULL, 0x0db66d618e1bca31ULL,
                  0xc0f71b89cb4a3e73ULL, 0x9395a008de6ffb17ULL,
                  0x2533c4f521a58889ULL, 0xeba9e65c1ba9f15fULL,
                  0x7776bae7076ecea8ULL},
                 0, 0, 0});
  expect_pinned("run_pipeline_overlay",
                vi::run_pipeline_overlay(fundus.rgb, fundus.field_of_view,
                                         params, arch),
                {{0x874fa20ccbd1375bULL, 0x0db66d618e1bca31ULL,
                  0xc0f71b89cb4a3e73ULL, 0x9d064a3338aca69eULL,
                  0xc92379fb3511f5b0ULL, 0x8c1d64cab32b8eadULL,
                  0x7776bae7076ecea8ULL},
                 188416, 15600, 233});
  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);
  expect_pinned("run_pipeline_service_dcs",
                vi::run_pipeline_service_dcs(fundus.rgb, fundus.field_of_view,
                                             params, arch, service),
                {{0x874fa20ccbd1375bULL, 0x0db66d618e1bca31ULL,
                  0xc0f71b89cb4a3e73ULL, 0xb753853714a6ed9cULL,
                  0xb57d24d232314eb8ULL, 0xaec6158bfd3aa0f1ULL,
                  0x7776bae7076ecea8ULL},
                 346112, 31254, 2});
}

TEST(Pipeline, OverlayEngineTracksCosts) {
  vcgra::common::Rng rng(13);
  vi::FundusParams fparams;
  fparams.width = 64;
  fparams.height = 64;
  const vi::FundusImage fundus = vi::generate_fundus(fparams, rng);
  vi::PipelineParams params;
  params.matched_size = 9;
  params.texture_size = 9;
  ov::OverlayArch arch;
  const vi::PipelineResult result =
      vi::run_pipeline_overlay(fundus.rgb, fundus.field_of_view, params, arch);
  EXPECT_GT(result.cost.macs, 0u);
  EXPECT_GT(result.cost.cycles, 0u);
  EXPECT_GT(result.cost.reconfigurations, 0);
  // MAC count: pixels x taps summed over all filters.
  const std::uint64_t pixels = 64 * 64;
  const std::uint64_t expected =
      pixels * (static_cast<std::uint64_t>(params.denoise_size * params.denoise_size) +
                static_cast<std::uint64_t>(params.orientations) * 9 * 9 + 4 * 9 * 9);
  EXPECT_EQ(result.cost.macs, expected);
}
