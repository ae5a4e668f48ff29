#include "vcgra/vision/pipeline_service.hpp"

#include <algorithm>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <utility>
#include <vector>

#include "vcgra/common/strings.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vision/filters.hpp"

namespace vcgra::vision {

std::string dcs_tap_group_kernel(int taps) {
  if (taps <= 0) {
    throw std::invalid_argument("dcs_tap_group_kernel: taps must be positive");
  }
  // The shared emitter keeps the association order (the bit-exactness
  // contract) in one place across the hpc tiles and this engine.
  return overlay::dot_tree_text(std::vector<double>(static_cast<std::size_t>(taps), 0.0));
}

DcsConvResult convolve_overlay_dcs(const Image& input, const Kernel& kernel,
                                   const overlay::OverlayArch& arch,
                                   runtime::OverlayService& service,
                                   std::uint64_t seed) {
  if (kernel.size <= 0 || kernel.size % 2 == 0) {
    throw std::invalid_argument("convolve_overlay_dcs: kernel size must be odd");
  }
  DcsConvResult result;
  result.output = Image(input.width(), input.height());
  const int taps = kernel.taps();
  const int half = kernel.size / 2;
  // A W-tap dot tree occupies 2W-1 PEs.
  const int group_width = std::min(taps, (arch.num_pes() + 1) / 2);
  const std::size_t pixels = static_cast<std::size_t>(input.width()) *
                             static_cast<std::size_t>(input.height());

  // One service job per tap group: W shifted image streams in, the
  // group's partial responses out. The shape kernel is shared by every
  // group of the same width (and every same-sized filter the service has
  // seen), so after the first filter of a bank each job is a pure
  // coefficient respecialization.
  std::vector<std::future<runtime::JobResult>> futures;
  for (int base = 0; base < taps; base += group_width) {
    const int width = std::min(group_width, taps - base);
    runtime::JobRequest request;
    request.kernel_text = dcs_tap_group_kernel(width);
    request.arch = arch;
    request.seed = seed;
    for (int j = 0; j < width; ++j) {
      const int tap = base + j;
      const int kx = tap % kernel.size, ky = tap / kernel.size;
      request.params[common::strprintf("c%d", j)] = kernel.at(kx, ky);
      std::vector<double>& stream =
          request.inputs[common::strprintf("x%d", j)];
      stream.reserve(pixels);
      for (int y = 0; y < input.height(); ++y) {
        for (int x = 0; x < input.width(); ++x) {
          stream.push_back(static_cast<double>(
              input.sample(x + kx - half, y + ky - half)));
        }
      }
    }
    // Raw-bits job boundary: the fold below consumes u64 encodings
    // directly, so the service never materializes FpValue outputs.
    request.raw_output = true;
    futures.push_back(service.submit(std::move(request)));
  }

  // Fold the groups' partial responses in group order — on raw bit
  // buffers through the batch adder (bit-identical to the scalar fp_add
  // fold), with one batch decode pass at the image boundary.
  std::vector<std::uint64_t> acc(pixels, 0);
  bool first_group = true;
  for (auto& future : futures) {
    const runtime::JobResult job = future.get();
    ++result.jobs;
    if (job.structure_hit) ++result.structure_hits;
    result.compile_seconds += job.compile_seconds;
    result.specialize_seconds += job.specialize_seconds;
    result.cycles += job.run.cycles;
    result.fp_ops += job.run.fp_ops;
    const auto it = job.run.bit_outputs.find("y");
    if (it == job.run.bit_outputs.end() || it->second.size() != pixels) {
      throw std::runtime_error("convolve_overlay_dcs: malformed job output");
    }
    if (first_group) {
      std::copy(it->second.begin(), it->second.end(), acc.begin());
    } else {
      softfloat::fp_add_n(arch.format, acc.data(), it->second.data(),
                          acc.data(), pixels);
    }
    first_group = false;
  }
  std::vector<double> decoded(pixels);
  softfloat::fp_to_double_n(arch.format, acc.data(), decoded.data(), pixels);
  for (std::size_t p = 0; p < pixels; ++p) {
    result.output.data()[p] = static_cast<float>(decoded[p]);
  }
  return result;
}

namespace {

/// Append one filter's kernel-graph stages to `request`: the tap-group
/// stages of convolve_overlay_dcs plus a left-associative chain-add
/// reduction replacing the host fold, wired with raw-bits edges. Returns
/// the name of the stage producing the filter's response (output "y");
/// the caller decides whether to keep it at the boundary.
///
/// The stages carry no streams: frames arrive later through
/// GraphSession::feed, and `feeds` records which stage/input each tap
/// feeds plus its image shift, so the runner can build each frame's
/// streams exactly as convolve_overlay_dcs does.
std::string add_filter_graph_stages(
    runtime::GraphRequest& request, const Kernel& kernel,
    const overlay::OverlayArch& arch, const std::string& prefix,
    std::uint64_t seed, std::vector<PipelineGraphRunner::TapFeed>& feeds) {
  if (kernel.size <= 0 || kernel.size % 2 == 0) {
    throw std::invalid_argument(
        "PipelineGraphRunner: kernel size must be odd");
  }
  const int taps = kernel.taps();
  const int half = kernel.size / 2;
  const int group_width = std::min(taps, (arch.num_pes() + 1) / 2);

  // Tap-group stages: byte-identical kernel texts and params to the
  // per-job engine, so every structure (and on a warm service every
  // specialization) is shared with it.
  std::vector<std::string> pending;  // stages whose "y" still needs folding
  for (int base = 0; base < taps; base += group_width) {
    const int width = std::min(group_width, taps - base);
    runtime::GraphStage stage;
    stage.name = prefix + common::strprintf("g%d", base / group_width);
    stage.kernel_text = dcs_tap_group_kernel(width);
    stage.seed = seed;
    for (int j = 0; j < width; ++j) {
      const int tap = base + j;
      const int kx = tap % kernel.size, ky = tap / kernel.size;
      stage.params[common::strprintf("c%d", j)] = kernel.at(kx, ky);
      feeds.push_back({stage.name, common::strprintf("x%d", j), kx - half,
                       ky - half});
    }
    pending.push_back(stage.name);
    request.stages.push_back(std::move(stage));
  }

  // Reduction stages: fold the group responses left-associatively (group
  // order — the DCS host fold's association), chaining when the group
  // count exceeds the grid's add fan-in. A chained fold keeps the
  // running sum as the FIRST input of the next stage, preserving strict
  // left-association end to end.
  const int fan_in =
      std::max(2, (arch.num_pes() + 1) / 2);  // K-1 add PEs, routed like a tree
  int fold_index = 0;
  while (pending.size() > 1) {
    const int k = static_cast<int>(
        std::min<std::size_t>(pending.size(), static_cast<std::size_t>(fan_in)));
    runtime::GraphStage fold;
    fold.name = prefix + common::strprintf("fold%d", fold_index++);
    fold.kernel_text = overlay::chain_add_text(k);
    fold.seed = seed;
    for (int j = 0; j < k; ++j) {
      request.edges.push_back({pending[static_cast<std::size_t>(j)], "y",
                               fold.name, common::strprintf("x%d", j)});
    }
    pending.erase(pending.begin(), pending.begin() + k);
    pending.insert(pending.begin(), fold.name);
    request.stages.push_back(std::move(fold));
  }
  return pending.front();
}

/// Decode one kept graph output ("stage:y", length-checked) into `out`.
void decode_graph_response(const runtime::GraphResult& run,
                           const std::string& stage,
                           const overlay::OverlayArch& arch, Image& out) {
  const std::size_t pixels = static_cast<std::size_t>(out.width()) *
                             static_cast<std::size_t>(out.height());
  const auto it = run.bit_outputs.find(stage + ":y");
  if (it == run.bit_outputs.end() || it->second.size() != pixels) {
    throw std::runtime_error(
        "PipelineGraphRunner: malformed graph output for stage '" + stage +
        "'");
  }
  std::vector<double> decoded(pixels);
  softfloat::fp_to_double_n(arch.format, it->second.data(), decoded.data(),
                            pixels);
  for (std::size_t p = 0; p < pixels; ++p) {
    out.data()[p] = static_cast<float>(decoded[p]);
  }
}

/// The DCS engine's bank response: convolve every filter of a bank
/// through the tiled-respecialization engine and fuse in bank order.
/// Filters run sequentially here — each convolution already fans its tap
/// groups out over the executor pool — and order independence of the
/// accounting keeps the result bit-exact at any thread count.
Image bank_response_dcs(runtime::OverlayService& service, const Image& input,
                        const std::vector<Kernel>& bank,
                        const overlay::OverlayArch& arch, PipelineCost& cost,
                        PipelineDcsStats& dcs) {
  std::vector<Image> responses;
  responses.reserve(bank.size());
  telemetry::metrics().counter("vision.filters_submitted").add(bank.size());
  for (const Kernel& kernel : bank) {
    VCGRA_TRACE_SPAN("vision.filter");
    DcsConvResult conv = convolve_overlay_dcs(input, kernel, arch, service);
    cost.macs += conv.fp_ops;
    cost.cycles += conv.cycles;
    // Tool-flow runs are the reconfiguration currency of the DCS path:
    // every job that was not a structure hit placed & routed a grid.
    cost.reconfigurations += conv.jobs - conv.structure_hits;
    dcs.jobs += conv.jobs;
    dcs.structure_hits += conv.structure_hits;
    dcs.compile_seconds += conv.compile_seconds;
    dcs.specialize_seconds += conv.specialize_seconds;
    responses.push_back(std::move(conv.output));
  }
  return pixelwise_max(responses);
}

}  // namespace

PipelineResult run_pipeline_service_dcs(const RgbImage& input,
                                        const Mask& field_of_view,
                                        const PipelineParams& params,
                                        const overlay::OverlayArch& arch,
                                        runtime::OverlayService& service,
                                        PipelineDcsStats* dcs_stats) {
  // After the denoise filter placed & routed the tap-group shapes, every
  // later filter is pure coefficient respecialization.
  PipelineDcsStats dcs;
  PipelineResult result = run_pipeline_banks(
      input, field_of_view, params,
      [&](std::size_t, const std::vector<Kernel>& kernels, const Image& image,
          PipelineCost& cost) {
        return bank_response_dcs(service, image, kernels, arch, cost, dcs);
      });
  if (dcs_stats) *dcs_stats = dcs;
  return result;
}

PipelineGraphRunner::PipelineGraphRunner(const PipelineParams& params,
                                         const overlay::OverlayArch& arch,
                                         runtime::OverlayService& service,
                                         std::uint64_t seed)
    : service_(service), arch_(arch), params_(params) {
  const std::array<std::vector<Kernel>, 3> banks = pipeline_banks(params);
  for (std::size_t b = 0; b < banks.size(); ++b) {
    banks_[b] = admit_bank(banks[b], seed);
  }
}

PipelineGraphRunner::PinnedBank PipelineGraphRunner::admit_bank(
    const std::vector<Kernel>& bank, std::uint64_t seed) {
  runtime::GraphRequest request;
  request.arch = arch_;
  PinnedBank pinned;
  for (std::size_t f = 0; f < bank.size(); ++f) {
    pinned.finals.push_back(add_filter_graph_stages(
        request, bank[f], arch_, common::strprintf("f%zu_", f), seed,
        pinned.taps));
  }
  for (runtime::GraphStage& stage : request.stages) {
    if (std::find(pinned.finals.begin(), pinned.finals.end(), stage.name) !=
        pinned.finals.end()) {
      stage.keep_output = true;
    }
  }
  pinned.graph = service_.admit_graph(request);
  ++admitted_.graphs;
  admitted_.stages += static_cast<int>(pinned.graph->stages().size());
  for (const auto& stage : pinned.graph->stages()) {
    if (stage.structure_hit) ++admitted_.structure_hits;
    admitted_.compile_seconds += stage.compile_seconds;
    admitted_.specialize_seconds += stage.specialize_seconds;
  }
  return pinned;
}

Image PipelineGraphRunner::bank_response(const PinnedBank& bank,
                                         const Image& input,
                                         PipelineCost& cost,
                                         PipelineGraphStats& stats) {
  telemetry::metrics().counter("vision.filters_submitted").add(
      bank.finals.size());
  // The frame is one chunk: build each tap's shifted stream exactly as
  // convolve_overlay_dcs does, keyed stage -> input the way
  // GraphSession::feed binds external streams.
  std::map<std::string, std::map<std::string, std::vector<double>>> chunk;
  const std::size_t pixels = static_cast<std::size_t>(input.width()) *
                             static_cast<std::size_t>(input.height());
  for (const TapFeed& tap : bank.taps) {
    std::vector<double>& stream = chunk[tap.stage][tap.input];
    stream.reserve(pixels);
    for (int y = 0; y < input.height(); ++y) {
      for (int x = 0; x < input.width(); ++x) {
        stream.push_back(
            static_cast<double>(input.sample(x + tap.dx, y + tap.dy)));
      }
    }
  }

  // A fresh session per frame keeps the chunk counters frame-exact; the
  // stages are stateless (no MAC taps), so carry history is moot anyway.
  const auto session = service_.open_graph_session(bank.graph);
  const runtime::GraphResult run = session->feed(chunk);
  ++stats.graphs;
  stats.stages += run.stages;
  stats.edges_raw += run.edges_raw;
  stats.edges_converted += run.edges_converted;
  cost.macs += run.fp_ops;
  cost.cycles += run.cycles;

  std::vector<Image> responses;
  responses.reserve(bank.finals.size());
  for (const std::string& final_stage : bank.finals) {
    Image response(input.width(), input.height());
    decode_graph_response(run, final_stage, arch_, response);
    responses.push_back(std::move(response));
  }
  return pixelwise_max(responses);
}

PipelineResult PipelineGraphRunner::run(const RgbImage& input,
                                        const Mask& field_of_view,
                                        PipelineGraphStats* graph_stats) {
  PipelineGraphStats stats;
  PipelineResult result = run_pipeline_banks(
      input, field_of_view, params_,
      [&](std::size_t bank, const std::vector<Kernel>&, const Image& image,
          PipelineCost& cost) {
        return bank_response(banks_[bank], image, cost, stats);
      });
  if (graph_stats) *graph_stats = stats;
  return result;
}

}  // namespace vcgra::vision
