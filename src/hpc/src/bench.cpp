#include "vcgra/hpc/bench.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <stdexcept>
#include <utility>

#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/common/table.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/vcgra/dfg.hpp"

namespace vcgra::hpc {

using softfloat::FpFormat;
using softfloat::FpValue;

namespace {

/// Relative error with a unit floor in the denominator, so outputs near
/// zero (cancellation) are judged on absolute error instead of blowing up.
double rel_err(double got, double ref) {
  return std::fabs(got - ref) / std::max(std::fabs(ref), 1.0);
}

}  // namespace

HpcBench::HpcBench(HpcBenchOptions options)
    : options_(std::move(options)),
      service_(std::make_unique<runtime::OverlayService>(options_.service)) {}

double HpcBench::tolerance_for(int rounding_depth) const {
  return static_cast<double>(rounding_depth) *
         std::ldexp(4.0, -options_.arch.format.wf);
}

KernelReport HpcBench::run(const HpcKernel& kernel, std::uint64_t seed) {
  runtime::JobRequest request;
  request.kernel_text = kernel.kernel_text;
  request.arch = options_.arch;
  request.inputs = kernel.inputs;
  request.params = kernel.params;
  request.seed = seed;
  const runtime::JobResult result = service_->run(std::move(request));

  KernelReport report;
  report.name = kernel.name;
  report.samples =
      kernel.inputs.empty() ? 0 : kernel.inputs.begin()->second.size();
  report.cycles = result.run.cycles;
  report.sim_fp_ops = result.run.fp_ops;
  report.pipeline_depth = result.run.pipeline_depth;
  report.compile_seconds = result.compile_seconds;
  report.specialize_seconds = result.specialize_seconds;
  report.reconfig_seconds = result.reconfig_seconds;
  report.exec_seconds = result.exec_seconds;
  report.cache_hit = result.cache_hit;
  report.structure_hit = result.structure_hit;
  report.plan_executed = result.plan_executed;
  if (report.exec_seconds > 0) {
    report.elements_per_second =
        static_cast<double>(report.samples) / report.exec_seconds;
  }
  if (report.cycles > 0) {
    report.flop_per_cycle = static_cast<double>(kernel.useful_flops) /
                            static_cast<double>(report.cycles);
    report.fill_fraction = static_cast<double>(report.pipeline_depth) /
                           static_cast<double>(report.cycles);
  }
  // PEs actually occupied (cache hits still know their compile report).
  if (const auto compiled = service_->cache().peek(
          kernel.kernel_text, options_.arch, seed, kernel.params)) {
    report.pes_used = compiled->report.pes_used;
  }

  // Oracle 1: bit-exact against the softfloat reference.
  report.bit_exact = true;
  const FpStreams expected = kernel.ref_softfloat(options_.arch.format);
  for (const auto& [name, stream] : expected) {
    const auto it = result.run.outputs.find(name);
    if (it == result.run.outputs.end() || it->second.size() != stream.size()) {
      report.bit_exact = false;
      continue;
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (it->second[i].bits() != stream[i].bits()) {
        report.bit_exact = false;
        break;
      }
    }
  }

  // Oracle 2: within format tolerance of the double reference.
  report.tolerance = tolerance_for(kernel.rounding_depth);
  report.within_tolerance = true;
  for (const auto& [name, stream] : kernel.ref_double) {
    const auto it = result.run.outputs.find(name);
    if (it == result.run.outputs.end() || it->second.size() != stream.size()) {
      report.within_tolerance = false;
      continue;
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const double got = it->second[i].to_double();
      if (std::isnan(got)) {
        report.within_tolerance = false;
        continue;
      }
      report.max_rel_err = std::max(report.max_rel_err, rel_err(got, stream[i]));
    }
  }
  if (report.max_rel_err > report.tolerance) report.within_tolerance = false;
  return report;
}

std::vector<KernelReport> HpcBench::run_suite(std::size_t n, std::uint64_t seed) {
  std::vector<KernelReport> reports;
  for (const HpcKernel& kernel : standard_suite(n, seed)) {
    KernelReport report = run(kernel, seed);
    std::vector<double> seconds;
    for (int r = 0; r < kWarmReps; ++r) {
      const KernelReport warm = run(kernel, seed);
      report.bit_exact = report.bit_exact && warm.bit_exact;
      report.within_tolerance = report.within_tolerance && warm.within_tolerance;
      report.max_rel_err = std::max(report.max_rel_err, warm.max_rel_err);
      seconds.push_back(warm.exec_seconds);
    }
    std::sort(seconds.begin(), seconds.end());
    report.exec_seconds = seconds[seconds.size() / 2];
    report.elements_per_second =
        report.exec_seconds > 0
            ? static_cast<double>(report.samples) / report.exec_seconds
            : 0;
    reports.push_back(report);
  }
  return reports;
}

GemmReport HpcBench::run_gemm(int m, int n, int k, int tile_k,
                              std::uint64_t seed) {
  if (m <= 0 || n <= 0 || k <= 0 || tile_k <= 0) {
    throw std::invalid_argument("run_gemm: dimensions must be positive");
  }
  const int max_taps = (options_.arch.num_pes() + 1) / 2;
  if (tile_k > max_taps) {
    throw std::invalid_argument(common::strprintf(
        "run_gemm: tile_k=%d needs %d PEs but the %dx%d grid has %d", tile_k,
        2 * tile_k - 1, options_.arch.rows, options_.arch.cols,
        options_.arch.num_pes()));
  }
  common::Rng rng(seed ^ 0x9e88ULL);
  const auto random_value = [&]() { return 4.0 * rng.next_double() - 2.0; };
  std::vector<std::vector<double>> a(static_cast<std::size_t>(m),
                                     std::vector<double>(static_cast<std::size_t>(k)));
  std::vector<std::vector<double>> b(static_cast<std::size_t>(k),
                                     std::vector<double>(static_cast<std::size_t>(n)));
  for (auto& row : a) {
    for (double& value : row) value = random_value();
  }
  for (auto& row : b) {
    for (double& value : row) value = random_value();
  }

  GemmReport report;
  report.m = m;
  report.n = n;
  report.k = k;
  report.tile_k = tile_k;

  // One job per (output column, k-tile): the adder-tree kernel carries
  // the B-tile as coefficients and streams the matching A columns.
  struct TileJob {
    int column = 0;
    int tile = 0;
    std::future<runtime::JobResult> future;
    HpcKernel kernel;
  };
  std::vector<TileJob> jobs;
  for (int j = 0; j < n; ++j) {
    for (int k0 = 0, tile = 0; k0 < k; k0 += tile_k, ++tile) {
      const int k1 = std::min(k, k0 + tile_k);
      std::vector<double> coeffs;
      coeffs.reserve(static_cast<std::size_t>(k1 - k0));
      for (int kk = k0; kk < k1; ++kk) {
        coeffs.push_back(b[static_cast<std::size_t>(kk)][static_cast<std::size_t>(j)]);
      }
      std::vector<std::vector<double>> rows;
      rows.reserve(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i) {
        rows.emplace_back(a[static_cast<std::size_t>(i)].begin() + k0,
                          a[static_cast<std::size_t>(i)].begin() + k1);
      }
      TileJob job;
      job.column = j;
      job.tile = tile;
      job.kernel = make_gemv_tile(rows, coeffs,
                                  common::strprintf("gemm_c%d_t%d", j, tile));
      runtime::JobRequest request;
      request.kernel_text = job.kernel.kernel_text;
      request.arch = options_.arch;
      request.inputs = job.kernel.inputs;
      request.params = job.kernel.params;
      request.seed = seed;
      // Raw-bits job boundary: the tile fold below consumes u64
      // encodings directly, never round-tripping through doubles.
      request.raw_output = true;
      job.future = service_->submit(std::move(request));
      jobs.push_back(std::move(job));
    }
  }
  report.jobs = static_cast<int>(jobs.size());

  // Collect tile results and fold partial columns in tile order. The
  // fabric side folds raw bit columns through the batch adder (one
  // fp_add_n per tile); the reference side keeps the scalar FpValue
  // fold as the independent oracle — both accumulate in the same order.
  const FpFormat format = options_.arch.format;
  std::vector<std::vector<std::uint64_t>> c_bits(
      static_cast<std::size_t>(n),
      std::vector<std::uint64_t>(static_cast<std::size_t>(m), 0));
  std::vector<std::vector<FpValue>> c_ref(
      static_cast<std::size_t>(m),
      std::vector<FpValue>(static_cast<std::size_t>(n), FpValue::zero(format)));
  // Jobs were pushed in (column, tile) order, so iterating in order folds
  // tiles in ascending tile index per column.
  bool shape_ok = true;
  for (TileJob& job : jobs) {
    const runtime::JobResult result = job.future.get();
    report.cycles += result.run.cycles;
    report.compile_seconds += result.compile_seconds;
    report.reconfig_seconds += result.reconfig_seconds;
    if (result.cache_hit) ++report.cache_hits;
    if (result.structure_hit) ++report.structure_hits;
    if (result.batch_size > 1) ++report.batched_jobs;
    report.max_batch_size = std::max(report.max_batch_size, result.batch_size);

    const auto it = result.run.bit_outputs.find("y");
    if (it == result.run.bit_outputs.end() ||
        it->second.size() != static_cast<std::size_t>(m)) {
      shape_ok = false;
      continue;
    }
    std::vector<std::uint64_t>& column =
        c_bits[static_cast<std::size_t>(job.column)];
    if (job.tile == 0) {
      std::copy(it->second.begin(), it->second.end(), column.begin());
    } else {
      softfloat::fp_add_n(format, column.data(), it->second.data(),
                          column.data(), static_cast<std::size_t>(m));
    }
    const FpStreams ref = job.kernel.ref_softfloat(format);
    const std::vector<FpValue>& ref_y = ref.at("y");
    for (int i = 0; i < m; ++i) {
      auto& want = c_ref[static_cast<std::size_t>(i)][static_cast<std::size_t>(job.column)];
      const FpValue want_tile = ref_y[static_cast<std::size_t>(i)];
      want = job.tile == 0 ? want_tile : softfloat::fp_add(want, want_tile);
    }
  }

  report.bit_exact = shape_ok;
  for (int i = 0; i < m && report.bit_exact; ++i) {
    for (int j = 0; j < n; ++j) {
      if (c_bits[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] !=
          c_ref[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].bits()) {
        report.bit_exact = false;
        break;
      }
    }
  }

  report.tolerance = tolerance_for(k + k / tile_k + 2);
  report.within_tolerance = shape_ok;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double ref_value = 0;
      for (int kk = 0; kk < k; ++kk) {
        ref_value += a[static_cast<std::size_t>(i)][static_cast<std::size_t>(kk)] *
                     b[static_cast<std::size_t>(kk)][static_cast<std::size_t>(j)];
      }
      const double got =
          FpValue(format,
                  c_bits[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)])
              .to_double();
      if (std::isnan(got)) {
        report.within_tolerance = false;
        continue;
      }
      report.max_rel_err = std::max(report.max_rel_err, rel_err(got, ref_value));
    }
  }
  if (report.max_rel_err > report.tolerance) report.within_tolerance = false;
  if (report.cycles > 0) {
    report.flop_per_cycle = 2.0 * m * n * k / static_cast<double>(report.cycles);
  }
  return report;
}

GemmGraphReport HpcBench::run_gemm_graph(int m, int n, int k, int tile_k,
                                         std::uint64_t seed) {
  if (m <= 0 || n <= 0 || k <= 0 || tile_k <= 0) {
    throw std::invalid_argument("run_gemm_graph: dimensions must be positive");
  }
  const int max_taps = (options_.arch.num_pes() + 1) / 2;
  if (tile_k > max_taps) {
    throw std::invalid_argument(common::strprintf(
        "run_gemm_graph: tile_k=%d needs %d PEs but the %dx%d grid has %d",
        tile_k, 2 * tile_k - 1, options_.arch.rows, options_.arch.cols,
        options_.arch.num_pes()));
  }
  // Same instance as run_gemm at the same seed, so the two paths are
  // directly comparable.
  common::Rng rng(seed ^ 0x9e88ULL);
  const auto random_value = [&]() { return 4.0 * rng.next_double() - 2.0; };
  std::vector<std::vector<double>> a(static_cast<std::size_t>(m),
                                     std::vector<double>(static_cast<std::size_t>(k)));
  std::vector<std::vector<double>> b(static_cast<std::size_t>(k),
                                     std::vector<double>(static_cast<std::size_t>(n)));
  for (auto& row : a) {
    for (double& value : row) value = random_value();
  }
  for (auto& row : b) {
    for (double& value : row) value = random_value();
  }

  GemmGraphReport report;
  report.m = m;
  report.n = n;
  report.k = k;
  report.tile_k = tile_k;

  // One stage per (column, k-tile) plus per-column chain-add fold
  // stages: the graph edges replace run_gemm's host fp_add_n fold while
  // preserving its left-associative tile order.
  runtime::GraphRequest request;
  request.arch = options_.arch;
  struct TileRef {
    int column = 0;
    int tile = 0;
    HpcKernel kernel;
  };
  std::vector<TileRef> tiles;
  std::vector<std::string> finals(static_cast<std::size_t>(n));
  const int fan_in = std::max(2, (options_.arch.num_pes() + 1) / 2);
  for (int j = 0; j < n; ++j) {
    std::vector<std::string> pending;
    for (int k0 = 0, tile = 0; k0 < k; k0 += tile_k, ++tile) {
      const int k1 = std::min(k, k0 + tile_k);
      std::vector<double> coeffs;
      coeffs.reserve(static_cast<std::size_t>(k1 - k0));
      for (int kk = k0; kk < k1; ++kk) {
        coeffs.push_back(b[static_cast<std::size_t>(kk)][static_cast<std::size_t>(j)]);
      }
      std::vector<std::vector<double>> rows;
      rows.reserve(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i) {
        rows.emplace_back(a[static_cast<std::size_t>(i)].begin() + k0,
                          a[static_cast<std::size_t>(i)].begin() + k1);
      }
      TileRef ref;
      ref.column = j;
      ref.tile = tile;
      ref.kernel = make_gemv_tile(rows, coeffs,
                                  common::strprintf("gemm_c%d_t%d", j, tile));
      runtime::GraphStage stage;
      stage.name = common::strprintf("c%d_t%d", j, tile);
      stage.kernel_text = ref.kernel.kernel_text;
      stage.params = ref.kernel.params;
      stage.inputs = ref.kernel.inputs;
      stage.seed = seed;
      pending.push_back(stage.name);
      request.stages.push_back(std::move(stage));
      tiles.push_back(std::move(ref));
    }
    int fold_idx = 0;
    while (pending.size() > 1) {
      const std::size_t take =
          std::min<std::size_t>(static_cast<std::size_t>(fan_in), pending.size());
      runtime::GraphStage fold;
      fold.name = common::strprintf("c%d_fold%d", j, fold_idx++);
      fold.kernel_text = overlay::chain_add_text(static_cast<int>(take));
      fold.seed = seed;
      for (std::size_t idx = 0; idx < take; ++idx) {
        request.edges.push_back({pending[idx], "y", fold.name,
                                 common::strprintf("x%zu", idx)});
      }
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(take));
      // The fold result leads the next round, keeping left association.
      pending.insert(pending.begin(), fold.name);
      request.stages.push_back(std::move(fold));
    }
    finals[static_cast<std::size_t>(j)] = pending.front();
  }
  for (runtime::GraphStage& stage : request.stages) {
    for (const std::string& name : finals) {
      if (stage.name == name) {
        stage.keep_output = true;
        break;
      }
    }
  }

  const std::shared_ptr<const runtime::KernelGraph> graph =
      service_->admit_graph(request);
  report.admit_seconds = graph->admit_seconds;
  report.stages = static_cast<int>(graph->stages().size());
  for (const auto& stage : graph->stages()) {
    if (stage.structure_hit) ++report.structure_hits;
    report.compile_seconds += stage.compile_seconds;
  }
  const runtime::GraphResult result = service_->run_graph(*graph);
  report.cycles = result.cycles;
  report.fused_groups = result.fused_groups;
  report.edges_raw = result.edges_raw;
  report.edges_converted = result.edges_converted;
  report.exec_seconds = result.exec_seconds;

  const FpFormat format = options_.arch.format;
  bool shape_ok = true;
  std::vector<std::vector<std::uint64_t>> c_bits(
      static_cast<std::size_t>(n),
      std::vector<std::uint64_t>(static_cast<std::size_t>(m), 0));
  for (int j = 0; j < n; ++j) {
    const auto it =
        result.bit_outputs.find(finals[static_cast<std::size_t>(j)] + ":y");
    if (it == result.bit_outputs.end() ||
        it->second.size() != static_cast<std::size_t>(m)) {
      shape_ok = false;
      continue;
    }
    std::copy(it->second.begin(), it->second.end(),
              c_bits[static_cast<std::size_t>(j)].begin());
  }

  // The independent oracle: the same per-tile FpValue reference fold
  // run_gemm checks against, accumulated in the same tile order.
  std::vector<std::vector<FpValue>> c_ref(
      static_cast<std::size_t>(m),
      std::vector<FpValue>(static_cast<std::size_t>(n), FpValue::zero(format)));
  for (const TileRef& tile : tiles) {
    const FpStreams ref = tile.kernel.ref_softfloat(format);
    const std::vector<FpValue>& ref_y = ref.at("y");
    for (int i = 0; i < m; ++i) {
      auto& want = c_ref[static_cast<std::size_t>(i)][static_cast<std::size_t>(tile.column)];
      const FpValue want_tile = ref_y[static_cast<std::size_t>(i)];
      want = tile.tile == 0 ? want_tile : softfloat::fp_add(want, want_tile);
    }
  }

  report.bit_exact = shape_ok;
  for (int i = 0; i < m && report.bit_exact; ++i) {
    for (int j = 0; j < n; ++j) {
      if (c_bits[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] !=
          c_ref[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].bits()) {
        report.bit_exact = false;
        break;
      }
    }
  }

  report.tolerance = tolerance_for(k + k / tile_k + 2);
  report.within_tolerance = shape_ok;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double ref_value = 0;
      for (int kk = 0; kk < k; ++kk) {
        ref_value += a[static_cast<std::size_t>(i)][static_cast<std::size_t>(kk)] *
                     b[static_cast<std::size_t>(kk)][static_cast<std::size_t>(j)];
      }
      const double got =
          FpValue(format,
                  c_bits[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)])
              .to_double();
      if (std::isnan(got)) {
        report.within_tolerance = false;
        continue;
      }
      report.max_rel_err = std::max(report.max_rel_err, rel_err(got, ref_value));
    }
  }
  if (report.max_rel_err > report.tolerance) report.within_tolerance = false;
  if (report.cycles > 0) {
    report.flop_per_cycle = 2.0 * m * n * k / static_cast<double>(report.cycles);
  }
  return report;
}

std::string HpcBench::report_table(const std::vector<KernelReport>& reports) {
  common::AsciiTable table({"Kernel", "n", "PEs", "Cycles", "FLOP/cycle", "Fill",
                            "Melem/s", "Compile", "Reconfig", "Bit-exact",
                            "RelErr(max)"});
  for (const KernelReport& report : reports) {
    table.add_row({report.name, common::strprintf("%zu", report.samples),
                   common::strprintf("%d", report.pes_used),
                   common::strprintf("%llu",
                                     static_cast<unsigned long long>(report.cycles)),
                   common::strprintf("%.3f", report.flop_per_cycle),
                   common::strprintf("%.1f%%", 100.0 * report.fill_fraction),
                   common::strprintf("%.2f", report.elements_per_second / 1e6),
                   common::human_seconds(report.compile_seconds),
                   common::human_seconds(report.reconfig_seconds),
                   report.bit_exact ? "yes" : "NO",
                   common::strprintf("%.3g", report.max_rel_err)});
  }
  return table.render();
}

}  // namespace vcgra::hpc
