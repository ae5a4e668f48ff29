// Execution-plan layer: differential fuzz against the legacy
// interpreter, conversion/batch-kernel fuzz against the scalar
// softfloat oracle, arena reuse, plan caching, and the dual-edge hop
// regression.
//
// The contract under test (exec_plan.hpp): PlanExecutor is bit-identical
// to overlay::Simulator — outputs, cycles, fp_ops, mac_ops,
// pipeline_depth — for every DFG shape, FP format and grid size. The
// interpreter deliberately computes through the scalar FpValue
// arithmetic and FpValue::from_double, so these differential runs also
// cross-check the batch (and AVX-512) kernels against the original
// implementations rather than against themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/runtime/graph.hpp"
#include "vcgra/runtime/overlay_cache.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/softfloat/fpformat.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/exec_plan.hpp"
#include "vcgra/vcgra/simulator.hpp"

namespace ov = vcgra::overlay;
namespace sf = vcgra::softfloat;
using sf::FpFormat;
using sf::FpValue;

namespace {

/// Random DFG over mul/add/sub/pass plus terminal MAC reductions:
/// 1-3 inputs, 0-2 params, 3-12 streaming compute nodes wired to
/// arbitrary earlier value nodes (same-node operand pairs — the dual
/// routed edge case — and fan-out arise naturally). MAC nodes decimate,
/// so they are emitted as sinks only; every unconsumed node becomes an
/// output.
ov::Dfg random_dfg(std::uint64_t seed) {
  vcgra::common::Rng rng(seed);
  ov::Dfg dfg;
  std::vector<int> streams;
  std::vector<int> params;
  std::vector<int> macs;

  const int num_inputs = static_cast<int>(1 + rng.next_below(3));
  for (int i = 0; i < num_inputs; ++i) {
    streams.push_back(dfg.add_input(vcgra::common::strprintf("x%d", i)));
  }
  const int num_params = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < num_params; ++i) {
    params.push_back(dfg.add_param(vcgra::common::strprintf("c%d", i),
                                   8.0 * rng.next_double() - 4.0));
  }

  const auto pick_stream = [&]() {
    return streams[rng.next_below(streams.size())];
  };
  const int num_ops = static_cast<int>(3 + rng.next_below(10));
  for (int i = 0; i < num_ops; ++i) {
    const std::string name = vcgra::common::strprintf("n%d", i);
    const double roll = rng.next_double();
    int node;
    if (roll < 0.3) {
      const int a = pick_stream();
      if (!params.empty() && rng.next_bool(0.4)) {
        node = dfg.add_op(ov::OpKind::kMul, name,
                          {a, params[rng.next_below(params.size())]});
      } else {
        node = dfg.add_op(ov::OpKind::kMul, name, {a, pick_stream()});
      }
    } else if (roll < 0.55) {
      node = dfg.add_op(ov::OpKind::kAdd, name, {pick_stream(), pick_stream()});
    } else if (roll < 0.75) {
      node = dfg.add_op(ov::OpKind::kSub, name, {pick_stream(), pick_stream()});
    } else if (roll < 0.88 || params.empty()) {
      node = dfg.add_op(ov::OpKind::kPass, name, {pick_stream()});
    } else {
      // Decimating MAC: a sink (its output stream is shorter than its
      // input, so it must not feed an elementwise op).
      node = dfg.add_op(ov::OpKind::kMac, name,
                        {pick_stream(), params[rng.next_below(params.size())]},
                        static_cast<int>(2 + rng.next_below(5)));
      macs.push_back(node);
      continue;
    }
    streams.push_back(node);
  }

  std::vector<bool> consumed(dfg.nodes().size(), false);
  for (const auto& node : dfg.nodes()) {
    for (const int arg : node.args) consumed[static_cast<std::size_t>(arg)] = true;
  }
  int out = 0;
  for (std::size_t i = 0; i < dfg.nodes().size(); ++i) {
    const ov::OpKind kind = dfg.nodes()[i].kind;
    const bool compute = kind != ov::OpKind::kInput &&
                         kind != ov::OpKind::kParam && kind != ov::OpKind::kOutput;
    if (compute && !consumed[i]) {
      dfg.add_output(vcgra::common::strprintf("o%d", out++),
                     static_cast<int>(i));
    }
  }
  dfg.validate();
  return dfg;
}

/// Random operand over the full encoding space: normals across the whole
/// exponent range plus zeros, infinities and NaNs — the special-class
/// mix that drives every kernel through its special-class handling.
FpValue random_operand(FpFormat f, vcgra::common::Rng& rng) {
  const double roll = rng.next_double();
  if (roll < 0.06) return FpValue::zero(f, rng.next_bool());
  if (roll < 0.10) return FpValue::infinity(f, rng.next_bool());
  if (roll < 0.13) return FpValue::nan(f);
  return FpValue::from_fields(f, rng.next_bool(), rng() & f.exp_mask(),
                              rng() & f.frac_mask());
}

/// The non-canonical encodings, one per kind: a ±0 with fraction bits, an
/// inf with fraction bits, a NaN with a payload, a NaN with its sign set,
/// and an encoding with a bit set above the format width. The bits
/// kernels can return such a word (add_one passes an inf or a zero
/// operand through, a pass PE forwards anything), where a binary64 round
/// trip would give the canonical word of its class.
constexpr int kNonCanonicalKinds = 5;

std::uint64_t non_canonical(FpFormat f, int kind, vcgra::common::Rng& rng) {
  const int shift = f.we + f.wf;
  const std::uint64_t sign_bit = std::uint64_t{1} << shift;
  const std::uint64_t sign = rng.next_bool() ? sign_bit : 0;
  const std::uint64_t fraction = 1 + rng.next_below(f.frac_mask());
  switch (kind) {
    case 0: return sign | fraction;
    case 1: return FpValue::infinity(f).bits() | sign | fraction;
    case 2: return FpValue::nan(f).bits() | fraction;
    case 3: return FpValue::nan(f).bits() | sign_bit;
    default:
      return random_operand(f, rng).bits() |
             (std::uint64_t{1} << (shift + 3 + static_cast<int>(rng.next_below(
                                                    static_cast<std::uint64_t>(61 - shift)))));
  }
}

/// Tape sweeps the calling thread has run in each value domain.
struct Sweeps {
  std::uint64_t binary64 = 0;
  std::uint64_t bits = 0;
};

Sweeps sweeps() {
  const ov::ExecArena::Stats& stats = ov::PlanExecutor::thread_arena_stats();
  return {stats.binary64_sweeps, stats.bits_sweeps};
}

/// MAC input mix. Without `specials`: moderate normals only, so the
/// accumulators stay finite and the SIMD lanes keep to their fast path.
/// With it: sprinkled ±0, ±inf and NaN, near-maximum magnitudes whose
/// sums overflow to inf mid-window, and near-minimum magnitudes whose
/// products flush to zero.
std::uint64_t mac_operand(FpFormat f, vcgra::common::Rng& rng, bool specials) {
  const double roll = specials ? rng.next_double() : 1.0;
  const std::uint64_t frac = rng() & f.frac_mask();
  if (roll < 0.03) return FpValue::zero(f, rng.next_bool()).bits();
  if (roll < 0.05) return FpValue::infinity(f, rng.next_bool()).bits();
  if (roll < 0.07) return FpValue::nan(f).bits();
  if (roll < 0.12) {
    return FpValue::from_fields(f, rng.next_bool(),
                                f.exp_mask() - rng.next_below(2), frac)
        .bits();
  }
  if (roll < 0.17) {
    return FpValue::from_fields(f, rng.next_bool(), rng.next_below(2), frac)
        .bits();
  }
  const auto bias = static_cast<std::uint64_t>(f.bias());
  return FpValue::from_fields(f, rng.next_bool(), bias - 3 + rng.next_below(7),
                              frac)
      .bits();
}

/// The FpValue fp_mac chain over a whole stream, with the carried
/// (accumulator, fill, emitted-so-far) state after every sample, and
/// how often a finite step overflowed to inf or a nonzero sample's
/// product flushed to zero.
struct MacChain {
  std::vector<std::uint64_t> out;
  std::vector<std::uint64_t> acc{0};
  std::vector<std::uint32_t> fill{0};
  std::vector<std::size_t> emitted{0};
  std::size_t overflows = 0;
  std::size_t flushes = 0;
};

MacChain mac_chain(FpFormat format, const std::vector<std::uint64_t>& x,
                   std::uint64_t coeff, std::uint32_t count) {
  MacChain chain;
  const FpValue c(format, coeff);
  FpValue acc = FpValue::zero(format);
  std::uint32_t fill = 0;
  for (const std::uint64_t sample : x) {
    const FpValue value(format, sample);
    const FpValue product = sf::fp_mul(value, c);
    const bool finite = !acc.is_inf() && !acc.is_nan() && !product.is_inf() &&
                        !product.is_nan();
    chain.flushes += product.is_zero() && !value.is_zero();
    acc = sf::fp_mac(acc, value, c);
    chain.overflows += finite && acc.is_inf();
    if (++fill == count) {
      chain.out.push_back(acc.bits());
      acc = FpValue::zero(format);
      fill = 0;
    }
    chain.acc.push_back(acc.bits());
    chain.fill.push_back(fill);
    chain.emitted.push_back(chain.out.size());
  }
  return chain;
}

/// Encodings as binary64-domain values (exact for canonical encodings).
std::vector<double> decode_all(FpFormat f, const std::vector<std::uint64_t>& bits) {
  std::vector<double> out(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out[i] = sf::fp_decode_double(f, bits[i]);
  }
  return out;
}

/// Binary64-domain values back to encodings.
std::vector<std::uint64_t> pack_all(FpFormat f, const std::vector<double>& values) {
  std::vector<std::uint64_t> out(values.size());
  sf::fp_f64_pack_n(f, values.data(), out.data(), values.size());
  return out;
}

void expect_identical(const ov::RunResult& legacy, const ov::RunResult& plan) {
  EXPECT_EQ(legacy.cycles, plan.cycles);
  EXPECT_EQ(legacy.fp_ops, plan.fp_ops);
  EXPECT_EQ(legacy.mac_ops, plan.mac_ops);
  EXPECT_EQ(legacy.pipeline_depth, plan.pipeline_depth);
  ASSERT_EQ(legacy.outputs.size(), plan.outputs.size());
  for (const auto& [name, stream] : legacy.outputs) {
    const auto it = plan.outputs.find(name);
    ASSERT_NE(it, plan.outputs.end()) << "missing output " << name;
    ASSERT_EQ(it->second.size(), stream.size()) << "output " << name;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(it->second[i].bits(), stream[i].bits())
          << "output " << name << " sample " << i;
    }
  }
}

/// One differential case: compile once, run the interpreter and the plan
/// executor on identical specials-laden streams, demand bit identity.
void run_case(std::uint64_t seed, FpFormat format, int grid,
              std::size_t samples) {
  SCOPED_TRACE(vcgra::common::strprintf(
      "reproduce with: random_dfg(%llu), fp(%d,%d), %dx%d grid",
      static_cast<unsigned long long>(seed), format.we, format.wf, grid, grid));
  const ov::Dfg dfg = random_dfg(seed);

  ov::OverlayArch arch;
  arch.rows = grid;
  arch.cols = grid;
  arch.format = format;
  const ov::Compiled compiled = ov::compile(dfg, arch, seed);

  vcgra::common::Rng rng(seed ^ 0xd1a7ULL);
  std::map<std::string, std::vector<FpValue>> inputs;
  for (const int id : dfg.inputs()) {
    std::vector<FpValue>& stream =
        inputs[dfg.nodes()[static_cast<std::size_t>(id)].name];
    stream.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      stream.push_back(random_operand(format, rng));
    }
  }

  const ov::Simulator interpreter(compiled);
  const ov::RunResult legacy = interpreter.run(inputs);

  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
  // run() takes raw bits. Every random_operand is canonical, so the sweep
  // runs in the binary64 domain where the format and host allow it; one
  // non-canonical lane in any input sends the whole sweep to the bits
  // domain, and both stay bit-exact.
  const std::uint64_t binary64 = sf::fp_f64_lanes(format) ? 1 : 0;
  Sweeps before = sweeps();
  expect_identical(legacy, executor.run(inputs));
  EXPECT_EQ(sweeps().binary64 - before.binary64, binary64);
  EXPECT_EQ(sweeps().bits - before.bits, 1 - binary64);

  std::vector<FpValue>& stream =
      inputs.begin()->second;  // every input is seeded, used or not
  stream[rng.next_below(samples)] = FpValue(
      format, non_canonical(format, static_cast<int>(seed % kNonCanonicalKinds), rng));
  before = sweeps();
  expect_identical(interpreter.run(inputs), executor.run(inputs));
  EXPECT_EQ(sweeps().binary64 - before.binary64, 0u);
  EXPECT_EQ(sweeps().bits - before.bits, 1u);
}

std::map<std::string, std::vector<double>> double_streams(
    const std::vector<std::string>& names, std::size_t length, double phase) {
  std::map<std::string, std::vector<double>> inputs;
  int k = 0;
  for (const std::string& name : names) {
    std::vector<double>& s = inputs[name];
    s.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      s.push_back((static_cast<double>(i % 257) / 64.0 - 2.0) *
                  (k % 2 ? -0.75 : 1.0) + phase);
    }
    ++k;
  }
  return inputs;
}

/// Field-for-field plan equality: the whole tape (coefficients and their
/// provenance included), buffers, boundary, schedule and MAC slots.
void expect_same_plan(const ov::ExecPlan& got, const ov::ExecPlan& want) {
  EXPECT_TRUE(got.format == want.format);
  EXPECT_TRUE(got.sim == want.sim);
  ASSERT_EQ(got.tape.size(), want.tape.size());
  for (std::size_t i = 0; i < want.tape.size(); ++i) {
    EXPECT_EQ(got.tape[i].coeff_bits, want.tape[i].coeff_bits) << "op " << i;
    EXPECT_TRUE(got.tape[i] == want.tape[i]) << "op " << i;
  }
  EXPECT_EQ(got.num_buffers, want.num_buffers);
  EXPECT_EQ(got.num_mac_ops, want.num_mac_ops);
  EXPECT_EQ(got.input_buffer_by_name, want.input_buffer_by_name);
  EXPECT_TRUE(got.outputs == want.outputs);
  EXPECT_EQ(got.pipeline_depth, want.pipeline_depth);
}

/// One rebind case: lower the structure's default specialization, rebind
/// it to a sibling with fresh (specials-laden) coefficients, and demand
/// the cold lowering of the sibling field for field plus bit identity
/// with the interpreter on it.
void run_rebind_case(std::uint64_t seed, FpFormat format, int grid,
                     std::size_t samples) {
  SCOPED_TRACE(vcgra::common::strprintf(
      "reproduce with: random_dfg(%llu), fp(%d,%d), %dx%d grid, rebind",
      static_cast<unsigned long long>(seed), format.we, format.wf, grid, grid));
  const ov::Dfg dfg = random_dfg(seed);
  ov::OverlayArch arch;
  arch.rows = grid;
  arch.cols = grid;
  arch.format = format;
  const ov::CompiledStructure structure = ov::compile_structure(dfg, arch, seed);

  vcgra::common::Rng rng(seed ^ 0x4eb1dULL);
  ov::ParamBinding sibling_params;
  for (const auto& [name, value] : structure.defaults) {
    const double roll = rng.next_double();
    sibling_params[name] =
        roll < 0.1   ? -0.0
        : roll < 0.15 ? std::numeric_limits<double>::infinity()
        : roll < 0.2  ? std::numeric_limits<double>::quiet_NaN()
                      : 8.0 * rng.next_double() - 4.0;
  }
  const ov::Compiled base = ov::specialize(structure);
  const ov::Compiled sibling = ov::specialize(structure, sibling_params);

  const ov::ExecPlan rebound =
      ov::ExecPlan::rebind(ov::ExecPlan::lower(base), sibling);
  expect_same_plan(rebound, ov::ExecPlan::lower(sibling));

  std::map<std::string, std::vector<FpValue>> inputs;
  for (const int id : dfg.inputs()) {
    std::vector<FpValue>& stream =
        inputs[dfg.nodes()[static_cast<std::size_t>(id)].name];
    for (std::size_t i = 0; i < samples; ++i) {
      stream.push_back(random_operand(format, rng));
    }
  }
  const ov::PlanExecutor executor(std::make_shared<const ov::ExecPlan>(rebound));
  expect_identical(ov::Simulator(sibling).run(inputs), executor.run(inputs));
}

}  // namespace

// --- differential fuzz -------------------------------------------------------

// >= 200 seeded random DFGs x 3 FP formats x 2 grid sizes, specials
// included, streams long enough (48) to drive the SIMD lanes and their
// rare-lane paths. Each DFG runs on canonical raw bits and again with one
// non-canonical lane, so on AVX-512 hosts it covers both value domains.
// Failures print the seed via SCOPED_TRACE.
TEST(ExecPlanDifferential, FuzzBitExactAcrossFormatsAndGrids) {
  const FpFormat formats[] = {FpFormat{4, 7}, FpFormat::half_like(),
                              FpFormat::paper()};
  const int grids[] = {4, 6};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const FpFormat& format : formats) {
      for (const int grid : grids) {
        run_case(seed, format, grid, 48);
      }
    }
  }
}

// The plan-level mirror of compile_structure/specialize: over the same
// 200 seeded DFGs x 3 formats x 2 grids, rebinding a sibling's plan to
// new coefficients is indistinguishable from lowering from scratch.
TEST(ExecPlanRebind, FuzzRebindEqualsColdLowering) {
  const FpFormat formats[] = {FpFormat{4, 7}, FpFormat::half_like(),
                              FpFormat::paper()};
  const int grids[] = {4, 6};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const FpFormat& format : formats) {
      for (const int grid : grids) {
        run_rebind_case(seed, format, grid, 48);
      }
    }
  }
}

TEST(ExecPlanRebind, RejectsAnotherFormat) {
  const std::string kernel =
      "input a;\nparam c = 1.25;\ny = mul(a, c);\noutput y;\n";
  ov::OverlayArch half;
  half.format = FpFormat::half_like();
  const ov::ExecPlan plan =
      ov::ExecPlan::lower(ov::compile_kernel(kernel, ov::OverlayArch{}));
  EXPECT_THROW(ov::ExecPlan::rebind(plan, ov::compile_kernel(kernel, half)),
               std::invalid_argument);
}

// Decimating MAC: partial tail accumulation is dropped by both engines,
// block-boundary straddling included (length chosen off the executor's
// block size on purpose elsewhere; here taps straddle emit boundaries).
TEST(ExecPlanDifferential, MacDecimationAndTail) {
  const FpFormat format = FpFormat::half_like();
  for (const int taps : {3, 6, 7}) {
    const ov::Dfg dfg = ov::make_streaming_mac_kernel(0.8125, taps);
    ov::OverlayArch arch;
    arch.format = format;
    const ov::Compiled compiled = ov::compile(dfg, arch, 17);
    const ov::Simulator interpreter(compiled);
    const ov::PlanExecutor executor(
        std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
    for (const std::size_t samples : {std::size_t{0}, std::size_t{5},
                                      std::size_t{24}, std::size_t{100}}) {
      SCOPED_TRACE(vcgra::common::strprintf("taps=%d n=%zu", taps, samples));
      const auto inputs = double_streams({"x"}, samples, 0.25);
      expect_identical(interpreter.run_doubles(inputs),
                       executor.run_doubles(inputs));
    }
  }
}

// Regression (PR 5 bugfix): two routed edges between one node pair —
// x*x-style dual-operand reuse — carry independent hop counts. The old
// (from,to)-keyed map let the second route overwrite the first's
// latency; keying by (from,to,operand) must schedule against the slower
// edge in both engines.
TEST(ExecPlanDifferential, DualEdgeHopLatencyRegression) {
  ov::OverlayArch arch;
  arch.rows = 2;
  arch.cols = 2;
  ov::Compiled compiled;
  compiled.arch = arch;
  compiled.settings.pes.resize(4);
  ov::PeSettings& pe = compiled.settings.pes[0];
  pe.used = true;
  pe.op = ov::OpKind::kMul;
  pe.dfg_node = 1;
  // Operand 0 rides a 4-hop detour, operand 1 connects directly. Before
  // the fix the direct route silently overwrote the detour's latency.
  ov::RoutedNet slow;
  slow.from_node = 0;
  slow.to_node = 1;
  slow.to_operand = 0;
  slow.hops = {{0, 0}, {0, 1}, {1, 1}, {1, 0}, {0, 0}};
  ov::RoutedNet fast;
  fast.from_node = 0;
  fast.to_node = 1;
  fast.to_operand = 1;
  fast.hops = {{0, 0}};
  compiled.settings.routes = {slow, fast};
  compiled.pe_of_node = {-1, 0, -1};
  compiled.input_node_by_name["x"] = 0;
  compiled.output_node_by_name["y"] = 2;
  compiled.output_source[2] = 1;

  const auto inputs = double_streams({"x"}, 48, 0.0);
  const ov::SimOptions options;  // mul_latency 3, hop_latency 1
  const ov::Simulator interpreter(compiled, options);
  const ov::RunResult legacy = interpreter.run_doubles(inputs);
  // start = max(4 hops, 0 hops) * 1 + mul_latency = 7.
  EXPECT_EQ(legacy.pipeline_depth, 7);
  EXPECT_EQ(legacy.cycles, 7u + 47u);

  const ov::PlanExecutor executor(std::make_shared<const ov::ExecPlan>(
      ov::ExecPlan::lower(compiled, options)));
  expect_identical(legacy, executor.run_doubles(inputs));

  // And the squares themselves are right (x*x via the dual edge).
  const FpFormat format = arch.format;
  const auto& y = legacy.outputs.at("y");
  for (std::size_t i = 0; i < 8; ++i) {
    const FpValue x = FpValue::from_double(format, inputs.at("x")[i]);
    EXPECT_EQ(y[i].bits(), sf::fp_mul(x, x).bits()) << "sample " << i;
  }
}

// --- arena reuse -------------------------------------------------------------

TEST(ExecPlanArena, ConsecutiveJobsReuseWarmArena) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\nparam c = 1.5;\nt = mul(b, c);\ny = add(a, t);\n"
      "output y;\n",
      ov::OverlayArch{});
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));

  // Warm-up at the largest length this test uses.
  executor.run_doubles(double_streams({"a", "b"}, 4096, 0.0));
  const auto warm = ov::PlanExecutor::thread_arena_stats();

  // Same-size and smaller jobs must not allocate at all.
  executor.run_doubles(double_streams({"a", "b"}, 4096, 1.0));
  executor.run_doubles(double_streams({"a", "b"}, 1024, 2.0));
  executor.run_doubles(double_streams({"a", "b"}, 4096, 3.0));
  const auto after = ov::PlanExecutor::thread_arena_stats();
  EXPECT_EQ(after.grows, warm.grows);
  EXPECT_EQ(after.capacity_words, warm.capacity_words);
  EXPECT_EQ(after.jobs, warm.jobs + 3);

  // A larger job may grow the pool — once — and the new capacity then
  // serves repeats without further allocation.
  executor.run_doubles(double_streams({"a", "b"}, 16384, 0.0));
  const auto grown = ov::PlanExecutor::thread_arena_stats();
  EXPECT_GT(grown.capacity_words, after.capacity_words);
  executor.run_doubles(double_streams({"a", "b"}, 16384, 1.0));
  EXPECT_EQ(ov::PlanExecutor::thread_arena_stats().grows, grown.grows);
}

TEST(ExecPlanArena, ConcurrentJobsAcrossThePool) {
  // Per-thread arenas: concurrent jobs of mixed lengths across the
  // executor pool stay bit-identical to a single-thread reference.
  const std::string kernel =
      "input a; input b;\nparam c = 2.5;\nt = mul(b, c);\ny = add(a, t);\n"
      "output y;\n";
  const auto run_jobs = [&](int threads) {
    vcgra::runtime::ServiceOptions options;
    options.threads = threads;
    vcgra::runtime::OverlayService service(options);
    std::vector<std::future<vcgra::runtime::JobResult>> futures;
    for (int j = 0; j < 24; ++j) {
      vcgra::runtime::JobRequest request;
      request.kernel_text = kernel;
      request.inputs =
          double_streams({"a", "b"}, 256 << (j % 4), 0.125 * j);
      futures.push_back(service.submit(std::move(request)));
    }
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (auto& future : futures) {
      const vcgra::runtime::JobResult result = future.get();
      EXPECT_TRUE(result.plan_executed);
      for (const auto& [name, stream] : result.run.outputs) {
        for (const FpValue& value : stream) {
          hash ^= value.bits();
          hash *= 0x100000001b3ULL;
        }
      }
    }
    return hash;
  };
  EXPECT_EQ(run_jobs(1), run_jobs(4));
}

// A fused batch runs one job at a time, each in its own layout: K jobs
// count K arena jobs, and the arena reserves no more than the largest
// member asks for on its own.
TEST(ExecPlanArena, BatchMembersReserveOneJobAtATime) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\nparam c = 1.5;\nt = mul(b, c);\ny = add(a, t);\n"
      "m = mac(a, c, 4);\noutput y; output m;\n",
      ov::OverlayArch{});
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
  const std::size_t lengths[] = {300, 1200, 0, 77};
  std::vector<std::map<std::string, std::vector<double>>> streams;
  std::vector<ov::BatchInputs> jobs;
  for (const std::size_t len : lengths) {
    streams.push_back(double_streams({"a", "b"}, len, 0.5 * len));
  }
  for (const auto& job : streams) {
    ov::BatchInputs in;
    for (const auto& [name, values] : job) {
      in[name] = ov::BatchStream{nullptr, values.data(), values.size()};
    }
    jobs.push_back(std::move(in));
  }
  // Fresh threads, so each arena starts empty.
  const auto on_fresh_thread = [](const auto& work) {
    ov::ExecArena::Stats stats;
    std::thread([&] {
      work();
      stats = ov::PlanExecutor::thread_arena_stats();
    }).join();
    return stats;
  };
  const ov::ExecArena::Stats batch = on_fresh_thread([&] {
    for (const auto& outcome : executor.run_batch(jobs)) {
      EXPECT_FALSE(outcome.error);
    }
  });
  const ov::ExecArena::Stats largest =
      on_fresh_thread([&] { executor.run_doubles(streams[1]); });
  EXPECT_EQ(batch.jobs, std::size(lengths));
  EXPECT_EQ(largest.jobs, 1u);
  EXPECT_GT(largest.high_water_words, 0u);
  EXPECT_EQ(batch.high_water_words, largest.high_water_words);
}

// --- plan caching / service integration --------------------------------------

TEST(ExecPlanService, PlansAreLoweredOncePerSpecialization) {
  vcgra::runtime::ServiceOptions options;
  options.threads = 1;
  vcgra::runtime::OverlayService service(options);
  const std::string kernel =
      "input a;\nparam c = 1.25;\ny = mul(a, c);\noutput y;\n";
  for (int r = 0; r < 3; ++r) {
    vcgra::runtime::JobRequest request;
    request.kernel_text = kernel;
    request.inputs = double_streams({"a"}, 64, 0.5 * r);
    service.run(std::move(request));
  }
  auto stats = service.stats().cache;
  EXPECT_EQ(stats.plans_built, 1u);
  EXPECT_EQ(stats.plan_hits, 2u);

  // New coefficients = new specialization = one more lowering.
  vcgra::runtime::JobRequest request;
  request.kernel_text = kernel;
  request.params["c"] = 3.5;
  request.inputs = double_streams({"a"}, 64, 0.0);
  service.run(std::move(request));
  stats = service.stats().cache;
  EXPECT_EQ(stats.plans_built, 2u);
}

// A plan outlives the specialization it was built for: once that
// specialization is evicted from its structure's working set, a sibling's
// plan is still rebound from it — and equals a cold lowering.
TEST(ExecPlanService, RebindAfterSpecializationEvictionEqualsColdLowering) {
  namespace rt = vcgra::runtime;
  const std::string kernel =
      "input a; input b;\nparam g = 1.5; param h = -0.5;\n"
      "t = mul(b, g);\ny = sub(a, t);\nz = mac(a, h, 3);\n"
      "output y; output z;\n";
  const ov::ParsedKernel parsed = ov::parse_kernel_symbolic(kernel);
  const ov::OverlayArch arch;
  const ov::SimOptions sim;
  rt::OverlayCache cache(4);
  const auto fetch = [&](double g) {
    const ov::ParamBinding binding = {{"g", g}, {"h", 0.25 - g}};
    const rt::CacheKeys keys = rt::cache_keys(parsed, arch, 1, binding);
    const auto compiled = cache.get_or_specialize(keys, parsed, arch, 1, binding);
    return std::make_pair(compiled, cache.plan_for(keys, compiled, sim));
  };

  const auto first = fetch(1.0);  // lowered
  EXPECT_EQ(cache.stats().plans_built, 1u);
  EXPECT_EQ(cache.stats().plans_rebound, 0u);
  // Push the first specialization out of the working set, planless.
  for (std::size_t k = 0; k < rt::OverlayCache::kSpecializationsPerStructure; ++k) {
    const ov::ParamBinding binding = {{"g", 2.0 + static_cast<double>(k)},
                                      {"h", 1.0}};
    cache.get_or_specialize(rt::cache_keys(parsed, arch, 1, binding), parsed,
                            arch, 1, binding);
  }
  EXPECT_EQ(cache.stats().plans_built, 1u);

  const auto sibling = fetch(-3.75);  // rebound from the evicted one's plan
  EXPECT_EQ(cache.stats().plans_built, 2u);
  EXPECT_EQ(cache.stats().plans_rebound, 1u);
  expect_same_plan(*sibling.second, ov::ExecPlan::lower(*sibling.first, sim));

  const auto again = fetch(1.0);  // respecialized, rebound again
  EXPECT_NE(again.first, first.first);
  EXPECT_EQ(cache.stats().plans_rebound, 2u);
  expect_same_plan(*again.second, *first.second);

  // Cached artifacts carry canonical stream names.
  const auto inputs = double_streams(
      {parsed.canonical_name("a"), parsed.canonical_name("b")}, 40, 0.5);
  expect_identical(ov::Simulator(*sibling.first, sim).run_doubles(inputs),
                   ov::PlanExecutor(sibling.second).run_doubles(inputs));
}

TEST(ExecPlanService, EnginesBitIdenticalThroughTheService) {
  // The same job mix through a plan-executor service and a legacy
  // interpreter service: identical outputs, cycles and op counts.
  const auto run_mix = [](bool use_plan) {
    vcgra::runtime::ServiceOptions options;
    options.threads = 2;
    options.use_plan_executor = use_plan;
    vcgra::runtime::OverlayService service(options);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (int j = 0; j < 12; ++j) {
      vcgra::runtime::JobRequest request;
      // Mixed shapes, non-canonical names included (boundary renames).
      if (j % 3 == 0) {
        request.kernel_text =
            "input left; input right;\nparam gain = 1.125;\n"
            "scaled = mul(right, gain);\nsum = sub(left, scaled);\n"
            "output sum;\n";
        request.inputs = double_streams({"left", "right"}, 100, 0.25 * j);
      } else if (j % 3 == 1) {
        request.kernel_text =
            "input x;\nparam c = 0.9;\ny = mac(x, c, 4);\noutput y;\n";
        request.inputs = double_streams({"x"}, 96, 0.25 * j);
      } else {
        request.kernel_text =
            "input a; input b;\nt0 = mul(a, b);\nt1 = add(t0, a);\n"
            "y = add(t1, b);\noutput y;\n";
        request.inputs = double_streams({"a", "b"}, 80, 0.25 * j);
      }
      const vcgra::runtime::JobResult result = service.run(std::move(request));
      EXPECT_EQ(result.plan_executed, use_plan);
      hash ^= result.run.cycles;
      hash *= 0x100000001b3ULL;
      hash ^= result.run.fp_ops;
      hash *= 0x100000001b3ULL;
      hash ^= result.run.mac_ops;
      hash *= 0x100000001b3ULL;
      for (const auto& [name, stream] : result.run.outputs) {
        for (const FpValue& value : stream) {
          hash ^= value.bits();
          hash *= 0x100000001b3ULL;
        }
      }
    }
    return hash;
  };
  EXPECT_EQ(run_mix(true), run_mix(false));
}

// --- error behavior ----------------------------------------------------------

TEST(ExecPlanErrors, MirrorsInterpreterAcceptanceRules) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\ny = add(a, b);\noutput y;\n", ov::OverlayArch{});
  const ov::Simulator interpreter(compiled);
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));

  std::map<std::string, std::vector<double>> unknown{
      {"a", {1.0}}, {"b", {1.0}}, {"zz", {1.0}}};
  EXPECT_THROW(interpreter.run_doubles(unknown), std::invalid_argument);
  EXPECT_THROW(executor.run_doubles(unknown), std::invalid_argument);

  std::map<std::string, std::vector<double>> ragged{{"a", {1.0, 2.0}},
                                                    {"b", {1.0}}};
  EXPECT_THROW(interpreter.run_doubles(ragged), std::invalid_argument);
  EXPECT_THROW(executor.run_doubles(ragged), std::invalid_argument);

  std::map<std::string, std::vector<double>> missing{{"a", {1.0, 2.0}}};
  EXPECT_THROW(interpreter.run_doubles(missing), std::runtime_error);
  EXPECT_THROW(executor.run_doubles(missing), std::runtime_error);

  // A decimated (MAC) stream feeding a two-stream mul: the product
  // stream is shorter than the other operand, which used to be an
  // out-of-bounds read in the interpreter — both engines now reject it.
  const ov::Compiled short_mul = ov::compile_kernel(
      "input x;\nparam c = 0.5;\nt = mac(x, c, 2);\ny = mul(x, t);\n"
      "output y;\n",
      ov::OverlayArch{});
  const ov::Simulator short_interpreter(short_mul);
  const ov::PlanExecutor short_executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(short_mul)));
  const auto streams = double_streams({"x"}, 8, 0.0);
  EXPECT_THROW(short_interpreter.run_doubles(streams), std::runtime_error);
  EXPECT_THROW(short_executor.run_doubles(streams), std::runtime_error);
}

// --- conversion fuzz ---------------------------------------------------------

// The bit-level encoder/decoder must be indistinguishable from the
// scalar FpValue boundary across the entire double space — including
// denormals, specials and rounding-carry boundaries — for every format:
// those the binary64 rounding encodes (up to fp(10,20) and fp(6,51)) and
// one past them, which takes the scalar encoder. The binary64 domain's
// round-then-pack boundary must equal it too where that domain applies.
TEST(BatchConversion, EncodeDecodeMatchScalarOracle) {
  const FpFormat formats[] = {FpFormat{4, 7},          FpFormat::half_like(),
                              FpFormat::paper(),       FpFormat::single_like(),
                              FpFormat{10, 20},        FpFormat{6, 51},
                              FpFormat{11, 40}};
  vcgra::common::Rng rng(0xc0de);
  for (const FpFormat& format : formats) {
    SCOPED_TRACE(vcgra::common::strprintf("fp(%d,%d)", format.we, format.wf));
    std::vector<double> cases = {
        0.0,        -0.0,
        1.0,        -1.0,
        0.5,        1.5,
        3.0,        1e-300,
        -1e-300,    1e300,
        5e-324,     -5e-324,  // smallest denormals
        2.2250738585072014e-308,  // smallest normal double
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    // Random bit patterns cover NaN payloads, denormals and every
    // exponent regime without sampling bias.
    for (int i = 0; i < 200000; ++i) {
      double value;
      const std::uint64_t bits = rng();
      static_assert(sizeof(value) == sizeof(bits));
      __builtin_memcpy(&value, &bits, sizeof(value));
      cases.push_back(value);
    }
    // Straddling the format's range: around 2^-bias (flush or round up
    // to the smallest value) and the top (round to the largest value or
    // overflow), at random fractions and at the exact ties; plus random
    // denormal doubles.
    const int bias = static_cast<int>(format.bias());
    const int top = static_cast<int>(format.exp_mask()) - bias;
    for (int i = 0; i < 20000; ++i) {
      const int edge = i % 2 ? -bias : top;
      double v = std::ldexp(1.0 + rng.next_double(),
                            edge + static_cast<int>(rng.next_below(3)) - 1);
      if (i % 8 == 1) v = std::ldexp(2.0 - std::ldexp(1.0, -format.wf - 1), edge - 1);
      if (i % 8 == 3) v = std::ldexp(2.0 - std::ldexp(1.0, -format.wf - 1), top);
      if (i % 8 == 5) {
        const std::uint64_t bits = rng() & ((std::uint64_t{1} << 52) - 1);
        __builtin_memcpy(&v, &bits, sizeof(v));
      }
      cases.push_back(rng.next_bool() ? -v : v);
    }
    for (const double value : cases) {
      const std::uint64_t got = sf::fp_encode_double(format, value);
      const std::uint64_t want = FpValue::from_double(format, value).bits();
      ASSERT_EQ(got, want) << vcgra::common::strprintf(
          "encode(%a) = %llx want %llx", value,
          static_cast<unsigned long long>(got),
          static_cast<unsigned long long>(want));
    }
    // Batch encode (the lanes where the host has them) against the scalar,
    // out of place and in place (doubles overwritten by their encodings).
    std::vector<std::uint64_t> batch(cases.size());
    sf::fp_from_double_n(format, cases.data(), batch.data(), cases.size());
    std::vector<std::uint64_t> in_place(cases.size());
    __builtin_memcpy(in_place.data(), cases.data(), cases.size() * sizeof(double));
    sf::fp_from_double_n(format, reinterpret_cast<const double*>(in_place.data()),
                         in_place.data(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      ASSERT_EQ(batch[i], FpValue::from_double(format, cases[i]).bits())
          << vcgra::common::strprintf("batch encode(%a)", cases[i]);
    }
    ASSERT_EQ(in_place, batch) << "in-place encode";
    if (sf::fp_f64_exact(format)) {
      std::vector<double> rounded(cases.size());
      sf::fp_f64_round_n(format, cases.data(), rounded.data(), cases.size());
      ASSERT_EQ(pack_all(format, rounded), batch) << "f64 round + pack";
      for (std::size_t i = 0; i < cases.size(); i += 7) {
        ASSERT_EQ(sf::fp_f64_pack(format, sf::fp_f64_round(format, cases[i])),
                  batch[i])
            << vcgra::common::strprintf("scalar f64 round(%a)", cases[i]);
      }
    }
    // Decode: every class and the full field space.
    for (int i = 0; i < 100000; ++i) {
      const FpValue value(format, rng() & ((std::uint64_t{1}
                                            << format.total_bits()) -
                                           1));
      const double got = sf::fp_decode_double(format, value.bits());
      const double want = value.to_double();
      ASSERT_EQ(std::isnan(got), std::isnan(want));
      if (!std::isnan(want)) {
        ASSERT_EQ(got, want) << vcgra::common::strprintf(
            "decode(%llx)", static_cast<unsigned long long>(value.bits()));
        ASSERT_EQ(std::signbit(got), std::signbit(want));
      }
    }
  }
}

// --- batch kernel fuzz -------------------------------------------------------

// Every batch kernel (scalar loop and AVX-512 lanes alike) against the
// original scalar fp_mul/fp_add/fp_mac on specials-laden operands.
TEST(BatchKernels, MatchScalarOpsOnSpecialsLadenStreams) {
  const FpFormat formats[] = {FpFormat{4, 7}, FpFormat::half_like(),
                              FpFormat::paper(), FpFormat::single_like()};
  constexpr std::size_t kN = 1000;
  vcgra::common::Rng rng(0xba7c4);
  for (const FpFormat& format : formats) {
    SCOPED_TRACE(vcgra::common::strprintf("fp(%d,%d)", format.we, format.wf));
    std::vector<std::uint64_t> a(kN), b(kN), out(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      a[i] = random_operand(format, rng).bits();
      b[i] = random_operand(format, rng).bits();
    }
    const std::uint64_t sign_mask = std::uint64_t{1}
                                    << (format.we + format.wf);

    sf::fp_mul_n(format, a.data(), b.data(), out.data(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], sf::fp_mul(FpValue(format, a[i]),
                                   FpValue(format, b[i])).bits())
          << "mul sample " << i;
    }
    for (const std::uint64_t b_xor : {std::uint64_t{0}, sign_mask}) {
      sf::fp_add_xor_n(format, a.data(), b.data(), b_xor, out.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out[i], sf::fp_add(FpValue(format, a[i]),
                                     FpValue(format, b[i] ^ b_xor)).bits())
            << "add/xor sample " << i;
      }
    }
    // The documented aliasing contract: out == a (the vision fold's
    // in-place accumulate) and out == b must match the out-of-place
    // result even when special-class lanes force the SIMD patch path.
    {
      std::vector<std::uint64_t> ref(kN), in_place(kN);
      sf::fp_add_n(format, a.data(), b.data(), ref.data(), kN);
      in_place = a;
      sf::fp_add_n(format, in_place.data(), b.data(), in_place.data(), kN);
      ASSERT_EQ(in_place, ref) << "fp_add_n out==a aliasing";
      in_place = b;
      sf::fp_add_n(format, a.data(), in_place.data(), in_place.data(), kN);
      ASSERT_EQ(in_place, ref) << "fp_add_n out==b aliasing";
      sf::fp_mul_n(format, a.data(), b.data(), ref.data(), kN);
      in_place = a;
      sf::fp_mul_n(format, in_place.data(), b.data(), in_place.data(), kN);
      ASSERT_EQ(in_place, ref) << "fp_mul_n out==a aliasing";
      const std::uint64_t alias_coeff =
          FpValue::from_double(format, 0.75).bits();
      sf::fp_mul_coeff_n(format, a.data(), alias_coeff, ref.data(), kN);
      in_place = a;
      sf::fp_mul_coeff_n(format, in_place.data(), alias_coeff,
                         in_place.data(), kN);
      ASSERT_EQ(in_place, ref) << "fp_mul_coeff_n out==a aliasing";
      sf::fp_axpy_n(format, a.data(), b.data(), alias_coeff, 0, ref.data(),
                    kN);
      in_place = a;
      sf::fp_axpy_n(format, in_place.data(), b.data(), alias_coeff, 0,
                    in_place.data(), kN);
      ASSERT_EQ(in_place, ref) << "fp_axpy_n out==a aliasing";
      in_place = b;
      sf::fp_axpy_n(format, a.data(), in_place.data(), alias_coeff, 0,
                    in_place.data(), kN);
      ASSERT_EQ(in_place, ref) << "fp_axpy_n out==x aliasing";
      sf::fp_xpay_n(format, b.data(), alias_coeff, a.data(), 0, ref.data(),
                    kN);
      in_place = b;
      sf::fp_xpay_n(format, in_place.data(), alias_coeff, a.data(), 0,
                    in_place.data(), kN);
      ASSERT_EQ(in_place, ref) << "fp_xpay_n out==x aliasing";
    }
    // Coefficients of every class.
    const std::uint64_t coeffs[] = {
        FpValue::from_double(format, 1.375).bits(),
        FpValue::from_double(format, -0.625).bits(),
        FpValue::zero(format).bits(), FpValue::infinity(format).bits(),
        FpValue::nan(format).bits()};
    for (const std::uint64_t coeff : coeffs) {
      const FpValue c(format, coeff);
      sf::fp_mul_coeff_n(format, a.data(), coeff, out.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out[i], sf::fp_mul(FpValue(format, a[i]), c).bits())
            << "mul_coeff sample " << i;
      }
      for (const std::uint64_t x : {std::uint64_t{0}, sign_mask}) {
        sf::fp_axpy_n(format, a.data(), b.data(), coeff, x, out.data(), kN);
        for (std::size_t i = 0; i < kN; ++i) {
          const std::uint64_t prod =
              sf::fp_mul(FpValue(format, b[i]), c).bits() ^ x;
          ASSERT_EQ(out[i], sf::fp_add(FpValue(format, a[i]),
                                       FpValue(format, prod)).bits())
              << "axpy sample " << i;
        }
        sf::fp_xpay_n(format, b.data(), coeff, a.data(), x, out.data(), kN);
        for (std::size_t i = 0; i < kN; ++i) {
          const FpValue prod = sf::fp_mul(FpValue(format, b[i]), c);
          ASSERT_EQ(out[i], sf::fp_add(prod,
                                       FpValue(format, a[i] ^ x)).bits())
              << "xpay sample " << i;
        }
      }
    }
    // Decimating MAC, split across batch calls at an awkward boundary to
    // exercise the carried accumulator state.
    const std::uint64_t coeff = FpValue::from_double(format, 0.8125).bits();
    const std::uint32_t count = 7;
    std::vector<std::uint64_t> emitted(kN / count);
    std::uint64_t acc = 0;
    std::uint32_t filled = 0;
    std::size_t total = 0;
    for (const auto& [begin, end] :
         {std::pair<std::size_t, std::size_t>{0, 13},
          {13, 500},
          {500, kN}}) {
      total += sf::fp_mac_n(format, a.data() + begin, coeff, count,
                            emitted.data() + total, end - begin, &acc, &filled);
    }
    ASSERT_EQ(total, kN / count);
    FpValue ref_acc = FpValue::zero(format);
    std::uint32_t ref_fill = 0;
    std::size_t ref_emitted = 0;
    const FpValue c(format, coeff);
    for (std::size_t i = 0; i < kN; ++i) {
      ref_acc = sf::fp_mac(ref_acc, FpValue(format, a[i]), c);
      if (++ref_fill == count) {
        ASSERT_EQ(emitted[ref_emitted], ref_acc.bits())
            << "mac emit " << ref_emitted;
        ++ref_emitted;
        ref_acc = FpValue::zero(format);
        ref_fill = 0;
      }
    }
  }
}

// fp_f64_mac_n runs an in-flight head window and a partial tail serially
// and the whole windows between them side by side. Every emitted window
// must still equal the FpValue fp_mac chain bit for bit, and the carried
// accumulator, fill and per-call emit count must match the chain at
// every call boundary: one call, cuts around window edges, random cuts
// and the executor's 1024-sample blocks. fp_mac_n, the bits domain's
// serial chain, is held to the same chain on the same cuts.
TEST(BatchKernels, MacWindowParallelMatchesScalarChain) {
  const FpFormat formats[] = {FpFormat::paper(), FpFormat::half_like(),
                              FpFormat::single_like()};
  const std::uint32_t counts[] = {1, 2, 3, 7, 8, 9, 16, 17, 64, 128, 129, 1000};
  vcgra::common::Rng rng(0x3ac5);
  for (const FpFormat& format : formats) {
    std::size_t overflows = 0, flushes = 0;
    for (const double coeff_value : {0.8125, -1.375}) {
      const std::uint64_t coeff =
          FpValue::from_double(format, coeff_value).bits();
      for (const bool specials : {false, true}) {
        for (const std::uint32_t count : counts) {
          SCOPED_TRACE(vcgra::common::strprintf(
              "fp(%d,%d) coeff=%g specials=%d count=%u", format.we, format.wf,
              coeff_value, specials, count));
          // Enough whole windows to fill several 256-window groups at
          // small counts; every stream with count > 1 ends mid-window.
          const std::size_t whole = count <= 17 ? 600 : 37;
          const std::size_t length = count * whole + (count + 1) / 2;
          std::vector<std::uint64_t> x(length);
          for (auto& sample : x) sample = mac_operand(format, rng, specials);
          const MacChain chain = mac_chain(format, x, coeff, count);
          overflows += chain.overflows;
          flushes += chain.flushes;

          std::vector<std::vector<std::size_t>> plans;
          plans.push_back({});
          std::vector<std::size_t> awkward;
          for (const std::size_t cut :
               {std::size_t{1}, std::size_t{count} - 1, std::size_t{count} + 1,
                3 * std::size_t{count} + 2, 8 * std::size_t{count} - 1,
                8 * std::size_t{count} + 5, 300 * std::size_t{count} + 7,
                length / 2, length - count - 1, length - 1}) {
            if (cut > 0 && cut < length) awkward.push_back(cut);
          }
          plans.push_back(awkward);
          std::vector<std::size_t> random_cuts;
          for (int i = 0; i < 6; ++i) {
            random_cuts.push_back(1 + rng.next_below(length - 1));
          }
          plans.push_back(random_cuts);
          std::vector<std::size_t> blocks;
          for (std::size_t cut = 1024; cut < length; cut += 1024) {
            blocks.push_back(cut);
          }
          plans.push_back(blocks);

          for (std::vector<std::size_t> cuts : plans) {
            cuts.push_back(0);
            cuts.push_back(length);
            std::sort(cuts.begin(), cuts.end());
            cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
            constexpr std::uint64_t kSentinel = 0x5e5e5e5e5e5e5e5eULL;
            std::vector<std::uint64_t> got(chain.out.size() + 1, kSentinel);
            std::uint64_t acc = 0;
            std::uint32_t filled = 0;
            std::size_t total = 0;
            for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
              const std::size_t begin = cuts[p], end = cuts[p + 1];
              const std::size_t emitted =
                  sf::fp_mac_n(format, x.data() + begin, coeff, count,
                               got.data() + total, end - begin, &acc, &filled);
              ASSERT_EQ(emitted, chain.emitted[end] - chain.emitted[begin])
                  << "call [" << begin << ", " << end << ")";
              ASSERT_EQ(acc, chain.acc[end]) << "acc after " << end;
              ASSERT_EQ(filled, chain.fill[end]) << "filled after " << end;
              total += emitted;
            }
            ASSERT_EQ(total, chain.out.size());
            ASSERT_EQ(got.back(), kSentinel) << "wrote past the last window";
            for (std::size_t i = 0; i < total; ++i) {
              ASSERT_EQ(got[i], chain.out[i])
                  << "window " << i << " (" << cuts.size() - 1 << " calls)";
            }

            // The binary64 domain's MAC, on the same cuts.
            const std::vector<double> dx = decode_all(format, x);
            const double dcoeff = sf::fp_decode_double(format, coeff);
            std::vector<double> got64(chain.out.size() + 1, 0.5);
            double acc64 = 0.0;
            filled = 0;
            total = 0;
            for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
              const std::size_t begin = cuts[p], end = cuts[p + 1];
              const std::size_t emitted = sf::fp_f64_mac_n(
                  format, dx.data() + begin, dcoeff, count, got64.data() + total,
                  end - begin, &acc64, &filled);
              ASSERT_EQ(emitted, chain.emitted[end] - chain.emitted[begin])
                  << "f64 call [" << begin << ", " << end << ")";
              ASSERT_EQ(sf::fp_f64_pack(format, acc64), chain.acc[end])
                  << "f64 acc after " << end;
              ASSERT_EQ(filled, chain.fill[end]) << "f64 filled after " << end;
              total += emitted;
            }
            ASSERT_EQ(got64.back(), 0.5) << "f64 wrote past the last window";
            got64.pop_back();
            ASSERT_EQ(pack_all(format, got64), chain.out) << "f64 windows";
          }
        }
      }
    }
    // The specials mix really overflowed sums and flushed products.
    EXPECT_GT(overflows, 0u) << "fp(" << format.we << "," << format.wf << ")";
    EXPECT_GT(flushes, 0u) << "fp(" << format.we << "," << format.wf << ")";
  }
}

// Element independence and resumability of the batch kernels: segments
// of mixed lengths back to back in one buffer, elementwise kernels
// called once over the whole buffer — in place, partial-SIMD-width tails
// included — must match per-segment out-of-place calls; and MAC state
// driven through segment offsets must match fresh per-segment buffers.
TEST(BatchKernels, StripedBuffersAliasAndResumeLikePerJobCalls) {
  const FpFormat formats[] = {FpFormat::half_like(), FpFormat::paper()};
  const std::size_t segments[] = {0, 1, 5, 37, 8, 64, 3};
  vcgra::common::Rng rng(0x57a1b);
  for (const FpFormat& format : formats) {
    SCOPED_TRACE(vcgra::common::strprintf("fp(%d,%d)", format.we, format.wf));
    std::size_t total = 0;
    for (const std::size_t len : segments) total += len;
    std::vector<std::uint64_t> a(total), b(total);
    for (std::size_t i = 0; i < total; ++i) {
      a[i] = random_operand(format, rng).bits();
      b[i] = random_operand(format, rng).bits();
    }

    // Whole-buffer in-place add vs per-segment out-of-place calls.
    std::vector<std::uint64_t> whole = a;
    sf::fp_add_n(format, whole.data(), b.data(), whole.data(), total);
    std::size_t offset = 0;
    for (const std::size_t len : segments) {
      std::vector<std::uint64_t> ref(len);
      sf::fp_add_n(format, a.data() + offset, b.data() + offset, ref.data(),
                   len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(whole[offset + i], ref[i])
            << "segment@" << offset << " sample " << i;
      }
      offset += len;
    }

    // MAC state at segment offsets vs fresh per-segment buffers:
    // every segment's accumulator starts cold and its partial tail is
    // dropped, exactly as if the job had run alone.
    const std::uint64_t coeff = FpValue::from_double(format, -0.4375).bits();
    const std::uint32_t count = 3;
    offset = 0;
    for (const std::size_t len : segments) {
      std::vector<std::uint64_t> segment_out(len / count + 1);
      std::uint64_t acc = 0;
      std::uint32_t filled = 0;
      const std::size_t emitted =
          sf::fp_mac_n(format, a.data() + offset, coeff, count,
                       segment_out.data(), len, &acc, &filled);
      const std::vector<std::uint64_t> alone(a.begin() + static_cast<long>(offset),
                                             a.begin() + static_cast<long>(offset + len));
      std::vector<std::uint64_t> alone_out(len / count + 1);
      std::uint64_t alone_acc = 0;
      std::uint32_t alone_filled = 0;
      const std::size_t alone_emitted =
          sf::fp_mac_n(format, alone.data(), coeff, count, alone_out.data(),
                       len, &alone_acc, &alone_filled);
      ASSERT_EQ(emitted, alone_emitted) << "segment@" << offset;
      ASSERT_EQ(acc, alone_acc);
      ASSERT_EQ(filled, alone_filled);
      for (std::size_t i = 0; i < emitted; ++i) {
        ASSERT_EQ(segment_out[i], alone_out[i]) << "emit " << i;
      }
      offset += len;
    }
  }
}

// The MAC's window-parallel middle runs each step as an in-place axpy
// over its group's accumulators (out == a), at group sizes down to one
// SIMD width. In place must equal out of place, and both the scalar
// mul-then-add, at every such size: partial vector tails and
// special-class lanes included.
TEST(BatchKernels, InPlaceAxpyMatchesOutOfPlaceAtMacGroupSizes) {
  const FpFormat formats[] = {FpFormat::half_like(), FpFormat::paper(),
                              FpFormat::single_like()};
  const std::size_t lengths[] = {1, 7, 8, 9, 16, 31, 32, 33, 255, 256};
  vcgra::common::Rng rng(0xa1a5);
  for (const FpFormat& format : formats) {
    SCOPED_TRACE(vcgra::common::strprintf("fp(%d,%d)", format.we, format.wf));
    const std::uint64_t coeffs[] = {
        FpValue::from_double(format, 0.8125).bits(),
        FpValue::from_double(format, -1.375).bits(),
        FpValue::zero(format).bits(), FpValue::infinity(format).bits(),
        FpValue::nan(format).bits()};
    for (const std::size_t n : lengths) {
      std::vector<std::uint64_t> a(n), x(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = random_operand(format, rng).bits();
        x[i] = random_operand(format, rng).bits();
      }
      for (const std::uint64_t coeff : coeffs) {
        const FpValue c(format, coeff);
        std::vector<std::uint64_t> ref(n), in_place = a;
        sf::fp_axpy_n(format, a.data(), x.data(), coeff, 0, ref.data(), n);
        sf::fp_axpy_n(format, in_place.data(), x.data(), coeff, 0,
                      in_place.data(), n);
        ASSERT_EQ(in_place, ref) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(ref[i], sf::fp_add(FpValue(format, a[i]),
                                       sf::fp_mul(FpValue(format, x[i]), c))
                                .bits())
              << "n=" << n << " sample " << i;
        }
      }
    }
  }
}

// --- fused multi-job batches -------------------------------------------------

// K jobs run as one fused batch vs the same K one by one on the
// interpreter: outputs, cycles, fp_ops, mac_ops and pipeline_depth all
// bit-identical, across formats, with mixed per-job stream lengths
// (zero-length jobs, single-element partial-vector tails, and lengths
// that leave every decimating MAC a dropped partial accumulation).
TEST(ExecPlanBatch, FuzzBatchedJobsMatchInterpreterOneByOne) {
  const FpFormat formats[] = {FpFormat{4, 7}, FpFormat::half_like(),
                              FpFormat::paper()};
  const std::size_t lengths[] = {0, 1, 7, 33, 48, 129};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const FpFormat& format : formats) {
      SCOPED_TRACE(vcgra::common::strprintf(
          "reproduce with: random_dfg(%llu), fp(%d,%d)",
          static_cast<unsigned long long>(seed), format.we, format.wf));
      const ov::Dfg dfg = random_dfg(seed);
      ov::OverlayArch arch;
      arch.rows = 5;
      arch.cols = 5;
      arch.format = format;
      const ov::Compiled compiled = ov::compile(dfg, arch, seed);
      const ov::Simulator interpreter(compiled);
      const ov::PlanExecutor executor(
          std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));

      vcgra::common::Rng rng(seed * 7919 + static_cast<std::uint64_t>(format.wf));
      const std::size_t njobs = 2 + rng.next_below(5);
      std::vector<std::map<std::string, std::vector<std::uint64_t>>> storage(
          njobs);
      std::vector<ov::BatchInputs> inputs(njobs);
      std::vector<ov::RunResult> want;
      for (std::size_t j = 0; j < njobs; ++j) {
        const std::size_t samples = lengths[rng.next_below(6)];
        std::map<std::string, std::vector<FpValue>> fp_inputs;
        for (const int id : dfg.inputs()) {
          const std::string& name =
              dfg.nodes()[static_cast<std::size_t>(id)].name;
          std::vector<std::uint64_t>& bits = storage[j][name];
          std::vector<FpValue>& fp = fp_inputs[name];
          for (std::size_t i = 0; i < samples; ++i) {
            const FpValue value = random_operand(format, rng);
            bits.push_back(value.bits());
            fp.push_back(value);
          }
          inputs[j][name] = ov::BatchStream{bits.data(), nullptr, bits.size()};
        }
        want.push_back(interpreter.run(fp_inputs));
      }

      const auto outcomes = executor.run_batch(inputs);
      ASSERT_EQ(outcomes.size(), njobs);
      for (std::size_t j = 0; j < njobs; ++j) {
        SCOPED_TRACE(vcgra::common::strprintf("job %zu of %zu", j, njobs));
        ASSERT_FALSE(outcomes[j].error);
        expect_identical(want[j], outcomes[j].run);
      }
    }
  }
}

// Raw-bits-in must be indistinguishable from doubles-in for encodable
// values, and jobs with mixed raw_output flags share one batch: the raw
// job's u64 outputs are bit-for-bit the FpValue outputs of its twin.
TEST(ExecPlanBatch, RawBitsBoundaryMatchesDoublesBoundary) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input x;\nparam c = 0.75;\nt = mul(x, c);\ny = mac(t, c, 3);\n"
      "output t; output y;\n",
      ov::OverlayArch{});
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
  const FpFormat format = compiled.arch.format;

  const auto doubles = double_streams({"x"}, 100, 0.5);
  std::vector<std::uint64_t> bits(100);
  for (std::size_t i = 0; i < 100; ++i) {
    bits[i] = FpValue::from_double(format, doubles.at("x")[i]).bits();
  }
  std::vector<ov::BatchInputs> jobs(3);
  jobs[0]["x"] = ov::BatchStream{nullptr, doubles.at("x").data(), 100};
  jobs[1]["x"] = ov::BatchStream{bits.data(), nullptr, 100};
  jobs[2]["x"] = ov::BatchStream{bits.data(), nullptr, 100};
  const auto outcomes = executor.run_batch(jobs, {false, false, true});
  for (const auto& outcome : outcomes) ASSERT_FALSE(outcome.error);

  expect_identical(outcomes[0].run, outcomes[1].run);
  EXPECT_TRUE(outcomes[2].run.outputs.empty());
  for (const auto& [name, stream] : outcomes[0].run.outputs) {
    const auto it = outcomes[2].run.bit_outputs.find(name);
    ASSERT_NE(it, outcomes[2].run.bit_outputs.end()) << name;
    ASSERT_EQ(it->second.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(it->second[i], stream[i].bits()) << name << " sample " << i;
    }
  }
  EXPECT_EQ(outcomes[2].run.cycles, outcomes[0].run.cycles);
  EXPECT_EQ(outcomes[2].run.fp_ops, outcomes[0].run.fp_ops);
  EXPECT_EQ(outcomes[2].run.mac_ops, outcomes[0].run.mac_ops);
}

// A malformed job inside a batch fails alone: its outcome carries the
// same exception the single-job path throws, and its neighbors stay
// bit-exact against solo runs.
TEST(ExecPlanBatch, FailingJobDoesNotPoisonTheBatch) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\ny = add(a, b);\noutput y;\n", ov::OverlayArch{});
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));

  const auto good0 = double_streams({"a", "b"}, 40, 0.0);
  const auto good2 = double_streams({"a", "b"}, 17, 1.5);
  const auto ragged_a = double_streams({"a"}, 9, 0.0);
  const auto ragged_b = double_streams({"b"}, 8, 0.0);

  std::vector<ov::BatchInputs> jobs(3);
  jobs[0]["a"] = ov::BatchStream{nullptr, good0.at("a").data(), 40};
  jobs[0]["b"] = ov::BatchStream{nullptr, good0.at("b").data(), 40};
  jobs[1]["a"] = ov::BatchStream{nullptr, ragged_a.at("a").data(), 9};
  jobs[1]["b"] = ov::BatchStream{nullptr, ragged_b.at("b").data(), 8};
  jobs[2]["a"] = ov::BatchStream{nullptr, good2.at("a").data(), 17};
  jobs[2]["b"] = ov::BatchStream{nullptr, good2.at("b").data(), 17};

  const auto outcomes = executor.run_batch(jobs);
  ASSERT_EQ(outcomes.size(), 3u);
  ASSERT_TRUE(outcomes[1].error);
  EXPECT_THROW(std::rethrow_exception(outcomes[1].error),
               std::invalid_argument);
  ASSERT_FALSE(outcomes[0].error);
  ASSERT_FALSE(outcomes[2].error);
  expect_identical(executor.run_doubles(good0), outcomes[0].run);
  expect_identical(executor.run_doubles(good2), outcomes[2].run);
}

// The pre-resolved batch entry (names resolved to buffer indices once
// per batch, the fused service drain's hot path) is semantically
// identical to the name-keyed one: same results, same per-job error
// isolation, and unknown names / duplicate buffers are still rejected.
TEST(ExecPlanBatch, ResolvedJobsMatchNameKeyedJobs) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\nparam c = -2.25;\nt = mul(a, c);\ny = add(t, b);\n"
      "output y;\n",
      ov::OverlayArch{});
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));

  const auto good0 = double_streams({"a", "b"}, 33, 0.0);
  const auto good1 = double_streams({"a", "b"}, 7, 2.0);
  const std::int32_t buf_a = executor.resolve_input("a");
  const std::int32_t buf_b = executor.resolve_input("b");
  EXPECT_THROW(executor.resolve_input("nope"), std::invalid_argument);

  std::vector<ov::ResolvedJob> resolved(3);
  std::vector<ov::BatchInputs> keyed(3);
  for (std::size_t j = 0; j < 2; ++j) {
    const auto& streams = j == 0 ? good0 : good1;
    for (const auto& [name, stream] : streams) {
      const ov::BatchStream view{nullptr, stream.data(), stream.size()};
      resolved[j].push_back({name == "a" ? buf_a : buf_b, view});
      keyed[j][name] = view;
    }
  }
  // Job 2: ragged lengths — must fail alone in both forms.
  resolved[2].push_back(
      {buf_a, ov::BatchStream{nullptr, good0.at("a").data(), 33}});
  resolved[2].push_back(
      {buf_b, ov::BatchStream{nullptr, good1.at("b").data(), 7}});
  keyed[2]["a"] = ov::BatchStream{nullptr, good0.at("a").data(), 33};
  keyed[2]["b"] = ov::BatchStream{nullptr, good1.at("b").data(), 7};

  const auto got = executor.run_batch_resolved(resolved);
  const auto want = executor.run_batch(keyed);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t j = 0; j < 2; ++j) {
    SCOPED_TRACE(vcgra::common::strprintf("job %zu", j));
    ASSERT_FALSE(got[j].error);
    ASSERT_FALSE(want[j].error);
    expect_identical(want[j].run, got[j].run);
  }
  ASSERT_TRUE(got[2].error);
  EXPECT_THROW(std::rethrow_exception(got[2].error), std::invalid_argument);

  // A duplicate buffer index fails that job alone (the name-keyed map
  // cannot express the mistake; the resolved form must reject it).
  std::vector<ov::ResolvedJob> duplicated(2);
  duplicated[0] = resolved[0];
  duplicated[1].push_back(
      {buf_a, ov::BatchStream{nullptr, good1.at("a").data(), 7}});
  duplicated[1].push_back(
      {buf_a, ov::BatchStream{nullptr, good1.at("b").data(), 7}});
  const auto mixed = executor.run_batch_resolved(duplicated);
  ASSERT_FALSE(mixed[0].error);
  expect_identical(want[0].run, mixed[0].run);
  ASSERT_TRUE(mixed[1].error);
  EXPECT_THROW(std::rethrow_exception(mixed[1].error), std::invalid_argument);
}

// run_views: the zero-copy single-job entry returns arena-backed u64
// views identical to the materialized outputs, with the same counters.
TEST(ExecPlanBatch, RunViewsMatchMaterializedOutputs) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\nparam c = 1.5;\nt = mul(b, c);\ny = add(a, t);\n"
      "output y;\n",
      ov::OverlayArch{});
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
  const auto doubles = double_streams({"a", "b"}, 300, 0.25);

  ov::BatchInputs inputs;
  inputs["a"] = ov::BatchStream{nullptr, doubles.at("a").data(), 300};
  inputs["b"] = ov::BatchStream{nullptr, doubles.at("b").data(), 300};
  const ov::PlanExecutor::RunView view = executor.run_views(inputs);
  // Views die at the thread's next plan execution: snapshot first.
  std::map<std::string, std::vector<std::uint64_t>> snapshot;
  for (const auto& [name, stream] : view.outputs) {
    snapshot[name].assign(stream.data, stream.data + stream.size);
  }

  const ov::RunResult run = executor.run_doubles(doubles);
  EXPECT_EQ(view.cycles, run.cycles);
  EXPECT_EQ(view.fp_ops, run.fp_ops);
  EXPECT_EQ(view.mac_ops, run.mac_ops);
  EXPECT_EQ(view.pipeline_depth, run.pipeline_depth);
  ASSERT_EQ(snapshot.size(), run.outputs.size());
  for (const auto& [name, stream] : run.outputs) {
    const auto it = snapshot.find(name);
    ASSERT_NE(it, snapshot.end()) << name;
    ASSERT_EQ(it->second.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(it->second[i], stream[i].bits()) << name << " sample " << i;
    }
  }
}

// The dot kernel's shape (a multiply feeding a decimating MAC by a unit
// coefficient) at window counts that reach the MAC's serial and
// window-parallel paths inside the executor's blocks. A single job, a
// fused batch of mixed lengths and a session fed in 1-, 37- and
// 1000-sample chunks all match the interpreter bit for bit, counters
// included. (Its own suite, registered last: its 8k-sample jobs grow
// this thread's arena past what ExecPlanArena's growth check expects.)
TEST(ExecPlanMac, DotShapedMacAcrossEnginesAndChunkings) {
  vcgra::common::Rng rng(0xd07);
  const auto stream = [&](std::size_t length) {
    std::vector<double> values(length);
    for (double& v : values) {
      const double roll = rng.next_double();
      v = roll < 0.02   ? 0.0
          : roll < 0.03 ? std::numeric_limits<double>::infinity()
          : roll < 0.04 ? std::numeric_limits<double>::quiet_NaN()
          : roll < 0.05 ? 1e5  // 1e5 * 1e5 overflows the paper format
                        : 8.0 * rng.next_double() - 4.0;
    }
    return values;
  };
  const auto dot_inputs = [&](std::size_t length) {
    std::map<std::string, std::vector<double>> inputs;
    inputs["a"] = stream(length);
    inputs["b"] = stream(length);
    return inputs;
  };
  vcgra::runtime::ServiceOptions options;
  options.threads = 1;
  vcgra::runtime::OverlayService service(options);
  for (const int count : {16, 64, 128, 1000}) {
    SCOPED_TRACE(vcgra::common::strprintf("count=%d", count));
    const std::string kernel = vcgra::common::strprintf(
        "input a; input b;\nparam one = 1.0;\np = mul(a, b);\n"
        "s = mac(p, one, %d);\noutput s;\n",
        count);
    const ov::Compiled compiled = ov::compile_kernel(kernel, ov::OverlayArch{});
    const ov::Simulator interpreter(compiled);
    const ov::PlanExecutor executor(
        std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
    const std::size_t n = static_cast<std::size_t>(count);

    for (const std::size_t length : {n * 9 + n / 2, std::size_t{8192}}) {
      const auto inputs = dot_inputs(length);
      expect_identical(interpreter.run_doubles(inputs),
                       executor.run_doubles(inputs));
    }

    std::vector<std::map<std::string, std::vector<double>>> jobs;
    for (const std::size_t length :
         {std::size_t{0}, n - 1, 8 * n, 8 * n + 5, std::size_t{3000}}) {
      jobs.push_back(dot_inputs(length));
    }
    std::vector<ov::BatchInputs> batch(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (const auto& [name, values] : jobs[j]) {
        batch[j][name] = ov::BatchStream{nullptr, values.data(), values.size()};
      }
    }
    const auto outcomes = executor.run_batch(batch);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      SCOPED_TRACE(vcgra::common::strprintf("batch job %zu", j));
      ASSERT_FALSE(outcomes[j].error);
      expect_identical(interpreter.run_doubles(jobs[j]), outcomes[j].run);
    }

    constexpr std::size_t kSessionLength = 8192 + 7;
    const auto whole = dot_inputs(kSessionLength);
    const ov::RunResult one_shot = interpreter.run_doubles(whole);
    for (const std::size_t chunk : {1, 37, 1000}) {
      SCOPED_TRACE(vcgra::common::strprintf("chunk=%zu", chunk));
      vcgra::runtime::SessionRequest request;
      request.kernel_text = kernel;
      auto session = service.open_session(request);
      std::vector<std::uint64_t> concatenated;
      ov::RunResult last;
      for (std::size_t offset = 0; offset < kSessionLength; offset += chunk) {
        const std::size_t end = std::min(offset + chunk, kSessionLength);
        std::map<std::string, std::vector<double>> piece;
        for (const auto& [name, values] : whole) {
          piece[name].assign(values.begin() + static_cast<long>(offset),
                             values.begin() + static_cast<long>(end));
        }
        last = session->feed(piece);
        const auto it = last.outputs.find("s");
        if (it == last.outputs.end()) continue;
        for (const FpValue& value : it->second) {
          concatenated.push_back(value.bits());
        }
      }
      const auto& want = one_shot.outputs.at("s");
      ASSERT_EQ(concatenated.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(concatenated[i], want[i].bits()) << "window " << i;
      }
      EXPECT_EQ(last.cycles, one_shot.cycles);
      EXPECT_EQ(last.fp_ops, one_shot.fp_ops);
      EXPECT_EQ(last.mac_ops, one_shot.mac_ops);
    }
  }
}

// --- binary64 value domain ---------------------------------------------------
//
// Registered after ExecPlanMac for the same reason: their long streams
// grow this thread's arena.

namespace {

/// Operand pairs (both orders) aimed at the binary64 domain's rounding
/// edges, as canonical encodings: every exponent difference 0..wf+4,
/// every other pair with b's bits below a's lsb forming an exact tie;
/// products of tie-prone significands and sums and products straddling
/// 2^-bias and the top exponent; exact and near cancellation; and every
/// pairing of ±0, ±inf, NaN and the extreme normals.
void f64_edge_pairs(FpFormat f, vcgra::common::Rng& rng,
                    std::vector<std::uint64_t>* a, std::vector<std::uint64_t>* b) {
  const std::int64_t top = static_cast<std::int64_t>(f.exp_mask());
  const std::int64_t bias = f.bias();
  const std::uint64_t sign_bit = std::uint64_t{1} << (f.we + f.wf);
  const auto normal = [&](bool sign, std::int64_t e, std::uint64_t frac) {
    return FpValue::from_fields(
               f, sign, static_cast<std::uint64_t>(std::clamp<std::int64_t>(e, 0, top)),
               frac & f.frac_mask())
        .bits();
  };
  const auto any_exponent = [&] {
    return static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(top) + 1));
  };
  const auto push = [&](std::uint64_t x, std::uint64_t y) {
    a->push_back(x);
    b->push_back(y);
    a->push_back(y);
    b->push_back(x);
  };

  for (int d = 0; d <= f.wf + 4; ++d) {
    for (int r = 0; r < 64; ++r) {
      const std::int64_t ea =
          d + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(top - d) + 1));
      std::uint64_t frac_b = rng();
      if (r % 2 && d >= 1 && d <= f.wf) {
        frac_b = (frac_b & ~((std::uint64_t{1} << d) - 1)) |
                 (std::uint64_t{1} << (d - 1));
      } else if (r % 2 && d == f.wf + 1) {
        frac_b = 0;  // b is exactly half of a's ulp
      }
      push(normal(rng.next_bool(), ea, rng()),
           normal(rng.next_bool(), ea - d, frac_b));
    }
  }

  const std::uint64_t tie_fracs[] = {
      std::uint64_t{1} << (f.wf - 1), std::uint64_t{1} << (f.wf - 2),
      std::uint64_t{3} << (f.wf - 2), std::uint64_t{1}, f.frac_mask(), 0};
  const std::int64_t targets[] = {-2, -1, 0, 1, top / 2, top - 1, top, top + 1};
  for (int r = 0; r < 4000; ++r) {
    const std::int64_t ea = any_exponent();
    const std::int64_t eb = targets[r % 8] - ea + bias;
    const std::uint64_t frac_b = r % 2 ? tie_fracs[rng.next_below(6)] : rng();
    push(normal(rng.next_bool(), ea, rng()), normal(rng.next_bool(), eb, frac_b));
  }

  for (int r = 0; r < 1000; ++r) {
    const bool s = rng.next_bool();
    const auto low = [&] { return static_cast<std::int64_t>(rng.next_below(3)); };
    push(normal(s, low(), rng()), normal(!s, low(), rng()));
    push(normal(s, top - static_cast<std::int64_t>(rng.next_below(2)), rng()),
         normal(s, top - static_cast<std::int64_t>(rng.next_below(f.wf + 3)), rng()));
    const std::uint64_t x = normal(rng.next_bool(), any_exponent(), rng());
    push(x, x ^ sign_bit);
    push(x, x ^ sign_bit ^ 1);
  }
  // The largest value plus exactly half its ulp: a tie that overflows.
  push(normal(false, top, f.frac_mask()), normal(false, top - f.wf - 1, 0));

  const std::uint64_t specials[] = {
      FpValue::zero(f).bits(),          FpValue::zero(f, true).bits(),
      FpValue::infinity(f).bits(),      FpValue::infinity(f, true).bits(),
      FpValue::nan(f).bits(),           normal(false, 0, 0),
      normal(true, top, f.frac_mask()), normal(false, bias, rng())};
  for (const std::uint64_t x : specials) {
    for (const std::uint64_t y : specials) push(x, y);
  }
}

/// Double inputs for the run_doubles differential: exact format values,
/// exact and near ties between neighbours, values that round past the
/// top or below 2^-bias, denormals, signed zeros, infinities, NaNs with
/// payloads and unrounded doubles.
std::vector<double> f64_double_stream(FpFormat f, vcgra::common::Rng& rng,
                                      std::size_t length) {
  std::vector<double> out(length);
  for (double& v : out) {
    const double roll = rng.next_double();
    const double exact = sf::fp_decode_double(f, random_operand(f, rng).bits());
    if (roll < 0.35) {
      v = exact;
    } else if (roll < 0.6 && std::isfinite(exact) && exact != 0) {
      // Half an ulp above the format value: a tie, or one double off it.
      const int e = std::ilogb(exact);
      v = exact + std::ldexp(std::copysign(1.0, exact), e - f.wf - 1);
      if (rng.next_bool()) v = std::nextafter(v, rng.next_bool() ? 0.0 : v * 2);
    } else if (roll < 0.64) {
      v = std::ldexp(1.0 + rng.next_double(),
                     static_cast<int>(rng.next_below(5)) - 2 - static_cast<int>(f.bias()));
    } else if (roll < 0.68) {
      v = std::ldexp(2.0 - std::ldexp(1.0, -f.wf - 1 - static_cast<int>(rng.next_below(2))),
                     static_cast<int>(f.bias()));
    } else if (roll < 0.7) {
      v = rng.next_bool() ? 5e-324 : -2.2250738585072009e-308;
    } else if (roll < 0.72) {
      std::uint64_t nan_bits = 0x7ff0000000000001ULL | (rng() & 0x800fffffffffffffULL);
      __builtin_memcpy(&v, &nan_bits, sizeof(v));
    } else {
      v = (8.0 * rng.next_double() - 4.0) *
          std::ldexp(1.0, static_cast<int>(rng.next_below(9)) - 4);
    }
  }
  return out;
}

/// One run_doubles differential case: interpreter vs plan executor on
/// the same double streams.
void run_doubles_case(std::uint64_t seed, FpFormat format, int grid,
                      std::size_t samples) {
  SCOPED_TRACE(vcgra::common::strprintf(
      "reproduce with: random_dfg(%llu), fp(%d,%d), %dx%d grid, doubles",
      static_cast<unsigned long long>(seed), format.we, format.wf, grid, grid));
  const ov::Dfg dfg = random_dfg(seed);
  ov::OverlayArch arch;
  arch.rows = grid;
  arch.cols = grid;
  arch.format = format;
  const ov::Compiled compiled = ov::compile(dfg, arch, seed);

  vcgra::common::Rng rng(seed ^ 0xf64ULL);
  std::map<std::string, std::vector<double>> inputs;
  for (const int id : dfg.inputs()) {
    inputs[dfg.nodes()[static_cast<std::size_t>(id)].name] =
        f64_double_stream(format, rng, samples);
  }
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
  expect_identical(ov::Simulator(compiled).run_doubles(inputs),
                   executor.run_doubles(inputs));
}

}  // namespace

// Every binary64-domain kernel, batch and scalar, against the FpValue
// ops on operands aimed at its rounding edges, in five formats up to the
// domain's bound. The scalar reference runs on every host; the batch
// kernels run the SIMD lanes where the host has them.
TEST(BatchKernelsF64, TargetedFuzzMatchesScalarOps) {
  const FpFormat formats[] = {FpFormat{4, 7}, FpFormat::half_like(),
                              FpFormat::paper(), FpFormat::single_like(),
                              FpFormat{9, 50}};
  vcgra::common::Rng rng(0xf64f);
  for (const FpFormat& f : formats) {
    SCOPED_TRACE(vcgra::common::strprintf("fp(%d,%d)", f.we, f.wf));
    ASSERT_TRUE(sf::fp_f64_exact(f));
    std::vector<std::uint64_t> a, b;
    f64_edge_pairs(f, rng, &a, &b);
    const std::size_t n = a.size();
    const std::vector<double> da = decode_all(f, a), db = decode_all(f, b);
    const std::uint64_t sign_bit = std::uint64_t{1} << (f.we + f.wf);
    const auto add = [&](std::uint64_t x, std::uint64_t y) {
      return sf::fp_add(FpValue(f, x), FpValue(f, y)).bits();
    };
    const auto mul = [&](std::uint64_t x, std::uint64_t y) {
      return sf::fp_mul(FpValue(f, x), FpValue(f, y)).bits();
    };

    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sf::fp_f64_pack(f, sf::fp_f64_add(f, da[i], db[i])), add(a[i], b[i]))
          << vcgra::common::strprintf("scalar add(%a, %a)", da[i], db[i]);
      ASSERT_EQ(sf::fp_f64_pack(f, sf::fp_f64_mul(f, da[i], db[i])), mul(a[i], b[i]))
          << vcgra::common::strprintf("scalar mul(%a, %a)", da[i], db[i]);
      ASSERT_EQ(sf::fp_f64_pack(f, da[i]), a[i]) << "pack " << i;
    }

    std::vector<double> out(n);
    sf::fp_f64_mul_n(f, da.data(), db.data(), out.data(), n);
    std::vector<std::uint64_t> got = pack_all(f, out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], mul(a[i], b[i])) << "mul " << i;
    }
    for (const bool negate : {false, true}) {
      sf::fp_f64_add_n(f, da.data(), db.data(), negate, out.data(), n);
      got = pack_all(f, out);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], add(a[i], b[i] ^ (negate ? sign_bit : 0)))
            << "add negate=" << negate << " sample " << i;
      }
    }

    const std::uint64_t coeffs[] = {
        FpValue::from_double(f, 1.375).bits(), FpValue::from_double(f, -0.625).bits(),
        FpValue::from_double(f, 1.5).bits(),   FpValue::zero(f).bits(),
        FpValue::zero(f, true).bits(),         FpValue::infinity(f).bits(),
        FpValue::infinity(f, true).bits(),     FpValue::nan(f).bits(),
        FpValue::from_fields(f, false, f.exp_mask(), f.frac_mask()).bits(),
        FpValue::from_fields(f, true, 0, 1).bits()};
    for (const std::uint64_t c : coeffs) {
      SCOPED_TRACE(vcgra::common::strprintf("coeff %llx",
                                            static_cast<unsigned long long>(c)));
      const double dc = sf::fp_decode_double(f, c);
      sf::fp_f64_mul_coeff_n(f, da.data(), dc, out.data(), n);
      got = pack_all(f, out);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], mul(a[i], c)) << "mul_coeff " << i;
      }
      for (const bool negate : {false, true}) {
        const std::uint64_t x = negate ? sign_bit : 0;
        sf::fp_f64_axpy_n(f, da.data(), db.data(), dc, negate, out.data(), n);
        got = pack_all(f, out);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], add(a[i], mul(b[i], c) ^ x)) << "axpy " << i;
        }
        sf::fp_f64_xpay_n(f, db.data(), dc, da.data(), negate, out.data(), n);
        got = pack_all(f, out);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], add(mul(b[i], c), a[i] ^ x)) << "xpay " << i;
        }
      }
      // In place, as the MAC's window groups run it.
      std::vector<double> in_place = da;
      sf::fp_f64_axpy_n(f, in_place.data(), db.data(), dc, false, in_place.data(), n);
      sf::fp_f64_axpy_n(f, da.data(), db.data(), dc, false, out.data(), n);
      ASSERT_EQ(pack_all(f, in_place), pack_all(f, out)) << "axpy out==a";
    }

    // Explicit edges of the lanes' directed-rounding round-to-odd: signed
    // zeros and cancellation (the sum rounded down is -0 there), IEEE
    // invalid operations, and sums and products whose binary64
    // round-to-nearest result lies away from zero, of either sign (only
    // formats with wf >= 26 have inexact binary64 sums or products).
    const std::uint64_t pz = FpValue::zero(f).bits(), nz = FpValue::zero(f, true).bits();
    const std::uint64_t pinf = FpValue::infinity(f).bits();
    const std::uint64_t ninf = FpValue::infinity(f, true).bits();
    const std::uint64_t x = FpValue::from_double(f, 1.375).bits();
    std::vector<std::uint64_t> ea = {pz, nz, nz, x,  x ^ sign_bit, pinf, pz,   nz};
    std::vector<std::uint64_t> eb = {nz, pz, nz, x ^ sign_bit, x,  ninf, pinf, ninf};
    std::size_t away[2][2] = {{0, 0}, {0, 0}};  // [add, mul][result negative]
    const std::int64_t bias = f.bias();
    for (int r = 0; r < 20000; ++r) {
      const auto operand = [&](std::int64_t e) {
        return FpValue::from_fields(f, rng.next_bool(), static_cast<std::uint64_t>(e),
                                    rng() & f.frac_mask())
            .bits();
      };
      const std::int64_t e0 = bias - 4 + static_cast<std::int64_t>(rng.next_below(9));
      const std::int64_t gap = std::max<std::int64_t>(0, 52 - f.wf) +
                               static_cast<std::int64_t>(rng.next_below(6));
      const std::uint64_t u = operand(e0);
      const std::uint64_t v = operand(std::max<std::int64_t>(1, e0 - gap));
      const double du = sf::fp_decode_double(f, u), dv = sf::fp_decode_double(f, v);
      const double s = du + dv, bb = s - du;
      const double es = (du - (s - bb)) + (dv - bb);
      const double p = du * dv, ep = std::fma(du, dv, -p);
      const bool add_away = es != 0 && std::signbit(es) != std::signbit(s);
      const bool mul_away = ep != 0 && std::signbit(ep) != std::signbit(p);
      away[0][std::signbit(s)] += add_away;
      away[1][std::signbit(p)] += mul_away;
      if (add_away || mul_away) {
        ea.push_back(u);
        eb.push_back(v);
      }
    }
    if (f.wf >= 26) {
      for (const auto& op : away) {
        EXPECT_GT(op[0], 100u);
        EXPECT_GT(op[1], 100u);
      }
    }
    const std::vector<double> dea = decode_all(f, ea), deb = decode_all(f, eb);
    std::vector<double> edge_out(ea.size());
    sf::fp_f64_add_n(f, dea.data(), deb.data(), false, edge_out.data(), ea.size());
    got = pack_all(f, edge_out);
    for (std::size_t i = 0; i < ea.size(); ++i) {
      ASSERT_EQ(got[i], add(ea[i], eb[i]))
          << vcgra::common::strprintf("directed add(%a, %a)", dea[i], deb[i]);
    }
    sf::fp_f64_mul_n(f, dea.data(), deb.data(), edge_out.data(), ea.size());
    got = pack_all(f, edge_out);
    for (std::size_t i = 0; i < ea.size(); ++i) {
      ASSERT_EQ(got[i], mul(ea[i], eb[i]))
          << vcgra::common::strprintf("directed mul(%a, %a)", dea[i], deb[i]);
    }
  }
}

// The lanes take the rounding of a vector whose every lane is a format
// normal straight from its signed bits, and only a vector holding any
// other lane through the class blends. Every kernel, against the
// scalar reference lane by lane, with one rare lane of each kind at
// every position among normal lanes, on all-rare vectors, and at every
// tail length from 1 to 17 (the masked-off lanes are rare too).
TEST(BatchKernelsF64, RareLanesAtEveryPositionMatchScalarOps) {
  const FpFormat formats[] = {FpFormat{4, 7}, FpFormat::half_like(),
                              FpFormat::paper(), FpFormat::single_like(),
                              FpFormat{9, 50}};
  const char* lanes = sf::fp_f64_lanes(FpFormat::paper())
                          ? "AVX-512 lanes"
                          : "scalar reference only (no AVX-512 on this host)";
  std::printf("binary64 kernels: %s\n", lanes);
  RecordProperty("binary64_kernels", lanes);

  const auto same = [](double x, double y) {  // any two NaNs alike
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y) ||
           (std::isnan(x) && std::isnan(y));
  };
  const auto hex = [](double v) {
    return vcgra::common::strprintf(
        "%016llx", static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  };
  vcgra::common::Rng rng(0x4a7e);
  for (const FpFormat& f : formats) {
    SCOPED_TRACE(vcgra::common::strprintf("fp(%d,%d)", f.we, f.wf));
    const double minv = std::ldexp(1.0, -static_cast<int>(f.bias()));
    const double top = sf::fp_decode_double(
        f, FpValue::from_fields(f, false, f.exp_mask(), f.frac_mask()).bits());
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = sf::fp_decode_double(f, FpValue::nan(f).bits());
    // A quiet NaN whose payload carries out of bit 62 on rounding, of
    // either sign.
    const double carry_nan = std::bit_cast<double>(~std::uint64_t{0} >> 1);
    const double neg_carry_nan = std::bit_cast<double>(~std::uint64_t{0});

    // One stream: rounding inputs whose results are ±0, a flush, a
    // value past the top, ±inf and NaNs.
    const std::vector<double> rare_in = {
        0.0,  -0.0, minv * 0.5, -5e-324, top + std::ldexp(1.0, std::ilogb(top) - f.wf - 1),
        -inf, inf,  nan,        carry_nan, neg_carry_nan};
    for (const double v : rare_in) {
      ASSERT_FALSE(std::isnormal(sf::fp_f64_round(f, v))) << hex(v);
    }
    // Two streams: format-exact operand pairs whose sum or product is
    // rare, and the pairs that make the coefficient kernels' products
    // rare (coefficients 0.5 and 1.5 flush minv and saturate top).
    const double x = 1.375;
    const std::vector<std::pair<double, double>> rare_pairs = {
        {0.0, x},   {-0.0, x},  {x, -x},      {-0.0, -0.0},
        {minv, 0.5}, {minv * (1 + std::ldexp(1.0, -f.wf)), -minv},
        {top, top}, {top, 1.5}, {inf, x},     {-inf, x},
        {inf, -inf}, {0.0, inf}, {nan, x},    {carry_nan, x},
        {x, neg_carry_nan}, {x, minv},        {x, top}};
    const double coeffs[] = {0.5, 1.0, 1.5, -1.5};

    // Normal lanes: unrounded doubles for the rounding kernels, format
    // values in [1/4, 8) for the arithmetic ones, whose sums and
    // products stay normal.
    const auto unrounded = [&] {
      return (rng.next_bool() ? -1.0 : 1.0) *
             std::ldexp(1.0 + rng.next_double(), static_cast<int>(rng.next_below(7)) - 3);
    };
    const auto normal = [&] {
      return sf::fp_decode_double(
          f, FpValue::from_fields(f, rng.next_bool(),
                                  static_cast<std::uint64_t>(f.bias() - 2) +
                                      rng.next_below(5),
                                  rng() & f.frac_mask())
                 .bits());
    };

    // Every vector shape, per length: all normal, one rare lane of each
    // kind, or all rare (the rare values cycled from an offset). The
    // rare lane takes every position at lengths 8 and 17 (two whole
    // vectors and a tail of one) and one position, moving with the kind,
    // at the other lengths.
    const auto shapes = [&](std::size_t kinds, const auto& fill) {
      for (std::size_t len = 1; len <= 17; ++len) {
        fill(len, std::size_t{0}, kinds);  // all normal (`kinds` = none)
        for (std::size_t k = 0; k < kinds; ++k) {
          if (len == 8 || len == 17) {
            for (std::size_t pos = 0; pos < len; ++pos) fill(len, pos, k);
          } else {
            fill(len, k % len, k);
          }
        }
        fill(len, len, kinds + 1);  // all rare
      }
    };
    int failures = 0;
    const auto expect = [&](bool ok, const char* kernel, std::size_t len,
                            std::size_t lane, const std::string& detail) {
      if (ok || ++failures > 8) return;
      ADD_FAILURE() << kernel << " len " << len << " lane " << lane << ": " << detail;
    };

    shapes(rare_in.size(), [&](std::size_t len, std::size_t pos, std::size_t kind) {
      std::vector<double> in(len);
      for (std::size_t i = 0; i < len; ++i) {
        in[i] = kind > rare_in.size()       ? rare_in[(i + len) % rare_in.size()]
                : kind < rare_in.size() && i == pos ? rare_in[kind]
                                                    : unrounded();
      }
      std::vector<double> rounded(len);
      sf::fp_f64_round_n(f, in.data(), rounded.data(), len);
      std::vector<std::uint64_t> packed(len), encoded(len);
      sf::fp_f64_pack_n(f, rounded.data(), packed.data(), len);
      sf::fp_from_double_n(f, in.data(), encoded.data(), len);
      for (std::size_t i = 0; i < len; ++i) {
        const double want = sf::fp_f64_round(f, in[i]);
        expect(std::bit_cast<std::uint64_t>(rounded[i]) ==
                   std::bit_cast<std::uint64_t>(want),
               "round", len, i, hex(in[i]) + " -> " + hex(rounded[i]));
        expect(packed[i] == sf::fp_f64_pack(f, want), "pack", len, i, hex(want));
        expect(encoded[i] == FpValue::from_double(f, in[i]).bits(), "from_double",
               len, i, hex(in[i]));
      }
    });

    shapes(rare_pairs.size(), [&](std::size_t len, std::size_t pos, std::size_t kind) {
      std::vector<double> a(len), b(len);
      for (std::size_t i = 0; i < len; ++i) {
        const bool rare = kind > rare_pairs.size() || (kind < rare_pairs.size() && i == pos);
        const std::size_t k = kind > rare_pairs.size() ? (i + len) % rare_pairs.size() : kind;
        a[i] = rare ? rare_pairs[k].first : normal();
        b[i] = rare ? rare_pairs[k].second : normal();
      }
      const auto check = [&](const char* kernel, const std::vector<double>& got,
                             const auto& want) {
        for (std::size_t i = 0; i < got.size(); ++i) {
          expect(same(got[i], want(i)), kernel, len, i,
                 hex(a[i]) + ", " + hex(b[i]) + " -> " + hex(got[i]));
        }
      };
      const auto mul = [&](double u, double v) { return sf::fp_f64_mul(f, u, v); };
      const auto add = [&](double u, double v) { return sf::fp_f64_add(f, u, v); };
      std::vector<double> out(len);
      sf::fp_f64_mul_n(f, a.data(), b.data(), out.data(), len);
      check("mul", out, [&](std::size_t i) { return mul(a[i], b[i]); });
      for (const bool negate : {false, true}) {
        const double s = negate ? -1.0 : 1.0;
        sf::fp_f64_add_n(f, a.data(), b.data(), negate, out.data(), len);
        check("add", out, [&](std::size_t i) { return add(a[i], s * b[i]); });
        for (const double c : coeffs) {
          sf::fp_f64_axpy_n(f, a.data(), b.data(), c, negate, out.data(), len);
          check("axpy", out, [&](std::size_t i) { return add(a[i], s * mul(b[i], c)); });
          sf::fp_f64_xpay_n(f, b.data(), c, a.data(), negate, out.data(), len);
          check("xpay", out, [&](std::size_t i) { return add(mul(b[i], c), s * a[i]); });
        }
      }
      for (const double c : coeffs) {
        sf::fp_f64_mul_coeff_n(f, a.data(), c, out.data(), len);
        check("mul_coeff", out, [&](std::size_t i) { return mul(a[i], c); });
        for (const std::uint32_t count : {1u, 2u}) {
          // A fresh stream: the serial chain from +0, one output per
          // `count` inputs (whole windows of 8 or more run in the lanes).
          std::vector<double> want;
          double acc = 0.0;
          for (std::size_t i = 0; i < len; ++i) {
            acc = add(acc, mul(a[i], c));
            if ((i + 1) % count == 0) {
              want.push_back(acc);
              acc = 0.0;
            }
          }
          double carried = 0.0;
          std::uint32_t filled = 0;
          out.assign(len, 0.0);
          out.resize(sf::fp_f64_mac_n(f, a.data(), c, count, out.data(), len,
                                      &carried, &filled));
          ASSERT_EQ(out.size(), want.size());
          check("mac", out, [&](std::size_t i) { return want[i]; });
          expect(same(carried, acc), "mac carried acc", len, len, hex(carried));
        }
      }
    });
    ASSERT_EQ(failures, 0);
  }
}

// Outside the bound the domain refuses the format instead of rounding
// wrongly, and the plan executor stays on the bits domain there.
TEST(BatchKernelsF64, RejectsFormatsOutsideTheBound) {
  for (const FpFormat& f : {FpFormat{10, 20}, FpFormat{6, 51}}) {
    EXPECT_FALSE(sf::fp_f64_exact(f));
    EXPECT_FALSE(sf::fp_f64_lanes(f));
    double out = 0;
    EXPECT_THROW(sf::fp_f64_round_n(f, &out, &out, 1), std::invalid_argument);
    EXPECT_THROW(sf::fp_f64_add(f, 1.0, 1.0), std::invalid_argument);
  }
}

// The run_doubles twin of FuzzBitExactAcrossFormatsAndGrids: double
// inputs with ties and near ties, streams longer than the executor's
// block, single_like included. On hosts with the binary64 lanes this
// drives the whole sweep in that domain.
TEST(ExecPlanDifferential, RunDoublesFuzzBitExactAcrossFormatsAndGrids) {
  const FpFormat formats[] = {FpFormat{4, 7}, FpFormat::half_like(),
                              FpFormat::paper(), FpFormat::single_like()};
  const int grids[] = {4, 6};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const FpFormat& format : formats) {
      for (const int grid : grids) {
        run_doubles_case(seed, format, grid, 1100);
      }
    }
  }
}

// Formats just outside the binary64 domain's bound stay on the bits
// domain and bit-exact with the interpreter on the same double inputs.
TEST(ExecPlanDifferential, FormatsOutsideTheF64BoundStayBitExact) {
  for (const FpFormat& format : {FpFormat{10, 20}, FpFormat{6, 51}}) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      run_doubles_case(seed, format, 5, 300);
    }
  }
}

// All-doubles fused batches (the binary64 domain where the format and
// host allow it): jobs of mixed lengths, raw_output and FpValue jobs
// side by side and malformed neighbours that fail alone, against the
// interpreter one job at a time — formats outside the bound included.
TEST(ExecPlanBatch, AllDoublesBatchMatchesInterpreterOneByOne) {
  const FpFormat formats[] = {FpFormat{4, 7}, FpFormat::half_like(),
                              FpFormat::paper(), FpFormat::single_like(),
                              FpFormat{10, 20}, FpFormat{6, 51}};
  const std::size_t lengths[] = {0, 1, 7, 33, 129, 1100};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const FpFormat& format : formats) {
      SCOPED_TRACE(vcgra::common::strprintf(
          "reproduce with: random_dfg(%llu), fp(%d,%d)",
          static_cast<unsigned long long>(seed), format.we, format.wf));
      const ov::Dfg dfg = random_dfg(seed);
      ov::OverlayArch arch;
      arch.rows = 5;
      arch.cols = 5;
      arch.format = format;
      const ov::Compiled compiled = ov::compile(dfg, arch, seed);
      const ov::Simulator interpreter(compiled);
      const ov::PlanExecutor executor(
          std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));

      vcgra::common::Rng rng(seed * 104729 + static_cast<std::uint64_t>(format.wf));
      const std::size_t njobs = 2 + rng.next_below(5);
      std::vector<std::map<std::string, std::vector<double>>> storage(njobs);
      std::vector<ov::BatchInputs> inputs(njobs);
      std::vector<bool> raw(njobs), failing(njobs);
      for (std::size_t j = 0; j < njobs; ++j) {
        const std::size_t samples = lengths[rng.next_below(6)];
        raw[j] = rng.next_bool();
        failing[j] = rng.next_bool(0.2);
        for (const int id : dfg.inputs()) {
          storage[j][dfg.nodes()[static_cast<std::size_t>(id)].name] =
              f64_double_stream(format, rng, samples);
        }
        // A failing job carries one stream the plan does not know, one
        // sample longer than the rest (whichever rule trips first).
        if (failing[j]) {
          storage[j]["stray"] = f64_double_stream(format, rng, samples + 1);
        }
        for (const auto& [name, values] : storage[j]) {
          inputs[j][name] = ov::BatchStream{nullptr, values.data(), values.size()};
        }
      }

      const auto outcomes = executor.run_batch(inputs, raw);
      ASSERT_EQ(outcomes.size(), njobs);
      for (std::size_t j = 0; j < njobs; ++j) {
        SCOPED_TRACE(vcgra::common::strprintf("job %zu of %zu raw=%d", j, njobs,
                                              static_cast<int>(raw[j])));
        if (failing[j]) {
          ASSERT_TRUE(outcomes[j].error);
          EXPECT_THROW(std::rethrow_exception(outcomes[j].error),
                       std::invalid_argument);
          continue;
        }
        ASSERT_FALSE(outcomes[j].error);
        const ov::RunResult want = interpreter.run_doubles(storage[j]);
        if (!raw[j]) {
          expect_identical(want, outcomes[j].run);
          continue;
        }
        const ov::RunResult& got = outcomes[j].run;
        EXPECT_TRUE(got.outputs.empty());
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.fp_ops, want.fp_ops);
        EXPECT_EQ(got.mac_ops, want.mac_ops);
        ASSERT_EQ(got.bit_outputs.size(), want.outputs.size());
        for (const auto& [name, stream] : want.outputs) {
          const std::vector<std::uint64_t>& bits = got.bit_outputs.at(name);
          ASSERT_EQ(bits.size(), stream.size()) << name;
          for (std::size_t i = 0; i < stream.size(); ++i) {
            ASSERT_EQ(bits[i], stream[i].bits()) << name << " sample " << i;
          }
        }
      }
    }
  }
}

// Raw-bits inputs keep the bits domain, because there add_one passes an
// inf operand through with its fraction bits and NaN payloads survive,
// where a binary64 round trip would canonicalize them. Non-canonical
// encodings (inf and zero with fraction or exponent bits, NaN payloads)
// stay bit-exact with the interpreter in a bits-only batch and in one
// that mixes a doubles job with a bits job.
TEST(ExecPlanBatch, NonCanonicalBitsAndMixedBatchesStayBitExact) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\nparam c = -1.25;\nt = mul(b, c);\ny = add(a, t);\n"
      "z = add(a, b);\nw = mul(a, b);\noutput y; output z; output w;\n",
      ov::OverlayArch{});
  const FpFormat f = compiled.arch.format;
  const ov::Simulator interpreter(compiled);
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));

  constexpr std::size_t kN = 300;
  vcgra::common::Rng rng(0x0ddb175);
  const std::uint64_t payload_mask =
      (std::uint64_t{1} << (f.we + f.wf + 1)) - 1;  // sign, exponent, fraction
  std::map<std::string, std::vector<std::uint64_t>> bits;
  std::map<std::string, std::vector<FpValue>> values;
  std::size_t non_canonical = 0;
  for (const char* name : {"a", "b"}) {
    for (std::size_t i = 0; i < kN; ++i) {
      std::uint64_t word = random_operand(f, rng).bits();
      const double roll = rng.next_double();
      if (roll < 0.5) {
        // Any class with arbitrary sign/exponent/fraction bits.
        const std::uint64_t cls = rng.next_below(4);
        if (cls != 1) {
          word = (cls << (f.we + f.wf + 1)) | (rng() & payload_mask);
          non_canonical += (word & ((std::uint64_t{1} << (f.we + f.wf)) - 1)) != 0;
        }
      }
      bits[name].push_back(word);
      values[name].push_back(FpValue(f, word));
    }
  }
  ASSERT_GT(non_canonical, 50u);
  const ov::RunResult want_bits = interpreter.run(values);
  const auto doubles = double_streams({"a", "b"}, 77, 0.375);
  const ov::RunResult want_doubles = interpreter.run_doubles(doubles);

  ov::BatchInputs bits_job, doubles_job;
  for (const char* name : {"a", "b"}) {
    bits_job[name] = ov::BatchStream{bits.at(name).data(), nullptr, kN};
    doubles_job[name] = ov::BatchStream{nullptr, doubles.at(name).data(), 77};
  }
  const auto alone = executor.run_batch({bits_job}, {true});
  ASSERT_FALSE(alone[0].error);
  for (const auto& [name, stream] : want_bits.outputs) {
    const std::vector<std::uint64_t>& got = alone[0].run.bit_outputs.at(name);
    ASSERT_EQ(got.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(got[i], stream[i].bits()) << name << " sample " << i;
    }
  }
  const auto mixed = executor.run_batch({doubles_job, bits_job});
  ASSERT_FALSE(mixed[0].error);
  ASSERT_FALSE(mixed[1].error);
  expect_identical(want_doubles, mixed[0].run);
  expect_identical(want_bits, mixed[1].run);

  // One job mixing a doubles stream with a bits stream.
  ov::BatchInputs half_and_half;
  half_and_half["a"] = bits_job["a"];
  half_and_half["b"] = ov::BatchStream{nullptr, doubles.at("b").data(), 77};
  std::map<std::string, std::vector<FpValue>> half_values;
  half_values["a"] = values.at("a");
  half_values["a"].resize(77);
  for (const double v : doubles.at("b")) {
    half_values["b"].push_back(FpValue::from_double(f, v));
  }
  half_and_half["a"].size = 77;
  const auto half = executor.run_batch({half_and_half});
  ASSERT_FALSE(half[0].error);
  expect_identical(interpreter.run(half_values), half[0].run);
}

// The block-seeded boundary of run_doubles and run_chunk: inputs are
// rounded or encoded one executor block (1024 samples) at a time, just
// before the tape reads them. Lengths around and across block edges, an
// output that is an input (a pass), two outputs on one buffer, a MAC
// whose count does not divide the block, and a leading empty stream.
// A batch of one valid job takes the same sweep, so run_batch_resolved,
// run_batch (FpValue and raw outputs) and run_views are held to the
// interpreter here too, with a warm arena that does not grow on repeats.
TEST(ExecPlanBoundary, BlockSeededRunDoublesMatchesInterpreter) {
  const std::string kernel =
      "input a; input b;\nparam c = -1.25; param one = 1.0;\n"
      "t = mul(b, c);\ny = add(a, t);\nz = pass(y);\nw = pass(a);\n"
      "m = mac(a, one, 7);\noutput y; output z; output w; output m;\n";
  const std::size_t lengths[] = {0, 1, 7, 8, 9, 1023, 1024, 1025, 8193};
  for (const FpFormat& format :
       {FpFormat::paper(), FpFormat::half_like(), FpFormat{10, 20}}) {
    SCOPED_TRACE(vcgra::common::strprintf("fp(%d,%d)", format.we, format.wf));
    ov::OverlayArch arch;
    arch.format = format;
    const ov::Compiled compiled = ov::compile_kernel(kernel, arch);
    const ov::Simulator interpreter(compiled);
    const ov::PlanExecutor executor(
        std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
    vcgra::common::Rng rng(0xb10c + static_cast<std::uint64_t>(format.wf));
    for (const std::size_t n : lengths) {
      SCOPED_TRACE(vcgra::common::strprintf("length %zu", n));
      std::map<std::string, std::vector<double>> inputs;
      inputs["a"] = f64_double_stream(format, rng, n);
      inputs["b"] = f64_double_stream(format, rng, n);
      const ov::RunResult want = interpreter.run_doubles(inputs);
      std::map<std::string, std::vector<std::uint64_t>> want_bits;
      for (const auto& [name, stream] : want.outputs) {
        std::vector<std::uint64_t>& bits = want_bits[name];
        for (const FpValue& v : stream) bits.push_back(v.bits());
      }
      const auto expect_raw = [&](const ov::RunResult& got) {
        EXPECT_TRUE(got.outputs.empty());
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.fp_ops, want.fp_ops);
        EXPECT_EQ(got.mac_ops, want.mac_ops);
        EXPECT_EQ(got.bit_outputs, want_bits);
      };
      ov::BatchInputs views;
      ov::ResolvedJob resolved;
      for (const auto& [name, stream] : inputs) {
        views[name] = ov::BatchStream{nullptr, stream.data(), stream.size()};
        resolved.push_back({executor.resolve_input(name), views[name]});
      }
      const auto run_every_entry_point = [&] {
        expect_identical(want, executor.run_doubles(inputs));
        const auto by_buffer = executor.run_batch_resolved({resolved});
        ASSERT_FALSE(by_buffer[0].error);
        expect_identical(want, by_buffer[0].run);
        const auto by_name = executor.run_batch({views});
        ASSERT_FALSE(by_name[0].error);
        expect_identical(want, by_name[0].run);
        const auto raw = executor.run_batch({views}, {true});
        ASSERT_FALSE(raw[0].error);
        expect_raw(raw[0].run);
        const ov::PlanExecutor::RunView view = executor.run_views(views);
        ov::RunResult viewed;
        viewed.cycles = view.cycles;
        viewed.fp_ops = view.fp_ops;
        viewed.mac_ops = view.mac_ops;
        for (const auto& [name, out] : view.outputs) {
          viewed.bit_outputs[name].assign(out.data, out.data + out.size);
        }
        expect_raw(viewed);
      };
      run_every_entry_point();
      const std::uint64_t grows = ov::PlanExecutor::thread_arena_stats().grows;
      run_every_entry_point();
      EXPECT_EQ(ov::PlanExecutor::thread_arena_stats().grows, grows);
    }
  }

  // A leading empty stream beside a longer one passes the length check;
  // only its own consumers see it empty.
  const ov::Compiled two = ov::compile_kernel(
      "input a; input b;\nparam c = 0.5;\ny = mul(a, c);\nz = mul(b, c);\n"
      "output y; output z;\n",
      ov::OverlayArch{});
  std::map<std::string, std::vector<double>> ragged;
  ragged["a"] = {};
  ragged["b"] = double_streams({"b"}, 2500, 0.125).at("b");
  expect_identical(ov::Simulator(two).run_doubles(ragged),
                   ov::PlanExecutor(std::make_shared<const ov::ExecPlan>(
                                        ov::ExecPlan::lower(two)))
                       .run_doubles(ragged));
}

// run_chunk seeds each chunk block by block too: chunkings that straddle
// executor blocks, fed as doubles or as raw bits, concatenate to the
// interpreter's one-shot outputs and counters.
TEST(ExecPlanBoundary, ChunksStraddlingBlocksMatchOneShot) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\nparam c = -1.25; param one = 1.0;\n"
      "t = mul(b, c);\ny = add(a, t);\nw = pass(a);\nm = mac(a, one, 7);\n"
      "output y; output w; output m;\n",
      ov::OverlayArch{});
  const FpFormat f = compiled.arch.format;
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
  constexpr std::size_t kLength = 8193;
  vcgra::common::Rng rng(0xc4a7);
  std::map<std::string, std::vector<double>> whole;
  std::map<std::string, std::vector<std::uint64_t>> whole_bits;
  for (const char* name : {"a", "b"}) {
    whole[name] = f64_double_stream(f, rng, kLength);
    for (const double v : whole[name]) {
      whole_bits[name].push_back(FpValue::from_double(f, v).bits());
    }
  }
  const ov::RunResult want = ov::Simulator(compiled).run_doubles(whole);

  for (const std::size_t chunk : {std::size_t{1023}, std::size_t{1025}, std::size_t{3000}}) {
    for (const bool bits : {false, true}) {
      SCOPED_TRACE(vcgra::common::strprintf("chunk %zu, %s", chunk,
                                            bits ? "bits" : "doubles"));
      ov::StreamCarry carry;
      std::map<std::string, std::vector<std::uint64_t>> got;
      ov::RunResult last;
      for (std::size_t from = 0; from < kLength; from += chunk) {
        const std::size_t n = std::min(chunk, kLength - from);
        ov::BatchInputs in;
        for (const char* name : {"a", "b"}) {
          in[name] = bits ? ov::BatchStream{whole_bits.at(name).data() + from, nullptr, n}
                          : ov::BatchStream{nullptr, whole.at(name).data() + from, n};
        }
        last = executor.run_chunk(in, &carry, bits);
        for (const auto& [name, stream] : last.outputs) {
          for (const FpValue& v : stream) got[name].push_back(v.bits());
        }
        for (const auto& [name, stream] : last.bit_outputs) {
          got[name].insert(got[name].end(), stream.begin(), stream.end());
        }
      }
      EXPECT_EQ(last.cycles, want.cycles);
      EXPECT_EQ(last.fp_ops, want.fp_ops);
      EXPECT_EQ(last.mac_ops, want.mac_ops);
      ASSERT_EQ(got.size(), want.outputs.size());
      for (const auto& [name, stream] : want.outputs) {
        const std::vector<std::uint64_t>& g = got.at(name);
        ASSERT_EQ(g.size(), stream.size()) << name;
        for (std::size_t i = 0; i < stream.size(); ++i) {
          ASSERT_EQ(g[i], stream[i].bits()) << name << " sample " << i;
        }
      }
    }
  }
}

// fp_to_double_n reports canonicity exactly as the binary64 domain needs
// it: an encoding is canonical when fp_f64_pack(fp_decode_double(w)) == w.
// Each non-canonical kind at every lane position of every length up to
// 17 (whole vectors, tails and a second vector), canonical specials
// beside it, and the decoded values equal fp_decode_double word for word
// (in place too). A format past the binary64 bound takes the scalar loop
// and reports the same way.
TEST(BatchConversion, DecodeReportsCanonicityLikePackOfDecode) {
  const FpFormat formats[] = {FpFormat{4, 7},    FpFormat::half_like(),
                              FpFormat::paper(), FpFormat::single_like(),
                              FpFormat{9, 50},   FpFormat{11, 40}};
  vcgra::common::Rng rng(0xca11);
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y) ||
           (std::isnan(x) && std::isnan(y));
  };
  for (const FpFormat& f : formats) {
    SCOPED_TRACE(vcgra::common::strprintf("fp(%d,%d)", f.we, f.wf));
    for (int kind = -1; kind < kNonCanonicalKinds; ++kind) {
      for (std::size_t len = 1; len <= 17; ++len) {
        for (std::size_t pos = 0; pos < len; ++pos) {
          SCOPED_TRACE(vcgra::common::strprintf("kind %d, length %zu, lane %zu",
                                                kind, len, pos));
          std::vector<std::uint64_t> words(len);
          for (std::uint64_t& w : words) w = random_operand(f, rng).bits();
          if (kind >= 0) words[pos] = non_canonical(f, kind, rng);
          if (sf::fp_f64_exact(f)) {
            for (std::size_t i = 0; i < len; ++i) {
              const bool canonical =
                  sf::fp_f64_pack(f, sf::fp_decode_double(f, words[i])) == words[i];
              ASSERT_EQ(canonical, kind < 0 || i != pos) << "lane " << i;
            }
          }
          std::vector<double> out(len);
          ASSERT_EQ(sf::fp_to_double_n(f, words.data(), out.data(), len), kind < 0);
          std::vector<std::uint64_t> in_place = words;
          ASSERT_EQ(sf::fp_to_double_n(f, in_place.data(),
                                       reinterpret_cast<double*>(in_place.data()), len),
                    kind < 0);
          for (std::size_t i = 0; i < len; ++i) {
            const double want = sf::fp_decode_double(f, words[i]);
            ASSERT_TRUE(same(out[i], want)) << "lane " << i;
            ASSERT_TRUE(same(std::bit_cast<double>(in_place[i]), want)) << "lane " << i;
          }
        }
      }
    }
  }
}

// Non-canonical encodings at every lane position, through each path a
// raw-bits stream takes into the plan executor: a lone job, a fused batch
// mixing canonical and non-canonical jobs, and a session whose one
// non-canonical chunk sits between canonical ones. One such lane sends
// its whole sweep to the bits domain, where the adds and the pass PEs
// keep the bits a binary64 round trip would clear; canonical jobs and
// chunks keep the binary64 domain where the host has it. Every output is
// checked bit for bit against the interpreter. Lengths 8 and 17 put the
// lane at every position; lengths 1 to 40 move one lane across the
// vector width and past 32 elements.
TEST(ExecPlanCanonicity, NonCanonicalLanesForceTheBitsDomainOnEveryPath) {
  const ov::Compiled compiled = ov::compile_kernel(
      "input a; input b;\nparam c = -1.25;\nt = mul(b, c);\ny = add(a, t);\n"
      "z = add(a, b);\nw = pass(a);\nv = pass(b);\nm = mac(b, c, 3);\n"
      "output y; output z; output w; output v; output m;\n",
      ov::OverlayArch{});
  const FpFormat f = compiled.arch.format;
  const bool lanes = sf::fp_f64_lanes(f);
  const char* domain = lanes ? "binary64 lanes" : "bits domain (no AVX-512)";
  std::printf("raw-bits jobs: %s\n", domain);
  RecordProperty("raw_bits_jobs", domain);

  const ov::Simulator interpreter(compiled);
  const ov::PlanExecutor executor(
      std::make_shared<const ov::ExecPlan>(ov::ExecPlan::lower(compiled)));
  vcgra::common::Rng rng(0xca40);
  using Streams = std::map<std::string, std::vector<std::uint64_t>>;
  const auto canonical_streams = [&](std::size_t n) {
    Streams streams;
    for (const char* name : {"a", "b"}) {
      for (std::size_t i = 0; i < n; ++i) {
        streams[name].push_back(random_operand(f, rng).bits());
      }
    }
    return streams;
  };
  const auto values_as_bits = [](const ov::RunResult& run) {
    Streams out;
    for (const auto& [name, stream] : run.outputs) {
      std::vector<std::uint64_t>& bits = out[name];
      for (const FpValue& value : stream) bits.push_back(value.bits());
    }
    return out;
  };
  const auto want = [&](const Streams& streams) {
    std::map<std::string, std::vector<FpValue>> values;
    for (const auto& [name, words] : streams) {
      for (const std::uint64_t w : words) values[name].push_back(FpValue(f, w));
    }
    return values_as_bits(interpreter.run(values));
  };
  const auto job = [](const Streams& streams) {
    ov::BatchInputs in;
    for (const auto& [name, words] : streams) {
      in[name] = ov::BatchStream{words.data(), nullptr, words.size()};
    }
    return in;
  };
  // The sweeps run since `before` were one per job: `clean` of them in
  // binary64 (where the host has it) and `dirty` in the bits domain.
  const auto expect_sweeps = [&](const Sweeps& before, std::uint64_t clean,
                                 std::uint64_t dirty) {
    const Sweeps after = sweeps();
    EXPECT_EQ(after.binary64 - before.binary64, lanes ? clean : 0u);
    EXPECT_EQ(after.bits - before.bits, lanes ? dirty : clean + dirty);
  };
  const auto expect_domain = [&](const Sweeps& before, bool binary64) {
    expect_sweeps(before, binary64 ? 1 : 0, binary64 ? 0 : 1);
  };

  std::vector<std::pair<std::size_t, std::size_t>> cases;  // (length, lane)
  for (const std::size_t len : {std::size_t{8}, std::size_t{17}}) {
    for (std::size_t pos = 0; pos < len; ++pos) cases.emplace_back(len, pos);
  }
  for (std::size_t len = 1; len <= 40; ++len) cases.emplace_back(len, 5 * len / 7);

  for (const auto& [len, pos] : cases) {
    for (int kind = 0; kind < kNonCanonicalKinds; ++kind) {
      SCOPED_TRACE(vcgra::common::strprintf("length %zu, lane %zu, kind %d", len,
                                            pos, kind));
      const Streams clean = canonical_streams(len);
      Streams dirty = clean;
      dirty[(pos + static_cast<std::size_t>(kind)) % 2 ? "b" : "a"][pos] =
          non_canonical(f, kind, rng);
      const Streams want_clean = want(clean), want_dirty = want(dirty);

      // A lone job.
      Sweeps before = sweeps();
      auto alone = executor.run_batch({job(dirty)}, {true});
      ASSERT_FALSE(alone[0].error);
      EXPECT_EQ(alone[0].run.bit_outputs, want_dirty);
      expect_domain(before, false);
      before = sweeps();
      alone = executor.run_batch({job(clean)}, {true});
      ASSERT_FALSE(alone[0].error);
      EXPECT_EQ(alone[0].run.bit_outputs, want_clean);
      expect_domain(before, true);

      // A fused batch: one sweep per job, each in its own domain, so a
      // non-canonical job leaves its canonical neighbours in binary64.
      before = sweeps();
      const auto mixed = executor.run_batch({job(clean), job(dirty), job(clean)},
                                            {true, true, false});
      for (const auto& outcome : mixed) ASSERT_FALSE(outcome.error);
      EXPECT_EQ(mixed[0].run.bit_outputs, want_clean);
      EXPECT_EQ(mixed[1].run.bit_outputs, want_dirty);
      EXPECT_EQ(values_as_bits(mixed[2].run), want_clean);
      expect_sweeps(before, 2, 1);
      before = sweeps();
      const auto fused = executor.run_batch({job(clean), job(clean)}, {true, false});
      EXPECT_EQ(fused[0].run.bit_outputs, want_clean);
      EXPECT_EQ(values_as_bits(fused[1].run), want_clean);
      expect_sweeps(before, 2, 0);

      // A session: the MAC accumulator crosses each chunk boundary (5
      // and 7 are not multiples of its count) and both domain changes.
      const Streams head = canonical_streams(5), tail = canonical_streams(7);
      const Streams* const chunks[] = {&head, &dirty, &tail};
      Streams whole;
      for (const Streams* part : chunks) {
        for (const auto& [name, words] : *part) {
          whole[name].insert(whole[name].end(), words.begin(), words.end());
        }
      }
      ov::StreamCarry carry;
      Streams got;
      for (const Streams* chunk : chunks) {
        before = sweeps();
        const ov::RunResult run = executor.run_chunk(job(*chunk), &carry, true);
        expect_domain(before, chunk != &dirty);
        for (const auto& [name, bits] : run.bit_outputs) {
          got[name].insert(got[name].end(), bits.begin(), bits.end());
        }
      }
      EXPECT_EQ(got, want(whole));
    }
  }

  // A carried accumulator is an encoding too: a non-canonical one (an inf
  // with fraction bits, which every later add passes through) takes its
  // chunk to the bits domain, and the chunk folds from it exactly.
  const std::uint64_t inf_with_fraction = FpValue::infinity(f).bits() | 5;
  ov::StreamCarry carry;
  carry.mac.resize(1);
  carry.mac[0].acc = inf_with_fraction;
  carry.mac[0].filled = 1;
  const Streams chunk = canonical_streams(2);
  const Sweeps before = sweeps();
  const ov::RunResult run = executor.run_chunk(job(chunk), &carry, true);
  expect_domain(before, false);
  const FpValue c = FpValue::from_double(f, -1.25);
  FpValue acc(f, inf_with_fraction);
  for (const std::uint64_t x : chunk.at("b")) acc = sf::fp_mac(acc, FpValue(f, x), c);
  EXPECT_EQ(run.bit_outputs.at("m"), std::vector<std::uint64_t>{acc.bits()});
}
