// Kernel graphs & streaming sessions: the differential suite.
//
// The graph/session machinery promises that its fast paths are
// *unobservable* next to the base service:
//
//   * a KernelGraph invocation is bit-identical (outputs AND counters)
//     to submitting every stage as its own raw-bits job and moving the
//     edge buffers by hand — asserted here over randomized DAGs;
//   * a Session's chunking is unobservable — any chunk split, including
//     splits straddling MAC decimation groups and the executor's
//     internal block size, concatenates to the one-shot bit pattern
//     with identical cumulative counters, in every FP format, on both
//     engines (plan executor and interpreter oracle);
//   * a cross-format edge pays exactly the decode/encode bridge a
//     client would pay at the double boundary — nothing more.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/hpc/bench.hpp"
#include "vcgra/runtime/graph.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/softfloat/fpformat.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/exec_plan.hpp"
#include "vcgra/vcgra/simulator.hpp"
#include "vcgra/vision/filters.hpp"
#include "vcgra/vision/pipeline.hpp"
#include "vcgra/vision/pipeline_service.hpp"
#include "vcgra/vision/synthetic.hpp"

namespace rt = vcgra::runtime;
namespace ov = vcgra::overlay;
namespace sf = vcgra::softfloat;
namespace vc = vcgra::common;
namespace vi = vcgra::vision;

namespace {

/// y = mac(x, c, count): the decimating kernel whose accumulator state
/// is exactly what a Session must carry across chunks.
std::string mac_kernel(int count, double coeff = 0.625) {
  return vc::strprintf(
      "input x;\nparam c = %.17g;\ny = mac(x, c, %d);\noutput y;\n", coeff,
      count);
}

std::vector<double> ramp(std::size_t length, double scale = 1.0,
                         double offset = -7.5) {
  std::vector<double> stream;
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(scale * (static_cast<double>(i) + offset) / 3.0);
  }
  return stream;
}

std::vector<double> random_stream(vc::Rng& rng, std::size_t length) {
  std::vector<double> stream;
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(4.0 * rng.next_double() - 2.0);
  }
  return stream;
}

/// Split `total` into the chunk sizes a session test feeds: a fixed
/// hostile prefix (tiny chunks that straddle MAC groups) plus sizes
/// around the executor's 1024-element internal block, then the rest.
std::vector<std::size_t> hostile_chunks(std::size_t total) {
  const std::size_t pattern[] = {1, 2, 3, 5, 7, 1000, 1024};
  std::vector<std::size_t> sizes;
  std::size_t used = 0;
  for (const std::size_t size : pattern) {
    if (used + size > total) break;
    sizes.push_back(size);
    used += size;
  }
  if (used < total) sizes.push_back(total - used);
  return sizes;
}

rt::ServiceOptions two_thread_options() {
  rt::ServiceOptions options;
  options.threads = 2;
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sessions: chunking is unobservable.

// The headline session differential: for every FP format, feeding a
// MAC-decimating kernel through hostile chunk splits concatenates to the
// one-shot bit pattern with identical cumulative counters — and the
// one-shot itself agrees between the plan executor and the interpreter
// oracle, so the session inherits bit-exactness from both engines.
TEST(SessionChunkedFeed, BitIdenticalToOneShotInEveryFormat) {
  const sf::FpFormat formats[] = {sf::FpFormat::paper(),
                                  sf::FpFormat::single_like(),
                                  sf::FpFormat::half_like()};
  for (const sf::FpFormat& format : formats) {
    ov::OverlayArch arch;
    arch.format = format;
    const std::string kernel = mac_kernel(3);
    // 2100 samples: > 2 internal blocks, 700 complete MAC groups.
    const std::vector<double> stream = ramp(2100);

    rt::OverlayService plan_service(two_thread_options());
    rt::JobRequest job;
    job.kernel_text = kernel;
    job.arch = arch;
    job.inputs["x"] = stream;
    job.raw_output = true;
    const rt::JobResult one_shot = plan_service.run(job);
    const auto& oracle = one_shot.run.bit_outputs.at("y");
    ASSERT_EQ(oracle.size(), 700u);

    // Interpreter oracle: identical bits and counters for the one-shot.
    rt::ServiceOptions interp_options = two_thread_options();
    interp_options.use_plan_executor = false;
    rt::OverlayService interp_service(interp_options);
    const rt::JobResult interp = interp_service.run(job);
    EXPECT_EQ(interp.run.bit_outputs.at("y"), oracle);
    EXPECT_EQ(interp.run.cycles, one_shot.run.cycles);
    EXPECT_EQ(interp.run.fp_ops, one_shot.run.fp_ops);
    EXPECT_EQ(interp.run.mac_ops, one_shot.run.mac_ops);

    rt::SessionRequest request;
    request.kernel_text = kernel;
    request.arch = arch;
    request.raw_output = true;
    auto session = plan_service.open_session(request);
    std::vector<std::uint64_t> concatenated;
    ov::RunResult last;
    std::size_t offset = 0;
    for (const std::size_t size : hostile_chunks(stream.size())) {
      std::map<std::string, std::vector<std::uint64_t>> chunk;
      std::vector<std::uint64_t> bits(size);
      sf::fp_from_double_n(format, stream.data() + offset, bits.data(), size);
      chunk["x"] = std::move(bits);
      last = session->feed_bits(chunk);
      const auto it = last.bit_outputs.find("y");
      if (it != last.bit_outputs.end()) {
        concatenated.insert(concatenated.end(), it->second.begin(),
                            it->second.end());
      }
      offset += size;
    }
    ASSERT_EQ(offset, stream.size());
    EXPECT_EQ(concatenated, oracle) << "format we=" << format.we;
    EXPECT_EQ(last.cycles, one_shot.run.cycles);
    EXPECT_EQ(last.fp_ops, one_shot.run.fp_ops);
    EXPECT_EQ(last.mac_ops, one_shot.run.mac_ops);
  }
}

// The double-boundary feed (raw_output = false) is the same datapath
// with a decode at the rim: FpValue outputs concatenate to the one-shot
// bits too, and the handle's bookkeeping (chunks_fed, carried samples)
// matches what went in.
TEST(SessionChunkedFeed, DoubleBoundaryAgreesWithRawBits) {
  const ov::OverlayArch arch;
  const std::string kernel = mac_kernel(3, -0.375);
  const std::vector<double> stream = ramp(60, 0.5);

  rt::OverlayService service(two_thread_options());
  rt::JobRequest job;
  job.kernel_text = kernel;
  job.arch = arch;
  job.inputs["x"] = stream;
  job.raw_output = true;
  const std::vector<std::uint64_t> oracle =
      service.run(job).run.bit_outputs.at("y");

  rt::SessionRequest request;
  request.kernel_text = kernel;
  request.arch = arch;
  auto session = service.open_session(request);
  std::vector<std::uint64_t> concatenated;
  const std::size_t sizes[] = {4, 5, 6, 45};
  std::size_t offset = 0;
  for (const std::size_t size : sizes) {
    std::map<std::string, std::vector<double>> chunk;
    chunk["x"].assign(stream.begin() + static_cast<std::ptrdiff_t>(offset),
                      stream.begin() + static_cast<std::ptrdiff_t>(offset + size));
    const ov::RunResult run = session->feed(chunk);
    const auto it = run.outputs.find("y");
    if (it != run.outputs.end()) {
      for (const auto& value : it->second) concatenated.push_back(value.bits());
    }
    offset += size;
  }
  EXPECT_EQ(concatenated, oracle);
  EXPECT_EQ(session->chunks_fed(), 4u);
  EXPECT_EQ(session->carry().total_samples, stream.size());
}

// ---------------------------------------------------------------------------
// Non-canonical encodings through graph edges and service sessions.

/// A canonical encoding: a normal anywhere in the exponent range, or a
/// ±0, ±inf or the NaN.
std::uint64_t canonical_word(sf::FpFormat f, vc::Rng& rng) {
  const double roll = rng.next_double();
  if (roll < 0.05) return sf::FpValue::zero(f, rng.next_bool()).bits();
  if (roll < 0.08) return sf::FpValue::infinity(f, rng.next_bool()).bits();
  if (roll < 0.10) return sf::FpValue::nan(f).bits();
  return sf::FpValue::from_fields(f, rng.next_bool(), rng() & f.exp_mask(),
                                  rng() & f.frac_mask())
      .bits();
}

/// Kind 0..4: a ±0 with fraction bits, an inf with fraction bits, a NaN
/// with a payload, a NaN with its sign set, and a word with a bit set
/// above the format width.
std::uint64_t non_canonical_word(sf::FpFormat f, int kind, vc::Rng& rng) {
  const int shift = f.we + f.wf;
  const std::uint64_t sign_bit = std::uint64_t{1} << shift;
  const std::uint64_t sign = rng.next_bool() ? sign_bit : 0;
  const std::uint64_t fraction = 1 + rng.next_below(f.frac_mask());
  switch (kind) {
    case 0: return sign | fraction;
    case 1: return sf::FpValue::infinity(f).bits() | sign | fraction;
    case 2: return sf::FpValue::nan(f).bits() | fraction;
    case 3: return sf::FpValue::nan(f).bits() | sign_bit;
    default: return canonical_word(f, rng) | (std::uint64_t{1} << (shift + 3));
  }
}

// A stage that forwards its raw-bits input through a pass PE hands every
// non-canonical lane on over its edge unchanged. The consumer stage must
// then run its whole sweep in the bits domain, where its adds and its
// pass keep those bits; a service session's one non-canonical chunk
// between canonical ones does the same with a MAC accumulator carried
// across it. Each lane kind at every position of lengths 8 and 17 and at
// one moving position of lengths 1 to 40, against the interpreter bit
// for bit; a session chunk's domain is read from the feeding thread's
// arena, since sessions run inline.
TEST(GraphCanonicity, NonCanonicalLanesThroughEdgesAndSessions) {
  const std::string consumer =
      "input a; input b;\nparam c = -1.25;\nt = mul(b, c);\ny = add(a, t);\n"
      "z = add(a, b);\nw = pass(a);\nm = mac(b, c, 3);\n"
      "output y; output z; output w; output m;\n";
  const ov::OverlayArch arch;
  const sf::FpFormat f = arch.format;
  const ov::Simulator interpreter(ov::compile_kernel(consumer, arch));
  rt::OverlayService service(two_thread_options());
  vc::Rng rng(0xed9e);
  const bool lanes = sf::fp_f64_lanes(f);

  using Streams = std::map<std::string, std::vector<std::uint64_t>>;
  const auto want = [&](const Streams& streams) {
    std::map<std::string, std::vector<sf::FpValue>> values;
    for (const auto& [name, words] : streams) {
      for (const std::uint64_t w : words) values[name].push_back(sf::FpValue(f, w));
    }
    Streams out;
    for (const auto& [name, stream] : interpreter.run(values).outputs) {
      std::vector<std::uint64_t>& bits = out[name];
      for (const sf::FpValue& value : stream) bits.push_back(value.bits());
    }
    return out;
  };
  const auto canonical_streams = [&](std::size_t n) {
    Streams streams;
    for (const char* name : {"a", "b"}) {
      for (std::size_t i = 0; i < n; ++i) {
        streams[name].push_back(canonical_word(f, rng));
      }
    }
    return streams;
  };

  std::vector<std::pair<std::size_t, std::size_t>> cases;  // (length, lane)
  for (const std::size_t len : {std::size_t{8}, std::size_t{17}}) {
    for (std::size_t pos = 0; pos < len; ++pos) cases.emplace_back(len, pos);
  }
  for (std::size_t len = 1; len <= 40; ++len) cases.emplace_back(len, 5 * len / 7);

  for (const auto& [len, pos] : cases) {
    for (int kind = 0; kind < 5; ++kind) {
      SCOPED_TRACE(vc::strprintf("length %zu, lane %zu, kind %d", len, pos, kind));
      Streams streams = canonical_streams(len);
      streams["a"][pos] = non_canonical_word(f, kind, rng);

      // The graph edge: p forwards a, q consumes it beside b.
      rt::GraphRequest request;
      request.arch = arch;
      rt::GraphStage p;
      p.name = "p";
      p.kernel_text = "input x;\ny = pass(x);\noutput y;\n";
      p.input_bits["x"] = streams.at("a");
      request.stages.push_back(p);
      rt::GraphStage q;
      q.name = "q";
      q.kernel_text = consumer;
      q.input_bits["b"] = streams.at("b");
      q.keep_output = true;
      request.stages.push_back(q);
      request.edges.push_back({"p", "y", "q", "a"});
      const rt::GraphResult graph = service.run_graph(request);
      Streams got;
      for (const auto& [name, bits] : graph.bit_outputs) {
        if (name.rfind("q:", 0) == 0) got[name.substr(2)] = bits;
      }
      EXPECT_EQ(got, want(streams));

      // The session: canonical, non-canonical, canonical chunks; the MAC
      // window of 3 straddles both boundaries.
      rt::SessionRequest session_request;
      session_request.kernel_text = consumer;
      session_request.arch = arch;
      session_request.raw_output = true;
      const auto session = service.open_session(session_request);
      const Streams head = canonical_streams(5), tail = canonical_streams(7);
      const Streams* const chunks[] = {&head, &streams, &tail};
      Streams whole, fed;
      for (const Streams* chunk : chunks) {
        for (const auto& [name, words] : *chunk) {
          whole[name].insert(whole[name].end(), words.begin(), words.end());
        }
        const ov::ExecArena::Stats before = ov::PlanExecutor::thread_arena_stats();
        const ov::RunResult run = session->feed_bits(*chunk);
        const ov::ExecArena::Stats& after = ov::PlanExecutor::thread_arena_stats();
        const bool binary64 = lanes && chunk != &streams;
        EXPECT_EQ(after.binary64_sweeps - before.binary64_sweeps, binary64 ? 1u : 0u);
        EXPECT_EQ(after.bits_sweeps - before.bits_sweeps, binary64 ? 0u : 1u);
        for (const auto& [name, bits] : run.bit_outputs) {
          fed[name].insert(fed[name].end(), bits.begin(), bits.end());
        }
      }
      EXPECT_EQ(fed, want(whole));
    }
  }
}

// ---------------------------------------------------------------------------
// Graphs: one DAG submission == per-job submits + hand glue.

// Randomized DAGs of chain-add stages, external streams and raw-bits
// edges mixed freely: the graph invocation must be bit-identical —
// outputs AND summed cycles/fp_ops/mac_ops — to submitting every stage
// as its own raw-bits job and carrying the edge buffers by hand.
TEST(GraphFuzz, RandomDagsMatchPerJobSubmit) {
  vc::Rng rng(2026);
  rt::OverlayService service(two_thread_options());
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t length = 16 + static_cast<std::size_t>(trial) * 5;
    const int n = static_cast<int>(rng.next_in(2, 6));
    rt::GraphRequest request;
    // Remember each stage's fan-in and which inputs ride edges so the
    // manual oracle can re-create the exact same jobs.
    std::vector<int> fan_in(static_cast<std::size_t>(n));
    std::vector<std::map<std::string, int>> edge_inputs(
        static_cast<std::size_t>(n));  // input name -> producer stage

    for (int i = 0; i < n; ++i) {
      rt::GraphStage stage;
      stage.name = vc::strprintf("s%d", i);
      const int k = static_cast<int>(rng.next_in(1, 3));
      fan_in[static_cast<std::size_t>(i)] = k;
      stage.kernel_text = ov::chain_add_text(k);
      stage.keep_output = true;
      for (int j = 0; j < k; ++j) {
        const std::string input = vc::strprintf("x%d", j);
        if (i > 0 && rng.next_bool()) {
          const int producer = static_cast<int>(rng.next_in(0, i - 1));
          request.edges.push_back(
              {vc::strprintf("s%d", producer), "y", stage.name, input});
          edge_inputs[static_cast<std::size_t>(i)][input] = producer;
        } else {
          stage.inputs[input] = random_stream(rng, length);
        }
      }
      request.stages.push_back(std::move(stage));
    }

    const rt::GraphResult graph = service.run_graph(request);
    EXPECT_EQ(graph.stages, n);
    EXPECT_EQ(graph.edges_raw, static_cast<int>(request.edges.size()));
    EXPECT_EQ(graph.edges_converted, 0);

    // Manual oracle: stage order is topological by construction (edges
    // only point forward), so run the jobs in index order, feeding each
    // edge input from the producer's raw bits.
    std::vector<std::vector<std::uint64_t>> produced(
        static_cast<std::size_t>(n));
    std::uint64_t cycles = 0, fp_ops = 0, mac_ops = 0;
    for (int i = 0; i < n; ++i) {
      rt::JobRequest job;
      job.kernel_text = ov::chain_add_text(fan_in[static_cast<std::size_t>(i)]);
      job.arch = request.arch;
      job.raw_output = true;
      job.inputs = request.stages[static_cast<std::size_t>(i)].inputs;
      for (const auto& [input, producer] :
           edge_inputs[static_cast<std::size_t>(i)]) {
        job.input_bits[input] = produced[static_cast<std::size_t>(producer)];
      }
      const rt::JobResult result = service.run(job);
      produced[static_cast<std::size_t>(i)] = result.run.bit_outputs.at("y");
      cycles += result.run.cycles;
      fp_ops += result.run.fp_ops;
      mac_ops += result.run.mac_ops;
    }
    for (int i = 0; i < n; ++i) {
      const auto it =
          graph.bit_outputs.find(vc::strprintf("s%d", i) + ":y");
      ASSERT_NE(it, graph.bit_outputs.end()) << "trial " << trial;
      EXPECT_EQ(it->second, produced[static_cast<std::size_t>(i)])
          << "trial " << trial << " stage " << i;
    }
    EXPECT_EQ(graph.cycles, cycles) << "trial " << trial;
    EXPECT_EQ(graph.fp_ops, fp_ops) << "trial " << trial;
    EXPECT_EQ(graph.mac_ops, mac_ops) << "trial " << trial;
  }
}

// Independent same-shape stages must ride ONE fused executor call (the
// batch path), and fusion must not perturb results: a diamond of four
// identical-config stages reports a fused group and still matches the
// per-job oracle through the fuzz test's machinery above; here we pin
// the counter itself.
TEST(GraphFusion, SameConfigStagesFuseIntoOneSweep) {
  rt::GraphRequest request;
  vc::Rng rng(7);
  for (int i = 0; i < 4; ++i) {
    rt::GraphStage stage;
    stage.name = vc::strprintf("lane%d", i);
    stage.kernel_text = ov::chain_add_text(2);
    stage.inputs["x0"] = random_stream(rng, 32);
    stage.inputs["x1"] = random_stream(rng, 32);
    stage.keep_output = true;
    request.stages.push_back(std::move(stage));
  }
  rt::OverlayService service(two_thread_options());
  const rt::GraphResult result = service.run_graph(request);
  EXPECT_EQ(result.stages, 4);
  EXPECT_GE(result.fused_groups, 1);
  EXPECT_EQ(service.stats().graphs_executed, 1u);
  EXPECT_EQ(service.stats().graph_stages, 4u);
}

// An admitted graph is a reusable handle: streaming it chunk by chunk
// through a GraphSession — edges delivered per chunk, one MAC carry per
// stage — concatenates to the one-shot invocation bit for bit, with the
// final chunk's cumulative counters equal to the one-shot's.
TEST(GraphSession, ChunkedFeedMatchesOneShotGraph) {
  const std::size_t length = 126;  // 42 complete MAC groups
  rt::GraphRequest request;
  rt::GraphStage a;
  a.name = "a";
  a.kernel_text = ov::chain_add_text(2);
  a.inputs["x0"] = ramp(length, 1.0);
  a.inputs["x1"] = ramp(length, -0.75, 3.5);
  a.keep_output = true;
  request.stages.push_back(a);
  rt::GraphStage b;
  b.name = "b";
  b.kernel_text = mac_kernel(3);
  b.keep_output = true;
  request.stages.push_back(b);
  request.edges.push_back({"a", "y", "b", "x"});

  rt::OverlayService service(two_thread_options());
  const auto graph = service.admit_graph(request);
  const rt::GraphResult one_shot = service.run_graph(*graph);
  const auto& oracle_a = one_shot.bit_outputs.at("a:y");
  const auto& oracle_b = one_shot.bit_outputs.at("b:y");
  ASSERT_EQ(oracle_b.size(), length / 3);

  auto session = service.open_graph_session(graph);
  std::vector<std::uint64_t> concat_a, concat_b;
  rt::GraphResult last;
  const std::size_t sizes[] = {5, 7, 100, 14};
  std::size_t offset = 0;
  for (const std::size_t size : sizes) {
    std::map<std::string, std::map<std::string, std::vector<double>>> chunk;
    for (const char* input : {"x0", "x1"}) {
      const auto& full = request.stages[0].inputs.at(input);
      chunk["a"][input].assign(
          full.begin() + static_cast<std::ptrdiff_t>(offset),
          full.begin() + static_cast<std::ptrdiff_t>(offset + size));
    }
    last = session->feed(chunk);
    const auto ita = last.bit_outputs.find("a:y");
    if (ita != last.bit_outputs.end()) {
      concat_a.insert(concat_a.end(), ita->second.begin(), ita->second.end());
    }
    const auto itb = last.bit_outputs.find("b:y");
    if (itb != last.bit_outputs.end()) {
      concat_b.insert(concat_b.end(), itb->second.begin(), itb->second.end());
    }
    offset += size;
  }
  ASSERT_EQ(offset, length);
  EXPECT_EQ(concat_a, oracle_a);
  EXPECT_EQ(concat_b, oracle_b);
  EXPECT_EQ(last.cycles, one_shot.cycles);
  EXPECT_EQ(last.fp_ops, one_shot.fp_ops);
  EXPECT_EQ(last.mac_ops, one_shot.mac_ops);
  EXPECT_EQ(session->chunks_fed(), 4u);
}

// A cross-format edge pays exactly one decode/encode bridge — the same
// two rounding steps a client chaining the jobs at the double boundary
// would pay. The graph output must be bit-identical to that manual
// bridge, and the edge must be counted as converted, not raw.
TEST(GraphEdges, FormatConvertHopMatchesManualBridge) {
  const std::size_t length = 40;
  vc::Rng rng(11);
  const std::vector<double> x0 = random_stream(rng, length);
  const std::vector<double> x1 = random_stream(rng, length);

  ov::OverlayArch half = ov::OverlayArch{};
  half.format = sf::FpFormat::half_like();

  rt::GraphRequest request;  // default arch: paper format
  rt::GraphStage a;
  a.name = "a";
  a.kernel_text = ov::chain_add_text(2);
  a.inputs["x0"] = x0;
  a.inputs["x1"] = x1;
  request.stages.push_back(a);
  rt::GraphStage b;
  b.name = "b";
  b.kernel_text = mac_kernel(2, 0.75);
  b.arch = half;
  b.keep_output = true;
  request.stages.push_back(b);
  request.edges.push_back({"a", "y", "b", "x"});

  rt::OverlayService service(two_thread_options());
  const rt::GraphResult graph = service.run_graph(request);
  EXPECT_EQ(graph.edges_converted, 1);
  EXPECT_EQ(graph.edges_raw, 0);
  EXPECT_EQ(service.stats().graph_edges_converted, 1u);

  // Manual bridge: run stage a raw in the paper format, decode its bits
  // to doubles, resubmit to stage b's half-precision fabric as doubles
  // (the ingest encode is the bridge's second rounding step).
  rt::JobRequest job_a;
  job_a.kernel_text = ov::chain_add_text(2);
  job_a.arch = request.arch;
  job_a.inputs["x0"] = x0;
  job_a.inputs["x1"] = x1;
  job_a.raw_output = true;
  const std::vector<std::uint64_t> bits_a =
      service.run(job_a).run.bit_outputs.at("y");
  std::vector<double> bridged(bits_a.size());
  sf::fp_to_double_n(request.arch.format, bits_a.data(), bridged.data(),
                     bits_a.size());
  rt::JobRequest job_b;
  job_b.kernel_text = mac_kernel(2, 0.75);
  job_b.arch = half;
  job_b.inputs["x"] = bridged;
  job_b.raw_output = true;
  const std::vector<std::uint64_t> oracle =
      service.run(job_b).run.bit_outputs.at("y");
  EXPECT_EQ(graph.bit_outputs.at("b:y"), oracle);
}

// Admission resolves every name once and rejects malformed DAGs with
// typed errors — nothing reaches the datapath.
TEST(GraphAdmission, RejectsMalformedGraphs) {
  rt::OverlayService service(two_thread_options());
  const auto stage = [](const std::string& name, int fan_in) {
    rt::GraphStage s;
    s.name = name;
    s.kernel_text = ov::chain_add_text(fan_in);
    return s;
  };

  {  // no stages
    rt::GraphRequest request;
    EXPECT_THROW(service.admit_graph(request), std::invalid_argument);
  }
  {  // duplicate stage name
    rt::GraphRequest request;
    request.stages.push_back(stage("dup", 1));
    request.stages.push_back(stage("dup", 2));
    EXPECT_THROW(service.admit_graph(request), std::invalid_argument);
  }
  {  // unknown producer / consumer
    rt::GraphRequest request;
    request.stages.push_back(stage("a", 1));
    request.edges.push_back({"ghost", "y", "a", "x0"});
    EXPECT_THROW(service.admit_graph(request), std::invalid_argument);
    request.edges.back() = {"a", "y", "ghost", "x0"};
    EXPECT_THROW(service.admit_graph(request), std::invalid_argument);
  }
  {  // unknown producer output
    rt::GraphRequest request;
    request.stages.push_back(stage("a", 1));
    request.stages.push_back(stage("b", 1));
    request.edges.push_back({"a", "z", "b", "x0"});
    EXPECT_THROW(service.admit_graph(request), std::invalid_argument);
  }
  {  // input provided both externally and by an edge
    rt::GraphRequest request;
    request.stages.push_back(stage("a", 1));
    rt::GraphStage b = stage("b", 1);
    b.inputs["x0"] = {1.0, 2.0};
    request.stages.push_back(b);
    request.edges.push_back({"a", "y", "b", "x0"});
    EXPECT_THROW(service.admit_graph(request), std::invalid_argument);
  }
  {  // cycle
    rt::GraphRequest request;
    request.stages.push_back(stage("a", 1));
    request.stages.push_back(stage("b", 1));
    request.edges.push_back({"a", "y", "b", "x0"});
    request.edges.push_back({"b", "y", "a", "x0"});
    EXPECT_THROW(service.admit_graph(request), std::invalid_argument);
  }
}

// A stage's external streams meet a job's checks in a job's order and
// with its messages: canonical-name collisions, then a stream given in
// both encodings, then unknown names.
TEST(GraphAdmission, StageStreamsAreCheckedLikeAJob) {
  // Real names a/b canonicalize to x0/x1, so a stray "x0" stream collides.
  const std::string kernel =
      "input a; input b;\nparam c = 0.5;\nt = mul(a, c);\ny = add(t, b);\n"
      "output y;\n";
  const std::vector<std::uint64_t> bits(16, 0);
  const std::vector<double> values(16, 1.0);
  rt::OverlayService service(two_thread_options());
  const auto job_error = [&](const rt::GraphStage& stage) {
    rt::JobRequest request;
    request.kernel_text = stage.kernel_text;
    request.inputs = stage.inputs;
    request.input_bits = stage.input_bits;
    request.params = stage.params;
    try {
      service.run(request);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto graph_error = [&](const rt::GraphStage& stage) {
    rt::GraphRequest request;
    request.stages.push_back(stage);
    try {
      service.admit_graph(request);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };

  rt::GraphStage stage;
  stage.name = "s";
  stage.kernel_text = kernel;
  stage.input_bits["a"] = bits;
  stage.input_bits["x0"] = bits;
  stage.input_bits["b"] = bits;
  stage.inputs["zz"] = values;  // unknown, but reported after the collision
  EXPECT_EQ(job_error(stage),
            "input stream 'x0' collides with another stream after canonicalization");
  EXPECT_EQ(graph_error(stage), "graph stage 's': " + job_error(stage));

  stage.input_bits.erase("x0");
  stage.inputs.erase("zz");
  stage.inputs["b"] = values;
  stage.inputs["zz"] = values;
  EXPECT_EQ(job_error(stage), "input stream 'x1' provided as both doubles and raw bits");
  EXPECT_EQ(graph_error(stage), "graph stage 's': " + job_error(stage));

  stage.inputs.erase("b");
  EXPECT_NE(job_error(stage).find("unknown input stream 'zz'"), std::string::npos)
      << job_error(stage);
  EXPECT_EQ(graph_error(stage), "graph stage 's': " + job_error(stage));

  // An override naming no parameter of the kernel fails in the front end,
  // before any stream is looked at.
  stage.params["nope"] = 1.0;
  EXPECT_EQ(job_error(stage),
            "merge_params: override for unknown parameter 'nope'");
  EXPECT_EQ(graph_error(stage), "graph stage 's': " + job_error(stage));

  // A kernel syntax error keeps its ParseError type.
  stage.params.clear();
  stage.kernel_text = "input a;\ny = add(a, ;\noutput y;\n";
  rt::GraphRequest bad;
  bad.stages.push_back(stage);
  EXPECT_THROW(service.admit_graph(bad), ov::ParseError);
}

// Session lifecycle shows up in the service stats, and the open count
// returns to zero when handles die.
TEST(GraphStats, SessionCountersTrackLifecycle) {
  rt::OverlayService service(two_thread_options());
  {
    rt::SessionRequest request;
    request.kernel_text = mac_kernel(2);
    auto session = service.open_session(request);
    std::map<std::string, std::vector<double>> chunk;
    chunk["x"] = ramp(8);
    session->feed(chunk);
    session->feed(chunk);
    EXPECT_EQ(service.stats().sessions_open, 1u);
  }
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_open, 0u);
  EXPECT_EQ(stats.chunks_fed, 2u);
}

// Sessions that outlive their service: feeding either kind throws
// instead of reaching the destroyed service, and destroying them
// afterwards is safe (the sanitizer builds run this too).
TEST(GraphStats, SessionsOutlivingTheirServiceRefuseToFeed) {
  auto service = std::make_unique<rt::OverlayService>(two_thread_options());
  rt::SessionRequest request;
  request.kernel_text = mac_kernel(2);
  auto session = service->open_session(request);
  rt::GraphRequest graph_request;
  rt::GraphStage stage;
  stage.name = "s";
  stage.kernel_text = mac_kernel(2);
  stage.keep_output = true;
  graph_request.stages.push_back(stage);
  auto graph_session =
      service->open_graph_session(service->admit_graph(graph_request));
  std::map<std::string, std::vector<double>> chunk;
  chunk["x"] = ramp(8);
  session->feed(chunk);
  graph_session->feed({{"s", chunk}});

  service.reset();
  EXPECT_THROW(session->feed(chunk), std::logic_error);
  EXPECT_THROW(session->feed_bits({{"x", {0, 0}}}), std::logic_error);
  EXPECT_THROW(graph_session->feed({{"s", chunk}}), std::logic_error);
  EXPECT_EQ(session->chunks_fed(), 1u);
  EXPECT_EQ(graph_session->chunks_fed(), 1u);
  session.reset();
  graph_session.reset();
}

// ---------------------------------------------------------------------------
// The composed workloads, re-expressed as graphs, stay bit-exact.

// The pinned runner admits the bank graphs once and streams every frame
// through GraphSessions — per frame it must match the per-job DCS
// engine bit for bit, including frames after the first (no cross-frame
// state can leak through the session carries: the stages are
// stateless), and no frame may pay any tool-flow work.
TEST(VisionGraph, PinnedRunnerBitExactAcrossFrames) {
  vi::PipelineParams params;
  params.denoise_size = 3;
  params.matched_size = 5;
  params.orientations = 3;
  params.texture_size = 5;
  const ov::OverlayArch arch;

  rt::OverlayService service(two_thread_options());
  vi::PipelineGraphRunner runner(params, arch, service);
  EXPECT_EQ(runner.admission_stats().graphs, 3);
  EXPECT_GT(runner.admission_stats().stages, 0);
  EXPECT_EQ(service.stats().sessions_opened, 0u);  // admission opens none

  rt::OverlayService dcs_service(two_thread_options());
  vc::Rng rng(31);
  for (int frame = 0; frame < 2; ++frame) {
    vi::FundusParams fparams;
    fparams.width = 20;
    fparams.height = 20;
    const vi::FundusImage fundus = vi::generate_fundus(fparams, rng);

    vi::PipelineGraphStats frame_stats;
    const vi::PipelineResult pinned =
        runner.run(fundus.rgb, fundus.field_of_view, &frame_stats);
    const vi::PipelineResult dcs = vi::run_pipeline_service_dcs(
        fundus.rgb, fundus.field_of_view, params, arch, dcs_service);

    EXPECT_EQ(pinned.stages.green.data(), dcs.stages.green.data());
    EXPECT_EQ(pinned.stages.equalized.data(), dcs.stages.equalized.data());
    EXPECT_EQ(pinned.stages.masked.data(), dcs.stages.masked.data());
    EXPECT_EQ(pinned.stages.denoised.data(), dcs.stages.denoised.data());
    EXPECT_EQ(pinned.stages.matched.data(), dcs.stages.matched.data());
    EXPECT_EQ(pinned.stages.textured.data(), dcs.stages.textured.data());
    EXPECT_EQ(pinned.stages.segmented.data(), dcs.stages.segmented.data());
    EXPECT_EQ(pinned.cost.filters_applied, dcs.cost.filters_applied);
    EXPECT_EQ(frame_stats.graphs, 3);
    EXPECT_GT(frame_stats.edges_raw, 0);
    EXPECT_EQ(frame_stats.edges_converted, 0);
    // Frames are pure datapath: all tool-flow cost stayed in the ctor.
    EXPECT_EQ(frame_stats.structure_hits, 0);
    EXPECT_EQ(frame_stats.compile_seconds, 0.0);
    EXPECT_EQ(frame_stats.specialize_seconds, 0.0);
  }
  EXPECT_EQ(service.stats().sessions_opened, 6u);  // 3 banks x 2 frames
  EXPECT_EQ(service.stats().sessions_open, 0u);
  EXPECT_EQ(service.stats().chunks_fed, 6u);  // each frame is one chunk
}

// Tiled GEMM as one DAG per run: fabric-side fold stages replace the
// host fp_add_n glue, bit-exact against the same softfloat reference as
// the per-job path (hence against the per-job path itself).
TEST(HpcGraph, GemmGraphBitExactAndFused) {
  vcgra::hpc::HpcBenchOptions options;
  options.service.threads = 2;
  vcgra::hpc::HpcBench bench(options);

  const auto per_job = bench.run_gemm(8, 3, 12, 6, /*seed=*/5);
  EXPECT_TRUE(per_job.bit_exact);
  const auto graph = bench.run_gemm_graph(8, 3, 12, 6, /*seed=*/5);
  EXPECT_TRUE(graph.bit_exact);
  EXPECT_TRUE(graph.passed());
  EXPECT_EQ(graph.edges_converted, 0);
  EXPECT_GT(graph.edges_raw, 0);
  EXPECT_GE(graph.fused_groups, 1);
  // 2 k-tiles + at least one fold stage per column.
  EXPECT_GE(graph.stages, 3 * 3);
  EXPECT_THROW(bench.run_gemm_graph(0, 2, 8, 4), std::invalid_argument);
}
