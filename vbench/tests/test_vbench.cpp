// vbench's own tests: seeded op sequences repeat, the correctness check
// catches one wrong bit, span self-time arithmetic, and the metric
// catalogs agree with BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "vcgra/hpc/kernels.hpp"

namespace vbench {
namespace {

namespace overlay = vcgra::overlay;
namespace runtime = vcgra::runtime;

TEST(OpSequence, SameSeedSameInputsOtherSeedOtherInputs) {
  for (const std::string& name : workload_names()) {
    if (name == "vessel_frames") continue;  // covered below (slower refs)
    auto a = make_workload(name);
    auto b = make_workload(name);
    a->generate(7);
    b->generate(7);
    EXPECT_EQ(a->input_digest(), b->input_digest()) << name;
    b->generate(8);
    EXPECT_NE(a->input_digest(), b->input_digest()) << name;
  }
}

TEST(OpSequence, VesselFramesRepeatForOneSeed) {
  auto a = make_workload("vessel_frames");
  auto b = make_workload("vessel_frames");
  a->generate(3);
  b->generate(3);
  EXPECT_EQ(a->input_digest(), b->input_digest());
  b->generate(4);
  EXPECT_NE(a->input_digest(), b->input_digest());
}

TEST(Correctness, RejectsOneFlippedBit) {
  const overlay::OverlayArch arch;
  const Job job = job_from_kernel(vcgra::hpc::make_stream_triad(256, 3.0, 5), arch);
  runtime::ServiceOptions options;
  options.threads = 1;
  runtime::OverlayService service(options);
  runtime::JobResult result = service.run(job.request(arch));
  ASSERT_TRUE(outputs_match(result.run.outputs, job.reference));

  auto& stream = result.run.outputs.begin()->second;
  stream[17] = vcgra::softfloat::FpValue(stream[17].format(), stream[17].bits() ^ 1);
  EXPECT_FALSE(outputs_match(result.run.outputs, job.reference));
}

TEST(Correctness, ReplayRejectsOneFlippedReferenceBit) {
  const overlay::OverlayArch arch;
  Job job = job_from_kernel(vcgra::hpc::make_axpy(128, 2.5, 9), arch);
  Shadow shadow(1);
  SpanRecorder rec;
  EXPECT_TRUE(replay_job(job, arch, shadow, rec, -1, 1));
  auto& want = job.reference.begin()->second;
  want[3] = vcgra::softfloat::FpValue(want[3].format(), want[3].bits() ^ (1ULL << 4));
  EXPECT_FALSE(replay_job(job, arch, shadow, rec, -1, 2));
}

Span make_span(const char* name, std::uint64_t start, std::uint64_t end, int parent,
               std::uint64_t op = 1) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.op = op;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder rec;
  const int root = rec.add(make_span("root", 0, 100, -1));
  const int a = rec.add(make_span("a", 10, 40, root));
  rec.add(make_span("b", 30, 60, root));     // overlaps a: 10..60 covered once
  rec.add(make_span("a1", 15, 20, a));
  rec.add(make_span("late", 90, 120, root));  // clipped to the parent's end
  const std::vector<double> self = rec.self_ns();
  EXPECT_DOUBLE_EQ(self[0], 100 - 50 - 10);
  EXPECT_DOUBLE_EQ(self[1], 30 - 5);
  EXPECT_DOUBLE_EQ(self[2], 30);
  EXPECT_DOUBLE_EQ(self[3], 5);
  EXPECT_DOUBLE_EQ(self[4], 30);
}

TEST(Spans, UnattributedIsOpLatencyMinusLayerSum) {
  SpanRecorder rec;
  const int top = rec.add(make_span("op", 0, 300, -1, 4));
  rec.add(make_span("op.service", 0, 100, top, 4));
  const int layers = rec.add(make_span("op.replay", 100, 300, top, 4));
  const int outer = rec.add(make_span("layer.outer", 110, 200, layers, 4));
  rec.add(make_span("layer.inner", 120, 150, outer, 4));
  rec.add(make_span("layer.other", 200, 230, layers, 4));
  // Layer sum = outer self (60) + inner (30) + other (30) = 120.
  const std::vector<double> un = rec.unattributed_ns("op.service", "op.replay");
  ASSERT_EQ(un.size(), 1u);
  EXPECT_DOUBLE_EQ(un[0], 100 - 120);

  const auto by_name = rec.self_by_name();
  EXPECT_DOUBLE_EQ(by_name.at("layer.outer").front(), 60);
}

TEST(Spans, PerElementSelfTime) {
  SpanRecorder rec;
  Span s = make_span("softfloat.mul", 0, 1000, -1);
  s.elems = 250;
  rec.add(s);
  EXPECT_DOUBLE_EQ(rec.self_per_elem_by_name().at("softfloat.mul").front(), 4.0);
}

TEST(Catalog, EveryMetricIsInBenchmarkJsonWithItsUnit) {
  std::ifstream in(VBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << "cannot open " << VBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  for (const auto* catalog : {&end_to_end_catalog(), &per_layer_catalog()}) {
    for (const auto& [name, unit] : *catalog) {
      const std::string entry = "\"name\": \"" + name + "\", \"unit\": \"" + unit + "\"";
      EXPECT_NE(json.find(entry), std::string::npos) << entry;
    }
  }
  // Every workload BENCHMARK.json lists is one the binary runs.
  const std::vector<std::string> known = workload_names();
  const std::string marker = "{\"name\": \"";
  int listed = 0;
  for (std::size_t at = json.find(marker); at != std::string::npos;
       at = json.find(marker, at + 1)) {
    const std::size_t start = at + marker.size();
    const std::string name = json.substr(start, json.find('"', start) - start);
    if (json.compare(json.find('"', start), 10, "\", \"why\": ") != 0) continue;
    ++listed;
    EXPECT_NE(std::find(known.begin(), known.end(), name), known.end()) << name;
  }
  EXPECT_GE(listed, 2);
}

TEST(Quantile, InterpolatesLikeNumpy) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({5}, 0.9), 5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
}

}  // namespace
}  // namespace vbench
