// Outside-in layer timing: the warm-path job replay and the layer ledger.
//
// Every span here wraps exactly one call into a module's public API, so a
// span's self time is that layer's cost for the call. The replay mirrors
// the service's job path step by step on shadow components; the ledger
// times each layer in isolation on the workload's own kernels and streams.
#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/store/overlay_store.hpp"
#include "vcgra/store/serdes.hpp"
#include "vcgra/vcgra/exec_plan.hpp"
#include "vcgra/vision/pipeline.hpp"

namespace vbench {

namespace overlay = vcgra::overlay;
namespace runtime = vcgra::runtime;
namespace softfloat = vcgra::softfloat;

namespace {

constexpr int kReps = 7;         // per cheap probe
constexpr int kCompileReps = 3;  // per compile / admission probe

/// Encoded copies of a job's streams, keyed by canonical input name.
struct EncodedInputs {
  std::vector<std::vector<std::uint64_t>> storage;
  overlay::BatchInputs view;
};

EncodedInputs encode_inputs(const Job& job, const overlay::ParsedKernel& parsed,
                            const overlay::OverlayArch& arch) {
  EncodedInputs enc;
  enc.storage.reserve(job.inputs.size());
  for (const auto& [name, stream] : job.inputs) {
    enc.storage.emplace_back(stream.size());
    softfloat::fp_from_double_n(arch.format, stream.data(),
                                enc.storage.back().data(), stream.size());
    enc.view[parsed.canonical_name(name)] =
        overlay::BatchStream{enc.storage.back().data(), nullptr, stream.size()};
  }
  return enc;
}

std::map<std::string, std::vector<double>> canonical_doubles(
    const Job& job, const overlay::ParsedKernel& parsed) {
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, stream] : job.inputs) {
    out[parsed.canonical_name(name)] = stream;
  }
  return out;
}

overlay::ParamBinding canonical_binding(const overlay::ParsedKernel& parsed,
                                        const overlay::ParamBinding& binding) {
  return parsed.names_are_canonical ? binding : parsed.to_canonical(binding);
}

/// Concatenate the probe jobs' streams into two equal-length operands.
void probe_streams(const ProbeSet& probes, std::vector<double>* a,
                   std::vector<double>* b) {
  constexpr std::size_t kCap = std::size_t{1} << 16;
  std::vector<double> all;
  for (const Job& job : probes.jobs) {
    for (const auto& [name, stream] : job.inputs) {
      all.insert(all.end(), stream.begin(), stream.end());
      if (all.size() >= 2 * kCap) break;
    }
    if (all.size() >= 2 * kCap) break;
  }
  const std::size_t n = std::min(kCap, all.size() / 2);
  a->assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
  b->assign(all.begin() + static_cast<std::ptrdiff_t>(n),
            all.begin() + static_cast<std::ptrdiff_t>(2 * n));
}

void ledger_softfloat(const ProbeSet& probes, SpanRecorder& rec, int root) {
  std::vector<double> ad, bd;
  probe_streams(probes, &ad, &bd);
  const std::size_t n = ad.size();
  if (n == 0) throw std::runtime_error("ledger: probe set has no streams");
  const softfloat::FpFormat& format = probes.arch.format;
  std::vector<std::uint64_t> a(n), b(n), out(n);
  std::vector<double> decoded(n);
  softfloat::fp_from_double_n(format, bd.data(), b.data(), n);
  const std::uint64_t coeff = softfloat::fp_encode_double(format, 0.75);
  const double elems = static_cast<double>(n);
  for (int r = 0; r < kReps; ++r) {
    {
      ScopedSpan s(&rec, "softfloat.encode", root, 0, elems);
      softfloat::fp_from_double_n(format, ad.data(), a.data(), n);
    }
    {
      ScopedSpan s(&rec, "softfloat.decode", root, 0, elems);
      softfloat::fp_to_double_n(format, a.data(), decoded.data(), n);
    }
    {
      ScopedSpan s(&rec, "softfloat.mul", root, 0, elems);
      softfloat::fp_mul_n(format, a.data(), b.data(), out.data(), n);
    }
    {
      ScopedSpan s(&rec, "softfloat.add", root, 0, elems);
      softfloat::fp_add_n(format, a.data(), b.data(), out.data(), n);
    }
    {
      ScopedSpan s(&rec, "softfloat.axpy", root, 0, elems);
      softfloat::fp_axpy_n(format, a.data(), b.data(), coeff, 0, out.data(), n);
    }
    {
      std::uint64_t acc = 0;
      std::uint32_t filled = 0;
      ScopedSpan s(&rec, "softfloat.mac", root, 0, elems);
      softfloat::fp_mac_n(format, a.data(), coeff, 16, out.data(), n, &acc,
                          &filled);
    }
  }
}

void ledger_vcgra_and_store(const ProbeSet& probes, SpanRecorder& rec, int root) {
  const std::string store_dir =
      scratch_dir("ledger-store-" + std::to_string(getpid()));
  {
    vcgra::store::OverlayStore store(store_dir);
    int record = 0;
    for (const Job& job : probes.jobs) {
      overlay::ParsedKernel parsed;
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan s(&rec, "vcgra.parse", root, 0);
        parsed = overlay::parse_kernel_symbolic(job.kernel_text);
      }
      overlay::CompiledStructure structure;
      for (int r = 0; r < kCompileReps; ++r) {
        {
          ScopedSpan s(&rec, "vcgra.compile", root, 0);
          structure = overlay::compile_structure_canonical(parsed, probes.arch,
                                                           job.seed);
        }
        rec.sample("vcgra.compile.synth_us", structure.report.synth_seconds * 1e6);
        rec.sample("vcgra.compile.map_us", structure.report.map_seconds * 1e6);
        rec.sample("vcgra.compile.place_us", structure.report.place_seconds * 1e6);
        rec.sample("vcgra.compile.route_us", structure.report.route_seconds * 1e6);
      }
      const overlay::ParamBinding binding = canonical_binding(
          parsed, overlay::merge_params(parsed.params, job.params));
      overlay::Compiled compiled;
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan s(&rec, "vcgra.specialize", root, 0);
        compiled = overlay::specialize(structure, binding);
      }
      overlay::ExecPlan lowered;
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan s(&rec, "vcgra.plan_lower", root, 0);
        lowered = overlay::ExecPlan::lower(compiled);
      }
      const overlay::PlanExecutor exec(
          std::make_shared<const overlay::ExecPlan>(std::move(lowered)));
      const EncodedInputs enc = encode_inputs(job, parsed, probes.arch);
      const auto doubles = canonical_doubles(job, parsed);
      for (int r = 0; r < kReps; ++r) {
        // Boundary cost: the double entry point minus the raw-bits tape
        // sweep, paired per repetition on the same job.
        const int tape = rec.begin("vcgra.exec.tape", root, 0, job.elems);
        exec.run_views(enc.view);
        rec.end(tape);
        const int doubles_run = rec.begin("vcgra.exec.run_doubles", root, 0, job.elems);
        exec.run_doubles(doubles);
        rec.end(doubles_run);
        const auto ns = [&](int id) {
          const Span& span = rec.spans()[static_cast<std::size_t>(id)];
          return static_cast<double>(span.end_ns - span.start_ns);
        };
        rec.sample("vcgra.exec.boundary_ns_per_elem",
                   (ns(doubles_run) - ns(tape)) / job.elems);
      }
      const std::string key = runtime::structure_key(parsed.structural_text,
                                                     probes.arch, job.seed);
      for (int r = 0; r < kReps; ++r) {
        const std::string record_key = key + "#" + std::to_string(record++);
        {
          ScopedSpan s(&rec, "store.serialize", root, 0);
          vcgra::store::serialize(structure);
        }
        {
          ScopedSpan s(&rec, "store.save", root, 0);
          store.save(record_key, structure);
        }
        ScopedSpan s(&rec, "store.load", root, 0);
        if (!store.load(record_key)) {
          throw std::runtime_error("ledger: store lost a saved record");
        }
      }
    }
  }
  std::filesystem::remove_all(store_dir);
}

void ledger_runtime(const ProbeSet& probes, SpanRecorder& rec, int root) {
  runtime::OverlayCache cache(128);
  runtime::ReconfigScheduler scheduler(
      1, std::make_shared<runtime::RegisterDiffCostModel>());
  const overlay::SimOptions sim;
  for (const Job& job : probes.jobs) {
    const overlay::ParsedKernel parsed =
        overlay::parse_kernel_symbolic(job.kernel_text);
    const overlay::ParamBinding binding =
        overlay::merge_params(parsed.params, job.params);
    const runtime::CacheKeys keys =
        runtime::cache_keys(parsed, probes.arch, job.seed, binding);
    auto compiled =
        cache.get_or_specialize(keys, parsed, probes.arch, job.seed, binding);
    cache.plan_for(keys, compiled, sim);
    for (int r = 0; r < kReps; ++r) {
      {
        ScopedSpan s(&rec, "runtime.cache.full_hit", root, 0);
        compiled = cache.get_or_specialize(keys, parsed, probes.arch, job.seed,
                                           binding);
      }
      {
        ScopedSpan s(&rec, "runtime.cache.plan_for", root, 0);
        cache.plan_for(keys, compiled, sim);
      }
      {
        ScopedSpan s(&rec, "runtime.sched.acquire", root, 0);
        const runtime::Assignment a =
            scheduler.acquire(keys.full(), keys.structure, compiled);
        scheduler.release(a.instance);
      }
      if (binding.empty()) continue;
      // A coefficient set this structure has never seen: a respecialize.
      overlay::ParamBinding fresh = binding;
      for (auto& [name, value] : fresh) value = value * 1.0009765625 + (r + 1);
      const runtime::CacheKeys fresh_keys =
          runtime::cache_keys(parsed, probes.arch, job.seed, fresh);
      runtime::CacheOutcome outcome;
      {
        ScopedSpan s(&rec, "runtime.cache.respecialize", root, 0);
        cache.get_or_specialize(fresh_keys, parsed, probes.arch, job.seed, fresh,
                                &outcome);
      }
      if (outcome.hit || !outcome.structure_hit) {
        throw std::runtime_error("ledger: respecialize probe missed the structure");
      }
    }
  }
}

void ledger_service(const ProbeSet& probes, SpanRecorder& rec, int root,
                    std::uint64_t* op_id) {
  runtime::ServiceOptions options;
  options.threads = 1;
  runtime::OverlayService service(options);
  Shadow shadow(1);
  for (const Job& job : probes.jobs) {
    service.run(job.request(probes.arch));  // warm
    replay_job(job, probes.arch, shadow, rec, root, 0);
    for (int r = 0; r < kReps; ++r) {
      runtime::JobRequest request = job.request(probes.arch);
      const std::uint64_t op = (*op_id)++;
      const int top = rec.begin("ledger.job", root, op);
      const int call = rec.begin("ledger.service", top, op);
      const runtime::JobResult result = service.run(std::move(request));
      rec.end(call);
      rec.sample("ledger.queue_wait_us", result.queue_seconds * 1e6);
      const int layers = rec.begin("ledger.replay", top, op);
      if (!replay_job(job, probes.arch, shadow, rec, layers, op)) {
        throw std::runtime_error("ledger: replay output differs from reference");
      }
      rec.end(layers);
      rec.end(top);
    }
  }
}

void ledger_graph(const ProbeSet& probes, SpanRecorder& rec, int root) {
  runtime::ServiceOptions options;
  options.threads = 1;
  std::unique_ptr<runtime::OverlayService> service;
  std::shared_ptr<const runtime::KernelGraph> graph;
  for (int r = 0; r < kCompileReps; ++r) {
    graph.reset();
    service = std::make_unique<runtime::OverlayService>(options);
    ScopedSpan s(&rec, "runtime.graph.admit", root, 0);
    graph = service->admit_graph(probes.graph);
  }
  for (int r = 0; r < kReps; ++r) {
    ScopedSpan s(&rec, "runtime.graph.feed", root, 0);
    const auto session = service->open_graph_session(graph);
    session->feed(probes.graph_chunk);
  }
}

void ledger_vision(const ProbeSet& probes, SpanRecorder& rec, int root) {
  for (int r = 0; r < kReps; ++r) {
    ScopedSpan s(&rec, "vision.host", root, 0);
    const vcgra::vision::Image green = probes.frame.channel(1);
    const vcgra::vision::Image equalized =
        vcgra::vision::equalize_histogram(green, probes.field_of_view);
    vcgra::vision::Mask valid;
    const vcgra::vision::Image masked = vcgra::vision::remove_optic_disc_and_border(
        equalized, probes.field_of_view, &valid);
    const float level = vcgra::vision::quantile_level(masked, valid, 0.88);
    vcgra::vision::threshold(masked, level);
  }
}

}  // namespace

Shadow::Shadow(int instances)
    : cache(128),
      scheduler(instances, std::make_shared<runtime::RegisterDiffCostModel>()) {}

bool replay_job(const Job& job, const overlay::OverlayArch& arch, Shadow& shadow,
                SpanRecorder& rec, int parent, std::uint64_t op) {
  // Front end: the service memoizes parses by text, then merges the
  // job's overrides and derives both cache keys.
  std::shared_ptr<const overlay::ParsedKernel> parsed;
  overlay::ParamBinding binding;
  runtime::CacheKeys keys;
  {
    ScopedSpan s(&rec, "runtime.front_end", parent, op);
    auto it = shadow.parsed.find(job.kernel_text);
    if (it == shadow.parsed.end()) {
      it = shadow.parsed
               .emplace(job.kernel_text,
                        std::make_shared<const overlay::ParsedKernel>(
                            overlay::parse_kernel_symbolic(job.kernel_text)))
               .first;
    }
    parsed = it->second;
    binding = overlay::merge_params(parsed->params, job.params);
    keys = runtime::cache_keys(*parsed, arch, job.seed, binding);
  }
  runtime::CacheOutcome outcome;
  const int lookup = rec.begin("runtime.cache", parent, op);
  const auto compiled = shadow.cache.get_or_specialize(keys, *parsed, arch,
                                                       job.seed, binding, &outcome);
  rec.end(lookup, outcome.hit              ? "runtime.cache.full_hit"
                  : outcome.structure_hit ? "runtime.cache.respecialize"
                                          : "runtime.cache.compile");
  std::shared_ptr<const overlay::ExecPlan> plan;
  {
    ScopedSpan s(&rec, "runtime.cache.plan_for", parent, op);
    plan = shadow.cache.plan_for(keys, compiled, shadow.sim);
  }
  {
    ScopedSpan s(&rec, "runtime.sched.acquire", parent, op);
    const runtime::Assignment a =
        shadow.scheduler.acquire(keys.full(), keys.structure, compiled);
    shadow.scheduler.release(a.instance);
  }
  // Datapath split at the boundary: encode, tape sweep on raw bits, decode.
  EncodedInputs enc;
  enc.storage.reserve(job.inputs.size());
  for (const auto& [name, stream] : job.inputs) {
    enc.storage.emplace_back(stream.size());
  }
  {
    ScopedSpan s(&rec, "softfloat.encode", parent, op, job.elems);
    std::size_t i = 0;
    for (const auto& [name, stream] : job.inputs) {
      softfloat::fp_from_double_n(arch.format, stream.data(),
                                  enc.storage[i].data(), stream.size());
      enc.view[parsed->canonical_name(name)] =
          overlay::BatchStream{enc.storage[i].data(), nullptr, stream.size()};
      ++i;
    }
  }
  const overlay::PlanExecutor exec(plan);
  overlay::PlanExecutor::RunView view;
  {
    ScopedSpan s(&rec, "vcgra.exec.tape", parent, op, job.elems);
    view = exec.run_views(enc.view);
  }
  double out_elems = 0;
  std::vector<std::vector<double>> decoded;
  for (const auto& [name, stream] : view.outputs) {
    decoded.emplace_back(stream.size);
    out_elems += static_cast<double>(stream.size);
  }
  {
    ScopedSpan s(&rec, "softfloat.decode", parent, op, out_elems);
    std::size_t i = 0;
    for (const auto& [name, stream] : view.outputs) {
      softfloat::fp_to_double_n(arch.format, stream.data, decoded[i++].data(),
                                stream.size);
    }
  }
  for (const auto& [real, want] : job.reference) {
    const std::string& canonical = parsed->canonical_name(real);
    bool found = false;
    for (const auto& [name, stream] : view.outputs) {
      if (name != canonical) continue;
      found = stream.size == want.size();
      for (std::size_t i = 0; found && i < want.size(); ++i) {
        found = stream.data[i] == want[i].bits();
      }
    }
    if (!found) return false;
  }
  return true;
}

void run_ledger(const ProbeSet& probes, SpanRecorder& rec) {
  const int root = rec.begin("ledger", -1, 0);
  std::uint64_t op_id = std::uint64_t{1} << 40;  // disjoint from workload ops
  ledger_softfloat(probes, rec, root);
  ledger_vcgra_and_store(probes, rec, root);
  ledger_runtime(probes, rec, root);
  ledger_service(probes, rec, root, &op_id);
  ledger_graph(probes, rec, root);
  ledger_vision(probes, rec, root);
  rec.end(root);
}

}  // namespace vbench
