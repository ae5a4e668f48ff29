// Statistics, spans, correctness checks and host facts for vbench.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

#ifndef VBENCH_BUILD_TYPE
#define VBENCH_BUILD_TYPE "unknown"
#endif

namespace vbench {

using vcgra::softfloat::FpValue;

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// ---- spans -----------------------------------------------------------------

int SpanRecorder::begin(std::string name, int parent, std::uint64_t op,
                        double elems) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.op = op;
  span.elems = elems;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void SpanRecorder::end(int id, std::string name) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  span.name = std::move(name);
}

int SpanRecorder::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::self_ns() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns,
                                                                   span.end_ns);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::uint64_t covered = 0;
    std::uint64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const std::uint64_t lo = std::max(start, cursor);
      const std::uint64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(span.end_ns - span.start_ns) -
              static_cast<double>(covered);
  }
  return self;
}

std::map<std::string, std::vector<double>> SpanRecorder::self_by_name() const {
  const std::vector<double> self = self_ns();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::self_per_elem_by_name()
    const {
  const std::vector<double> self = self_ns();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].elems > 0) {
      out[spans_[i].name].push_back(self[i] / spans_[i].elems);
    }
  }
  return out;
}

std::vector<double> SpanRecorder::unattributed_ns(
    const std::string& op_span, const std::string& layers_span) const {
  const std::vector<double> self = self_ns();
  // Descendant self time of each span, accumulated child -> parent.
  // Spans are recorded parent-first, so a reverse sweep sees every child
  // before its parent.
  std::vector<double> below(spans_.size(), 0.0);
  for (std::size_t i = spans_.size(); i-- > 0;) {
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      below[static_cast<std::size_t>(parent)] += below[i] + self[i];
    }
  }
  std::map<std::uint64_t, double> op_ns, layer_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name == op_span) {
      op_ns[span.op] += static_cast<double>(span.end_ns - span.start_ns);
    } else if (span.name == layers_span) {
      layer_ns[span.op] += below[i];
    }
  }
  std::vector<double> out;
  for (const auto& [op, ns] : op_ns) {
    const auto it = layer_ns.find(op);
    if (it != layer_ns.end()) out.push_back(ns - it->second);
  }
  return out;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - std::min(origin, s.start_ns)) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"elems\":" << s.elems << "}}";
  }
  out << "\n]}\n";
}

// ---- correctness -----------------------------------------------------------

bool outputs_match(const std::map<std::string, std::vector<FpValue>>& got,
                   const vcgra::hpc::FpStreams& want) {
  for (const auto& [name, stream] : want) {
    const auto it = got.find(name);
    if (it == got.end() || it->second.size() != stream.size()) return false;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (it->second[i].bits() != stream[i].bits()) return false;
    }
  }
  return !want.empty();
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- jobs --------------------------------------------------------------------

vcgra::runtime::JobRequest Job::request(
    const vcgra::overlay::OverlayArch& arch) const {
  vcgra::runtime::JobRequest req;
  req.kernel_text = kernel_text;
  req.arch = arch;
  req.inputs = inputs;
  req.params = params;
  req.seed = seed;
  return req;
}

Job job_from_kernel(const vcgra::hpc::HpcKernel& kernel,
                    const vcgra::overlay::OverlayArch& arch,
                    std::uint64_t placer_seed) {
  Job job;
  job.kernel_text = kernel.kernel_text;
  job.params = kernel.params;
  job.seed = placer_seed;
  job.inputs = kernel.inputs;
  job.reference = kernel.ref_softfloat(arch.format);
  for (const auto& [name, stream] : job.inputs) {
    job.elems += static_cast<double>(stream.size());
  }
  return job;
}

// ---- host facts --------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string simd_dispatch() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The same probe the batch kernels gate their AVX-512 lanes on.
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512cd") &&
                 __builtin_cpu_supports("avx512dq")
             ? "avx512"
             : "scalar";
#elif defined(__aarch64__)
  return "neon";
#else
  return "scalar";
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string fingerprint_json() {
  std::ostringstream out;
  out << "{\"cpu\":\"" << json_escape(cpu_model())
      << "\",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"simd\":\"" << simd_dispatch() << "\",\"compiler\":\""
      << json_escape(__VERSION__) << "\",\"build_type\":\"" VBENCH_BUILD_TYPE
      << "\"}";
  return out.str();
}

double host_probe_ms() {
  // A fixed integer-hash loop over an L1-resident buffer: no memory
  // traffic, no allocation, so its time tracks only how fast the host
  // runs this process (frequency, co-tenants), not the program.
  std::vector<double> reps;
  std::vector<std::uint32_t> buf(4096);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 1000000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      buf[(x >> 40) & 4095] += static_cast<std::uint32_t>(x);
    }
    reps.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  volatile std::uint32_t sink = buf[x & 4095];
  (void)sink;
  return median(reps);
}

std::string scratch_dir(const std::string& leaf) {
  const std::filesystem::path dir = std::filesystem::path(".bench_out") / leaf;
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---- catalogs ----------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},       {"op_p90_us", "us"},
      {"melem_per_s", "Melem/s"}, {"reload_p50_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return catalog;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"softfloat.mul_ns_per_elem", "ns"},
      {"softfloat.add_ns_per_elem", "ns"},
      {"softfloat.axpy_ns_per_elem", "ns"},
      {"softfloat.mac_ns_per_elem", "ns"},
      {"softfloat.encode_ns_per_elem", "ns"},
      {"softfloat.decode_ns_per_elem", "ns"},
      {"vcgra.exec.tape_ns_per_elem", "ns"},
      {"vcgra.exec.boundary_ns_per_elem", "ns"},
      {"vcgra.parse_us", "us"},
      {"vcgra.compile.synth_us", "us"},
      {"vcgra.compile.map_us", "us"},
      {"vcgra.compile.place_us", "us"},
      {"vcgra.compile.route_us", "us"},
      {"vcgra.specialize_us", "us"},
      {"vcgra.plan_lower_us", "us"},
      {"store.serialize_us", "us"},
      {"store.save_us", "us"},
      {"store.load_us", "us"},
      {"runtime.front_end_us", "us"},
      {"runtime.cache.full_hit_us", "us"},
      {"runtime.cache.respecialize_us", "us"},
      {"runtime.cache.plan_for_us", "us"},
      {"runtime.sched.acquire_us", "us"},
      {"runtime.service.overhead_us", "us"},
      {"runtime.service.queue_wait_us", "us"},
      {"runtime.graph.admit_ms", "ms"},
      {"runtime.graph.feed_ms", "ms"},
      {"vision.host_ms", "ms"},
      {"runtime.cache.hit_rate", "ratio"},
      {"runtime.cache.structure_hit_rate", "ratio"},
      {"runtime.cache.specializations", "count"},
      {"runtime.cache.plans_built", "count"},
      {"runtime.fused_job_share", "ratio"},
      {"runtime.sched.reconfigs", "count"},
      {"store.disk_hits", "count"},
      {"store.disk_writes", "count"},
      {"sim.cycles", "count"},
      {"sim.fp_ops", "count"},
      {"unattributed_us", "us"},
      {"trace.overhead_frac", "ratio"},
  };
  return catalog;
}

}  // namespace vbench
