// vbench — the repository's end-to-end benchmark.
//
// One binary runs one named workload from a seed: it generates the
// workload's inputs and bit-exact references (untimed), then repeats the
// workload's fixed, seed-determined op sequence in passes for the
// requested time. Every pass starts from a fresh, timed set-up and ends
// with a timed restart from a persistent store; every op's output bits are
// checked. A traced run (--trace 1) additionally replays each op through
// the public entry point of every layer it crosses, recording its own
// spans from the outside, and runs a fixed layer-ledger probe over the
// workload's kernels and streams.
//
// Host time everywhere; the simulated fabric statistics (cycles, fp_ops,
// mac_ops) are counts and must repeat exactly across passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/vcgra/arch.hpp"
#include "vcgra/vision/image.hpp"

namespace vbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

// ---- spans -----------------------------------------------------------------

/// One timed interval recorded by the benchmark around a call into the
/// program. `parent` indexes the recorder's span list (-1 = root); spans
/// of one op share `op`. `elems` is the element count the call processed
/// (0 when the layer is not per-element).
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
  double elems = 0;
};

/// In-memory span store, written out once at exit. Also carries named
/// value samples for quantities the program reports rather than the
/// benchmark times (CompileReport stage times, queue wait).
class SpanRecorder {
 public:
  int begin(std::string name, int parent, std::uint64_t op, double elems = 0);
  void end(int id);
  /// End a span and give it its final name (the layer is only known
  /// after the call, e.g. a cache lookup that turned out a full hit).
  void end(int id, std::string name);
  /// Add a finished span directly (tests build synthetic trees this way).
  int add(Span span);

  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its children (overlapping children count once).
  std::vector<double> self_ns() const;

  /// Per-name self-time samples, in ns and in ns per element.
  std::map<std::string, std::vector<double>> self_by_name() const;
  std::map<std::string, std::vector<double>> self_per_elem_by_name() const;

  /// Per op: the duration of its span named `op_span` minus the summed
  /// self time of every descendant of its span named `layers_span` —
  /// the time no layer accounts for. Ops lacking either span are skipped.
  std::vector<double> unattributed_ns(const std::string& op_span,
                                      const std::string& layers_span) const;

  /// Chrome trace_event JSON (one complete event per span).
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, int parent, std::uint64_t op,
             double elems = 0)
      : rec_(rec), id_(rec ? rec->begin(std::move(name), parent, op, elems) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// ---- correctness -----------------------------------------------------------

/// True when every reference stream is present in `got` with the same
/// length and bit-identical values.
bool outputs_match(
    const std::map<std::string, std::vector<vcgra::softfloat::FpValue>>& got,
    const vcgra::hpc::FpStreams& want);

/// FNV-1a-64 folding helpers for input digests and output hashes.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word);
std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t size);
inline constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

// ---- program-facing helpers --------------------------------------------------

/// A job the benchmark submits: the service request plus what the
/// benchmark knows about it (reference, element count).
struct Job {
  std::string kernel_text;
  vcgra::overlay::ParamBinding params;
  std::uint64_t seed = 1;
  vcgra::hpc::DoubleStreams inputs;
  vcgra::hpc::FpStreams reference;
  double elems = 0;  // input samples over all streams

  vcgra::runtime::JobRequest request(const vcgra::overlay::OverlayArch& arch) const;
};

/// Job built from an HPC kernel generator's output, reference included.
Job job_from_kernel(const vcgra::hpc::HpcKernel& kernel,
                    const vcgra::overlay::OverlayArch& arch,
                    std::uint64_t placer_seed = 1);

/// Peak resident set size of this process (MB).
double peak_rss_mb();

/// Machine fingerprint: CPU model, nproc, SIMD dispatch, compiler and
/// build type, as a JSON object.
std::string fingerprint_json();

/// Median time (ms) of a fixed compute loop that touches no memory beyond
/// L1: a gauge of host speed, reported beside the metrics so a reader can
/// tell a slow host from a slow program.
double host_probe_ms();

/// Scratch directory inside the working directory (created on demand).
std::string scratch_dir(const std::string& leaf);

// ---- workloads ---------------------------------------------------------------

/// One pass over a workload's fixed op sequence.
struct PassResult {
  std::vector<double> op_us;     // per-op latency
  double busy_s = 0;             // time base for ops/s and Melem/s
  double elems = 0;              // input elements the ops carried
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;            // the set-up that preceded the pass
  /// Restart latencies (second service lifetime): one entry per restart,
  /// holding the latency of each job it re-served from the store.
  std::vector<std::vector<double>> reload_us;
  /// Counts that must repeat exactly pass to pass (simulated statistics,
  /// cache/store counters) for single-client workloads. Keys: "sim.*",
  /// "cache.*" and "sched.reconfigs" for the measured service, "reload.*"
  /// for the restarted one.
  std::map<std::string, std::uint64_t> counts;
  std::vector<double> queue_us;  // JobResult::queue_seconds, when jobs
};

/// What the layer ledger probes for a workload: its kernels with sample
/// streams, a graph over them with one chunk of input, and a frame for
/// the vision host functions.
struct ProbeSet {
  vcgra::overlay::OverlayArch arch;
  std::vector<Job> jobs;
  vcgra::runtime::GraphRequest graph;
  std::map<std::string, std::map<std::string, std::vector<double>>> graph_chunk;
  vcgra::vision::RgbImage frame;
  vcgra::vision::Mask field_of_view;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Busy threads the workload's program runs (client excluded).
  virtual int threads() const = 0;
  /// Build inputs and references from the seed. Untimed.
  virtual void generate(std::uint64_t seed) = 0;
  /// Digest of the generated op sequence and its inputs.
  virtual std::uint64_t input_digest() const = 0;
  /// Build fresh program state (service, warm compiles, admission, the
  /// warm-up op); returns its host seconds. Called before every pass, so
  /// every pass starts from the same state.
  virtual double setup() = 0;
  /// Run the op sequence once, then restart a service on a persistent
  /// store and time the re-served structures (PassResult::reload_us).
  /// With a recorder every op is also replayed layer by layer.
  virtual PassResult run_pass(SpanRecorder* rec) = 0;
  /// Whether pass counts must repeat exactly (single-client workloads).
  virtual bool exact_counts() const { return true; }
  virtual ProbeSet probe_set() const = 0;
  /// Drop program state (services, stores) before exit.
  virtual void teardown() = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();
/// The seed a workload runs with when none is given, and the held-out
/// seed reserved for re-checking claims on inputs nobody tuned against.
std::uint64_t default_seed(const std::string& workload);
std::uint64_t held_out_seed(const std::string& workload);

// ---- ledger ------------------------------------------------------------------

/// Time every layer's public entry point in isolation on the probe set,
/// recording spans under one "ledger" root.
void run_ledger(const ProbeSet& probes, SpanRecorder& rec);

/// Shadow copies of the runtime components a job crosses, so a replay
/// never disturbs the measured service.
struct Shadow {
  explicit Shadow(int instances);
  vcgra::runtime::OverlayCache cache;
  vcgra::runtime::ReconfigScheduler scheduler;
  vcgra::overlay::SimOptions sim;
  std::map<std::string, std::shared_ptr<const vcgra::overlay::ParsedKernel>> parsed;
};

/// Replay one warm-path job (front end, cache, plan, acquire, encode,
/// tape, decode) under `parent`. Returns false when the replay's output
/// bits differ from the job's reference.
bool replay_job(const Job& job, const vcgra::overlay::OverlayArch& arch,
                Shadow& shadow, SpanRecorder& rec, int parent,
                std::uint64_t op);

/// Per-layer metric catalog: name -> unit, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog();

}  // namespace vbench
