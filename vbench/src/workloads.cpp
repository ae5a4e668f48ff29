// The four workloads. Each is a closed loop from one client over a fixed,
// seed-determined op sequence; see vbench/METRICS.md for why each exists
// and which layers it stresses.
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <future>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/store/overlay_store.hpp"
#include "vcgra/store/serdes.hpp"
#include "vcgra/vcgra/exec_plan.hpp"
#include "vcgra/vision/filters.hpp"
#include "vcgra/vision/pipeline.hpp"
#include "vcgra/vision/pipeline_service.hpp"
#include "vcgra/vision/synthetic.hpp"

namespace vbench {

namespace fs = std::filesystem;
namespace hpc = vcgra::hpc;
namespace overlay = vcgra::overlay;
namespace runtime = vcgra::runtime;
namespace softfloat = vcgra::softfloat;
namespace vision = vcgra::vision;
using vcgra::common::Rng;
using vcgra::common::strprintf;

namespace {

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

std::vector<double> random_values(std::size_t n, Rng& rng) {
  std::vector<double> out(n);
  for (double& v : out) v = rng.next_double() * 2.0 - 1.0;
  return out;
}

/// A gemv-tile job: `rows` random rows of `taps` values against random
/// coefficients (the dot-tree shape every tile of that width shares).
Job tile_job(int taps, std::size_t rows, Rng& rng,
             const overlay::OverlayArch& arch, std::uint64_t placer_seed) {
  std::vector<std::vector<double>> matrix(rows);
  for (auto& row : matrix) row = random_values(static_cast<std::size_t>(taps), rng);
  const std::vector<double> coeffs =
      random_values(static_cast<std::size_t>(taps), rng);
  return job_from_kernel(hpc::make_gemv_tile(matrix, coeffs), arch, placer_seed);
}

std::uint64_t job_digest(std::uint64_t h, const Job& job) {
  h = fnv_bytes(h, job.kernel_text.data(), job.kernel_text.size());
  h = fnv_mix(h, job.seed);
  for (const auto& [name, value] : job.params) {
    h = fnv_bytes(h, name.data(), name.size());
    h = fnv_bytes(h, &value, sizeof value);
  }
  for (const auto& [name, stream] : job.inputs) {
    h = fnv_bytes(h, name.data(), name.size());
    h = fnv_bytes(h, stream.data(), stream.size() * sizeof(double));
  }
  return h;
}

runtime::ServiceOptions service_options(int threads, const std::string& store_dir = {}) {
  runtime::ServiceOptions options;
  options.threads = threads;
  options.store_dir = store_dir;
  return options;
}

void add_cache_counts(std::map<std::string, std::uint64_t>& counts,
                      const runtime::CacheStats& before,
                      const runtime::CacheStats& after, const std::string& prefix) {
  counts[prefix + "hits"] += after.hits - before.hits;
  counts[prefix + "misses"] += after.misses - before.misses;
  counts[prefix + "structure_hits"] += after.structure_hits - before.structure_hits;
  counts[prefix + "structure_misses"] += after.structure_misses - before.structure_misses;
  counts[prefix + "specializations"] += after.specializations - before.specializations;
  counts[prefix + "plans_built"] += after.plans_built - before.plans_built;
  counts[prefix + "disk_hits"] += after.disk_hits - before.disk_hits;
  counts[prefix + "disk_writes"] += after.disk_writes - before.disk_writes;
}

/// Probe graph of independent stages, one per probe job, fed the jobs'
/// own streams as one chunk.
void graph_from_jobs(ProbeSet& probes) {
  probes.graph.arch = probes.arch;
  for (std::size_t i = 0; i < probes.jobs.size(); ++i) {
    const Job& job = probes.jobs[i];
    runtime::GraphStage stage;
    stage.name = strprintf("s%zu", i);
    stage.kernel_text = job.kernel_text;
    stage.params = job.params;
    stage.seed = job.seed;
    stage.keep_output = true;
    probes.graph.stages.push_back(stage);
    probes.graph_chunk[stage.name] = job.inputs;
  }
}

void probe_frame(ProbeSet& probes, std::uint64_t seed) {
  vision::FundusParams params;
  params.width = 48;
  params.height = 48;
  Rng rng(seed ^ 0xf4a3e0ULL);
  vision::FundusImage fundus = vision::generate_fundus(params, rng);
  probes.frame = std::move(fundus.rgb);
  probes.field_of_view = std::move(fundus.field_of_view);
}

/// Record one measured job: latency sample, element count, bit check and
/// the simulated counts that must repeat pass to pass.
void record_job(PassResult& pass, const Job& job, const runtime::JobResult& result,
                std::uint64_t start_ns, std::uint64_t end_ns, bool ok) {
  pass.op_us.push_back(static_cast<double>(end_ns - start_ns) * 1e-3);
  pass.elems += job.elems;
  ++pass.attempted;
  if (!ok) ++pass.failed;
  pass.counts["sim.cycles"] += result.run.cycles;
  pass.counts["sim.fp_ops"] += result.run.fp_ops;
  pass.counts["sim.mac_ops"] += result.run.mac_ops;
  pass.queue_us.push_back(result.queue_seconds * 1e6);
}

/// Service-call interval of one job, request building excluded.
struct CallTime {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

/// Run a job synchronously, catching failures into `ok`.
runtime::JobResult run_checked(runtime::OverlayService& service, const Job& job,
                               const overlay::OverlayArch& arch, bool* ok,
                               CallTime* call = nullptr) {
  runtime::JobRequest request = job.request(arch);
  CallTime time;
  time.start_ns = now_ns();
  runtime::JobResult result;
  try {
    result = service.run(std::move(request));
    time.end_ns = now_ns();
    *ok = outputs_match(result.run.outputs, job.reference);
  } catch (const std::exception&) {
    time.end_ns = now_ns();
    *ok = false;
  }
  if (call) *call = time;
  return result;
}

/// Record an already-finished service call as the op's "op.service" span.
void add_call_span(SpanRecorder& rec, const char* name, const CallTime& call, int parent,
                   std::uint64_t op) {
  Span span;
  span.name = name;
  span.start_ns = call.start_ns;
  span.end_ns = call.end_ns;
  span.parent = parent;
  span.op = op;
  rec.add(span);
}

/// Warm a shadow by replaying each job once into a throwaway recorder, so
/// traced ops see the same warm cache the measured service does.
std::unique_ptr<Shadow> warm_shadow(const std::vector<const Job*>& jobs,
                                    const overlay::OverlayArch& arch, int instances) {
  auto shadow = std::make_unique<Shadow>(instances);
  SpanRecorder scratch;
  for (const Job* job : jobs) replay_job(*job, arch, *shadow, scratch, -1, 0);
  return shadow;
}

/// The first `samples` input samples of a streaming job, with the matching
/// prefix of its reference (outputs scale with inputs; `samples` must be a
/// multiple of any MAC decimation).
Job prefix_job(const Job& job, std::size_t samples) {
  Job out = job;
  std::size_t length = 0;
  out.elems = 0;
  for (auto& [name, stream] : out.inputs) {
    length = stream.size();
    stream.resize(std::min(samples, length));
    out.elems += static_cast<double>(stream.size());
  }
  if (samples >= length) return out;
  for (auto& [name, stream] : out.reference) {
    stream.resize(stream.size() * samples / length);
  }
  return out;
}

/// A persistent store filled once by a first service lifetime; each pass
/// then restarts a service on it and times one short job per structure.
/// Short jobs keep the datapath (timed by the workload's own ops) out of
/// the restart figure: what remains is the store load, specialization and
/// plan lowering. Each must skip place & route with bit-exact outputs.
class StoreRestart {
 public:
  ~StoreRestart() {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  void restart(const std::vector<const Job*>& full_jobs,
               const overlay::OverlayArch& arch, int threads, PassResult& pass) {
    if (jobs_.empty()) {
      // One job per distinct structure, so every timed op is a disk load.
      std::set<std::string> structures;
      for (const Job* job : full_jobs) {
        if (structures.insert(overlay::parse_kernel_symbolic(job->kernel_text)
                                  .structural_text).second) {
          jobs_.push_back(prefix_job(*job, kRestartSamples));
        }
      }
    }
    if (dir_.empty()) fill(arch, threads);
    for (int r = 0; r < kRestartsPerPass; ++r) {
      runtime::OverlayService again(service_options(threads, dir_));
      std::vector<double>& reload_us = pass.reload_us.emplace_back();
      for (const Job& job : jobs_) {
        bool ok = false;
        CallTime call;
        const runtime::JobResult result = run_checked(again, job, arch, &ok, &call);
        reload_us.push_back(call.us());
        ++pass.attempted;
        if (!ok || !result.disk_hit) ++pass.failed;
      }
      const runtime::CacheStats stats = again.stats().cache;
      if (stats.structure_misses != 0) ++pass.failed;
      pass.counts["reload.disk_hits"] = stats.disk_hits;
    }
    pass.counts["reload.disk_writes"] = disk_writes_;
  }

 private:
  static constexpr std::size_t kRestartSamples = 256;
  static constexpr int kRestartsPerPass = 3;

  void fill(const overlay::OverlayArch& arch, int threads) {
    dir_ = scratch_dir(strprintf("restart-%d", getpid()));
    fs::remove_all(dir_);
    runtime::OverlayService first(service_options(threads, dir_));
    for (const Job& job : jobs_) {
      bool ok = false;
      run_checked(first, job, arch, &ok);
      if (!ok) throw std::runtime_error("restart: first lifetime job failed");
    }
    first.cache().flush_store();
    disk_writes_ = first.stats().cache.disk_writes;
  }

  std::vector<Job> jobs_;
  std::string dir_;
  std::uint64_t disk_writes_ = 0;
};

// ---- stream_hpc ----------------------------------------------------------------

/// Rounds of the 8-kernel HPC suite at n = 2^16 through a warm 1-thread
/// service: datapath-bound, every lookup a full cache hit.
class StreamHpc final : public Workload {
 public:
  int threads() const override { return 1; }

  void generate(std::uint64_t seed) override {
    jobs_.clear();
    for (const hpc::HpcKernel& kernel : hpc::standard_suite(kN, seed)) {
      jobs_.push_back(job_from_kernel(kernel, arch_));
    }
    Rng rng(seed ^ 0x57ea3ULL);
    sequence_.clear();
    for (int round = 0; round < kRoundsPerPass; ++round) {
      std::vector<int> order(jobs_.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
      shuffle(order, rng);
      sequence_.insert(sequence_.end(), order.begin(), order.end());
    }
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvSeed;
    for (const int k : sequence_) h = fnv_mix(h, static_cast<std::uint64_t>(k));
    for (const Job& job : jobs_) h = job_digest(h, job);
    return h;
  }

  double setup() override {
    shadow_.reset();
    service_.reset();
    const std::uint64_t t0 = now_ns();
    service_ = std::make_unique<runtime::OverlayService>(service_options(1));
    for (const Job& job : jobs_) {
      bool ok = false;
      run_checked(*service_, job, arch_, &ok);
      if (!ok) throw std::runtime_error("stream_hpc: warm-up job failed");
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  PassResult run_pass(SpanRecorder* rec) override {
    if (rec && !shadow_) shadow_ = warm_shadow(job_ptrs(), arch_, 1);
    PassResult pass;
    const runtime::ServiceStats before = service_->stats();
    for (const int k : sequence_) {
      const Job& job = jobs_[static_cast<std::size_t>(k)];
      const std::uint64_t op = ++op_id_;
      const int top = rec ? rec->begin("op", -1, op) : -1;
      bool ok = false;
      CallTime call;
      const runtime::JobResult result = run_checked(*service_, job, arch_, &ok, &call);
      pass.busy_s += call.us() * 1e-6;
      record_job(pass, job, result, call.start_ns, call.end_ns, ok);
      if (rec) {
        add_call_span(*rec, "op.service", call, top, op);
        const int layers = rec->begin("op.replay", top, op);
        if (!replay_job(job, arch_, *shadow_, *rec, layers, op)) ++pass.failed;
        rec->end(layers);
        rec->end(top);
      }
    }
    const runtime::ServiceStats after = service_->stats();
    add_cache_counts(pass.counts, before.cache, after.cache, "cache.");
    pass.counts["sched.reconfigs"] =
        after.scheduler.reconfigurations - before.scheduler.reconfigurations;
    restart_.restart(job_ptrs(), arch_, 1, pass);
    return pass;
  }

  ProbeSet probe_set() const override {
    ProbeSet probes;
    probes.arch = arch_;
    probes.jobs = jobs_;
    graph_from_jobs(probes);
    probe_frame(probes, input_digest());
    return probes;
  }

  void teardown() override {
    shadow_.reset();
    service_.reset();
  }

 private:
  static constexpr std::size_t kN = std::size_t{1} << 13;
  static constexpr int kRoundsPerPass = 4;

  std::vector<const Job*> job_ptrs() const {
    std::vector<const Job*> out;
    for (const Job& job : jobs_) out.push_back(&job);
    return out;
  }

  overlay::OverlayArch arch_;
  std::vector<Job> jobs_;
  std::vector<int> sequence_;
  std::unique_ptr<runtime::OverlayService> service_;
  std::unique_ptr<Shadow> shadow_;
  StoreRestart restart_;
  std::uint64_t op_id_ = 0;
};

// ---- tile_mix --------------------------------------------------------------------

/// 256-row GEMV tiles over tap widths {2,4,6,8}, 8 jobs in flight against
/// a 2-worker service. Each width has more coefficient sets than the
/// cache keeps specializations for, so a share of jobs respecializes.
class TileMix final : public Workload {
 public:
  int threads() const override { return kWorkers; }
  bool exact_counts() const override { return false; }

  void generate(std::uint64_t seed) override {
    Rng rng(seed ^ 0x711e0ULL);
    jobs_.clear();
    for (const int taps : kWidths) {
      for (int s = 0; s < kSetsPerWidth; ++s) {
        jobs_.push_back(tile_job(taps, kRows, rng, arch_, 1));
      }
    }
    sequence_.clear();
    for (std::size_t w = 0; w < std::size(kWidths); ++w) {
      for (int i = 0; i < kOpsPerWidth; ++i) {
        sequence_.push_back(static_cast<int>(w) * kSetsPerWidth +
                            static_cast<int>(rng.next_below(kSetsPerWidth)));
      }
    }
    shuffle(sequence_, rng);
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvSeed;
    for (const int k : sequence_) h = fnv_mix(h, static_cast<std::uint64_t>(k));
    for (const Job& job : jobs_) h = job_digest(h, job);
    return h;
  }

  double setup() override {
    shadow_.reset();
    service_.reset();
    const std::uint64_t t0 = now_ns();
    service_ = std::make_unique<runtime::OverlayService>(service_options(kWorkers));
    for (const Job* job : width_leads()) {
      bool ok = false;
      run_checked(*service_, *job, arch_, &ok);
      if (!ok) throw std::runtime_error("tile_mix: warm-up job failed");
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  PassResult run_pass(SpanRecorder* rec) override {
    if (rec && !shadow_) shadow_ = warm_shadow(width_leads(), arch_, kWorkers);
    PassResult pass;
    struct InFlight {
      std::future<runtime::JobResult> future;
      std::uint64_t submit_ns;
      std::size_t index;
      std::uint64_t op;
      int top;
    };
    std::deque<InFlight> in_flight;
    std::size_t next = 0;
    auto submit = [&] {
      runtime::JobRequest request =
          jobs_[static_cast<std::size_t>(sequence_[next])].request(arch_);
      const std::uint64_t op = ++op_id_;
      InFlight slot{{}, now_ns(), next, op, -1};
      if (rec) {
        Span top;
        top.name = "op";
        top.start_ns = slot.submit_ns;
        top.op = op;
        slot.top = rec->add(top);
      }
      slot.future = service_->submit(std::move(request));
      ++next;
      in_flight.push_back(std::move(slot));
    };
    const runtime::ServiceStats before = service_->stats();
    const std::uint64_t start = now_ns();
    while (next < sequence_.size() && in_flight.size() < kInFlight) submit();
    while (!in_flight.empty()) {
      InFlight slot = std::move(in_flight.front());
      in_flight.pop_front();
      const Job& job = jobs_[static_cast<std::size_t>(sequence_[slot.index])];
      bool ok = true;
      runtime::JobResult result;
      try {
        result = slot.future.get();
      } catch (const std::exception&) {
        ok = false;
      }
      const std::uint64_t done = now_ns();
      ok = ok && outputs_match(result.run.outputs, job.reference);
      record_job(pass, job, result, slot.submit_ns, done, ok);
      if (rec) {
        Span call;
        call.name = "op.service";
        call.start_ns = slot.submit_ns;
        call.end_ns = done;
        call.parent = slot.top;
        call.op = slot.op;
        rec->add(call);
        const int layers = rec->begin("op.replay", slot.top, slot.op);
        if (!replay_job(job, arch_, *shadow_, *rec, layers, slot.op)) ++pass.failed;
        rec->end(layers);
        rec->end(slot.top);
      }
      if (next < sequence_.size()) submit();
    }
    pass.busy_s = static_cast<double>(now_ns() - start) * 1e-9;
    const runtime::ServiceStats after = service_->stats();
    add_cache_counts(pass.counts, before.cache, after.cache, "cache.");
    pass.counts["fused_jobs"] = after.batched_jobs - before.batched_jobs;
    pass.counts["sched.reconfigs"] =
        after.scheduler.reconfigurations - before.scheduler.reconfigurations;
    restart_.restart(width_leads(), arch_, kWorkers, pass);
    return pass;
  }

  ProbeSet probe_set() const override {
    ProbeSet probes;
    probes.arch = arch_;
    for (const Job* job : width_leads()) probes.jobs.push_back(*job);
    graph_from_jobs(probes);
    probe_frame(probes, input_digest());
    return probes;
  }

  void teardown() override {
    shadow_.reset();
    service_.reset();
  }

 private:
  static constexpr int kWidths[] = {2, 4, 6, 8};
  static constexpr int kSetsPerWidth = 80;  // > kSpecializationsPerStructure
  static constexpr std::size_t kRows = 256;
  static constexpr int kOpsPerWidth = 256;
  static constexpr std::size_t kInFlight = 8;
  static constexpr int kWorkers = 2;
  static_assert(kSetsPerWidth >
                static_cast<int>(runtime::OverlayCache::kSpecializationsPerStructure));

  std::vector<const Job*> width_leads() const {
    std::vector<const Job*> out;
    for (std::size_t w = 0; w < std::size(kWidths); ++w) {
      out.push_back(&jobs_[w * kSetsPerWidth]);
    }
    return out;
  }

  overlay::OverlayArch arch_;
  std::vector<Job> jobs_;
  std::vector<int> sequence_;
  std::unique_ptr<runtime::OverlayService> service_;
  std::unique_ptr<Shadow> shadow_;
  StoreRestart restart_;
  std::uint64_t op_id_ = 0;
};

// ---- cold_start -------------------------------------------------------------------

/// Every op serves a never-seen structure (2-8-tap dot tree, fresh placer
/// seed) through a store-backed service; a second lifetime on the same
/// store directory then re-serves every key from disk.
class ColdStart final : public Workload {
 public:
  int threads() const override { return 1; }

  void generate(std::uint64_t seed) override {
    Rng rng(seed ^ 0xc01d5ULL);
    std::vector<int> widths;
    for (int taps = 2; taps <= 8; ++taps) {
      for (int i = 0; i < kOpsPerWidth; ++i) widths.push_back(taps);
    }
    shuffle(widths, rng);
    std::uint64_t state = seed;
    const std::uint64_t base = vcgra::common::splitmix64(state) >> 16;
    jobs_.clear();
    for (std::size_t i = 0; i < widths.size(); ++i) {
      jobs_.push_back(tile_job(widths[i], kRows, rng, arch_, base + i + 1));
    }
    warm_ = tile_job(3, kRows, rng, arch_, base + widths.size() + 1);
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = job_digest(kFnvSeed, warm_);
    for (const Job& job : jobs_) h = job_digest(h, job);
    return h;
  }

  double setup() override {
    drop_lifetime();
    dir_ = scratch_dir(strprintf("cold-%d-%llu", getpid(),
                                 static_cast<unsigned long long>(++lifetimes_)));
    const std::uint64_t t0 = now_ns();
    service_ = std::make_unique<runtime::OverlayService>(service_options(1, dir_));
    bool ok = false;
    run_checked(*service_, warm_, arch_, &ok);
    if (!ok) throw std::runtime_error("cold_start: warm-up job failed");
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  PassResult run_pass(SpanRecorder* rec) override {
    PassResult pass;
    std::string shadow_dir;
    std::unique_ptr<vcgra::store::OverlayStore> shadow_store;
    if (rec) {
      shadow_dir = dir_ + "-shadow";
      shadow_store = std::make_unique<vcgra::store::OverlayStore>(shadow_dir);
    }

    // Lifetime 1: every op compiles a never-seen structure.
    for (const Job& job : jobs_) {
      const std::uint64_t op = ++op_id_;
      const int top = rec ? rec->begin("op", -1, op) : -1;
      bool ok = false;
      CallTime call;
      const runtime::JobResult result = run_checked(*service_, job, arch_, &ok, &call);
      pass.busy_s += call.us() * 1e-6;
      record_job(pass, job, result, call.start_ns, call.end_ns,
                 ok && !result.structure_hit);
      if (rec) {
        add_call_span(*rec, "op.service", call, top, op);
        replay_cold(job, *shadow_store, *rec, top, op);
        rec->end(top);
      }
    }
    service_->cache().flush_store();
    // Whole-lifetime totals: the warm-up's write-behind persist may land
    // before or after any mid-lifetime snapshot.
    const runtime::ServiceStats lifetime = service_->stats();
    add_cache_counts(pass.counts, {}, lifetime.cache, "cache.");
    pass.counts["sched.reconfigs"] = lifetime.scheduler.reconfigurations;
    service_.reset();

    // Lifetime 2: the same keys, all served from the store.
    {
      runtime::OverlayService again(service_options(1, dir_));
      std::vector<double>& reload_us = pass.reload_us.emplace_back();
      for (const Job& job : jobs_) {
        const std::uint64_t op = ++op_id_;
        const int top = rec ? rec->begin("reload", -1, op) : -1;
        bool ok = false;
        CallTime call;
        const runtime::JobResult result = run_checked(again, job, arch_, &ok, &call);
        reload_us.push_back(call.us());
        ++pass.attempted;
        if (!ok || !result.disk_hit) ++pass.failed;
        if (rec) {
          add_call_span(*rec, "reload.service", call, top, op);
          replay_reload(job, *shadow_store, *rec, top, op);
          rec->end(top);
        }
      }
      add_cache_counts(pass.counts, {}, again.stats().cache, "reload.");
    }
    drop_lifetime();
    shadow_store.reset();
    if (!shadow_dir.empty()) fs::remove_all(shadow_dir);
    return pass;
  }

  ProbeSet probe_set() const override {
    ProbeSet probes;
    probes.arch = arch_;
    std::vector<bool> seen(9, false);
    for (const Job& job : jobs_) {
      const std::size_t taps = job.inputs.size();
      if (!seen[taps]) {
        seen[taps] = true;
        probes.jobs.push_back(job);
      }
    }
    graph_from_jobs(probes);
    probe_frame(probes, input_digest());
    return probes;
  }

  void teardown() override { drop_lifetime(); }

 private:
  static constexpr int kOpsPerWidth = 7;
  static constexpr std::size_t kRows = 64;

  void drop_lifetime() {
    service_.reset();
    if (!dir_.empty()) fs::remove_all(dir_);
    dir_.clear();
  }

  /// The cold path from outside: front end, disk probe (a miss), compile,
  /// specialize, plan lowering, then the datapath. The persist runs behind
  /// the job in the service, so serialize/save are timed outside the
  /// layer sum.
  void replay_cold(const Job& job, vcgra::store::OverlayStore& store,
                   SpanRecorder& rec, int top, std::uint64_t op) {
    const int layers = rec.begin("op.replay", top, op);
    overlay::ParsedKernel parsed;
    {
      ScopedSpan s(&rec, "vcgra.parse", layers, op);
      parsed = overlay::parse_kernel_symbolic(job.kernel_text);
    }
    overlay::ParamBinding binding;
    runtime::CacheKeys keys;
    {
      ScopedSpan s(&rec, "runtime.front_end", layers, op);
      binding = overlay::merge_params(parsed.params, job.params);
      keys = runtime::cache_keys(parsed, arch_, job.seed, binding);
    }
    {
      ScopedSpan s(&rec, "store.probe", layers, op);
      if (store.try_load(keys.structure)) {
        throw std::runtime_error("cold_start: structure already stored");
      }
    }
    overlay::CompiledStructure structure;
    {
      ScopedSpan s(&rec, "vcgra.compile", layers, op);
      structure = overlay::compile_structure_canonical(parsed, arch_, job.seed);
    }
    rec.sample("vcgra.compile.synth_us", structure.report.synth_seconds * 1e6);
    rec.sample("vcgra.compile.map_us", structure.report.map_seconds * 1e6);
    rec.sample("vcgra.compile.place_us", structure.report.place_seconds * 1e6);
    rec.sample("vcgra.compile.route_us", structure.report.route_seconds * 1e6);
    finish_replay(job, parsed, binding, structure, rec, layers, op);
    rec.end(layers);
    {
      ScopedSpan s(&rec, "store.serialize", top, op);
      vcgra::store::serialize(structure);
    }
    ScopedSpan s(&rec, "store.save", top, op);
    store.save(keys.structure, structure);
  }

  /// The restart path from outside: front end, store load, specialize,
  /// plan lowering, datapath.
  void replay_reload(const Job& job, vcgra::store::OverlayStore& store,
                     SpanRecorder& rec, int top, std::uint64_t op) {
    const int layers = rec.begin("reload.replay", top, op);
    overlay::ParsedKernel parsed;
    overlay::ParamBinding binding;
    runtime::CacheKeys keys;
    {
      ScopedSpan s(&rec, "runtime.front_end", layers, op);
      parsed = overlay::parse_kernel_symbolic(job.kernel_text);
      binding = overlay::merge_params(parsed.params, job.params);
      keys = runtime::cache_keys(parsed, arch_, job.seed, binding);
    }
    std::shared_ptr<const overlay::CompiledStructure> structure;
    {
      ScopedSpan s(&rec, "store.load", layers, op);
      structure = store.load(keys.structure);
    }
    if (!structure) throw std::runtime_error("cold_start: shadow store lost a record");
    finish_replay(job, parsed, binding, *structure, rec, layers, op);
    rec.end(layers);
  }

  void finish_replay(const Job& job, const overlay::ParsedKernel& parsed,
                     const overlay::ParamBinding& binding,
                     const overlay::CompiledStructure& structure, SpanRecorder& rec,
                     int layers, std::uint64_t op) {
    overlay::Compiled compiled;
    {
      ScopedSpan s(&rec, "vcgra.specialize", layers, op);
      compiled = overlay::specialize(
          structure, parsed.names_are_canonical ? binding : parsed.to_canonical(binding));
    }
    std::shared_ptr<const overlay::ExecPlan> plan;
    {
      ScopedSpan s(&rec, "vcgra.plan_lower", layers, op);
      plan = std::make_shared<const overlay::ExecPlan>(overlay::ExecPlan::lower(compiled));
    }
    std::map<std::string, std::vector<double>> inputs;
    for (const auto& [name, stream] : job.inputs) {
      inputs[parsed.canonical_name(name)] = stream;
    }
    ScopedSpan s(&rec, "vcgra.exec.run_doubles", layers, op, job.elems);
    overlay::PlanExecutor(plan).run_doubles(inputs);
  }

  overlay::OverlayArch arch_;
  std::vector<Job> jobs_;
  Job warm_;
  std::string dir_;
  std::unique_ptr<runtime::OverlayService> service_;
  std::uint64_t lifetimes_ = 0;
  std::uint64_t op_id_ = 0;
};

// ---- vessel_frames ----------------------------------------------------------------

/// One bank of filters as a kernel graph, built the way the pipeline's
/// graph runner admits it (tap-group dot trees folded by chain adds over
/// raw-bits edges), so the traced replay can feed each bank itself.
struct BankGraph {
  std::shared_ptr<const runtime::KernelGraph> graph;
  struct Tap {
    std::string stage, input;
    int dx = 0, dy = 0;
  };
  std::vector<Tap> taps;
  std::vector<std::string> finals;
};

runtime::GraphRequest bank_request(const std::vector<vision::Kernel>& bank,
                                   const overlay::OverlayArch& arch,
                                   BankGraph* out) {
  runtime::GraphRequest request;
  request.arch = arch;
  const int group_width_cap = (arch.num_pes() + 1) / 2;
  const int fan_in = std::max(2, group_width_cap);
  for (std::size_t f = 0; f < bank.size(); ++f) {
    const vision::Kernel& kernel = bank[f];
    const std::string prefix = strprintf("f%zu_", f);
    const int taps = kernel.taps();
    const int half = kernel.size / 2;
    const int group_width = std::min(taps, group_width_cap);
    std::vector<std::string> pending;
    for (int base = 0; base < taps; base += group_width) {
      const int width = std::min(group_width, taps - base);
      runtime::GraphStage stage;
      stage.name = prefix + strprintf("g%d", base / group_width);
      stage.kernel_text = vision::dcs_tap_group_kernel(width);
      for (int j = 0; j < width; ++j) {
        const int tap = base + j;
        const int kx = tap % kernel.size, ky = tap / kernel.size;
        stage.params[strprintf("c%d", j)] = kernel.at(kx, ky);
        out->taps.push_back({stage.name, strprintf("x%d", j), kx - half, ky - half});
      }
      pending.push_back(stage.name);
      request.stages.push_back(std::move(stage));
    }
    int fold_index = 0;
    while (pending.size() > 1) {
      const int k = static_cast<int>(
          std::min<std::size_t>(pending.size(), static_cast<std::size_t>(fan_in)));
      runtime::GraphStage fold;
      fold.name = prefix + strprintf("fold%d", fold_index++);
      fold.kernel_text = overlay::chain_add_text(k);
      for (int j = 0; j < k; ++j) {
        request.edges.push_back({pending[static_cast<std::size_t>(j)], "y", fold.name,
                                 strprintf("x%d", j)});
      }
      pending.erase(pending.begin(), pending.begin() + k);
      pending.insert(pending.begin(), fold.name);
      request.stages.push_back(std::move(fold));
    }
    out->finals.push_back(pending.front());
  }
  for (runtime::GraphStage& stage : request.stages) {
    if (std::find(out->finals.begin(), out->finals.end(), stage.name) !=
        out->finals.end()) {
      stage.keep_output = true;
    }
  }
  return request;
}

std::map<std::string, std::map<std::string, std::vector<double>>> bank_chunk(
    const BankGraph& bank, const vision::Image& input) {
  std::map<std::string, std::map<std::string, std::vector<double>>> chunk;
  for (const BankGraph::Tap& tap : bank.taps) {
    std::vector<double>& stream = chunk[tap.stage][tap.input];
    stream.reserve(static_cast<std::size_t>(input.width() * input.height()));
    for (int y = 0; y < input.height(); ++y) {
      for (int x = 0; x < input.width(); ++x) {
        stream.push_back(static_cast<double>(input.sample(x + tap.dx, y + tap.dy)));
      }
    }
  }
  return chunk;
}

std::vector<vision::Kernel> ridge_bank(const vision::PipelineParams& params) {
  std::vector<vision::Kernel> ridges;
  for (const double angle : {0.0, 45.0, 90.0, 135.0}) {
    vision::Kernel ridge = vision::matched_filter_kernel(
        params.texture_size, params.texture_sigma, params.texture_length, angle);
    for (double& w : ridge.weights) w = -w;
    ridges.push_back(std::move(ridge));
  }
  return ridges;
}

std::uint64_t frame_hash(const vision::StageImages& stages) {
  std::uint64_t h = kFnvSeed;
  h = fnv_bytes(h, stages.textured.data().data(),
                stages.textured.data().size() * sizeof(float));
  return fnv_bytes(h, stages.segmented.data().data(),
                   stages.segmented.data().size() * sizeof(float));
}

/// Seeded 48x48 synthetic fundus frames through a PipelineGraphRunner
/// admitted once: the kernel-graph and streaming-session path plus the
/// vision host glue around it.
class VesselFrames final : public Workload {
 public:
  int threads() const override { return 1; }

  void generate(std::uint64_t seed) override {
    vision::FundusParams fparams;
    fparams.width = kSide;
    fparams.height = kSide;
    Rng rng(seed ^ 0x7e55e1ULL);
    frames_.clear();
    for (int i = 0; i < kDistinctFrames; ++i) {
      frames_.push_back(vision::generate_fundus(fparams, rng));
    }
    sequence_.clear();
    for (int round = 0; round < kRoundsPerPass; ++round) {
      for (int i = 0; i < kDistinctFrames; ++i) sequence_.push_back(i);
    }
    shuffle(sequence_, rng);
    tap_jobs_ = denoise_tap_jobs(frames_.front());
    // References from the per-job DCS engine on its own service.
    runtime::OverlayService reference(service_options(1));
    hashes_.clear();
    for (const vision::FundusImage& frame : frames_) {
      hashes_.push_back(frame_hash(
          vision::run_pipeline_service_dcs(frame.rgb, frame.field_of_view, params_,
                                           arch_, reference)
              .stages));
    }
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvSeed;
    for (const int k : sequence_) h = fnv_mix(h, static_cast<std::uint64_t>(k));
    for (const vision::FundusImage& frame : frames_) {
      for (int y = 0; y < kSide; ++y) {
        for (int x = 0; x < kSide; ++x) {
          for (int c = 0; c < 3; ++c) h = fnv_mix(h, frame.rgb.at(x, y, c));
        }
      }
    }
    return h;
  }

  double setup() override {
    drop();
    const std::uint64_t t0 = now_ns();
    service_ = std::make_unique<runtime::OverlayService>(service_options(1));
    runner_ = std::make_unique<vision::PipelineGraphRunner>(params_, arch_, *service_);
    const vision::FundusImage& frame = frames_.front();
    const auto result = runner_->run(frame.rgb, frame.field_of_view);
    if (frame_hash(result.stages) != hashes_.front()) {
      throw std::runtime_error("vessel_frames: warm-up frame differs from reference");
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  PassResult run_pass(SpanRecorder* rec) override {
    if (rec && banks_.empty()) admit_shadow_banks(*rec);
    PassResult pass;
    const runtime::ServiceStats before = service_->stats();
    for (const int k : sequence_) {
      const vision::FundusImage& frame = frames_[static_cast<std::size_t>(k)];
      const std::uint64_t op = ++op_id_;
      const int top = rec ? rec->begin("op", -1, op) : -1;
      const int call = rec ? rec->begin("op.service", top, op) : -1;
      bool ok = true;
      vision::PipelineResult result;
      const std::uint64_t t0 = now_ns();
      try {
        result = runner_->run(frame.rgb, frame.field_of_view);
      } catch (const std::exception&) {
        ok = false;
      }
      const std::uint64_t t1 = now_ns();
      if (rec) rec->end(call);
      ok = ok && frame_hash(result.stages) == hashes_[static_cast<std::size_t>(k)];
      pass.op_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      pass.busy_s += static_cast<double>(t1 - t0) * 1e-9;
      pass.elems += static_cast<double>(kSide * kSide);
      ++pass.attempted;
      if (!ok) ++pass.failed;
      pass.counts["sim.cycles"] += result.cost.cycles;
      pass.counts["sim.fp_ops"] += result.cost.macs;
      if (rec) {
        const int layers = rec->begin("op.replay", top, op);
        if (replay_frame(frame, *rec, layers, op) != hashes_[static_cast<std::size_t>(k)]) {
          ++pass.failed;
        }
        rec->end(layers);
        rec->end(top);
      }
    }
    const runtime::ServiceStats after = service_->stats();
    add_cache_counts(pass.counts, before.cache, after.cache, "cache.");
    pass.counts["graphs"] = after.graphs_executed - before.graphs_executed;
    pass.counts["graph_stages"] = after.graph_stages - before.graph_stages;
    pass.counts["chunks_fed"] = after.chunks_fed - before.chunks_fed;
    pass.counts["sched.reconfigs"] =
        after.scheduler.reconfigurations - before.scheduler.reconfigurations;
    std::vector<const Job*> restart_jobs;
    for (const Job& job : tap_jobs_) restart_jobs.push_back(&job);
    restart_.restart(restart_jobs, arch_, 1, pass);
    return pass;
  }

  ProbeSet probe_set() const override {
    ProbeSet probes;
    probes.arch = arch_;
    probes.frame = frames_.front().rgb;
    probes.field_of_view = frames_.front().field_of_view;
    // Bank-shaped probe graph: the matched-filter bank on the frame's
    // preprocessed image; probe jobs are the denoise filter's tap groups.
    BankGraph bank;
    probes.graph = bank_request(
        vision::matched_filter_bank(params_.matched_size, params_.matched_sigma,
                                    params_.matched_length, params_.orientations),
        arch_, &bank);
    probes.graph_chunk = bank_chunk(bank, preprocess(frames_.front()));
    probes.jobs = tap_jobs_;
    return probes;
  }

  void teardown() override { drop(); }

 private:
  static constexpr int kSide = 48;
  static constexpr int kDistinctFrames = 4;
  static constexpr int kRoundsPerPass = 2;

  static vision::Image preprocess(const vision::FundusImage& frame) {
    vision::Mask valid;
    return vision::remove_optic_disc_and_border(
        vision::equalize_histogram(frame.rgb.channel(1), frame.field_of_view),
        frame.field_of_view, &valid);
  }

  /// The denoise filter's tap groups on a frame as gemv-tile jobs: the
  /// dot-tree structures the bank graphs run, with bit-exact references.
  std::vector<Job> denoise_tap_jobs(const vision::FundusImage& frame) const {
    const vision::Image masked = preprocess(frame);
    const vision::Kernel denoise =
        vision::gaussian_kernel(params_.denoise_size, params_.denoise_sigma);
    const int group = (arch_.num_pes() + 1) / 2;
    const int half = denoise.size / 2;
    std::vector<Job> jobs;
    for (int base = 0; base < denoise.taps(); base += group) {
      const int width = std::min(group, denoise.taps() - base);
      std::vector<double> coeffs;
      std::vector<std::vector<double>> rows(static_cast<std::size_t>(kSide * kSide));
      for (int j = 0; j < width; ++j) {
        const int tap = base + j;
        const int kx = tap % denoise.size, ky = tap / denoise.size;
        coeffs.push_back(denoise.at(kx, ky));
        for (int y = 0; y < kSide; ++y) {
          for (int x = 0; x < kSide; ++x) {
            rows[static_cast<std::size_t>(y * kSide + x)].push_back(
                masked.sample(x + kx - half, y + ky - half));
          }
        }
      }
      jobs.push_back(job_from_kernel(hpc::make_gemv_tile(rows, coeffs), arch_));
    }
    return jobs;
  }

  void drop() {
    banks_.clear();
    shadow_service_.reset();
    runner_.reset();
    service_.reset();
  }

  void admit_shadow_banks(SpanRecorder& rec) {
    const std::vector<std::vector<vision::Kernel>> banks = {
        {vision::gaussian_kernel(params_.denoise_size, params_.denoise_sigma)},
        vision::matched_filter_bank(params_.matched_size, params_.matched_sigma,
                                    params_.matched_length, params_.orientations),
        ridge_bank(params_)};
    shadow_service_ = std::make_unique<runtime::OverlayService>(service_options(1));
    const int root = rec.begin("trace.setup", -1, 0);
    for (const auto& filters : banks) {
      BankGraph bank;
      const runtime::GraphRequest request = bank_request(filters, arch_, &bank);
      ScopedSpan s(&rec, "runtime.graph.admit", root, 0);
      bank.graph = shadow_service_->admit_graph(request);
      banks_.push_back(std::move(bank));
    }
    rec.end(root);
  }

  /// The frame from outside: host preprocessing, one session feed per bank
  /// with host tap-stream building and response fusion around it, then the
  /// host threshold. Returns the same hash the runner's result gives.
  std::uint64_t replay_frame(const vision::FundusImage& frame, SpanRecorder& rec,
                             int layers, std::uint64_t op) {
    vision::StageImages stages;
    vision::Mask valid;
    {
      ScopedSpan s(&rec, "vision.host", layers, op);
      stages.green = frame.rgb.channel(1);
      stages.equalized = vision::equalize_histogram(stages.green, frame.field_of_view);
      stages.masked = vision::remove_optic_disc_and_border(
          stages.equalized, frame.field_of_view, &valid);
    }
    vision::Image image = stages.masked;
    for (const BankGraph& bank : banks_) {
      std::map<std::string, std::map<std::string, std::vector<double>>> chunk;
      {
        ScopedSpan s(&rec, "vision.host", layers, op);
        chunk = bank_chunk(bank, image);
      }
      runtime::GraphResult run;
      {
        ScopedSpan s(&rec, "runtime.graph.feed", layers, op);
        const auto session = shadow_service_->open_graph_session(bank.graph);
        run = session->feed(chunk);
      }
      std::vector<vision::Image> responses;
      double out_elems = 0;
      for (const std::string& stage : bank.finals) {
        out_elems += static_cast<double>(run.bit_outputs.at(stage + ":y").size());
      }
      {
        ScopedSpan s(&rec, "softfloat.decode", layers, op, out_elems);
        for (const std::string& stage : bank.finals) {
          const std::vector<std::uint64_t>& bits = run.bit_outputs.at(stage + ":y");
          std::vector<double> decoded(bits.size());
          softfloat::fp_to_double_n(arch_.format, bits.data(), decoded.data(),
                                    bits.size());
          vision::Image response(image.width(), image.height());
          for (std::size_t p = 0; p < decoded.size(); ++p) {
            response.data()[p] = static_cast<float>(decoded[p]);
          }
          responses.push_back(std::move(response));
        }
      }
      ScopedSpan s(&rec, "vision.host", layers, op);
      image = vision::pixelwise_max(responses);
    }
    ScopedSpan s(&rec, "vision.host", layers, op);
    stages.textured = image;
    const float level = vision::quantile_level(stages.textured, valid,
                                               params_.threshold_quantile);
    stages.segmented = vision::threshold(stages.textured, level);
    for (int y = 0; y < kSide; ++y) {
      for (int x = 0; x < kSide; ++x) {
        if (valid.at(x, y) < 0.5f) stages.segmented.at(x, y) = 0.0f;
      }
    }
    return frame_hash(stages);
  }

  overlay::OverlayArch arch_;
  vision::PipelineParams params_;
  std::vector<vision::FundusImage> frames_;
  std::vector<std::uint64_t> hashes_;
  std::vector<int> sequence_;
  std::unique_ptr<runtime::OverlayService> service_;
  std::unique_ptr<vision::PipelineGraphRunner> runner_;
  std::unique_ptr<runtime::OverlayService> shadow_service_;  // traced replay only
  std::vector<Job> tap_jobs_;
  StoreRestart restart_;
  std::vector<BankGraph> banks_;
  std::uint64_t op_id_ = 0;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"stream_hpc", "tile_mix", "cold_start", "vessel_frames"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "stream_hpc") return std::make_unique<StreamHpc>();
  if (name == "tile_mix") return std::make_unique<TileMix>();
  if (name == "cold_start") return std::make_unique<ColdStart>();
  if (name == "vessel_frames") return std::make_unique<VesselFrames>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t default_seed(const std::string&) { return 1; }

std::uint64_t held_out_seed(const std::string& workload) {
  const std::vector<std::string> names = workload_names();
  const auto it = std::find(names.begin(), names.end(), workload);
  return 90001 + static_cast<std::uint64_t>(it - names.begin());
}

}  // namespace vbench
