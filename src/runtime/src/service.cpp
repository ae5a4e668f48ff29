#include "vcgra/runtime/service.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "vcgra/common/log.hpp"
#include "vcgra/common/strings.hpp"

namespace vcgra::runtime {

namespace {

std::shared_ptr<ReconfigCostModel> make_cost_model(
    ServiceOptions::CostModel kind) {
  if (kind == ServiceOptions::CostModel::kScg) {
    return std::make_shared<ScgCostModel>();
  }
  return std::make_shared<RegisterDiffCostModel>();
}

/// Releases a scheduler instance on every exit path of execute().
class InstanceLease {
 public:
  InstanceLease(ReconfigScheduler& scheduler, int instance)
      : scheduler_(scheduler), instance_(instance) {}
  ~InstanceLease() { scheduler_.release(instance_); }
  InstanceLease(const InstanceLease&) = delete;
  InstanceLease& operator=(const InstanceLease&) = delete;

 private:
  ReconfigScheduler& scheduler_;
  int instance_;
};

}  // namespace

namespace detail {

/// Canonical -> real output-name translation, for both the FpValue and
/// the raw-bits output maps (identity for kernels already written in
/// canonical names). Shared with the graph/session layer (graph.cpp).
void translate_outputs(const overlay::ParsedKernel& parsed,
                       overlay::RunResult& run) {
  if (parsed.names_are_canonical) return;
  const auto& real_nodes = parsed.dfg.nodes();
  const auto& canonical_nodes = parsed.canonical_dfg.nodes();
  std::map<std::string, std::vector<softfloat::FpValue>> real_outputs;
  std::map<std::string, std::vector<std::uint64_t>> real_bits;
  for (const int out : parsed.dfg.outputs()) {
    const std::string& real = real_nodes[static_cast<std::size_t>(out)].name;
    if (real_outputs.count(real) || real_bits.count(real)) {
      continue;  // duplicate output statement
    }
    const std::string& canonical =
        canonical_nodes[static_cast<std::size_t>(out)].name;
    const auto it = run.outputs.find(canonical);
    if (it != run.outputs.end()) real_outputs[real] = std::move(it->second);
    const auto bit_it = run.bit_outputs.find(canonical);
    if (bit_it != run.bit_outputs.end()) {
      real_bits[real] = std::move(bit_it->second);
    }
  }
  run.outputs = std::move(real_outputs);
  run.bit_outputs = std::move(real_bits);
}

}  // namespace detail

using detail::translate_outputs;

ServiceOptions OverlayService::normalize(ServiceOptions options) {
  if (options.threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options.threads = hw ? static_cast<int>(hw) : 4;
  }
  if (options.virtual_instances <= 0) {
    options.virtual_instances = options.threads;
  }
  if (options.cache_capacity == 0) options.cache_capacity = 1;
  return options;
}

namespace {

// Service-level metrics mirrored into the process registry so the
// continuous monitor and the Prometheus export see job health without
// reaching into OverlayService's private (stats()-backing) histograms.
// Same population contract as those members: success-only latencies.
struct ServiceMetrics {
  telemetry::Counter& submitted =
      telemetry::metrics().counter("service.jobs_submitted");
  telemetry::Counter& ok = telemetry::metrics().counter("service.jobs_ok");
  telemetry::Counter& failed =
      telemetry::metrics().counter("service.jobs_failed");
  telemetry::LatencyHistogram& latency =
      telemetry::metrics().histogram("service.latency");
  telemetry::LatencyHistogram& queue =
      telemetry::metrics().histogram("service.queue");
  telemetry::LatencyHistogram& exec =
      telemetry::metrics().histogram("service.exec");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics* m = new ServiceMetrics();
  return *m;
}

}  // namespace

OverlayService::OverlayService(const ServiceOptions& options)
    : options_(normalize(options)),
      cache_(options_.cache_capacity),
      scheduler_(options_.virtual_instances, make_cost_model(options_.cost_model)),
      pool_(options_.threads) {
  if (!options_.store_dir.empty()) {
    store_ = std::make_shared<store::OverlayStore>(options_.store_dir);
    cache_.attach_store(store_, options_.store_write_behind);
    if (options_.warm_start_structures > 0) {
      cache_.warm_start(options_.warm_start_structures);
    }
  }
  if (!options_.trace_path.empty()) telemetry::Tracer::set_enabled(true);
  if (options_.monitor_interval_seconds > 0) {
    telemetry::MonitorOptions monitor;
    monitor.interval_seconds = options_.monitor_interval_seconds;
    monitor.rules = options_.health_rules.empty()
                        ? telemetry::default_service_rules(options_.slo)
                        : options_.health_rules;
    monitor.export_path = options_.monitor_export_path;
    monitor_ = std::make_unique<telemetry::Monitor>(telemetry::metrics(),
                                                    std::move(monitor));
    monitor_->start();
  }
}

OverlayService::~OverlayService() {
  wait_idle();
  // One final window so short-lived services still export a report that
  // covers their last jobs, then stop the sampling thread.
  if (monitor_) {
    monitor_->stop();
    monitor_->tick_at(telemetry::trace_now_ns());
  }
  if (!options_.trace_path.empty()) {
    telemetry::Tracer::export_chrome_trace(options_.trace_path);
  }
}

std::shared_ptr<const overlay::ParsedKernel> OverlayService::parse_cached(
    const std::string& kernel_text) {
  {
    std::lock_guard<std::mutex> lock(parse_mutex_);
    const auto it = parse_memo_.find(kernel_text);
    if (it != parse_memo_.end()) return it->second;
  }
  // Parse outside the lock; failures propagate uncached.
  auto parsed = std::make_shared<const overlay::ParsedKernel>(
      overlay::parse_kernel_symbolic(kernel_text));
  std::lock_guard<std::mutex> lock(parse_mutex_);
  if (parse_memo_.size() >= kParseMemoLimit) parse_memo_.clear();
  return parse_memo_.emplace(kernel_text, std::move(parsed)).first->second;
}

void OverlayService::front_end(Job& job, JobRequest request) {
  job.front_end_start_ns = telemetry::trace_now_ns();
  try {
    job.parsed = parse_cached(request.kernel_text);
    job.binding = overlay::merge_params(job.parsed->params, request.params);
    job.keys = cache_keys(*job.parsed, request.arch, request.seed, job.binding);
    job.config_key = job.keys.full();
  } catch (...) {
    // Bad kernel text or bad override: fail through execute() (so submit
    // never throws), under a key no healthy job can collide with.
    job.front_end_error = std::current_exception();
    job.config_key = "!invalid|" + request.kernel_text;
  }
  job.request = std::move(request);
  job.front_end_ns = telemetry::trace_now_ns() - job.front_end_start_ns;
}

std::future<JobResult> OverlayService::submit(JobRequest request) {
  auto job = std::make_unique<PendingJob>();
  front_end(*job, std::move(request));
  return enqueue(std::move(job));
}

std::future<JobResult> OverlayService::enqueue(std::unique_ptr<PendingJob> job) {
  job->submit_ns = telemetry::trace_now_ns();
  std::future<JobResult> future = job->promise.get_future();
  service_metrics().submitted.add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++jobs_submitted_;
    pending_.push_back(std::move(job));
  }
  pool_.submit_detached([this]() { drain_one(); });
  return future;
}

JobResult OverlayService::run(JobRequest request) {
  Job job;
  front_end(job, std::move(request));
  bool inline_run = false;
  {
    // Run on the caller's thread only when that overtakes nobody: no job
    // is queued for a worker, and an instance is free with no one blocked
    // waiting for it. Same lock order as drain_one: mutex_, then the
    // scheduler's.
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty() && scheduler_.has_free_instance()) {
      inline_run = true;
      ++jobs_submitted_;
      ++inline_running_;
    }
  }
  if (!inline_run) {
    auto pending = std::make_unique<PendingJob>();
    static_cast<Job&>(*pending) = std::move(job);
    return enqueue(std::move(pending)).get();
  }

  service_metrics().submitted.add(1);
  job.submit_ns = telemetry::trace_now_ns();
  // Leaves the in-flight count on every exit, after the books are settled.
  struct InlineDone {
    OverlayService& service;
    ~InlineDone() {
      std::lock_guard<std::mutex> lock(service.mutex_);
      if (--service.inline_running_ == 0) service.inline_idle_.notify_all();
    }
  } done{*this};
  try {
    JobResult result = execute(job, /*queued=*/false);
    record_result(result);
    return result;
  } catch (...) {
    note_job_failed();
    throw;
  }
}

void OverlayService::wait_idle() {
  pool_.wait_idle();
  std::unique_lock<std::mutex> lock(mutex_);
  inline_idle_.wait(lock, [this]() { return inline_running_ == 0; });
}

void OverlayService::drain_one() {
  std::unique_ptr<PendingJob> job;
  std::vector<std::unique_ptr<PendingJob>> batch;
  {
    // Reconfiguration-aware batching: prefer a queued job whose overlay is
    // already loaded on a free instance; fall back to FIFO order. The scan
    // window bounds the cost of the peek on deep queues, and the deferral
    // cap bounds starvation — a cold-overlay job at the queue head cannot
    // be bypassed forever by a stream of warm-overlay arrivals.
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) return;  // spurious (1:1 with submissions otherwise)
    std::size_t pick = 0;
    if (pending_.front()->deferrals < kMaxHeadDeferrals) {
      // One scheduler lock for the whole window, not one per queued job.
      // Exact-configuration matches (free swap) beat structure matches
      // (cheap param respecialization); both beat FIFO on a cold overlay.
      const std::vector<ReconfigScheduler::LoadedKey> warm =
          scheduler_.free_loaded();
      const std::size_t window = std::min(options_.schedule_scan_window,
                                          pending_.size());
      std::size_t structure_pick = 0;
      bool have_structure_pick = false;
      for (std::size_t i = 0; i < window && !warm.empty(); ++i) {
        bool exact = false;
        for (const auto& loaded : warm) {
          if (loaded.config_key == pending_[i]->config_key) {
            exact = true;
            break;
          }
          if (!have_structure_pick &&
              loaded.structure_key == pending_[i]->keys.structure) {
            structure_pick = i;
            have_structure_pick = true;
          }
        }
        if (exact) {
          pick = i;
          have_structure_pick = false;
          break;
        }
      }
      if (have_structure_pick) pick = structure_pick;
    }
    if (pick != 0) ++pending_.front()->deferrals;
    job = std::move(pending_[pick]);
    pending_.erase(pending_.begin() + static_cast<long>(pick));
    // Fused-batch gather: every queued job sharing the picked job's exact
    // configuration rides this drain as one plan sweep (up to the
    // fairness cap, so a flood of one kernel cannot monopolize a worker).
    // The wakeups those jobs enqueued become harmless empty-queue pops.
    if (options_.use_plan_executor && options_.max_batch_jobs > 1 &&
        !job->front_end_error) {
      for (std::size_t i = 0;
           i < pending_.size() && batch.size() + 1 < options_.max_batch_jobs;) {
        if (!pending_[i]->front_end_error &&
            pending_[i]->config_key == job->config_key) {
          batch.push_back(std::move(pending_[i]));
          pending_.erase(pending_.begin() + static_cast<long>(i));
        } else {
          ++i;
        }
      }
    }
  }

  if (!batch.empty()) {
    batch.insert(batch.begin(), std::move(job));
    execute_fused(batch);
    return;
  }

  try {
    JobResult result = execute(*job, /*queued=*/true);
    record_result(result);
    job->promise.set_value(std::move(result));
  } catch (...) {
    note_job_failed();
    job->promise.set_exception(std::current_exception());
  }
}

JobResult OverlayService::execute(Job& job, bool queued) {
  if (job.front_end_error) std::rethrow_exception(job.front_end_error);
  JobResult result;
  const JobRequest& request = job.request;

  // Queue wait is the one stage that spans two threads: it started at
  // submit() and ends here, when a worker picks the job up. An inline
  // job never waited; its queue.wait stage is 0 s.
  const std::uint64_t queue_ns =
      queued ? telemetry::trace_now_ns() - job.submit_ns : 0;
  result.queue_seconds = static_cast<double>(queue_ns) * 1e-9;

  telemetry::JobTrace trace;
  {
    telemetry::JobTraceScope tracing(&trace);

    CacheOutcome outcome;
    std::shared_ptr<const overlay::Compiled> compiled;
    {
      VCGRA_TRACE_SPAN("cache.lookup");
      compiled = cache_.get_or_specialize(job.keys, *job.parsed, request.arch,
                                          request.seed, job.binding, &outcome);
    }
    result.cache_hit = outcome.hit;
    result.structure_hit = outcome.structure_hit;
    result.disk_hit = outcome.disk_hit;
    result.compile_seconds = outcome.compile_seconds;
    result.specialize_seconds = outcome.specialize_seconds;
    result.disk_load_seconds = outcome.disk_load_seconds;

    std::optional<InstanceLease> lease;
    {
      VCGRA_TRACE_SPAN("sched.acquire");
      const Assignment assignment =
          scheduler_.acquire(job.config_key, job.keys.structure, compiled);
      lease.emplace(scheduler_, assignment.instance);
      result.instance = assignment.instance;
      result.reconfigured = assignment.reconfigured;
      result.param_respecialized = assignment.param_only;
      result.reconfig_seconds = assignment.reconfig_seconds;
    }

    // Steady-state datapath: the cached specialization's precompiled
    // execution plan (lowered lazily, reused across jobs) runs the job on
    // the batched bit-level executor; the legacy interpreter remains as
    // the reference path when the plan executor is disabled. Plan lookup
    // (and a first-touch lowering) happens before the exec timer starts,
    // so exec_seconds stays a pure datapath measurement.
    std::shared_ptr<const overlay::ExecPlan> plan;
    if (options_.use_plan_executor) {
      VCGRA_TRACE_SPAN("plan.fetch");
      plan = cache_.plan_for(job.keys, compiled, options_.sim);
      result.plan_executed = true;
    }
    VCGRA_TRACE_SPAN("exec.run");
    common::WallTimer exec;

    // Cached artifacts carry canonical (alpha-renamed) signal names so
    // isomorphic kernels share them; the job's streams use the kernel's
    // real names. Translate at the boundary — both directions are
    // identities for kernels already written in canonical names.
    // Streams are moved, not copied: the request is dead after execute().
    const bool canonical = job.parsed->names_are_canonical;
    std::map<std::string, std::vector<double>> renamed_inputs;
    std::map<std::string, std::vector<std::uint64_t>> renamed_bits;
    if (!canonical) {
      for (auto& [name, stream] : job.request.inputs) {
        // A stray input whose name collides with another stream's
        // canonical name must fail loudly (pre-rename it would have been
        // rejected by the simulator), never silently clobber real data.
        if (!renamed_inputs.emplace(job.parsed->canonical_name(name),
                                    std::move(stream)).second) {
          throw std::invalid_argument(
              "input stream '" + name + "' collides with another stream after "
              "canonicalization");
        }
      }
      for (auto& [name, stream] : job.request.input_bits) {
        if (!renamed_bits.emplace(job.parsed->canonical_name(name),
                                  std::move(stream)).second) {
          throw std::invalid_argument(
              "input stream '" + name + "' collides with another stream after "
              "canonicalization");
        }
      }
    }
    const auto& dstreams = canonical ? request.inputs : renamed_inputs;
    const auto& bstreams = canonical ? request.input_bits : renamed_bits;

    if (plan && bstreams.empty() && !request.raw_output) {
      // The common all-doubles plan path.
      result.run = overlay::PlanExecutor(plan).run_doubles(dstreams);
    } else if (plan) {
      // Raw-bits boundary on the plan path: a fused batch of one, so the
      // single-job and batched entry points share one codepath.
      overlay::BatchInputs in;
      for (const auto& [name, stream] : dstreams) {
        in.emplace(name, overlay::BatchStream{nullptr, stream.data(),
                                              stream.size()});
      }
      for (const auto& [name, stream] : bstreams) {
        if (!in.emplace(name, overlay::BatchStream{stream.data(), nullptr,
                                                   stream.size()}).second) {
          throw std::invalid_argument(
              "input stream '" + name +
              "' provided as both doubles and raw bits");
        }
      }
      std::vector<overlay::BatchInputs> batch_in;
      batch_in.push_back(std::move(in));
      auto outcomes = overlay::PlanExecutor(plan).run_batch(
          batch_in, {request.raw_output});
      if (outcomes[0].error) std::rethrow_exception(outcomes[0].error);
      result.run = std::move(outcomes[0].run);
    } else {
      // Interpreter path. Raw bits are converted with the scalar FpValue
      // boundary (never the batch encoder/decoder) so the interpreter
      // stays an independent oracle for the plan executor.
      if (bstreams.empty() && !request.raw_output) {
        result.run =
            overlay::Simulator(compiled, options_.sim).run_doubles(dstreams);
      } else {
        const softfloat::FpFormat format = request.arch.format;
        std::map<std::string, std::vector<softfloat::FpValue>> fp_inputs;
        for (const auto& [name, stream] : dstreams) {
          std::vector<softfloat::FpValue>& values = fp_inputs[name];
          values.reserve(stream.size());
          for (const double v : stream) {
            values.push_back(softfloat::FpValue::from_double(format, v));
          }
        }
        for (const auto& [name, stream] : bstreams) {
          if (fp_inputs.count(name)) {
            throw std::invalid_argument(
                "input stream '" + name +
                "' provided as both doubles and raw bits");
          }
          std::vector<softfloat::FpValue>& values = fp_inputs[name];
          values.reserve(stream.size());
          for (const std::uint64_t bits : stream) {
            values.push_back(softfloat::FpValue(format, bits));
          }
        }
        result.run = overlay::Simulator(compiled, options_.sim).run(fp_inputs);
        if (request.raw_output) {
          for (auto& [name, stream] : result.run.outputs) {
            std::vector<std::uint64_t> bits(stream.size());
            for (std::size_t i = 0; i < stream.size(); ++i) {
              bits[i] = stream[i].bits();
            }
            result.run.bit_outputs.emplace(name, std::move(bits));
          }
          result.run.outputs.clear();
        }
      }
    }
    translate_outputs(*job.parsed, result.run);
    result.exec_seconds = exec.seconds();
  }

  // The front-end and queue-wait spans join the collector (depth 0, so
  // they count as stages) and the global rings after the scope closes —
  // their starts predate the scope, so the guard path cannot record them.
  trace.add("front_end", 0, job.front_end_start_ns, job.front_end_ns);
  telemetry::Tracer::record_span("front_end", job.front_end_start_ns,
                                 job.front_end_ns, trace.trace_id);
  trace.add("queue.wait", 0, job.submit_ns, queue_ns);
  telemetry::Tracer::record_span("queue.wait", job.submit_ns, queue_ns,
                                 trace.trace_id);
  result.stages = trace.stage_breakdown();
  result.trace_id = trace.trace_id;
  result.latency_seconds = job.since_submit.seconds();

  if (options_.slow_job_threshold > 0 &&
      result.latency_seconds >= options_.slow_job_threshold) {
    VCGRA_LOG_WARN() << "slow job trace " << trace.trace_id << " ("
                     << common::human_seconds(result.latency_seconds)
                     << " >= " << common::human_seconds(
                            options_.slow_job_threshold)
                     << " threshold) span tree:\n" << trace.tree_string();
  }
  return result;
}

void OverlayService::execute_fused(
    std::vector<std::unique_ptr<PendingJob>>& batch) {
  const std::size_t njobs = batch.size();
  PendingJob& lead = *batch.front();
  const std::uint64_t picked_ns = telemetry::trace_now_ns();

  // Shared outcome of the one-time work (lookup, acquire, plan fetch):
  // every job in the batch copies from this template.
  JobResult shared;
  shared.batch_size = static_cast<int>(njobs);
  std::vector<overlay::PlanExecutor::BatchOutcome> outcomes;
  std::vector<std::exception_ptr> job_error(njobs);  // boundary failures
  std::vector<std::size_t> slot_of;  // outcomes index -> batch index
  std::exception_ptr batch_error;    // shared-stage failure fails everyone
  telemetry::JobTrace trace;
  double exec_share = 0;

  try {
    telemetry::JobTraceScope tracing(&trace);

    CacheOutcome outcome;
    std::shared_ptr<const overlay::Compiled> compiled;
    {
      VCGRA_TRACE_SPAN("cache.lookup");
      compiled = cache_.get_or_specialize(lead.keys, *lead.parsed,
                                          lead.request.arch, lead.request.seed,
                                          lead.binding, &outcome);
    }
    shared.cache_hit = outcome.hit;
    shared.structure_hit = outcome.structure_hit;
    shared.disk_hit = outcome.disk_hit;
    shared.compile_seconds = outcome.compile_seconds;
    shared.specialize_seconds = outcome.specialize_seconds;
    shared.disk_load_seconds = outcome.disk_load_seconds;

    std::optional<InstanceLease> lease;
    {
      VCGRA_TRACE_SPAN("sched.acquire");
      const Assignment assignment =
          scheduler_.acquire(lead.config_key, lead.keys.structure, compiled);
      lease.emplace(scheduler_, assignment.instance);
      shared.instance = assignment.instance;
      shared.reconfigured = assignment.reconfigured;
      shared.param_respecialized = assignment.param_only;
      shared.reconfig_seconds = assignment.reconfig_seconds;
    }

    std::shared_ptr<const overlay::ExecPlan> plan;
    {
      VCGRA_TRACE_SPAN("plan.fetch");
      plan = cache_.plan_for(lead.keys, compiled, options_.sim);
    }
    shared.plan_executed = true;

    // Per-job input views resolved to plan buffer indices. The views
    // borrow from the requests, which outlive the sweep. A job whose
    // streams fail translation is excluded from the sweep and fails
    // alone; the rest of the batch runs.
    //
    // The batch shares one configuration, so the lead's stream names
    // are resolved (canonical translation + plan buffer lookup) once;
    // every follower whose stream name lists match the lead's byte for
    // byte — the overwhelmingly common case — reuses that table and
    // pays zero string work. A follower with different real names (an
    // isomorphic kernel text) falls back to its own translation.
    overlay::PlanExecutor executor(plan);
    struct NameSlot {
      const std::string* name;  // lead's real stream name
      std::int32_t buffer;      // resolved plan buffer
      bool bits;                // from input_bits, not inputs
    };
    std::vector<NameSlot> table;
    std::vector<overlay::ResolvedJob> inputs;
    std::vector<bool> raw;
    inputs.reserve(njobs);
    slot_of.reserve(njobs);
    bool table_ok = false;
    for (std::size_t j = 0; j < njobs; ++j) {
      const PendingJob& job = *batch[j];
      const JobRequest& request = job.request;
      try {
        overlay::ResolvedJob in;
        in.reserve(request.inputs.size() + request.input_bits.size());
        bool fast = false;
        if (j > 0 && table_ok &&
            request.inputs.size() + request.input_bits.size() == table.size()) {
          fast = true;
          std::size_t slot = 0;
          for (const auto& [name, stream] : request.inputs) {
            const NameSlot& entry = table[slot++];
            if (entry.bits || name != *entry.name) {
              fast = false;
              break;
            }
            in.push_back({entry.buffer, overlay::BatchStream{
                                            nullptr, stream.data(),
                                            stream.size()}});
          }
          for (const auto& [name, stream] : request.input_bits) {
            if (!fast) break;
            const NameSlot& entry = table[slot++];
            if (!entry.bits || name != *entry.name) {
              fast = false;
              break;
            }
            in.push_back({entry.buffer, overlay::BatchStream{
                                            stream.data(), nullptr,
                                            stream.size()}});
          }
        }
        if (!fast) {
          in.clear();
          const bool canonical = job.parsed->names_are_canonical;
          std::vector<NameSlot> slots;
          slots.reserve(request.inputs.size() + request.input_bits.size());
          const auto add = [&](const std::string& name,
                               const overlay::BatchStream& stream, bool bits) {
            const std::int32_t buffer = executor.resolve_input(
                canonical ? name : job.parsed->canonical_name(name));
            for (const NameSlot& prior : slots) {
              if (prior.buffer != buffer) continue;
              throw std::invalid_argument(
                  bits ? "input stream '" + name +
                             "' provided as both doubles and raw bits"
                       : "input stream '" + name +
                             "' collides with another stream after "
                             "canonicalization");
            }
            slots.push_back({&name, buffer, bits});
            in.push_back({buffer, stream});
          };
          for (const auto& [name, stream] : request.inputs) {
            add(name, overlay::BatchStream{nullptr, stream.data(),
                                           stream.size()}, false);
          }
          for (const auto& [name, stream] : request.input_bits) {
            add(name, overlay::BatchStream{stream.data(), nullptr,
                                           stream.size()}, true);
          }
          if (j == 0) {
            table = std::move(slots);
            table_ok = true;
          }
        }
        inputs.push_back(std::move(in));
        raw.push_back(request.raw_output);
        slot_of.push_back(j);
      } catch (...) {
        job_error[j] = std::current_exception();
      }
    }

    VCGRA_TRACE_SPAN("exec.run");
    common::WallTimer exec;
    outcomes = executor.run_batch_resolved(inputs, raw);
    // Each job reports an equal share of the sweep so sums over jobs
    // still total the real datapath time.
    exec_share = exec.seconds() / static_cast<double>(njobs);
  } catch (...) {
    batch_error = std::current_exception();
  }

  // The lead job's front end and queue wait stand in for the batch in the
  // trace; each JobResult still carries its own below.
  trace.add("front_end", 0, lead.front_end_start_ns, lead.front_end_ns);
  telemetry::Tracer::record_span("front_end", lead.front_end_start_ns,
                                 lead.front_end_ns, trace.trace_id);
  trace.add("queue.wait", 0, lead.submit_ns, picked_ns - lead.submit_ns);
  telemetry::Tracer::record_span("queue.wait", lead.submit_ns,
                                 picked_ns - lead.submit_ns, trace.trace_id);
  const std::vector<telemetry::StageTiming> stages = trace.stage_breakdown();

  std::vector<overlay::PlanExecutor::BatchOutcome*> outcome_of(njobs, nullptr);
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    outcome_of[slot_of[k]] = &outcomes[k];
  }

  // Settle the batch's books before any future resolves, so a caller
  // reading stats() right after its result already sees this batch.
  std::uint64_t failed = 0;
  for (std::size_t j = 0; j < njobs; ++j) {
    std::exception_ptr& error = job_error[j];
    if (batch_error) {
      error = batch_error;
    } else if (!error && outcome_of[j] != nullptr) {
      error = outcome_of[j]->error;
    }
    if (error) ++failed;
  }
  if (failed > 0) service_metrics().failed.add(failed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_failed_ += failed;
    ++fused_batches_;
    batched_jobs_ += njobs;
  }

  for (std::size_t j = 0; j < njobs; ++j) {
    PendingJob& job = *batch[j];
    if (job_error[j]) {
      job.promise.set_exception(job_error[j]);
      continue;
    }
    JobResult result = shared;
    if (j > 0) {
      // Followers are cache hits by construction: the one-time costs
      // (compile, specialize, disk load, reconfig) stay on the lead so
      // sums over per-job results stay honest.
      result.cache_hit = true;
      result.structure_hit = true;
      result.disk_hit = false;
      result.compile_seconds = 0;
      result.specialize_seconds = 0;
      result.disk_load_seconds = 0;
      result.reconfigured = false;
      result.param_respecialized = false;
      result.reconfig_seconds = 0;
    }
    result.run = std::move(outcome_of[j]->run);
    translate_outputs(*job.parsed, result.run);
    result.exec_seconds = exec_share;
    result.queue_seconds =
        static_cast<double>(picked_ns - job.submit_ns) * 1e-9;
    // Every member shares the batch's pipeline stages (they are wall
    // time for the whole sweep), but front_end and queue.wait are per
    // job: the shared breakdown carries the lead's, so substitute this
    // job's own to keep stage-sum ~= latency for followers too.
    result.stages = stages;
    for (telemetry::StageTiming& stage : result.stages) {
      if (stage.name == "queue.wait") stage.seconds = result.queue_seconds;
      if (stage.name == "front_end") {
        stage.seconds = static_cast<double>(job.front_end_ns) * 1e-9;
      }
    }
    result.trace_id = trace.trace_id;
    result.latency_seconds = job.since_submit.seconds();
    record_result(result);
    job.promise.set_value(std::move(result));
  }
}

void OverlayService::record_result(const JobResult& result) {
  latency_hist_.record_seconds(result.latency_seconds);
  queue_hist_.record_seconds(result.queue_seconds);
  exec_hist_.record_seconds(result.exec_seconds);
  ServiceMetrics& m = service_metrics();
  m.ok.add(1);
  m.latency.record_seconds(result.latency_seconds);
  m.queue.record_seconds(result.queue_seconds);
  m.exec.record_seconds(result.exec_seconds);
  std::lock_guard<std::mutex> lock(mutex_);
  ++jobs_completed_;
  exec_seconds_total_ += result.exec_seconds;
}

void OverlayService::note_job_failed() {
  service_metrics().failed.add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  ++jobs_failed_;
}

void OverlayService::note_task_submitted() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++tasks_submitted_;
}

void OverlayService::note_task_completed(double latency_seconds) {
  latency_hist_.record_seconds(latency_seconds);
  service_metrics().latency.record_seconds(latency_seconds);
  std::lock_guard<std::mutex> lock(mutex_);
  ++tasks_completed_;
}

void OverlayService::note_task_failed() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++tasks_failed_;
}

void OverlayService::note_graph_executed(const GraphResult& result) {
  struct GraphMetrics {
    telemetry::Counter& executed = telemetry::metrics().counter("graph.executed");
    telemetry::Counter& stages = telemetry::metrics().counter("graph.stages");
    telemetry::Counter& edges_raw =
        telemetry::metrics().counter("graph.edges_raw");
    telemetry::Counter& edges_converted =
        telemetry::metrics().counter("graph.edges_converted");
  };
  static GraphMetrics* m = new GraphMetrics();
  m->executed.add(1);
  m->stages.add(static_cast<std::uint64_t>(result.stages));
  m->edges_raw.add(static_cast<std::uint64_t>(result.edges_raw));
  m->edges_converted.add(static_cast<std::uint64_t>(result.edges_converted));
  std::lock_guard<std::mutex> lock(mutex_);
  ++graphs_executed_;
  graph_stages_ += static_cast<std::uint64_t>(result.stages);
  graph_edges_raw_ += static_cast<std::uint64_t>(result.edges_raw);
  graph_edges_converted_ += static_cast<std::uint64_t>(result.edges_converted);
}

void OverlayService::note_session_closed() {
  telemetry::metrics().gauge("session.open").add(-1);
  std::lock_guard<std::mutex> lock(mutex_);
  --sessions_open_;
}

void OverlayService::note_chunk_fed() {
  telemetry::metrics().counter("session.chunks").add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  ++chunks_fed_;
}

telemetry::HealthReport OverlayService::health() const {
  return monitor_ ? monitor_->health() : telemetry::HealthReport{};
}

ServiceStats OverlayService::stats() const {
  ServiceStats stats;
  stats.cache = cache_.stats();
  stats.scheduler = scheduler_.stats();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.jobs_submitted = jobs_submitted_;
    stats.jobs_completed = jobs_completed_;
    stats.jobs_failed = jobs_failed_;
    stats.tasks_submitted = tasks_submitted_;
    stats.tasks_completed = tasks_completed_;
    stats.tasks_failed = tasks_failed_;
    stats.fused_batches = fused_batches_;
    stats.batched_jobs = batched_jobs_;
    stats.graphs_executed = graphs_executed_;
    stats.graph_stages = graph_stages_;
    stats.graph_edges_raw = graph_edges_raw_;
    stats.graph_edges_converted = graph_edges_converted_;
    stats.sessions_opened = sessions_opened_;
    stats.sessions_open = sessions_open_;
    stats.chunks_fed = chunks_fed_;
    stats.exec_seconds = exec_seconds_total_;
    stats.wall_seconds = lifetime_.seconds();
  }
  // Percentiles come from the full-population histograms: exact (to one
  // bucket width, <= 6.25%) over every completed job, not a sample ring.
  const telemetry::HistogramSnapshot latency = latency_hist_.snapshot();
  if (latency.count > 0) {
    const std::vector<double> p =
        latency.percentiles({0.50, 0.95, 0.99, 0.999});
    stats.p50_latency_seconds = p[0];
    stats.p95_latency_seconds = p[1];
    stats.p99_latency_seconds = p[2];
    stats.p999_latency_seconds = p[3];
    stats.max_latency_seconds = latency.max_seconds;
    stats.mean_latency_seconds = latency.mean_seconds();
  }
  const telemetry::HistogramSnapshot queue = queue_hist_.snapshot();
  if (queue.count > 0) {
    const std::vector<double> q = queue.percentiles({0.50, 0.99});
    stats.p50_queue_seconds = q[0];
    stats.p99_queue_seconds = q[1];
  }
  if (stats.wall_seconds > 0) {
    // Throughput covers both job and task work: task-only clients (the
    // vision pipeline) would otherwise always read 0.
    stats.jobs_per_second =
        static_cast<double>(stats.jobs_completed + stats.tasks_completed) /
        stats.wall_seconds;
  }
  return stats;
}

}  // namespace vcgra::runtime
