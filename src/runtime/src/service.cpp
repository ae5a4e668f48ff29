#include "vcgra/runtime/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "service_internal.hpp"
#include "vcgra/common/log.hpp"
#include "vcgra/common/strings.hpp"

namespace vcgra::runtime {

namespace {

/// Visits, in name order, the bit pattern of every kernel parameter as
/// `overrides` sets it (its default otherwise): the binding merge_params
/// would build, without building it. False when an override names no
/// parameter of the kernel, which merge_params rejects.
template <typename Visit>
bool for_each_merged_bits(const overlay::ParamBinding& defaults,
                          const overlay::ParamBinding& overrides,
                          Visit&& visit) {
  auto o = overrides.begin();
  for (const auto& [name, value] : defaults) {
    const bool set = o != overrides.end() && o->first == name;
    visit(std::bit_cast<std::uint64_t>(set ? o->second : value));
    if (set) ++o;
  }
  return o == overrides.end();
}

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

/// Hash of a request's seed and the bits of every merged parameter value
/// (so -0.0 and +0.0, or values one ulp apart, hash apart); the arch is
/// only compared. Allocates nothing.
std::uint64_t intern_hash(const overlay::ParamBinding& defaults,
                          const JobRequest& request) {
  std::uint64_t h = hash_mix(0, request.seed);
  for_each_merged_bits(defaults, request.params,
                       [&](std::uint64_t bits) { h = hash_mix(h, bits); });
  return h;
}

/// The first of `entries` (kept sorted by their `hash`) whose hash is not
/// below `hash`.
template <typename Entries>
auto first_hash_at_least(Entries& entries, std::uint64_t hash) {
  return std::lower_bound(
      entries.begin(), entries.end(), hash,
      [](const auto& entry, std::uint64_t h) { return entry.hash < h; });
}

/// Whether `config_key` is keys.full(), without building it.
bool is_full_key(const std::string& config_key, const CacheKeys& keys) {
  const std::string_view key = config_key;
  const std::size_t cut = keys.structure.size();
  return key.size() == cut + 1 + keys.params.size() &&
         key.starts_with(keys.structure) && key[cut] == '|' &&
         key.ends_with(keys.params);
}

/// Whether two jobs share one configuration key (and so one Compiled).
bool same_config(const CacheKeys& a, const CacheKeys& b) {
  return a.params == b.params && a.structure == b.structure;
}

std::shared_ptr<ReconfigCostModel> make_cost_model(
    ServiceOptions::CostModel kind) {
  if (kind == ServiceOptions::CostModel::kScg) {
    return std::make_shared<ScgCostModel>();
  }
  return std::make_shared<RegisterDiffCostModel>();
}

}  // namespace

namespace detail {

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

OverlayService::OverlayService(const ServiceOptions& options)
    : options_(normalize(options)),
      meters_{registry_},
      cache_(options_.cache_capacity, registry_),
      scheduler_(options_.virtual_instances, make_cost_model(options_.cost_model),
                 registry_),
      pool_(options_.threads, registry_) {
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
    monitor_ = std::make_unique<telemetry::Monitor>(
        std::vector<const telemetry::MetricsRegistry*>{&registry_,
                                                       &telemetry::metrics()},
        std::move(monitor));
    monitor_->start();
  }
}

OverlayService::~OverlayService() {
  alive_.reset();
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
    if (it != parse_memo_.end()) return it->second.parsed;
  }
  // Parse outside the lock; failures propagate uncached.
  auto parsed = std::make_shared<const overlay::ParsedKernel>(
      overlay::parse_kernel_symbolic(kernel_text));
  std::lock_guard<std::mutex> lock(parse_mutex_);
  make_memo_room_locked(1);
  const auto [it, fresh] = parse_memo_.try_emplace(kernel_text);
  if (fresh) {
    it->second.parsed = std::move(parsed);
    ++memo_entries_;
  }
  return it->second.parsed;
}

void OverlayService::make_memo_room_locked(std::size_t inserts) {
  if (memo_entries_ + inserts <= kParseMemoLimit) return;
  parse_memo_.clear();
  memo_entries_ = 0;
}

void OverlayService::intern(Job& job, const JobRequest& request) {
  // Under parse_mutex_: the JobKeys interned in `memo` for `request`
  // (whose intern_hash is `hash`), or null. Its binding has the kernel's
  // parameter names in order, so a match compares the bits of each value.
  const auto find = [&request](const KernelMemo& memo, std::uint64_t hash) {
    for (auto it = first_hash_at_least(memo.interned, hash);
         it != memo.interned.end() && it->hash == hash; ++it) {
      if (it->seed != request.seed || !(it->arch == request.arch)) continue;
      auto bound = it->id->binding.begin();
      bool same = true;
      const bool known = for_each_merged_bits(
          memo.parsed->params, request.params, [&](std::uint64_t bits) {
            same = same && std::bit_cast<std::uint64_t>(bound++->second) == bits;
          });
      if (known && same) return it->id;
    }
    return std::shared_ptr<const JobKeys>();
  };
  std::uint64_t hash = 0;
  {
    // A repeat: one find of the text, one hash of the rest, no allocation.
    std::lock_guard<std::mutex> lock(parse_mutex_);
    const auto it = parse_memo_.find(request.kernel_text);
    if (it != parse_memo_.end()) {
      job.parsed = it->second.parsed;
      hash = intern_hash(job.parsed->params, request);
      if ((job.id = find(it->second, hash))) return;
    }
  }
  // First sight: parse (for a new text), merge and build the keys outside
  // the lock. A bad text or override throws here, before anything is
  // memoized.
  if (!job.parsed) {
    job.parsed = std::make_shared<const overlay::ParsedKernel>(
        overlay::parse_kernel_symbolic(request.kernel_text));
    hash = intern_hash(job.parsed->params, request);
  }
  auto id = std::make_shared<JobKeys>();
  id->binding = overlay::merge_params(job.parsed->params, request.params);
  id->keys = cache_keys(*job.parsed, request.arch, request.seed, id->binding);
  std::lock_guard<std::mutex> lock(parse_mutex_);
  make_memo_room_locked(2);  // the text and the request
  const auto [it, fresh] = parse_memo_.try_emplace(request.kernel_text);
  KernelMemo& memo = it->second;
  if (fresh) {
    memo.parsed = job.parsed;
    ++memo_entries_;
  }
  // A racing first sight may have interned the same request meanwhile.
  if ((job.id = find(memo, hash))) return;
  memo.interned.insert(first_hash_at_least(memo.interned, hash),
                       Interned{hash, request.seed, request.arch, id});
  ++memo_entries_;
  job.id = std::move(id);
}

void OverlayService::front_end(Job& job, JobRequest request) {
  job.front_end_start_ns = telemetry::trace_now_ns();
  try {
    intern(job, request);
  } catch (...) {
    // Bad kernel text or bad override: fail through execute(), so submit
    // never throws. The job has no keys, so it neither fuses nor matches
    // a loaded overlay.
    job.front_end_error = std::current_exception();
  }
  job.request = std::move(request);
  job.front_end_ns = telemetry::trace_now_ns() - job.front_end_start_ns;
}

std::future<JobResult> OverlayService::submit(JobRequest request) {
  std::unique_ptr<PendingJob> job = take_spent();
  front_end(*job, std::move(request));
  return enqueue(std::move(job));
}

std::unique_ptr<OverlayService::PendingJob> OverlayService::take_spent() {
  std::unique_ptr<PendingJob> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot = std::move(spent_);
    spent_count_ = 0;
  }
  if (!slot) return std::make_unique<PendingJob>();
  // The rest of the list is freed here, on the submitting thread.
  std::unique_ptr<PendingJob> rest = std::move(slot->next_spent);
  *slot = PendingJob{};
  return slot;
}

std::future<JobResult> OverlayService::enqueue(std::unique_ptr<PendingJob> job) {
  job->submit_ns = telemetry::trace_now_ns();
  std::future<JobResult> future = job->promise.get_future();
  meters_.jobs_submitted.add();
  {
    std::lock_guard<std::mutex> lock(mutex_);
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
      ++inline_running_;
    }
  }
  if (!inline_run) {
    std::unique_ptr<PendingJob> pending = take_spent();
    static_cast<Job&>(*pending) = std::move(job);
    return enqueue(std::move(pending)).get();
  }

  meters_.jobs_submitted.add();
  job.submit_ns = telemetry::trace_now_ns();
  // Leaves the in-flight count on every exit, after the books are settled.
  struct InlineDone {
    OverlayService& service;
    ~InlineDone() {
      std::lock_guard<std::mutex> lock(service.mutex_);
      if (--service.inline_running_ == 0) service.inline_idle_.notify_all();
    }
  } done{*this};
  // A batch of one, picked up the instant it was submitted: it never
  // waited, so queue_seconds is 0.
  Job* const lone = &job;
  Executed executed = std::move(execute({&lone, 1}, job.submit_ns).front());
  if (executed.error) std::rethrow_exception(executed.error);
  return std::move(executed.result);
}

void OverlayService::wait_idle() {
  pool_.wait_idle();
  std::unique_lock<std::mutex> lock(mutex_);
  inline_idle_.wait(lock, [this]() { return inline_running_ == 0; });
}

void OverlayService::drain_one() {
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
      // One scheduler lock for the whole window, not one per queued job,
      // and the loaded keys are compared in place. The first job with an
      // exact-configuration match (free swap) beats the first with a
      // structure match (cheap param respecialization); both beat FIFO on
      // a cold overlay.
      const std::size_t window = std::min(options_.schedule_scan_window,
                                          pending_.size());
      std::size_t exact = window;
      std::size_t structure = window;
      scheduler_.for_each_free_loaded([&](const std::string& config_key,
                                          const std::string& structure_key) {
        for (std::size_t i = 0; i < exact; ++i) {
          const JobKeys* id = pending_[i]->id.get();
          if (!id) continue;  // a front-end failure has no overlay
          if (is_full_key(config_key, id->keys)) {
            exact = i;
            break;
          }
          if (i < structure && structure_key == id->keys.structure) {
            structure = i;
          }
        }
      });
      if (exact < window) {
        pick = exact;
      } else if (structure < window) {
        pick = structure;
      }
    }
    if (pick != 0) ++pending_.front()->deferrals;
    batch.push_back(std::move(pending_[pick]));
    pending_.erase(pending_.begin() + static_cast<long>(pick));
    // Fused-batch gather: every queued job sharing the picked job's exact
    // configuration rides this drain as one fused batch (up to the
    // fairness cap, so a flood of one kernel cannot monopolize a worker).
    // The wakeups those jobs enqueued become harmless empty-queue pops.
    const Job& lead = *batch.front();
    if (options_.use_plan_executor && lead.id) {
      for (std::size_t i = 0;
           i < pending_.size() && batch.size() < options_.max_batch_jobs;) {
        if (pending_[i]->id && same_config(pending_[i]->id->keys, lead.id->keys)) {
          batch.push_back(std::move(pending_[i]));
          pending_.erase(pending_.begin() + static_cast<long>(i));
        } else {
          ++i;
        }
      }
    }
  }

  const std::uint64_t picked_ns = telemetry::trace_now_ns();
  std::vector<Job*> jobs;
  jobs.reserve(batch.size());
  for (const auto& job : batch) jobs.push_back(job.get());
  std::vector<Executed> executed = execute(jobs, picked_ns);
  for (std::size_t j = 0; j < batch.size(); ++j) {
    if (executed[j].error) {
      batch[j]->promise.set_exception(executed[j].error);
    } else {
      batch[j]->promise.set_value(std::move(executed[j].result));
    }
  }
  // Park the spent jobs for a submitting thread to free; past the bound,
  // this worker frees the rest when `batch` goes out of scope.
  const std::size_t limit =
      kSpentPerThread * static_cast<std::size_t>(options_.threads);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::unique_ptr<PendingJob>& job : batch) {
    if (spent_count_ == limit) break;
    job->next_spent = std::move(spent_);
    spent_ = std::move(job);
    ++spent_count_;
  }
}

namespace {

/// One job's streams resolved to plan buffers. After canonical_streams()
/// it rejects ragged lengths, then unknown names; the executor then applies
/// the per-op rules. Every job meets its rejections in this one order, so
/// its error does not depend on whether it was fused.
overlay::ResolvedJob resolve_streams(const overlay::ParsedKernel& parsed,
                                     const JobRequest& request,
                                     const overlay::PlanExecutor& executor) {
  const overlay::BatchInputs named =
      detail::canonical_streams(parsed, request.inputs, request.input_bits);
  std::size_t length = 0;
  for (const auto& [name, stream] : named) {
    if (length == 0) length = stream.size;
    if (stream.size != length) {
      throw std::invalid_argument("PlanExecutor: input stream lengths differ");
    }
  }
  overlay::ResolvedJob in;
  in.reserve(named.size());
  for (const auto& [name, stream] : named) {
    in.push_back({executor.resolve_input(name), stream});
  }
  return in;
}

/// A batch's stream-name table: one resolved job's real stream names in
/// request order (inputs, then input_bits), each with its plan buffer.
struct NameSlot {
  const std::string* name;
  std::int32_t buffer;
};

std::vector<NameSlot> name_table(const overlay::ParsedKernel& parsed,
                                 const JobRequest& request,
                                 const overlay::PlanExecutor& executor) {
  std::vector<NameSlot> table;
  table.reserve(request.inputs.size() + request.input_bits.size());
  const auto add = [&](const std::string& name) {
    table.push_back({&name, executor.resolve_input(parsed.canonical_name(name))});
  };
  for (const auto& entry : request.inputs) add(entry.first);
  for (const auto& entry : request.input_bits) add(entry.first);
  return table;
}

/// Resolve `request` from `table` when it names the same streams in the
/// same order (same kernel text, so the same canonical names): no string
/// work at all. Such a job can only still fail the executor's length and
/// per-op rules, which come last in the lone order anyway.
bool reuse_table(const std::vector<NameSlot>& table, const JobRequest& request,
                 overlay::ResolvedJob& in) {
  if (request.inputs.size() + request.input_bits.size() != table.size()) {
    return false;
  }
  in.reserve(table.size());
  auto slot = table.begin();
  const auto match = [&](const auto& streams) {
    for (const auto& [name, stream] : streams) {
      if (name != *slot->name) return false;
      in.push_back({slot++->buffer, detail::stream_view(stream)});
    }
    return true;
  };
  return match(request.inputs) && match(request.input_bits);
}

}  // namespace

std::vector<OverlayService::Executed> OverlayService::execute(
    std::span<Job* const> batch, std::uint64_t picked_ns) {
  const std::size_t njobs = batch.size();
  const Job& lead = *batch.front();
  std::vector<Executed> executed(njobs);
  std::vector<overlay::RunResult> runs(njobs);

  // Outcome of the one-time work (lookup, acquire, plan fetch): every
  // job's result starts as a copy of this template.
  JobResult shared;
  shared.batch_size = static_cast<int>(njobs);
  std::exception_ptr batch_error;  // a shared-stage failure fails everyone
  telemetry::JobTrace trace;
  // Child spans (exec.tape, exec.decode, compile.*) sit below the stages,
  // so only a slow-job span tree shows them.
  trace.child_spans = options_.slow_job_threshold > 0;
  double exec_share = 0;

  try {
    // Front-end failures never fuse, so such a job is alone here.
    if (lead.front_end_error) std::rethrow_exception(lead.front_end_error);
    telemetry::JobTraceScope tracing(&trace);

    const JobKeys& id = *lead.id;
    CacheOutcome outcome;
    std::shared_ptr<const overlay::Compiled> compiled;
    {
      VCGRA_TRACE_SPAN("cache.lookup");
      compiled = cache_.get_or_specialize(id.keys, *lead.parsed,
                                          lead.request.arch, lead.request.seed,
                                          id.binding, &outcome);
    }
    shared.cache_hit = outcome.hit;
    shared.structure_hit = outcome.structure_hit;
    shared.disk_hit = outcome.disk_hit;
    shared.compile_seconds = outcome.compile_seconds;
    shared.specialize_seconds = outcome.specialize_seconds;
    shared.disk_load_seconds = outcome.disk_load_seconds;

    std::optional<detail::InstanceLease> lease;
    {
      VCGRA_TRACE_SPAN("sched.acquire");
      const Assignment assignment =
          scheduler_.acquire(id.keys.full(), id.keys.structure, compiled);
      lease.emplace(scheduler_, assignment.instance);
      shared.instance = assignment.instance;
      shared.reconfigured = assignment.reconfigured;
      shared.param_respecialized = assignment.param_only;
      shared.reconfig_seconds = assignment.reconfig_seconds;
    }

    // Steady-state datapath: the cached specialization's precompiled
    // execution plan (lowered lazily, reused across jobs). Plan lookup
    // (and a first-touch lowering) happens before the exec timer starts,
    // so exec_seconds stays a datapath measurement.
    std::shared_ptr<const overlay::ExecPlan> plan;
    if (options_.use_plan_executor) {
      VCGRA_TRACE_SPAN("plan.fetch");
      plan = cache_.plan_for(id.keys, compiled, options_.sim);
      shared.plan_executed = true;
    }
    VCGRA_TRACE_SPAN("exec.run");
    common::WallTimer exec;
    if (plan) {
      // Every job's streams resolve to plan buffer views borrowing its
      // request. A job that fails resolution is left out of the sweep and
      // fails alone; the rest of the batch runs. The first job to resolve
      // fills the batch's name table, which the others reuse.
      overlay::PlanExecutor executor(plan);
      const overlay::ParsedKernel* table_kernel = nullptr;
      std::vector<NameSlot> table;
      std::vector<overlay::ResolvedJob> inputs;
      std::vector<bool> raw;
      std::vector<std::size_t> slot_of;  // inputs index -> batch index
      inputs.reserve(njobs);
      slot_of.reserve(njobs);
      for (std::size_t j = 0; j < njobs; ++j) {
        const Job& job = *batch[j];
        try {
          overlay::ResolvedJob in;
          if (table_kernel != job.parsed.get() ||
              !reuse_table(table, job.request, in)) {
            in = resolve_streams(*job.parsed, job.request, executor);
            if (njobs > 1 && table_kernel == nullptr) {
              table = name_table(*job.parsed, job.request, executor);
              table_kernel = job.parsed.get();
            }
          }
          inputs.push_back(std::move(in));
          raw.push_back(job.request.raw_output);
          slot_of.push_back(j);
        } catch (...) {
          executed[j].error = std::current_exception();
        }
      }
      std::vector<overlay::PlanExecutor::BatchOutcome> outcomes =
          executor.run_batch_resolved(inputs, raw);
      for (std::size_t k = 0; k < outcomes.size(); ++k) {
        const std::size_t j = slot_of[k];
        executed[j].error = outcomes[k].error;
        runs[j] = std::move(outcomes[k].run);
      }
    } else {
      // The interpreter reference, one job at a time. It converts both
      // encodings with the scalar FpValue boundary (never the batch
      // encoder/decoder), so it stays an independent oracle for the plan
      // executor, raw-bits mode included.
      const overlay::Simulator interpreter(compiled, options_.sim);
      for (std::size_t j = 0; j < njobs; ++j) {
        const JobRequest& request = batch[j]->request;
        try {
          const softfloat::FpFormat format = request.arch.format;
          std::map<std::string, std::vector<softfloat::FpValue>> inputs;
          for (const auto& [name, stream] :
               detail::canonical_streams(*batch[j]->parsed, request.inputs,
                                         request.input_bits)) {
            std::vector<softfloat::FpValue>& values = inputs[name];
            values.reserve(stream.size);
            for (std::size_t i = 0; i < stream.size; ++i) {
              values.push_back(
                  stream.bits ? softfloat::FpValue(format, stream.bits[i])
                              : softfloat::FpValue::from_double(
                                    format, stream.doubles[i]));
            }
          }
          overlay::RunResult& run = runs[j] = interpreter.run(inputs);
          if (request.raw_output) {
            for (auto& [name, stream] : run.outputs) {
              std::vector<std::uint64_t>& bits = run.bit_outputs[name];
              bits.reserve(stream.size());
              for (const softfloat::FpValue& v : stream) bits.push_back(v.bits());
            }
            run.outputs.clear();
          }
        } catch (...) {
          executed[j].error = std::current_exception();
        }
      }
    }
    for (std::size_t j = 0; j < njobs; ++j) {
      if (!executed[j].error) translate_outputs(*batch[j]->parsed, runs[j]);
    }
    // Each job reports an equal share of the sweep, so sums over jobs
    // still total the real datapath time.
    exec_share = exec.seconds() / static_cast<double>(njobs);
  } catch (...) {
    batch_error = std::current_exception();
  }

  // The front-end and queue-wait spans join the collector (depth 0, so
  // they count as stages) and the global rings after the scope closes —
  // their starts predate the scope, so the guard path cannot record them.
  // The lead's stand in for the batch; each result carries its own below.
  const std::uint64_t lead_queue_ns = picked_ns - lead.submit_ns;
  trace.add("front_end", 0, lead.front_end_start_ns, lead.front_end_ns);
  telemetry::Tracer::record_span("front_end", lead.front_end_start_ns,
                                 lead.front_end_ns, trace.trace_id);
  trace.add("queue.wait", 0, lead.submit_ns, lead_queue_ns);
  telemetry::Tracer::record_span("queue.wait", lead.submit_ns, lead_queue_ns,
                                 trace.trace_id);
  const std::vector<telemetry::StageTiming> stages = trace.stage_breakdown();

  // Settle the books for every job before any result is delivered, so a
  // caller reading stats() right after its result already sees its job.
  std::uint64_t failed = 0;
  double slowest = 0;
  for (std::size_t j = 0; j < njobs; ++j) {
    Executed& job_done = executed[j];
    if (batch_error) job_done.error = batch_error;
    if (job_done.error) {
      ++failed;
      continue;
    }
    const Job& job = *batch[j];
    JobResult& result = job_done.result;
    result = shared;
    result.run = std::move(runs[j]);
    result.exec_seconds = exec_share;
    result.queue_seconds =
        static_cast<double>(picked_ns - job.submit_ns) * 1e-9;
    result.stages = stages;
    result.trace_id = trace.trace_id;
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
      // Every member shares the batch's pipeline stages (they are wall
      // time for the whole sweep), but front_end and queue.wait are its
      // own, keeping stage-sum ~= latency for followers too.
      for (telemetry::StageTiming& stage : result.stages) {
        if (stage.name == "queue.wait") stage.seconds = result.queue_seconds;
        if (stage.name == "front_end") {
          stage.seconds = static_cast<double>(job.front_end_ns) * 1e-9;
        }
      }
    }
    result.latency_seconds = job.since_submit.seconds();
    slowest = std::max(slowest, result.latency_seconds);
    record_result(result);
  }
  if (failed > 0) meters_.jobs_failed.add(failed);
  if (njobs > 1) {
    meters_.fused_batches.add();
    meters_.batched_jobs.add(njobs);
  }

  if (options_.slow_job_threshold > 0 &&
      slowest >= options_.slow_job_threshold) {
    VCGRA_LOG_WARN() << "slow job trace " << trace.trace_id << " ("
                     << common::human_seconds(slowest) << " >= "
                     << common::human_seconds(options_.slow_job_threshold)
                     << " threshold, batch of " << njobs << ") span tree:\n"
                     << trace.tree_string();
  }
  return executed;
}

void OverlayService::record_result(const JobResult& result) {
  meters_.latency.record_seconds(result.latency_seconds);
  meters_.queue.record_seconds(result.queue_seconds);
  meters_.exec.record_seconds(result.exec_seconds);
  meters_.jobs_completed.add();
}

void OverlayService::note_task_completed(double latency_seconds) {
  meters_.latency.record_seconds(latency_seconds);
  meters_.tasks_completed.add();
}

telemetry::HealthReport OverlayService::health() const {
  return monitor_ ? monitor_->health() : telemetry::HealthReport{};
}

ServiceStats OverlayService::stats() const {
  ServiceStats stats;
  stats.cache = cache_.stats();
  stats.scheduler = scheduler_.stats();
  stats.jobs_submitted = meters_.jobs_submitted.value();
  stats.jobs_completed = meters_.jobs_completed.value();
  stats.jobs_failed = meters_.jobs_failed.value();
  stats.tasks_submitted = meters_.tasks_submitted.value();
  stats.tasks_completed = meters_.tasks_completed.value();
  stats.tasks_failed = meters_.tasks_failed.value();
  stats.fused_batches = meters_.fused_batches.value();
  stats.batched_jobs = meters_.batched_jobs.value();
  stats.graphs_executed = meters_.graphs_executed.value();
  stats.graph_stages = meters_.graph_stages.value();
  stats.graph_edges_raw = meters_.graph_edges_raw.value();
  stats.graph_edges_converted = meters_.graph_edges_converted.value();
  stats.sessions_opened = meters_.sessions_opened.value();
  stats.sessions_open = static_cast<std::uint64_t>(meters_.sessions_open.value());
  stats.chunks_fed = meters_.chunks_fed.value();
  stats.exec_seconds = meters_.exec.sum_seconds();
  stats.wall_seconds = lifetime_.seconds();
  // Percentiles come from the full-population histograms: exact (to one
  // bucket width, <= 6.25%) over every completed job, not a sample ring.
  const telemetry::HistogramSnapshot latency = meters_.latency.snapshot();
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
  const telemetry::HistogramSnapshot queue = meters_.queue.snapshot();
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
