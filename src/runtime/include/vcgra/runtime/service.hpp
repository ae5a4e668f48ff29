// OverlayService — the runtime facade over the VCGRA tool flow.
//
// Clients submit jobs (kernel text + overlay architecture + input
// streams) and get a future. Internally a job flows through:
//
//   OverlayCache        hit -> reuse the Compiled artifact (no tool flow)
//        |              miss -> synth/map/place/route once, share forever
//   ReconfigScheduler   pick the virtual grid instance whose loaded
//        |              configuration is cheapest to respecialize
//   ExecutorPool        run the job's datapath on a worker thread — or,
//                       for a synchronous run() that overtakes no one,
//                       on the caller's own thread (no queue hand-off)
//
// Every job takes one execute path, as a batch: a worker runs the job it
// picks together with the queued jobs sharing its exact configuration
// (up to max_batch_jobs, one lookup, lease and plan fetch for all), and
// an inline run() is a batch of one. A job's result, error and accounting
// are the same whichever way it ran.
//
// Determinism: placement is seeded per job (JobRequest::seed feeds the
// compiler's annealer) and simulation is pure, so results are bit-exact
// regardless of thread count, instance count or cache state — asserted
// by test_runtime and bench_runtime.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "vcgra/common/timer.hpp"
#include "vcgra/runtime/executor_pool.hpp"
#include "vcgra/runtime/graph.hpp"
#include "vcgra/runtime/overlay_cache.hpp"
#include "vcgra/runtime/reconfig_scheduler.hpp"
#include "vcgra/runtime/stats.hpp"
#include "vcgra/telemetry/health.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/vcgra/simulator.hpp"

namespace vcgra::runtime {

struct JobRequest {
  std::string kernel_text;
  overlay::OverlayArch arch;
  /// Input streams keyed by DFG input name; all streams share one length.
  std::map<std::string, std::vector<double>> inputs;
  /// Raw-bits input streams (u64 encodings in `arch.format`), merged
  /// with `inputs` by stream name — the zero-copy boundary for clients
  /// chaining kernels. A name provided in both forms fails the job.
  std::map<std::string, std::vector<std::uint64_t>> input_bits;
  /// Return output streams as u64 encodings (RunResult::bit_outputs)
  /// instead of FpValue vectors, skipping the value materialization.
  /// Both engines honor it; the interpreter converts at the boundary so
  /// it stays the bit-exact oracle for the raw mode too.
  bool raw_output = false;
  /// Coefficient overrides applied on top of the kernel text's `param`
  /// defaults. Same text + different params shares one place & route:
  /// only a microsecond respecialization runs per distinct value set.
  /// An override naming a parameter the kernel lacks fails the job.
  overlay::ParamBinding params;
  /// Placer seed. Part of the cache key, so equal seeds mean one compile
  /// and bit-identical placement whatever the execution interleaving.
  std::uint64_t seed = 1;
};

struct JobResult {
  overlay::RunResult run;
  bool cache_hit = false;       // full artifact served from cache
  /// Place & route was skipped: a full hit, a cached structure
  /// respecialized with this job's coefficients, or a structure
  /// deserialized from the persistent store.
  bool structure_hit = false;
  bool disk_hit = false;        // structure came from the persistent store
  int instance = -1;            // virtual grid instance that executed the job
  bool reconfigured = false;    // that instance had to load a new overlay
  bool param_respecialized = false;  // ... by swapping only coefficient words
  /// Ran on the precompiled-plan executor (the steady-state datapath)
  /// rather than the legacy interpreter.
  bool plan_executed = false;
  double compile_seconds = 0;   // place-&-route time this job paid (0 on a hit)
  double specialize_seconds = 0;  // coefficient-binding time this job paid
  double disk_load_seconds = 0;   // store read + deserialize time this job paid
  double reconfig_seconds = 0;  // modeled fabric respecialization cost
  double exec_seconds = 0;      // simulator time
  /// submit -> a worker picked the job up; exactly 0 for a run() job
  /// that executed inline on the caller's thread.
  double queue_seconds = 0;
  double latency_seconds = 0;   // submit -> result ready
  /// Per-stage latency decomposition (front_end, queue.wait,
  /// cache.lookup, sched.acquire, plan.fetch, exec.run) from the job's
  /// trace spans, in pipeline order; the stage durations sum to
  /// ~latency_seconds. plan.fetch is absent on the interpreter, and
  /// exec.run covers stream-name resolution as well as the sweep. Jobs
  /// that rode a fused batch (batch_size > 1) share the batch's pipeline
  /// stages — the batch executed them together, so they are wall time
  /// for every member — with each job's own front_end and queue.wait
  /// substituted, keeping stage-sum ~= latency_seconds batch-wide.
  std::vector<telemetry::StageTiming> stages;
  /// Trace id shared by this job's spans in the exported Chrome trace.
  std::uint64_t trace_id = 0;
  /// How many jobs the sweep that executed this one carried (1 = ran
  /// alone, inline or queued). Batched jobs share one cache lookup, instance
  /// acquire, plan fetch and trace; exec_seconds is the per-job share of
  /// the sweep, and the one-time costs (compile/specialize/disk/reconfig
  /// seconds) stay on the lead job so sums over jobs remain honest.
  int batch_size = 1;
};

struct ServiceOptions {
  int threads = 0;              // executor width; 0 = hardware concurrency
  int virtual_instances = 0;    // modeled grids; 0 = same as threads
  std::size_t cache_capacity = 128;
  enum class CostModel { kRegisterDiff, kScg };
  CostModel cost_model = CostModel::kRegisterDiff;
  overlay::SimOptions sim;
  /// Execute jobs on the precompiled-plan datapath (lowered once per
  /// cached specialization, allocation-free batched execution). Off
  /// routes every job through the legacy cycle-level interpreter — the
  /// reference oracle the differential suite compares against; results
  /// are bit-identical either way (outputs, cycles, fp/mac op counts).
  bool use_plan_executor = true;
  /// How many queued jobs the batch scheduler scans for one whose overlay
  /// is already loaded on a free instance before falling back to FIFO.
  std::size_t schedule_scan_window = 32;
  /// Fused multi-job execution: when a worker picks a job and other
  /// queued jobs share its exact configuration key (same structure,
  /// coefficients, seed), up to this many execute as ONE plan-batched
  /// sweep — the per-job overheads (cache lookup, instance acquire, plan
  /// fetch, trace scope) are paid once per batch. The cap doubles as the
  /// fairness bound: a differently-keyed job behind a batch is delayed
  /// by at most max_batch_jobs - 1 queue-jumping jobs per drain. 1
  /// disables fusion; the interpreter path never fuses.
  std::size_t max_batch_jobs = 16;
  /// Persistent overlay store directory. When non-empty the cache gains
  /// its disk tier: structure misses deserialize published records
  /// instead of re-running place & route, and fresh compiles are
  /// persisted for the next service lifetime (shared safely between
  /// concurrent services pointing at one directory).
  std::string store_dir;
  /// Persist newly compiled structures on a background thread (never on
  /// the job's latency path). Turn off for strictly synchronous tests.
  bool store_write_behind = true;
  /// Preload up to this many of the store's hottest structures into the
  /// memory tier at construction, so a restarted service starts at its
  /// steady-state p50 instead of paying even the disk loads per key.
  std::size_t warm_start_structures = 0;
  /// When non-empty: the global span tracer is switched on at
  /// construction and every recorded span is exported here as Chrome
  /// trace_event JSON (chrome://tracing / Perfetto loadable) when the
  /// service is destroyed.
  std::string trace_path;
  /// Jobs whose submit->result latency meets this threshold (seconds)
  /// log their span tree at WARN level, once per batch (the slowest
  /// member's latency; a fused batch shares one trace). 0 disables.
  double slow_job_threshold = 0;
  /// Continuous monitoring: when > 0 the service runs a telemetry
  /// Monitor that samples the service's own metrics registry, plus the
  /// process registry's exec.*, trace.*, store.* and vision.* names,
  /// every this many seconds into ring-buffer time series (counter
  /// rates, gauge levels, histogram window p50/p99), evaluates the
  /// health rule set per window, flags EWMA+z-score anomalies and logs
  /// every status transition through the leveled logger. 0 disables (the
  /// default — bench gate [J] bounds the enabled cost at a 100 ms
  /// interval).
  double monitor_interval_seconds = 0;
  /// SLO thresholds for the default health rules (service latency p99,
  /// error rate, cache hit rate, queue depth; arena grows and span-ring
  /// drops are zero-tolerance structural rules).
  telemetry::ServiceSloOptions slo;
  /// Custom health rules; empty means default_service_rules(slo).
  std::vector<telemetry::HealthRule> health_rules;
  /// When non-empty the monitor atomically rewrites this file (temp +
  /// rename) with its JSON state ({health, series}) every window — the
  /// live input for `vcgra_top --watch`.
  std::string monitor_export_path;
};

class OverlayService {
 public:
  explicit OverlayService(const ServiceOptions& options = {});

  /// Waits for every submitted job (and in-flight inline run) to finish.
  ~OverlayService();

  OverlayService(const OverlayService&) = delete;
  OverlayService& operator=(const OverlayService&) = delete;

  /// Enqueue a job; the future carries the JobResult or the compile /
  /// simulation exception.
  std::future<JobResult> submit(JobRequest request);

  /// Synchronous execution (still goes through cache + scheduler). When
  /// no job is queued and a virtual instance is free with no one waiting
  /// for it, the job runs on the calling thread: no promise, no pool task
  /// and no worker wake-up, and queue_seconds is 0. Otherwise it queues
  /// behind the waiting jobs exactly like submit(). Either way the cache,
  /// scheduler and stats counts are the same, and a failure rethrows the
  /// exception a submit() future would have carried.
  JobResult run(JobRequest request);

  /// Run an arbitrary task on the executor pool with service
  /// latency/throughput accounting. submit_graph runs its invocations
  /// through it.
  template <typename Fn>
  auto submit_task(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    meters_.tasks_submitted.add();
    common::WallTimer since_submit;
    return pool_.submit(
        [this, since_submit, fn = std::forward<Fn>(fn)]() mutable {
          try {
            if constexpr (std::is_void_v<std::invoke_result_t<std::decay_t<Fn>>>) {
              fn();
              note_task_completed(since_submit.seconds());
            } else {
              auto result = fn();
              note_task_completed(since_submit.seconds());
              return result;
            }
          } catch (...) {
            meters_.tasks_failed.add();
            throw;  // reaches the caller through the future
          }
        });
  }

  // ---- Kernel graphs & streaming sessions (graph.hpp) ----------------

  /// Admit a DAG of stages: parse, compile (through the cache), fetch
  /// every stage's execution plan and resolve every input stream to its
  /// plan buffer index — once. Throws std::invalid_argument on malformed
  /// graphs (duplicate/unknown stage names, unknown edge endpoints, an
  /// input provided both externally and by an edge, cycles) and
  /// propagates compile errors. Each stage takes the job front end, and
  /// a stage's job error (an unknown parameter override, a bad stream)
  /// is prefixed with "graph stage 'name': "; a kernel syntax error
  /// propagates as its ParseError. The handle is immutable; invoke it any
  /// number of times via run_graph / submit_graph.
  std::shared_ptr<const KernelGraph> admit_graph(const GraphRequest& request);

  /// One invocation of an admitted graph, executed shard-locally on the
  /// calling thread: stages run in dependency order, independent ready
  /// stages sharing a configuration key fuse into one executor call, and
  /// interior edges move raw u64 buffers producer -> consumer with zero
  /// decode (a format-convert hop only when stage formats differ).
  GraphResult run_graph(const KernelGraph& graph);

  /// Convenience: admit + one invocation.
  GraphResult run_graph(const GraphRequest& request);

  /// run_graph on the executor pool, with task latency accounting.
  std::future<GraphResult> submit_graph(std::shared_ptr<const KernelGraph> graph);

  /// Pin one specialization for streaming: compile + plan fetch happen
  /// here, then every feed() is pure datapath with the MAC/decimation
  /// carry held across chunks. A session that outlives the service
  /// throws std::logic_error from feed() (see Session).
  std::unique_ptr<Session> open_session(const SessionRequest& request);

  /// Streaming execution of an admitted graph (one carry per stage).
  std::unique_ptr<GraphSession> open_graph_session(
      std::shared_ptr<const KernelGraph> graph);

  /// Block until every queued job, and every run() executing inline on
  /// another thread, has completed.
  void wait_idle();

  ServiceStats stats() const;

  /// Latest windowed health report from the continuous monitor, judged
  /// on this service's own counts. All-ok (zero windows evaluated) before
  /// the first window or when monitoring is disabled.
  telemetry::HealthReport health() const;
  /// The service's metrics registry: the one home of every count its
  /// jobs, cache, scheduler and pool record (stats() is a view of it).
  const telemetry::MetricsRegistry& metrics() const { return registry_; }
  /// The continuous monitor; nullptr when monitor_interval_seconds == 0.
  telemetry::Monitor* monitor() { return monitor_.get(); }

  OverlayCache& cache() { return cache_; }
  ReconfigScheduler& scheduler() { return scheduler_; }
  ExecutorPool& executor() { return pool_; }
  const ServiceOptions& options() const { return options_; }
  /// The persistent overlay store (nullptr unless store_dir was set).
  const std::shared_ptr<store::OverlayStore>& store() const { return store_; }

 private:
  friend class Session;
  friend class GraphSession;

  /// A job after the front end: what execute() needs, inline or queued.
  struct Job {
    JobRequest request;
    /// Parsed once per distinct kernel text (the memo): the cache
    /// compiles from parsed->dfg and the keys below, so the hot path
    /// never re-parses or re-canonicalizes repeated kernels.
    std::shared_ptr<const overlay::ParsedKernel> parsed;
    /// Interned under the kernel's memo entry (null when the front end
    /// failed). The configuration key keys.full() is not kept beside its
    /// two halves: the queue compares the halves in place and execute()
    /// builds the full key for the scheduler.
    std::shared_ptr<const JobKeys> id;
    /// Parse/merge failure captured by the front end so submit() itself
    /// never throws; execute() fails the job with it (through its future,
    /// or out of run() for an inline job).
    std::exception_ptr front_end_error;
    common::WallTimer since_submit;
    /// The front end is the job's first stage: its start and duration on
    /// the trace clock join the job's trace in execute().
    std::uint64_t front_end_start_ns = 0;
    std::uint64_t front_end_ns = 0;
    /// Submit instant on the trace clock, so the queue-wait span (which
    /// starts on the submitting thread and ends on the worker) lands in
    /// the same timeline as the worker's spans.
    std::uint64_t submit_ns = 0;
  };

  /// A queued job: the front-end part plus what only the queue needs.
  struct PendingJob : Job {
    std::promise<JobResult> promise;
    int deferrals = 0;  // times batch reordering bypassed this job at the head
    std::unique_ptr<PendingJob> next_spent;  // link in spent_
  };

  /// Spent jobs parked per worker thread (see spent_).
  static constexpr std::size_t kSpentPerThread = 2;

  /// After this many bypasses the queue head runs next regardless of
  /// overlay affinity (starvation bound for the batch scheduler).
  static constexpr int kMaxHeadDeferrals = 64;

  /// Parsed kernels memoized by exact text, each with the JobKeys of the
  /// requests seen with it. Repeated submissions of the same kernel — the
  /// cache's design workload — skip the front end entirely. The memo holds
  /// at most this many entries, texts and interned requests together, and
  /// is dropped wholesale when an insert would pass the bound: entries are
  /// pure recomputable values, like the scheduler's cost memo.
  static constexpr std::size_t kParseMemoLimit = 1024;

  /// One interned request under its kernel text: the hash it is found by,
  /// the arch and seed it was built for, and its JobKeys (whose binding
  /// holds the params).
  struct Interned {
    std::uint64_t hash = 0;  // of the seed and the merged params' bits
    std::uint64_t seed = 0;
    overlay::OverlayArch arch;
    std::shared_ptr<const JobKeys> id;
  };
  struct KernelMemo {
    std::shared_ptr<const overlay::ParsedKernel> parsed;
    std::vector<Interned> interned;  // sorted by hash
  };

  static ServiceOptions normalize(ServiceOptions options);
  /// Under parse_mutex_: drops the memo when `inserts` more entries would
  /// pass kParseMemoLimit.
  void make_memo_room_locked(std::size_t inserts);
  /// Parse, merge params and build the cache keys into `job` — or, for a
  /// request seen before, take them from the memo; failures land in
  /// job.front_end_error and are never memoized.
  void front_end(Job& job, JobRequest request);
  /// The front end's body; throws on a parse or merge failure. Graph
  /// admission and open_session call it with a stream-less request, so a
  /// stage or session shares the jobs' memo, its bound and its errors.
  void intern(Job& job, const JobRequest& request);
  /// Takes the whole spent list: reuses one slot, reset to a fresh
  /// PendingJob, and frees the rest on the calling (submitting) thread.
  /// A new slot when the list is empty.
  std::unique_ptr<PendingJob> take_spent();
  /// Queue a front-ended job for the pool and return its future.
  std::future<JobResult> enqueue(std::unique_ptr<PendingJob> job);
  void drain_one();
  /// One job's outcome from execute(): its result, or the error that
  /// run() rethrows or drain_one() sets on the job's future.
  struct Executed {
    JobResult result;
    std::exception_ptr error;
  };
  /// The one execute path. Runs `batch` (1..max_batch_jobs front-ended
  /// jobs sharing one config_key; the first is the lead) through one
  /// cache lookup, one instance lease and one plan fetch, then one
  /// executor call that sweeps every job that resolves in turn (the
  /// interpreter runs them one by one). A job that fails fails alone,
  /// with the same error it would get alone; a shared-stage failure
  /// fails them all. `picked_ns` is when a worker took the batch (an
  /// inline run() passes its submit instant, so its queue wait is 0).
  /// Every count is settled before it returns.
  std::vector<Executed> execute(std::span<Job* const> batch,
                                std::uint64_t picked_ns);
  /// The service's metrics, resolved once in registry_.
  ///
  /// The latency populations are success-only BY DESIGN: a failed job
  /// counts in jobs_failed but contributes no latency/queue/exec sample —
  /// its timings measure the failure path (a parse error fails in
  /// microseconds), and mixing them in would make the percentiles lie
  /// about healthy-job latency. The error-path accounting regression in
  /// test_runtime pins this contract.
  struct Meters {
    telemetry::MetricsRegistry& r;  // where every meter below lives
    telemetry::Counter& jobs_submitted = r.counter("service.jobs_submitted");
    telemetry::Counter& jobs_completed = r.counter("service.jobs_ok");
    telemetry::Counter& jobs_failed = r.counter("service.jobs_failed");
    // Fused batches executed (>= 2 jobs), and the jobs that rode them.
    telemetry::Counter& fused_batches = r.counter("service.fused_batches");
    telemetry::Counter& batched_jobs = r.counter("service.batched_jobs");
    telemetry::Counter& tasks_submitted = r.counter("service.tasks_submitted");
    telemetry::Counter& tasks_completed = r.counter("service.tasks_completed");
    telemetry::Counter& tasks_failed = r.counter("service.tasks_failed");
    // Graph invocations, the stages they ran, and their interior edges
    // moved as raw bits or through a convert hop.
    telemetry::Counter& graphs_executed = r.counter("graph.executed");
    telemetry::Counter& graph_stages = r.counter("graph.stages");
    telemetry::Counter& graph_edges_raw = r.counter("graph.edges_raw");
    telemetry::Counter& graph_edges_converted = r.counter("graph.edges_converted");
    // Session + GraphSession: opened, currently live, feed() calls.
    telemetry::Counter& sessions_opened = r.counter("session.opened");
    telemetry::Gauge& sessions_open = r.gauge("session.open");
    telemetry::Counter& chunks_fed = r.counter("session.chunks");
    // submit -> result ready (tasks too), submit -> worker pickup, and
    // datapath time per job.
    telemetry::LatencyHistogram& latency = r.histogram("service.latency");
    telemetry::LatencyHistogram& queue = r.histogram("service.queue");
    telemetry::LatencyHistogram& exec = r.histogram("service.exec");
  };
  void record_result(const JobResult& result);
  void note_task_completed(double latency_seconds);

  /// Reset first thing in the destructor: sessions hold it weakly, so one
  /// that outlives the service sees it expired instead of a dangling
  /// pointer.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);

  const ServiceOptions options_;
  /// The one home of the service's counts. Declared before everything
  /// that records into it (cache, scheduler, pool) or samples it
  /// (monitor), so it is destroyed after all of them.
  telemetry::MetricsRegistry registry_;
  const Meters meters_;
  /// Kept alive for the cache's write-behind drain (shared ownership
  /// makes member order irrelevant).
  std::shared_ptr<store::OverlayStore> store_;
  OverlayCache cache_;
  ReconfigScheduler scheduler_;
  /// Continuous sampler + health engine over registry_ and the process
  /// registry. It only reads registries, so its thread is independent of
  /// the pool's lifetime.
  std::unique_ptr<telemetry::Monitor> monitor_;

  std::mutex parse_mutex_;
  std::unordered_map<std::string, KernelMemo> parse_memo_;
  std::size_t memo_entries_ = 0;  // texts + interned requests

  mutable std::mutex mutex_;
  std::deque<std::unique_ptr<PendingJob>> pending_;
  /// Jobs whose promises are set, linked through next_spent. Ownership
  /// rule: a request's blocks were allocated on its submitting thread,
  /// and they are freed on a submitting thread unless this list is full.
  /// A worker parks each job it finished here, up to kSpentPerThread x
  /// threads, and frees the job itself only past that bound; the next
  /// submit() or queued run() takes the whole list (take_spent). Whatever
  /// is parked when the service is destroyed is freed with it.
  std::unique_ptr<PendingJob> spent_;
  std::size_t spent_count_ = 0;
  /// run() jobs executing on their callers' threads; wait_idle() waits
  /// on inline_idle_ for this to reach 0.
  std::size_t inline_running_ = 0;
  std::condition_variable inline_idle_;
  common::WallTimer lifetime_;

  // Destroyed first (reverse member order): joins workers while the
  // cache and scheduler they use are still alive.
  ExecutorPool pool_;
};

}  // namespace vcgra::runtime
