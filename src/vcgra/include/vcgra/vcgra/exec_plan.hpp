// Precompiled execution plans: the steady-state datapath of a compiled
// overlay, lowered once and executed allocation-free.
//
// The cycle-level Simulator re-derives everything from `Compiled` on
// every run: per-node settings maps, operand lists recovered from the
// routed nets, hop latencies, a schedule — then streams values through
// per-node heap vectors of 16-byte FpValues. All of that is invariant
// for a given specialization, so `ExecPlan::lower` does it exactly once:
//
//   * a flat, topologically ordered op tape over dense buffer indices
//     (pass PEs dissolve into buffer aliases);
//   * pre-resolved coefficient bits and MAC counts per op;
//   * the pre-computed pipeline schedule (fill depth; cycles and
//     fp_op/mac_op totals become closed-form functions of the stream
//     length);
//   * the boundary directory (input/output name -> buffer).
//
// `PlanExecutor` then runs the tape over a reusable per-thread arena of
// 64-bit words — zero per-job heap allocation once the arena is warm —
// processing streams in cache-friendly blocks through the
// format-specialized batch kernels of softfloat/batch.hpp. A sweep keeps
// its words in one of two value domains, chosen per sweep with no
// option to set:
//
//   * binary64: doubles exactly equal to the format values, wherever the
//     format fits (we <= 9, wf <= 50) and the host has the AVX-512 lanes
//     (softfloat::fp_f64_lanes). Double inputs are rounded onto the
//     format grid and raw-bits inputs (input_bits, run() on FpValues,
//     graph edges, session chunks) decoded as they are seeded; each op
//     computes in binary64 and rounds straight back (softfloat's fp_f64_*
//     kernels), and outputs are re-encoded in place before any FpValue,
//     raw bits or view is taken — no per-op encode or decode, and
//     results identical bit for bit.
//   * bits: the format's encodings, run through the scalar fpcore loops.
//     A sweep runs here whole when its format or host rules binary64
//     out, or when the decode finds a raw-bits word that is not
//     canonical (softfloat::fp_to_double_n) — a zero, inf or NaN carrying
//     other bits, or bits above the format — or a session's carried
//     accumulator is such a word; the bits domain keeps those bits where
//     a binary64 round trip would clear them. A sweep that meets one part
//     way through starts again from its beginning.
//
// Session carries stay encodings in either domain: a binary64 chunk
// decodes them once at its start and packs them once at its end.
//
// Every job — run(), run_doubles(), run_views(), each member of a
// run_batch, each session chunk — gets its own arena layout and one
// block sweep, which rounds, decodes, encodes or copies each input one
// block at a time, just before the tape reads that block. The domain is
// chosen per job, and the arena counts each sweep in its domain
// (ExecArena::Stats).
//
// Bit-exactness with the legacy Simulator (outputs, cycles, fp_ops,
// mac_ops, pipeline_depth) is a hard contract across all FP formats; the
// interpreter stays as the reference oracle and test_exec_plan's
// differential fuzz enforces the equivalence.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vcgra/softfloat/fpformat.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/simulator.hpp"

namespace vcgra::overlay {

struct ExecPlan {
  /// One tape entry. `a`/`b` and `dst` are dense buffer indices;
  /// `node`/`src_a` keep DFG provenance for diagnostics only.
  enum class OpCode : std::uint8_t {
    kMulCoeff,   // dst[i] = a[i] * coeff_bits
    kMulStream,  // dst[i] = a[i] * b[i]
    kAdd,        // dst[i] = a[i] + b[i]
    kSub,        // dst[i] = a[i] + (b[i] ^ sign_bit)
    kMac,        // decimating MAC: one emit per `count` samples of a
    // Fusion peephole: a coefficient-multiply whose only consumer is one
    // add/sub collapses into that consumer — same two rounding steps,
    // one fewer stream store/load round trip.
    kAxpy,       // dst[i] = a[i] + ((b[i] * coeff_bits) ^ xor_mask)
    kXpay,       // dst[i] = (a[i] * coeff_bits) + (b[i] ^ xor_mask)
  };
  struct Op {
    OpCode code = OpCode::kMulCoeff;
    std::int32_t dst = -1;
    std::int32_t a = -1;
    std::int32_t b = -1;
    std::uint64_t coeff_bits = 0;
    std::uint64_t xor_mask = 0;  // kSub/kAxpy/kXpay sign-flip (0 for adds)
    std::uint32_t count = 1;     // kMac decimation factor
    std::int32_t mac_slot = -1;  // kMac: index into the executor's state
    std::int32_t node = -1;      // DFG provenance (diagnostics)
    std::int32_t src_a = -1;
    std::int32_t src_b = -1;
    /// DFG node whose PE coefficient `coeff_bits` carries (-1 when the op
    /// has none). For kAxpy/kXpay it is the fused multiply's node, not
    /// `node`. rebind() rewrites coefficients through it.
    std::int32_t coeff_node = -1;

    bool operator==(const Op&) const = default;
  };

  softfloat::FpFormat format;
  SimOptions sim;  // latencies the schedule below was computed under
  std::vector<Op> tape;
  std::int32_t num_buffers = 0;
  std::int32_t num_mac_ops = 0;
  /// Every declared input, keyed by DFG input name (jobs may omit
  /// streams nobody consumes, exactly like the interpreter).
  std::map<std::string, std::int32_t> input_buffer_by_name;
  struct OutputSlot {
    std::string name;
    std::int32_t buffer = -1;
    std::int32_t source_node = -1;  // diagnostics

    bool operator==(const OutputSlot&) const = default;
  };
  std::vector<OutputSlot> outputs;  // name-sorted, like RunResult's map
  /// Pre-computed fill latency (the interpreter's `deepest`), including
  /// the output-side hops. cycles(L) = pipeline_depth + max(L, 1) - 1.
  int pipeline_depth = 0;

  /// Lower a specialized overlay into a plan. Throws std::invalid_argument
  /// on artifacts the interpreter could not execute either (an op shape
  /// outside the PE repertoire's streaming forms).
  static ExecPlan lower(const Compiled& compiled, const SimOptions& options = {});

  /// `plan` with every coefficient rebound to `compiled`'s values. `plan`
  /// must have been lowered from a specialization of the same structure
  /// (same placement and routing; specializations differ only in PE
  /// coefficient bits), so the tape, buffers, schedule and boundary carry
  /// over unchanged and the result equals lower(compiled, plan.sim) field
  /// for field — without re-deriving any of it. Throws
  /// std::invalid_argument when `compiled` visibly is not such a sibling
  /// (different format, or a coefficient node without its PE).
  static ExecPlan rebind(ExecPlan plan, const Compiled& compiled);
};

/// Reusable per-thread execution scratch: one word pool for every stream
/// buffer of a job (encodings or binary64 values, by the sweep's domain)
/// plus the small per-run bookkeeping vectors. Capacity
/// only ever grows (geometrically, counted in `Stats::grows`), so a warm
/// arena serves any same-or-smaller job with zero heap allocation — the
/// property bench_runtime gate [F] and the arena-reuse tests assert.
class ExecArena {
 public:
  struct MacState {
    std::uint64_t acc = 0;       // the sweep's domain; +0 in both
    std::uint32_t filled = 0;
    std::size_t consumed = 0;    // input samples folded so far
  };
  struct Stats {
    std::uint64_t jobs = 0;   // begin_job calls
    std::uint64_t grows = 0;  // capacity increases (any internal pool)
    std::uint64_t binary64_sweeps = 0;  // sweeps that ran in binary64
    std::uint64_t bits_sweeps = 0;      // ... and in the bits domain
    std::size_t capacity_words = 0;
    std::size_t high_water_words = 0;  // largest single-job word demand
  };

  /// The calling thread's arena (thread_local storage).
  static ExecArena& this_thread();

  /// Start a job: reset cursors and size the bookkeeping for `buffers`
  /// streams and `mac_ops` MAC states.
  void begin_job(std::size_t buffers, std::size_t mac_ops);
  /// Guarantee `words` of stable pool storage for this job (called once,
  /// after the job's buffer lengths are known).
  void reserve_words(std::size_t words);
  /// Bump-allocate from the reserved pool (stable until the next
  /// reserve_words; never grows mid-job).
  std::uint64_t* take(std::size_t words);
  /// Count one tape sweep in its value domain.
  void note_sweep(bool binary64) {
    ++(binary64 ? stats_.binary64_sweeps : stats_.bits_sweeps);
  }

  std::vector<std::size_t>& lengths() { return lengths_; }
  std::vector<std::size_t>& offsets() { return offsets_; }
  std::vector<std::size_t>& produced() { return produced_; }
  std::vector<MacState>& mac_states() { return mac_states_; }
  std::uint64_t* words() { return pool_.data(); }

  const Stats& stats() const { return stats_; }

 private:
  template <typename T>
  void ensure(std::vector<T>& vec, std::size_t n);

  std::vector<std::uint64_t> pool_;
  std::size_t used_ = 0;
  std::vector<std::size_t> lengths_, offsets_, produced_;
  std::vector<MacState> mac_states_;
  Stats stats_;
};

/// One input stream of a fused-batch job, in either encoding: exactly
/// one of `bits` (u64 encodings in the plan's format) or `doubles` is
/// non-null. The view borrows the caller's storage for the duration of
/// the run_batch call.
struct BatchStream {
  const std::uint64_t* bits = nullptr;
  const double* doubles = nullptr;
  std::size_t size = 0;
};

/// A fused-batch job's input streams, keyed by DFG input name.
using BatchInputs = std::map<std::string, BatchStream>;

/// A pre-resolved input stream: `buffer` is the plan's dense buffer
/// index for the stream's DFG input name (resolve_input()). Lets a
/// caller dispatching many jobs against one plan pay the name lookup
/// once per batch instead of once per job.
struct ResolvedStream {
  std::int32_t buffer = -1;
  BatchStream stream;
};

/// One job's input streams in resolved form (any order, one entry per
/// provided input).
using ResolvedJob = std::vector<ResolvedStream>;

/// Cross-chunk streaming state of one specialization: the plan's
/// MAC/decimation accumulators plus the cumulative op totals, promoted
/// from the executor's internal block-sweep carry to an API object so a
/// long-lived session can feed an unbounded stream in chunks.
///
/// The contract (enforced by the chunked-feed differential in
/// test_graph): feeding a stream through run_chunk in any chunking —
/// including chunks that straddle MAC decimation boundaries and the
/// executor's internal block size — produces bit-identical concatenated
/// outputs and identical cumulative cycles/fp_ops/mac_ops to one
/// run()/run_doubles() call over the whole stream.
struct StreamCarry {
  /// One accumulator per plan MAC op (sized on first use). `consumed`
  /// accumulates total samples folded, for diagnostics only.
  std::vector<ExecArena::MacState> mac;
  std::uint64_t total_samples = 0;  // input samples fed so far
  std::uint64_t fp_ops = 0;         // cumulative, mirrors RunResult::fp_ops
  std::uint64_t mac_ops = 0;
};

/// Executes an ExecPlan. Stateless beyond the shared plan handle — safe
/// to construct per job; the heavy state lives in the per-thread arena.
class PlanExecutor {
 public:
  explicit PlanExecutor(std::shared_ptr<const ExecPlan> plan);

  /// Run on FpValue streams (keyed by DFG input name; equal lengths), as
  /// a run_batch of one on their encodings, rethrowing its failure: in
  /// the binary64 domain when every encoding is canonical (see the
  /// domain notes above). Bit-identical to Simulator::run on the same
  /// Compiled.
  RunResult run(
      const std::map<std::string, std::vector<softfloat::FpValue>>& inputs) const;

  /// Run on double streams, as a run_batch of one: in the binary64 domain
  /// where the format and host allow it (inputs rounded onto the format
  /// grid, outputs re-encoded once), else batch-encoded onto the bits
  /// datapath. Bit-identical to Simulator::run_doubles either way.
  RunResult run_doubles(
      const std::map<std::string, std::vector<double>>& inputs) const;

  /// One job of a fused batch. `error` is set (and `run` left empty)
  /// when that job's streams failed the acceptance rules — the rest of
  /// the batch still executes.
  struct BatchOutcome {
    RunResult run;
    std::exception_ptr error;
  };

  /// Execute N jobs that share this specialization, one after another:
  /// each job is laid out in the calling thread's arena and swept on its
  /// own, exactly as run()/run_doubles() would run it, so per-job
  /// results — outputs, cycles, fp_ops, mac_ops — are bit-identical to
  /// running each job alone (the differential fuzz enforces it). What a
  /// batch shares is its caller's fixed cost per job (the service's
  /// cache lookup, instance lease and plan fetch).
  /// `raw_outputs` (empty = all false, else one flag per job) fills that
  /// job's RunResult::bit_outputs instead of `outputs`, skipping the
  /// FpValue materialization entirely.
  std::vector<BatchOutcome> run_batch(
      const std::vector<BatchInputs>& jobs,
      const std::vector<bool>& raw_outputs = {}) const;

  /// The plan's buffer index for a DFG input name. Throws
  /// std::invalid_argument on an unknown name (same message as the
  /// name-keyed entry points).
  std::int32_t resolve_input(const std::string& name) const;

  /// run_batch on pre-resolved jobs: identical semantics and results,
  /// but the per-job name translation is gone — the caller resolved
  /// each stream's buffer index once (per batch, per plan) via
  /// resolve_input(). This is the hot entry point of the fused-batch
  /// service drain, where every queued job shares one specialization.
  std::vector<BatchOutcome> run_batch_resolved(
      const std::vector<ResolvedJob>& jobs,
      const std::vector<bool>& raw_outputs = {}) const;

  /// Borrowed output stream of run_views(): `data` points into the
  /// calling thread's arena.
  struct BitStreamView {
    const std::uint64_t* data = nullptr;
    std::size_t size = 0;
  };

  /// Zero-copy result of run_views(): output views stay valid only until
  /// the calling thread's next plan execution (any run/run_batch on any
  /// executor). Consumers fold or decode before running again.
  struct RunView {
    std::vector<std::pair<std::string, BitStreamView>> outputs;  // name-sorted
    std::uint64_t cycles = 0;
    std::uint64_t fp_ops = 0;
    std::uint64_t mac_ops = 0;
    int pipeline_depth = 0;
  };

  /// Arena-backed variant of run_batch for callers that can consume
  /// borrowed buffers: no output copy at all. Throws on acceptance-rule
  /// violations (same rules/messages as run_doubles).
  RunView run_views(const BatchInputs& inputs) const;

  /// One chunk of an unbounded stream: seeds the MAC accumulators from
  /// `carry`, sweeps the tape over just this chunk, and writes the
  /// accumulators (plus cumulative totals) back. The returned result
  /// holds this chunk's output samples but CUMULATIVE counters — after
  /// the last chunk, cycles/fp_ops/mac_ops equal a one-shot run over the
  /// concatenated stream, and the concatenated outputs are bit-identical
  /// to it. `raw_output` fills bit_outputs instead of FpValue streams.
  /// An empty carry binds to this plan on first use; reusing it against
  /// a plan with a different MAC count throws.
  RunResult run_chunk(const BatchInputs& chunk, StreamCarry* carry,
                      bool raw_output = false) const;

  const ExecPlan& plan() const { return *plan_; }

  /// Arena instrumentation for the calling thread (allocation-freedom
  /// checks in tests and bench_runtime gate [F]).
  static const ExecArena::Stats& thread_arena_stats() {
    return ExecArena::this_thread().stats();
  }

 private:
  std::shared_ptr<const ExecPlan> plan_;
};

}  // namespace vcgra::overlay
