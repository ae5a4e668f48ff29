#include "vcgra/vcgra/exec_plan.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "vcgra/common/strings.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"

namespace vcgra::overlay {

using softfloat::FpValue;

namespace {

constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

/// Elements processed per tape sweep: large enough to amortize the
/// per-op dispatch, small enough that a handful of live stream blocks
/// stays cache-resident (1024 x 8 B = 8 KiB per buffer).
constexpr std::size_t kBlockElems = 1024;

}  // namespace

ExecPlan ExecPlan::lower(const Compiled& compiled, const SimOptions& options) {
  ExecPlan plan;
  plan.format = compiled.arch.format;
  plan.sim = options;

  // Reconstruct per-node execution exactly like the interpreter does —
  // settings by node, operand lists and hop latencies recovered from the
  // routed nets. Hops are keyed by (from, to, operand): two routed edges
  // between one node pair (e.g. x*x dual-operand reuse) carry their own
  // latencies instead of silently overwriting each other.
  //
  // This block deliberately duplicates Simulator::run's recovery rather
  // than sharing a helper: the recovery rules are part of what the
  // differential suite cross-checks, so a future recovery bug in one
  // engine fails the suite loudly instead of corrupting both silently.
  std::map<int, const PeSettings*> pe_settings_of_node;
  for (const auto& pe : compiled.settings.pes) {
    if (pe.used) pe_settings_of_node[pe.dfg_node] = &pe;
  }
  std::map<std::tuple<int, int, int>, int> hops_between;
  for (const auto& net : compiled.settings.routes) {
    const int hops = std::max<int>(0, static_cast<int>(net.hops.size()) - 1);
    hops_between[{net.from_node, net.to_node, net.to_operand}] = hops;
  }
  std::map<int, std::vector<std::pair<int, int>>> operands_of;  // node -> (idx, src)
  for (const auto& net : compiled.settings.routes) {
    if (net.to_node >= 0 && pe_settings_of_node.count(net.to_node)) {
      operands_of[net.to_node].emplace_back(net.to_operand, net.from_node);
    }
  }
  for (auto& [node, list] : operands_of) {
    std::sort(list.begin(), list.end());
  }

  const auto hop_of = [&](int from, int to, int operand) {
    const auto it = hops_between.find({from, to, operand});
    return it == hops_between.end() ? 0 : it->second;
  };

  // Dense buffers: declared inputs first, then each value-producing PE.
  std::map<int, std::int32_t> buffer_of;
  for (const auto& [name, node] : compiled.input_node_by_name) {
    buffer_of[node] = plan.num_buffers;
    plan.input_buffer_by_name[name] = plan.num_buffers++;
  }

  std::map<int, int> ready_at;  // inputs implicitly ready at cycle 0
  int deepest = 0;
  std::vector<int> order;
  for (const auto& [node, settings] : pe_settings_of_node) order.push_back(node);
  std::sort(order.begin(), order.end());  // DFG ids are topological

  for (const int node : order) {
    const PeSettings& pe = *pe_settings_of_node.at(node);
    const auto& operands = operands_of[node];
    int start = 0;
    std::vector<std::int32_t> arg_bufs;
    std::vector<std::int32_t> arg_srcs;
    for (const auto& [idx, src] : operands) {
      const auto it = buffer_of.find(src);
      if (it == buffer_of.end()) {
        throw std::invalid_argument(common::strprintf(
            "ExecPlan: operand stream for node %d missing (src %d)", node, src));
      }
      arg_bufs.push_back(it->second);
      arg_srcs.push_back(src);
      start = std::max(start,
                       ready_at[src] + hop_of(src, node, idx) * options.hop_latency);
    }

    Op op;
    op.node = node;
    int latency = 0;
    switch (pe.op) {
      case OpKind::kMul:
        latency = options.mul_latency;
        if (arg_bufs.size() == 1) {
          op.code = OpCode::kMulCoeff;
          op.a = arg_bufs[0];
          op.src_a = arg_srcs[0];
          op.coeff_bits = pe.coeff_bits;
          op.coeff_node = node;
        } else if (arg_bufs.size() == 2) {
          op.code = OpCode::kMulStream;
          op.a = arg_bufs[0];
          op.b = arg_bufs[1];
          op.src_a = arg_srcs[0];
          op.src_b = arg_srcs[1];
        } else {
          throw std::invalid_argument(
              "ExecPlan: mul needs one or two stream operands");
        }
        break;
      case OpKind::kAdd:
      case OpKind::kSub:
        latency = options.add_latency;
        if (arg_bufs.size() != 2) {
          throw std::invalid_argument("ExecPlan: add/sub needs two streams");
        }
        op.code = pe.op == OpKind::kAdd ? OpCode::kAdd : OpCode::kSub;
        op.a = arg_bufs[0];
        op.b = arg_bufs[1];
        op.src_a = arg_srcs[0];
        op.src_b = arg_srcs[1];
        if (pe.op == OpKind::kSub) {
          op.xor_mask = std::uint64_t{1}
                        << (compiled.arch.format.we + compiled.arch.format.wf);
        }
        break;
      case OpKind::kMac:
        latency = options.mul_latency + options.add_latency;
        if (arg_bufs.size() != 1) {
          throw std::invalid_argument("ExecPlan: mac needs one stream operand");
        }
        op.code = OpCode::kMac;
        op.a = arg_bufs[0];
        op.src_a = arg_srcs[0];
        op.coeff_bits = pe.coeff_bits;
        op.coeff_node = node;
        // count == 0 is kept as-is: the interpreter's counter never
        // matches, so such a PE consumes forever and emits nothing.
        op.count = pe.count;
        op.mac_slot = plan.num_mac_ops++;
        break;
      case OpKind::kPass:
        // Pure routing: the node's stream IS its operand's stream. The
        // PE still occupies a pipeline stage, so it keeps a schedule
        // entry but dissolves out of the tape entirely.
        if (arg_bufs.empty()) {
          throw std::invalid_argument("ExecPlan: pass needs a stream operand");
        }
        buffer_of[node] = arg_bufs[0];
        ready_at[node] = start + 1;
        deepest = std::max(deepest, ready_at[node]);
        continue;
      default:
        throw std::invalid_argument("ExecPlan: unexpected PE op");
    }
    op.dst = plan.num_buffers++;
    buffer_of[node] = op.dst;
    plan.tape.push_back(op);
    ready_at[node] = start + latency;
    deepest = std::max(deepest, ready_at[node]);
  }

  for (const auto& [name, node] : compiled.output_node_by_name) {
    const auto src_it = compiled.output_source.find(node);
    if (src_it == compiled.output_source.end()) {
      throw std::invalid_argument("ExecPlan: output without source");
    }
    const int src = src_it->second;
    const auto buf_it = buffer_of.find(src);
    if (buf_it == buffer_of.end()) {
      throw std::invalid_argument("ExecPlan: output stream missing");
    }
    deepest = std::max(deepest,
                       ready_at[src] + hop_of(src, node, 0) * options.hop_latency);
    plan.outputs.push_back({name, buf_it->second, src});
  }
  plan.pipeline_depth = deepest;

  // Fusion peephole: a coefficient-multiply whose stream is consumed by
  // exactly one add/sub (and nothing else — no other op, no output)
  // folds into that consumer as kAxpy/kXpay. The arithmetic is the
  // identical two-rounding sequence; only the intermediate buffer's
  // store/load round trip disappears. The schedule above was computed
  // before fusion, so cycles/depth accounting is untouched.
  {
    std::vector<std::int32_t> producer(
        static_cast<std::size_t>(plan.num_buffers), -1);
    for (std::size_t i = 0; i < plan.tape.size(); ++i) {
      if (plan.tape[i].code == OpCode::kMulCoeff) {
        producer[static_cast<std::size_t>(plan.tape[i].dst)] =
            static_cast<std::int32_t>(i);
      }
    }
    std::vector<int> uses(static_cast<std::size_t>(plan.num_buffers), 0);
    for (const Op& op : plan.tape) {
      ++uses[static_cast<std::size_t>(op.a)];
      if (op.b >= 0) ++uses[static_cast<std::size_t>(op.b)];
    }
    for (const OutputSlot& slot : plan.outputs) {
      ++uses[static_cast<std::size_t>(slot.buffer)];
    }
    std::vector<bool> erased(plan.tape.size(), false);
    const auto fusable = [&](std::int32_t buf) {
      return buf >= 0 && producer[static_cast<std::size_t>(buf)] >= 0 &&
             !erased[static_cast<std::size_t>(
                 producer[static_cast<std::size_t>(buf)])] &&
             uses[static_cast<std::size_t>(buf)] == 1;
    };
    for (Op& op : plan.tape) {
      if (op.code != OpCode::kAdd && op.code != OpCode::kSub) continue;
      if (fusable(op.b)) {
        const std::size_t mul_index =
            static_cast<std::size_t>(producer[static_cast<std::size_t>(op.b)]);
        const Op& mul = plan.tape[mul_index];
        erased[mul_index] = true;
        op.code = OpCode::kAxpy;  // xor_mask (sub's flip) hits the product
        op.b = mul.a;
        op.src_b = mul.src_a;
        op.coeff_bits = mul.coeff_bits;
        op.coeff_node = mul.coeff_node;
      } else if (fusable(op.a)) {
        const std::size_t mul_index =
            static_cast<std::size_t>(producer[static_cast<std::size_t>(op.a)]);
        const Op& mul = plan.tape[mul_index];
        erased[mul_index] = true;
        op.code = OpCode::kXpay;  // xor_mask (sub's flip) hits operand b
        op.a = mul.a;
        op.src_a = mul.src_a;
        op.coeff_bits = mul.coeff_bits;
        op.coeff_node = mul.coeff_node;
      }
    }
    std::vector<Op> fused_tape;
    fused_tape.reserve(plan.tape.size());
    for (std::size_t i = 0; i < plan.tape.size(); ++i) {
      if (!erased[i]) fused_tape.push_back(plan.tape[i]);
    }
    plan.tape = std::move(fused_tape);
  }
  return plan;
}

ExecPlan ExecPlan::rebind(ExecPlan plan, const Compiled& compiled) {
  if (plan.format != compiled.arch.format) {
    throw std::invalid_argument("ExecPlan::rebind: FP format differs");
  }
  const std::vector<PeSettings>& pes = compiled.settings.pes;
  for (Op& op : plan.tape) {
    if (op.coeff_node < 0) continue;
    const std::size_t node = static_cast<std::size_t>(op.coeff_node);
    const std::size_t pe = node < compiled.pe_of_node.size()
                               ? static_cast<std::size_t>(compiled.pe_of_node[node])
                               : pes.size();  // int -1 wraps past the end too
    if (pe >= pes.size() || !pes[pe].used || pes[pe].dfg_node != op.coeff_node) {
      throw std::invalid_argument(common::strprintf(
          "ExecPlan::rebind: coefficient node %d has no PE", op.coeff_node));
    }
    op.coeff_bits = pes[pe].coeff_bits;
  }
  return plan;
}

// --- ExecArena ---------------------------------------------------------------

ExecArena& ExecArena::this_thread() {
  thread_local ExecArena arena;
  return arena;
}

namespace {

/// Global mirrors of the per-thread arena stats. Steady state records
/// zero grows: a nonzero exec.arena_grows delta over a warm interval
/// means some job shape outgrew every arena it landed on.
struct ArenaMetrics {
  telemetry::Counter& grows = telemetry::metrics().counter("exec.arena_grows");
  telemetry::Gauge& capacity_words =
      telemetry::metrics().gauge("exec.arena_capacity_words");
  telemetry::Gauge& high_water_words =
      telemetry::metrics().gauge("exec.arena_high_water_words");
};

ArenaMetrics& arena_metrics() {
  static ArenaMetrics* m = new ArenaMetrics();  // registry refs never dangle
  return *m;
}

}  // namespace

template <typename T>
void ExecArena::ensure(std::vector<T>& vec, std::size_t n) {
  if (vec.capacity() < n) {
    ++stats_.grows;
    arena_metrics().grows.add();
    vec.reserve(std::max(n, vec.capacity() * 2));
  }
  vec.resize(n);
}

void ExecArena::begin_job(std::size_t buffers, std::size_t mac_ops) {
  ++stats_.jobs;
  used_ = 0;
  ensure(lengths_, buffers);
  ensure(offsets_, buffers);
  ensure(produced_, buffers);
  ensure(mac_states_, mac_ops);
  std::fill(lengths_.begin(), lengths_.end(), kAbsent);
  std::fill(offsets_.begin(), offsets_.end(), std::size_t{0});
  std::fill(produced_.begin(), produced_.end(), std::size_t{0});
  std::fill(mac_states_.begin(), mac_states_.end(), MacState{});
}

void ExecArena::reserve_words(std::size_t words) {
  stats_.high_water_words = std::max(stats_.high_water_words, words);
  if (pool_.size() < words) {
    ++stats_.grows;
    arena_metrics().grows.add();
    pool_.resize(std::max(words, pool_.size() * 2));
    // Largest arena wins: the gauges answer "how big did arenas get",
    // not "what does thread k hold" (that is thread_arena_stats()).
    arena_metrics().capacity_words.set(static_cast<std::int64_t>(pool_.size()));
  }
  if (static_cast<std::int64_t>(stats_.high_water_words) >
      arena_metrics().high_water_words.value()) {
    arena_metrics().high_water_words.set(
        static_cast<std::int64_t>(stats_.high_water_words));
  }
  stats_.capacity_words = pool_.size();
  used_ = 0;
}

std::uint64_t* ExecArena::take(std::size_t words) {
  if (used_ + words > pool_.size()) {
    throw std::logic_error("ExecArena: job reservation exceeded");
  }
  std::uint64_t* out = pool_.data() + used_;
  used_ += words;
  return out;
}

// --- PlanExecutor ------------------------------------------------------------

PlanExecutor::PlanExecutor(std::shared_ptr<const ExecPlan> plan)
    : plan_(std::move(plan)) {
  if (!plan_) {
    throw std::invalid_argument("PlanExecutor: null plan handle");
  }
}

namespace {

/// The binary64 domain's view of arena words: a sweep in that domain
/// keeps format-exact doubles in the same slots (see the header).
const double* as_f64(const std::uint64_t* p) {
  return reinterpret_cast<const double*>(p);
}
double* as_f64(std::uint64_t* p) { return reinterpret_cast<double*>(p); }

/// The closed-form cycle count of a `length`-sample stream: the pipeline
/// fills once, then retires one sample per cycle.
std::uint64_t cycles_for(const ExecPlan& plan, std::uint64_t length) {
  return static_cast<std::uint64_t>(plan.pipeline_depth) +
         (length > 0 ? length - 1 : 0);
}

/// The interpreter's acceptance rules for one job's named streams, in its
/// order: equal lengths (the first nonzero wins), then known names.
void check_streams(const ExecPlan& plan, const BatchInputs& inputs) {
  std::size_t length = 0;
  for (const auto& [name, stream] : inputs) {
    if (length == 0) length = stream.size;
    if (stream.size != length) {
      throw std::invalid_argument("PlanExecutor: input stream lengths differ");
    }
  }
  for (const auto& [name, stream] : inputs) {
    if (!plan.input_buffer_by_name.count(name)) {
      throw std::invalid_argument("PlanExecutor: unknown input stream '" +
                                  name + "'");
    }
  }
}

/// Check one op against its operand lengths with the interpreter's
/// acceptance rules (throwing its errors), add its closed-form op totals
/// and return the length of the stream it produces. `la`/`lb` are
/// kAbsent for a missing stream (`lb` is unused without operand b);
/// `filled` is the MAC fill level a chunked stream carries in: a chunk
/// emits every fold the carried level plus its samples complete.
std::size_t infer_op(const ExecPlan::Op& op, std::size_t la, std::size_t lb,
                     std::uint32_t filled, std::uint64_t& fp_ops,
                     std::uint64_t& mac_ops) {
  if (la == kAbsent) {
    throw std::runtime_error(common::strprintf(
        "PlanExecutor: operand stream for node %d missing (src %d)", op.node,
        op.src_a));
  }
  if (op.b >= 0 && lb == kAbsent) {
    throw std::runtime_error(common::strprintf(
        "PlanExecutor: operand stream for node %d missing (src %d)", op.node,
        op.src_b));
  }
  switch (op.code) {
    case ExecPlan::OpCode::kMulCoeff:
      fp_ops += la;
      return la;
    case ExecPlan::OpCode::kMulStream:
      // The interpreter streams args[0]'s length and indexes into
      // args[1]; a shorter second operand would read out of bounds
      // there, so reject it loudly here.
      if (lb < la) {
        throw std::runtime_error(
            "PlanExecutor: mul stream operands shorter than the first");
      }
      fp_ops += la;
      return la;
    case ExecPlan::OpCode::kAdd:
    case ExecPlan::OpCode::kSub:
    case ExecPlan::OpCode::kAxpy:
    case ExecPlan::OpCode::kXpay: {
      // A fused multiply + add: the product stream the interpreter
      // materializes has operand b's (kAxpy) / operand a's (kXpay)
      // length, and the add still demands equal streams.
      if (la != lb) {
        throw std::runtime_error("PlanExecutor: add/sub needs two equal streams");
      }
      const bool fused = op.code == ExecPlan::OpCode::kAxpy ||
                         op.code == ExecPlan::OpCode::kXpay;
      fp_ops += fused ? 2 * la : la;
      return la;
    }
    case ExecPlan::OpCode::kMac:
      fp_ops += 2 * la;
      mac_ops += la;
      return op.count ? (filled + la) / op.count : 0;
  }
  throw std::logic_error("PlanExecutor: unknown opcode");
}

/// One elementwise op (any but kMac) over `n` elements at the given
/// operand and destination positions. With `f64` the words hold
/// format-exact doubles and the op runs the binary64-domain kernel; a
/// coefficient is decoded once per call.
void apply_op(const ExecPlan::Op& op, const softfloat::FpFormat& format,
              bool f64, const std::uint64_t* pa, const std::uint64_t* pb,
              std::uint64_t* pd, std::size_t n) {
  if (f64) {
    const bool negate = op.xor_mask != 0;
    const auto coeff = [&] {
      return softfloat::fp_decode_double(format, op.coeff_bits);
    };
    switch (op.code) {
      case ExecPlan::OpCode::kMulCoeff:
        softfloat::fp_f64_mul_coeff_n(format, as_f64(pa), coeff(), as_f64(pd), n);
        return;
      case ExecPlan::OpCode::kMulStream:
        softfloat::fp_f64_mul_n(format, as_f64(pa), as_f64(pb), as_f64(pd), n);
        return;
      case ExecPlan::OpCode::kAdd:
      case ExecPlan::OpCode::kSub:
        softfloat::fp_f64_add_n(format, as_f64(pa), as_f64(pb), negate,
                                as_f64(pd), n);
        return;
      case ExecPlan::OpCode::kAxpy:
        softfloat::fp_f64_axpy_n(format, as_f64(pa), as_f64(pb), coeff(),
                                 negate, as_f64(pd), n);
        return;
      case ExecPlan::OpCode::kXpay:
        softfloat::fp_f64_xpay_n(format, as_f64(pa), coeff(), as_f64(pb),
                                 negate, as_f64(pd), n);
        return;
      case ExecPlan::OpCode::kMac:
        return;  // apply_mac
    }
  }
  switch (op.code) {
    case ExecPlan::OpCode::kMulCoeff:
      softfloat::fp_mul_coeff_n(format, pa, op.coeff_bits, pd, n);
      return;
    case ExecPlan::OpCode::kMulStream:
      softfloat::fp_mul_n(format, pa, pb, pd, n);
      return;
    case ExecPlan::OpCode::kAdd:
    case ExecPlan::OpCode::kSub:
      softfloat::fp_add_xor_n(format, pa, pb, op.xor_mask, pd, n);
      return;
    case ExecPlan::OpCode::kAxpy:
      softfloat::fp_axpy_n(format, pa, pb, op.coeff_bits, op.xor_mask, pd, n);
      return;
    case ExecPlan::OpCode::kXpay:
      softfloat::fp_xpay_n(format, pa, op.coeff_bits, pb, op.xor_mask, pd, n);
      return;
    case ExecPlan::OpCode::kMac:
      return;  // apply_mac
  }
}

/// One kMac op over `n` fresh input samples, resuming `state`; returns
/// the number of outputs emitted. A double +0 and a format +0 are both
/// all-zero words, so a fresh MacState starts either domain.
std::size_t apply_mac(const ExecPlan::Op& op, const softfloat::FpFormat& format,
                      bool f64, const std::uint64_t* in, std::uint64_t* out,
                      std::size_t n, ExecArena::MacState& state) {
  if (!f64) {
    return softfloat::fp_mac_n(format, in, op.coeff_bits, op.count, out, n,
                               &state.acc, &state.filled);
  }
  double acc = std::bit_cast<double>(state.acc);
  const std::size_t emitted = softfloat::fp_f64_mac_n(
      format, as_f64(in), softfloat::fp_decode_double(format, op.coeff_bits),
      op.count, as_f64(out), n, &acc, &state.filled);
  state.acc = std::bit_cast<std::uint64_t>(acc);
  return emitted;
}

/// One job's sweep as its decode needs it: the input stream length, the
/// closed-form op totals, and the value domain the tape ran in.
struct JobSweep {
  std::size_t length = 0;
  std::uint64_t fp_ops = 0;
  std::uint64_t mac_ops = 0;
  bool f64 = false;  // swept in the binary64 domain: pack before reading
};

/// Lay out one job (a lone job, a batch member, a graph stage or a
/// session chunk) in the calling thread's arena: start the job, check its
/// streams with the interpreter's acceptance rules (equal lengths, the
/// first nonzero winning; then each buffer in range and provided once),
/// take every op's output length from infer_op (each MAC resuming the
/// fill level `carry` holds, if any), then reserve the word pool once and
/// bump-allocate each present buffer so the slices stay stable.
JobSweep layout_job(const ExecPlan& plan, const ResolvedJob& job,
                    const StreamCarry* carry) {
  ExecArena& arena = ExecArena::this_thread();
  const std::size_t buffers = static_cast<std::size_t>(plan.num_buffers);
  arena.begin_job(buffers, static_cast<std::size_t>(plan.num_mac_ops));
  std::vector<std::size_t>& lens = arena.lengths();
  JobSweep sweep;
  for (const ResolvedStream& entry : job) {
    if (sweep.length == 0) sweep.length = entry.stream.size;
    if (entry.stream.size != sweep.length) {
      throw std::invalid_argument("PlanExecutor: input stream lengths differ");
    }
  }
  for (const ResolvedStream& entry : job) {
    if (entry.buffer < 0 || entry.buffer >= plan.num_buffers) {
      throw std::invalid_argument(
          "PlanExecutor: resolved stream buffer index out of range");
    }
    std::size_t& len = lens[static_cast<std::size_t>(entry.buffer)];
    if (len != kAbsent) {
      throw std::invalid_argument("PlanExecutor: duplicate resolved input stream");
    }
    len = entry.stream.size;
  }
  for (const ExecPlan::Op& op : plan.tape) {
    const std::size_t lb = op.b >= 0 ? lens[static_cast<std::size_t>(op.b)] : 0;
    const std::uint32_t carried =
        carry != nullptr && op.code == ExecPlan::OpCode::kMac
            ? carry->mac[static_cast<std::size_t>(op.mac_slot)].filled
            : 0;
    lens[static_cast<std::size_t>(op.dst)] =
        infer_op(op, lens[static_cast<std::size_t>(op.a)], lb, carried,
                 sweep.fp_ops, sweep.mac_ops);
  }

  std::size_t total_words = 0;
  for (std::size_t b = 0; b < buffers; ++b) {
    if (lens[b] != kAbsent) total_words += lens[b];
  }
  arena.reserve_words(total_words);
  std::vector<std::size_t>& offsets = arena.offsets();
  for (std::size_t b = 0; b < buffers; ++b) {
    if (lens[b] == kAbsent) continue;
    offsets[b] = static_cast<std::size_t>(arena.take(lens[b]) - arena.words());
  }
  return sweep;
}

/// Write words [from, to) of an input stream to `dst`. In the bits
/// domain raw bits are copied and doubles encoded; in the binary64 domain
/// (`f64`) doubles are rounded onto the format grid and raw bits decoded.
/// Returns false when f64 and a raw-bits word was not canonical: the
/// decode has then lost bits the bits domain would keep.
bool seed_words(const softfloat::FpFormat& format, bool f64,
                const BatchStream& stream, std::size_t from, std::size_t to,
                std::uint64_t* dst) {
  if (!f64) {
    if (stream.bits) {
      std::copy(stream.bits + from, stream.bits + to, dst);
    } else {
      softfloat::fp_from_double_n(format, stream.doubles + from, dst, to - from);
    }
    return true;
  }
  if (stream.bits) {
    return softfloat::fp_to_double_n(format, stream.bits + from, as_f64(dst),
                                     to - from);
  }
  softfloat::fp_f64_round_n(format, stream.doubles + from, as_f64(dst), to - from);
  return true;
}

/// Sweep the tape over one job's buffers in cache-friendly blocks. Each
/// block first seeds every input's next elements, so the ops read them
/// while they are still in L1. Every buffer tracks how many elements it
/// holds so far; MAC decimation makes rates differ, and the arena's
/// MacStates let an accumulation straddle blocks (and, seeded from a
/// StreamCarry, chunks). Returns false, part way through, when a
/// binary64 sweep meets a non-canonical raw-bits word.
bool sweep_blocks(const ExecPlan& plan, bool f64, std::size_t length,
                  const ResolvedJob& inputs) {
  ExecArena& arena = ExecArena::this_thread();
  const std::vector<std::size_t>& lens = arena.lengths();
  const std::vector<std::size_t>& offsets = arena.offsets();
  std::vector<std::size_t>& produced = arena.produced();
  std::vector<ExecArena::MacState>& mac = arena.mac_states();
  std::uint64_t* const words = arena.words();
  std::size_t pos = 0;
  while (pos < length) {
    pos = std::min(length, pos + kBlockElems);
    for (const ResolvedStream& in : inputs) {
      // A leading empty stream is accepted beside longer ones.
      const std::size_t b = static_cast<std::size_t>(in.buffer);
      const std::size_t to = std::min(lens[b], pos);
      if (produced[b] < to) {
        if (!seed_words(plan.format, f64, in.stream, produced[b], to,
                        words + offsets[b] + produced[b])) {
          return false;
        }
        produced[b] = to;
      }
    }
    for (const ExecPlan::Op& op : plan.tape) {
      const std::size_t a = static_cast<std::size_t>(op.a);
      const std::size_t dst = static_cast<std::size_t>(op.dst);
      if (op.code == ExecPlan::OpCode::kMac) {
        ExecArena::MacState& state = mac[static_cast<std::size_t>(op.mac_slot)];
        const std::size_t n = produced[a] - state.consumed;
        if (n == 0) continue;
        if (op.count != 0) {  // count 0 never emits: the sum is unobservable
          produced[dst] += apply_mac(op, plan.format, f64,
                                     words + offsets[a] + state.consumed,
                                     words + offsets[dst] + produced[dst], n,
                                     state);
        }
        state.consumed += n;
        continue;
      }
      const std::size_t done = produced[dst];
      std::size_t avail = produced[a];
      const std::uint64_t* pb = nullptr;
      if (op.b >= 0) {
        const std::size_t b = static_cast<std::size_t>(op.b);
        avail = std::min(avail, produced[b]);
        pb = words + offsets[b] + done;
      }
      if (avail == done) continue;
      apply_op(op, plan.format, f64, words + offsets[a] + done, pb,
               words + offsets[dst] + done, avail - done);
      produced[dst] = avail;
    }
  }
  return true;
}

/// Put a sweep back at its start: no buffer holds an element and every
/// MAC accumulator is fresh, or resumes `carry` (whose accumulators are
/// encodings, decoded here for the binary64 domain). Returns false when
/// f64 and a carried accumulator is not canonical.
bool restart_sweep(const ExecPlan& plan, const StreamCarry* carry, bool f64) {
  ExecArena& arena = ExecArena::this_thread();
  std::fill(arena.produced().begin(), arena.produced().end(), std::size_t{0});
  std::vector<ExecArena::MacState>& mac = arena.mac_states();
  std::fill(mac.begin(), mac.end(), ExecArena::MacState{});
  if (carry == nullptr) return true;
  bool canonical = true;
  for (std::size_t s = 0; s < mac.size(); ++s) {
    mac[s].acc = carry->mac[s].acc;
    mac[s].filled = carry->mac[s].filled;
    if (f64) {
      canonical = canonical && softfloat::fp_to_double_n(
                                   plan.format, &mac[s].acc, as_f64(&mac[s].acc), 1);
    }
  }
  return canonical;
}

/// Lay out one job (or a session chunk resuming `carry`) and sweep it in
/// the binary64 domain when the format and host allow it, and otherwise,
/// or when a raw-bits input or a carried accumulator turns out not to be
/// canonical, from its start in the bits domain: a sweep never mixes
/// domains.
JobSweep sweep_job(const ExecPlan& plan, const ResolvedJob& inputs,
                   const StreamCarry* carry) {
  JobSweep sweep = layout_job(plan, inputs, carry);
  const std::uint64_t span_start = telemetry::child_span_start();
  const bool lanes = softfloat::fp_f64_lanes(plan.format);
  // begin_job leaves a fresh job where restart_sweep would put it.
  const bool fresh = carry == nullptr;
  sweep.f64 = lanes && (fresh || restart_sweep(plan, carry, true)) &&
              sweep_blocks(plan, true, sweep.length, inputs);
  if (!sweep.f64) {
    if (lanes || !fresh) restart_sweep(plan, carry, false);
    sweep_blocks(plan, false, sweep.length, inputs);
  }
  ExecArena::this_thread().note_sweep(sweep.f64);
  telemetry::record_child_span("exec.tape", span_start);
  return sweep;
}

/// After a binary64-domain sweep: re-encode every output buffer in place,
/// so FpValues, raw bits and views all read encodings.
void pack_outputs(const ExecPlan& plan) {
  ExecArena& arena = ExecArena::this_thread();
  const std::vector<std::size_t>& lens = arena.lengths();
  for (std::size_t s = 0; s < plan.outputs.size(); ++s) {
    const std::size_t b = static_cast<std::size_t>(plan.outputs[s].buffer);
    bool packed = false;  // two outputs may name one buffer
    for (std::size_t t = 0; t < s; ++t) {
      packed = packed || plan.outputs[t].buffer == plan.outputs[s].buffer;
    }
    if (packed || lens[b] == kAbsent) continue;
    std::uint64_t* p = arena.words() + arena.offsets()[b];
    softfloat::fp_f64_pack_n(plan.format, as_f64(p), p, lens[b]);
  }
}

/// Copy a swept job's output streams out of the arena into `run`, raw
/// bits or FpValues built in one pass, and fill in its counters.
void decode_job(const ExecPlan& plan, const JobSweep& sweep, bool raw,
                RunResult& run) {
  const std::uint64_t span_start = telemetry::child_span_start();
  if (sweep.f64) pack_outputs(plan);
  ExecArena& arena = ExecArena::this_thread();
  for (const ExecPlan::OutputSlot& output : plan.outputs) {
    const std::size_t b = static_cast<std::size_t>(output.buffer);
    const std::size_t n = arena.lengths()[b];
    if (n == kAbsent) {
      throw std::runtime_error("PlanExecutor: output stream missing");
    }
    const std::uint64_t* p = arena.words() + arena.offsets()[b];
    if (raw) {
      run.bit_outputs.emplace(output.name, std::vector<std::uint64_t>(p, p + n));
    } else {
      run.outputs.emplace(output.name, softfloat::fp_values_n(plan.format, p, n));
    }
  }
  telemetry::record_child_span("exec.decode", span_start);
  run.pipeline_depth = plan.pipeline_depth;
  run.cycles = cycles_for(plan, sweep.length);
  run.fp_ops = sweep.fp_ops;
  run.mac_ops = sweep.mac_ops;
}

/// A name-keyed job resolved to plan buffers, after the single-job
/// acceptance rules in their order (length mismatch before unknown name).
/// The streams live per thread, so a warm call allocates nothing; they
/// stay valid until the thread's next call.
const ResolvedJob& resolve_job(const ExecPlan& plan, const BatchInputs& inputs) {
  thread_local ResolvedJob job;
  check_streams(plan, inputs);
  job.clear();
  for (const auto& [name, stream] : inputs) {
    job.push_back({plan.input_buffer_by_name.at(name), stream});
  }
  return job;
}

/// Shared body of run_batch()/run_batch_resolved(): each job in turn is
/// resolved (`resolve(j)`), swept and decoded on its own. A job that fails
/// the acceptance rules fails alone; the rest of the batch still runs.
template <typename Resolve>
std::vector<PlanExecutor::BatchOutcome> run_each(
    const ExecPlan& plan, std::size_t njobs,
    const std::vector<bool>& raw_outputs, const Resolve& resolve) {
  if (!raw_outputs.empty() && raw_outputs.size() != njobs) {
    throw std::invalid_argument(
        "PlanExecutor: raw_outputs must be empty or one flag per job");
  }
  std::vector<PlanExecutor::BatchOutcome> out(njobs);
  for (std::size_t j = 0; j < njobs; ++j) {
    try {
      decode_job(plan, sweep_job(plan, resolve(j), nullptr),
                 !raw_outputs.empty() && raw_outputs[j], out[j].run);
    } catch (...) {
      out[j].error = std::current_exception();
      out[j].run = RunResult{};
    }
  }
  return out;
}

/// run() and run_doubles(): one job, its failure thrown.
RunResult run_alone(const ExecPlan& plan, const BatchInputs& inputs) {
  RunResult run;
  decode_job(plan, sweep_job(plan, resolve_job(plan, inputs), nullptr), false,
             run);
  return run;
}

}  // namespace

std::vector<PlanExecutor::BatchOutcome> PlanExecutor::run_batch(
    const std::vector<BatchInputs>& jobs,
    const std::vector<bool>& raw_outputs) const {
  return run_each(*plan_, jobs.size(), raw_outputs,
                  [&](std::size_t j) -> const ResolvedJob& {
                    return resolve_job(*plan_, jobs[j]);
                  });
}

RunResult PlanExecutor::run(
    const std::map<std::string, std::vector<FpValue>>& inputs) const {
  std::map<std::string, std::vector<std::uint64_t>> bits;
  BatchInputs views;
  for (const auto& [name, stream] : inputs) {
    std::vector<std::uint64_t>& words = bits[name];
    words.reserve(stream.size());
    for (const FpValue& value : stream) words.push_back(value.bits());
    views.emplace(name, BatchStream{words.data(), nullptr, words.size()});
  }
  return run_alone(*plan_, views);
}

RunResult PlanExecutor::run_doubles(
    const std::map<std::string, std::vector<double>>& inputs) const {
  BatchInputs views;
  for (const auto& [name, stream] : inputs) {
    views.emplace(name, BatchStream{nullptr, stream.data(), stream.size()});
  }
  return run_alone(*plan_, views);
}

std::int32_t PlanExecutor::resolve_input(const std::string& name) const {
  const auto it = plan_->input_buffer_by_name.find(name);
  if (it == plan_->input_buffer_by_name.end()) {
    throw std::invalid_argument("PlanExecutor: unknown input stream '" + name +
                                "'");
  }
  return it->second;
}

std::vector<PlanExecutor::BatchOutcome> PlanExecutor::run_batch_resolved(
    const std::vector<ResolvedJob>& jobs,
    const std::vector<bool>& raw_outputs) const {
  return run_each(*plan_, jobs.size(), raw_outputs,
                  [&](std::size_t j) -> const ResolvedJob& { return jobs[j]; });
}

RunResult PlanExecutor::run_chunk(const BatchInputs& chunk, StreamCarry* carry,
                                  bool raw_output) const {
  const ExecPlan& plan = *plan_;
  if (carry == nullptr) {
    throw std::invalid_argument("PlanExecutor: run_chunk needs a carry");
  }
  const std::size_t mac_ops = static_cast<std::size_t>(plan.num_mac_ops);
  if (carry->mac.empty()) {
    carry->mac.resize(mac_ops);
  } else if (carry->mac.size() != mac_ops) {
    throw std::invalid_argument(
        "PlanExecutor: carry was opened against a different plan shape");
  }

  // The carry holds its accumulators as encodings whichever domain the
  // chunk runs in: sweep_job decodes them at the start, and they are
  // packed back below. `consumed` restarts at zero: it indexes into this
  // chunk's operand buffer, not the whole stream.
  const JobSweep sweep = sweep_job(plan, resolve_job(plan, chunk), carry);
  RunResult result;
  decode_job(plan, sweep, raw_output, result);

  // Write the accumulators back and fold this chunk into the cumulative
  // totals. cycles stays closed-form over the whole stream: a session at
  // initiation interval 1 fills its pipeline once, not once per chunk.
  const std::vector<ExecArena::MacState>& mac =
      ExecArena::this_thread().mac_states();
  for (std::size_t s = 0; s < mac_ops; ++s) {
    carry->mac[s].acc =
        sweep.f64
            ? softfloat::fp_f64_pack(plan.format, std::bit_cast<double>(mac[s].acc))
            : mac[s].acc;
    carry->mac[s].filled = mac[s].filled;
    carry->mac[s].consumed += mac[s].consumed;
  }
  carry->total_samples += sweep.length;
  carry->fp_ops += sweep.fp_ops;
  carry->mac_ops += sweep.mac_ops;
  result.cycles = cycles_for(plan, carry->total_samples);
  result.fp_ops = carry->fp_ops;
  result.mac_ops = carry->mac_ops;
  return result;
}

PlanExecutor::RunView PlanExecutor::run_views(const BatchInputs& inputs) const {
  const ExecPlan& plan = *plan_;
  const JobSweep sweep = sweep_job(plan, resolve_job(plan, inputs), nullptr);
  if (sweep.f64) pack_outputs(plan);

  ExecArena& arena = ExecArena::this_thread();
  const std::vector<std::size_t>& lens = arena.lengths();
  const std::vector<std::size_t>& offsets = arena.offsets();

  RunView view;
  view.outputs.reserve(plan.outputs.size());
  for (const ExecPlan::OutputSlot& slot : plan.outputs) {
    const std::size_t i = static_cast<std::size_t>(slot.buffer);
    if (lens[i] == kAbsent) {
      throw std::runtime_error("PlanExecutor: output stream missing");
    }
    view.outputs.emplace_back(
        slot.name, BitStreamView{arena.words() + offsets[i], lens[i]});
  }
  view.pipeline_depth = plan.pipeline_depth;
  view.cycles = cycles_for(plan, sweep.length);
  view.fp_ops = sweep.fp_ops;
  view.mac_ops = sweep.mac_ops;
  return view;
}

}  // namespace vcgra::overlay
