#include "vcgra/vcgra/compiler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/common/timer.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/softfloat/fpformat.hpp"

namespace vcgra::overlay {

namespace {

/// PE-level technology mapping: fuse mul feeding a single add into a MAC
/// chain opportunity is *not* done blindly — the classic, always-valid
/// fusion here is mul/add/sub/mac/pass node -> one PE. Pure passthrough
/// nodes stay PEs too (the paper's PEs support a transparent mode).
struct MappedOp {
  int dfg_node = -1;
  OpKind op = OpKind::kPass;
  std::vector<int> operand_nodes;  // DFG nodes providing the inputs
  int param_node = -1;             // kParam operand kept symbolic
  int count = 1;
};

bool op_supported(const PeCapability& pe, OpKind op) {
  switch (op) {
    case OpKind::kMul: return pe.mul;
    case OpKind::kAdd: return pe.add;
    case OpKind::kSub: return pe.sub;
    case OpKind::kMac: return pe.mac;
    case OpKind::kPass: return pe.pass;
    default: return true;
  }
}

}  // namespace

std::array<std::uint32_t, 3> VcgraSettings::pe_register_words(
    const PeSettings& pe) {
  // PE registers: opcode (4b) | count (16b) | coeff checksum (12b). The
  // coefficient itself does not fit one 32-bit register; the conventional
  // overlay streams it as extra words, which follow each PE word to stay
  // faithful about bus traffic.
  const std::uint32_t op_field = static_cast<std::uint32_t>(pe.op) & 0xf;
  const std::uint32_t count_field = pe.count & 0xffff;
  const std::uint32_t checksum =
      static_cast<std::uint32_t>((pe.coeff_bits ^ (pe.coeff_bits >> 12)) & 0xfff);
  return {(op_field << 28) | (checksum << 16) | count_field,
          static_cast<std::uint32_t>(pe.coeff_bits & 0xffffffffULL),
          static_cast<std::uint32_t>(pe.coeff_bits >> 32)};
}

void VcgraSettings::vsb_register_words(const OverlayArch& arch,
                                       std::vector<std::uint32_t>& out) const {
  // VSB registers: pack routed hop directions, 2 bits per hop, one word
  // per VSB (summarized occupancy view).
  out.assign(static_cast<std::size_t>(std::max(0, arch.num_vsbs())), 0);
  // A single row or column has no VSB, and no valid clamp range below.
  if (out.empty()) return;
  for (const auto& net : routes) {
    for (std::size_t h = 1; h < net.hops.size(); ++h) {
      const auto [r, c] = net.hops[h - 1];
      const int vr = std::clamp(r, 0, arch.rows - 2);
      const int vc = std::clamp(c, 0, arch.cols - 2);
      const std::size_t vsb = static_cast<std::size_t>(vr * (arch.cols - 1) + vc);
      if (vsb < out.size()) {
        const auto [nr, nc] = net.hops[h];
        const int dir = nr > r ? 0 : nr < r ? 1 : nc > c ? 2 : 3;
        out[vsb] = (out[vsb] << 2) | static_cast<std::uint32_t>(dir);
      }
    }
  }
}

std::vector<std::uint32_t> VcgraSettings::register_words(
    const OverlayArch& arch) const {
  std::vector<std::uint32_t> words;
  words.reserve(static_cast<std::size_t>(arch.num_settings_registers()));
  for (const auto& pe : pes) {
    const std::array<std::uint32_t, 3> pe_words = pe_register_words(pe);
    words.insert(words.end(), pe_words.begin(), pe_words.end());
  }
  std::vector<std::uint32_t> vsb_words;
  vsb_register_words(arch, vsb_words);
  words.insert(words.end(), vsb_words.begin(), vsb_words.end());
  return words;
}

CompiledStructure compile_structure(const Dfg& dfg, const OverlayArch& arch,
                                    std::uint64_t seed) {
  CompiledStructure result;
  result.arch = arch;
  common::WallTimer stage;
  std::uint64_t span_start = telemetry::child_span_start();

  // --- "synthesis": validate + topo order -----------------------------------
  dfg.validate();
  const std::vector<int> topo = dfg.topo_order();
  result.report.synth_seconds = stage.seconds();
  telemetry::record_child_span("compile.synth", span_start);
  span_start = telemetry::child_span_start();
  stage.restart();

  // --- PE-level technology mapping ------------------------------------------
  std::vector<MappedOp> ops;
  for (const int n : topo) {
    const DfgNode& node = dfg.nodes()[static_cast<std::size_t>(n)];
    if (node.kind == OpKind::kInput || node.kind == OpKind::kParam ||
        node.kind == OpKind::kOutput) {
      continue;
    }
    if (!op_supported(arch.pe, node.kind)) {
      throw std::invalid_argument(common::strprintf(
          "compile: PE repertoire lacks op '%s'", op_name(node.kind)));
    }
    MappedOp op;
    op.dfg_node = n;
    op.op = node.kind;
    op.count = std::max(1, node.count);
    for (const int arg : node.args) {
      const DfgNode& src = dfg.nodes()[static_cast<std::size_t>(arg)];
      if (src.kind == OpKind::kParam) {
        op.param_node = arg;  // stays symbolic; specialize() binds it
      } else {
        op.operand_nodes.push_back(arg);
      }
    }
    ops.push_back(std::move(op));
  }
  if (ops.size() > static_cast<std::size_t>(arch.num_pes())) {
    throw std::invalid_argument(common::strprintf(
        "compile: %zu compute nodes exceed %d PEs", ops.size(), arch.num_pes()));
  }
  result.report.map_seconds = stage.seconds();
  telemetry::record_child_span("compile.map", span_start);
  span_start = telemetry::child_span_start();
  stage.restart();

  // --- placement: greedy seed + SA refinement over the PE grid ---------------
  common::Rng rng(seed);
  const int rows = arch.rows, cols = arch.cols;
  std::vector<int> pe_of_op(ops.size(), -1);
  std::vector<int> op_of_pe(static_cast<std::size_t>(arch.num_pes()), -1);
  // Seed: topological wavefront left->right.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const int pe = static_cast<int>(i) % arch.num_pes();
    pe_of_op[i] = pe;
    op_of_pe[static_cast<std::size_t>(pe)] = static_cast<int>(i);
  }

  std::unordered_map<int, std::size_t> op_of_node;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    op_of_node[ops[i].dfg_node] = i;
  }

  const auto pe_rc = [&](int pe) {
    return std::pair<int, int>{pe / cols, pe % cols};
  };
  const auto wire_cost = [&]() {
    int cost = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto [r1, c1] = pe_rc(pe_of_op[i]);
      for (const int src : ops[i].operand_nodes) {
        const auto it = op_of_node.find(src);
        if (it == op_of_node.end()) {
          cost += c1;  // boundary input enters from the west edge
          continue;
        }
        const auto [r0, c0] = pe_rc(pe_of_op[it->second]);
        cost += std::abs(r1 - r0) + std::abs(c1 - c0);
      }
    }
    return cost;
  };

  if (!ops.empty()) {
    int cost = wire_cost();
    double temperature = 2.0;
    const int moves = 200 * static_cast<int>(ops.size());
    for (int m = 0; m < moves; ++m) {
      const std::size_t i = rng.next_below(ops.size());
      const int target = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(arch.num_pes())));
      const int old_pe = pe_of_op[i];
      if (target == old_pe) continue;
      const int other = op_of_pe[static_cast<std::size_t>(target)];
      // Swap or move.
      pe_of_op[i] = target;
      op_of_pe[static_cast<std::size_t>(target)] = static_cast<int>(i);
      op_of_pe[static_cast<std::size_t>(old_pe)] = other;
      if (other >= 0) pe_of_op[static_cast<std::size_t>(other)] = old_pe;
      const int fresh = wire_cost();
      const int delta = fresh - cost;
      if (delta <= 0 ||
          rng.next_double() < std::exp(-static_cast<double>(delta) / temperature)) {
        cost = fresh;
      } else {
        pe_of_op[i] = old_pe;
        op_of_pe[static_cast<std::size_t>(old_pe)] = static_cast<int>(i);
        op_of_pe[static_cast<std::size_t>(target)] = other;
        if (other >= 0) pe_of_op[static_cast<std::size_t>(other)] = target;
      }
      temperature *= 0.9995;
    }
  }
  result.report.place_seconds = stage.seconds();
  telemetry::record_child_span("compile.place", span_start);
  span_start = telemetry::child_span_start();
  stage.restart();

  // --- routing over the virtual network --------------------------------------
  // Grid BFS with per-edge capacity = arch.tracks; three negotiation
  // rounds with rip-up (a PathFinder in miniature).
  struct EdgeUse {
    std::unordered_map<std::uint64_t, int> use;
    static std::uint64_t key(int r0, int c0, int r1, int c1) {
      return (static_cast<std::uint64_t>(r0) << 48) |
             (static_cast<std::uint64_t>(c0) << 32) |
             (static_cast<std::uint64_t>(r1) << 16) | static_cast<std::uint64_t>(c1);
    }
  } edges;

  const auto route_one = [&](std::pair<int, int> from, std::pair<int, int> to,
                             double penalty) {
    // Dijkstra over the PE grid with congestion penalty.
    struct QE {
      double cost;
      int r, c;
      bool operator>(const QE& o) const { return cost > o.cost; }
    };
    std::vector<double> dist(static_cast<std::size_t>(rows * cols),
                             std::numeric_limits<double>::infinity());
    std::vector<int> prev(static_cast<std::size_t>(rows * cols), -1);
    std::priority_queue<QE, std::vector<QE>, std::greater<>> queue;
    const auto idx = [&](int r, int c) { return r * cols + c; };
    dist[static_cast<std::size_t>(idx(from.first, from.second))] = 0;
    queue.push({0, from.first, from.second});
    while (!queue.empty()) {
      const QE top = queue.top();
      queue.pop();
      if (top.r == to.first && top.c == to.second) break;
      if (top.cost > dist[static_cast<std::size_t>(idx(top.r, top.c))]) continue;
      static constexpr int kDr[4] = {1, -1, 0, 0};
      static constexpr int kDc[4] = {0, 0, 1, -1};
      for (int d = 0; d < 4; ++d) {
        const int nr = top.r + kDr[d], nc = top.c + kDc[d];
        if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
        const auto ekey = EdgeUse::key(std::min(top.r, nr), std::min(top.c, nc),
                                       std::max(top.r, nr), std::max(top.c, nc));
        const int used = edges.use.count(ekey) ? edges.use.at(ekey) : 0;
        const double over =
            used >= arch.tracks ? penalty * (used - arch.tracks + 1) : 0.0;
        const double ncost = top.cost + 1.0 + over;
        if (ncost < dist[static_cast<std::size_t>(idx(nr, nc))]) {
          dist[static_cast<std::size_t>(idx(nr, nc))] = ncost;
          prev[static_cast<std::size_t>(idx(nr, nc))] = idx(top.r, top.c);
          queue.push({ncost, nr, nc});
        }
      }
    }
    std::vector<std::pair<int, int>> hops;
    int cur = idx(to.first, to.second);
    if (!std::isfinite(dist[static_cast<std::size_t>(cur)])) return hops;
    while (cur >= 0) {
      hops.emplace_back(cur / cols, cur % cols);
      cur = prev[static_cast<std::size_t>(cur)];
    }
    std::reverse(hops.begin(), hops.end());
    for (std::size_t h = 1; h < hops.size(); ++h) {
      const auto [r0, c0] = hops[h - 1];
      const auto [r1, c1] = hops[h];
      ++edges.use[EdgeUse::key(std::min(r0, r1), std::min(c0, c1),
                               std::max(r0, r1), std::max(c0, c1))];
    }
    return hops;
  };

  // Collect connections to route: operand edges between mapped ops, plus
  // boundary connections for DFG inputs (enter at the west column) and
  // outputs (leave at the east column).
  std::vector<RoutedNet> routes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto dst = pe_rc(pe_of_op[i]);
    int operand = 0;
    for (const int src : ops[i].operand_nodes) {
      RoutedNet net;
      net.to_node = ops[i].dfg_node;
      net.to_operand = operand++;
      net.from_node = src;
      const auto it = op_of_node.find(src);
      const std::pair<int, int> from =
          it != op_of_node.end() ? pe_rc(pe_of_op[it->second])
                                 : std::pair<int, int>{dst.first, 0};
      net.hops = route_one(from, dst, 4.0);
      routes.push_back(std::move(net));
    }
  }
  for (const int out : dfg.outputs()) {
    const int src = dfg.nodes()[static_cast<std::size_t>(out)].args[0];
    const auto it = op_of_node.find(src);
    if (it == op_of_node.end()) continue;  // output fed directly by input
    RoutedNet net;
    net.from_node = src;
    net.to_node = out;
    const auto from = pe_rc(pe_of_op[it->second]);
    net.hops = route_one(from, {from.first, cols - 1}, 4.0);
    routes.push_back(std::move(net));
  }
  result.report.route_seconds = stage.seconds();
  telemetry::record_child_span("compile.route", span_start);

  // --- settings generation (structural skeleton) ------------------------------
  // Coefficients stay symbolic: coeff_bits is zero here and param_slots
  // records which registers specialize() must fill.
  result.settings.pes.assign(static_cast<std::size_t>(arch.num_pes()), PeSettings{});
  result.pe_of_node.assign(dfg.nodes().size(), -1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    PeSettings& pe = result.settings.pes[static_cast<std::size_t>(pe_of_op[i])];
    pe.used = true;
    pe.op = ops[i].op;
    pe.count = static_cast<std::uint32_t>(ops[i].count);
    pe.dfg_node = ops[i].dfg_node;
    if (ops[i].param_node >= 0) {
      ParamSlot slot;
      slot.name = dfg.nodes()[static_cast<std::size_t>(ops[i].param_node)].name;
      slot.pe = pe_of_op[i];
      slot.dfg_node = ops[i].dfg_node;
      result.param_slots.push_back(std::move(slot));
    }
    result.pe_of_node[static_cast<std::size_t>(ops[i].dfg_node)] = pe_of_op[i];
  }
  result.settings.routes = std::move(routes);
  result.report.pes_used = static_cast<int>(ops.size());
  for (const auto& net : result.settings.routes) {
    result.report.total_hops += static_cast<int>(net.hops.size());
  }

  // Every param node contributes a default, referenced or not, so an
  // override of an unused (but declared) parameter stays legal.
  for (const auto& node : dfg.nodes()) {
    if (node.kind == OpKind::kParam) result.defaults[node.name] = node.value;
  }

  for (const int in : dfg.inputs()) {
    result.input_node_by_name[dfg.nodes()[static_cast<std::size_t>(in)].name] = in;
  }
  for (const int out : dfg.outputs()) {
    const auto& node = dfg.nodes()[static_cast<std::size_t>(out)];
    result.output_node_by_name[node.name] = out;
    result.output_source[out] = node.args[0];
  }
  return result;
}

CompiledStructure compile_structure_canonical(const ParsedKernel& parsed,
                                              const OverlayArch& arch,
                                              std::uint64_t seed) {
  return compile_structure(parsed.canonical_dfg, arch, seed);
}

Compiled specialize(const CompiledStructure& structure,
                    const ParamBinding& overrides) {
  const ParamBinding binding = merge_params(structure.defaults, overrides);
  Compiled result;
  result.arch = structure.arch;
  result.settings = structure.settings;
  result.pe_of_node = structure.pe_of_node;
  result.report = structure.report;
  result.input_node_by_name = structure.input_node_by_name;
  result.output_node_by_name = structure.output_node_by_name;
  result.output_source = structure.output_source;
  const softfloat::FpFormat format = structure.arch.format;
  for (const ParamSlot& slot : structure.param_slots) {
    result.settings.pes[static_cast<std::size_t>(slot.pe)].coeff_bits =
        softfloat::FpValue::from_double(format, binding.at(slot.name)).bits();
  }
  return result;
}

Compiled compile(const Dfg& dfg, const OverlayArch& arch, std::uint64_t seed) {
  return specialize(compile_structure(dfg, arch, seed));
}

Compiled compile_kernel(const std::string& kernel_text, const OverlayArch& arch,
                        std::uint64_t seed) {
  return compile(parse_kernel(kernel_text), arch, seed);
}

}  // namespace vcgra::overlay
