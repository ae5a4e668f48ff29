// The VCGRA tool flow (right half of Fig. 2): synthesis at PE granularity,
// technology mapping (mul+add fusion into MAC PEs), placement of DFG
// nodes onto the PE grid, routing over the virtual network, and settings
// generation.
//
// Because the basic programmable element is a whole PE instead of a LUT,
// this flow runs in milliseconds where the LUT-level flow takes seconds —
// the compile-time claim of §II-A, reproduced by bench_toolflow.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vcgra/vcgra/arch.hpp"
#include "vcgra/vcgra/dfg.hpp"

namespace vcgra::overlay {

/// Configuration of one PE, as held by its settings register.
struct PeSettings {
  bool used = false;
  OpKind op = OpKind::kPass;
  std::uint64_t coeff_bits = 0;  // FP-encoded coefficient (kMul/kMac)
  std::uint32_t count = 1;       // MAC iteration count
  int dfg_node = -1;             // provenance
};

/// One routed virtual connection: a list of grid hops (r, c) from the
/// producer PE (or boundary port) to the consumer.
struct RoutedNet {
  int from_node = -1;  // DFG node producing the value
  int to_node = -1;    // DFG node consuming it
  int to_operand = 0;
  std::vector<std::pair<int, int>> hops;  // PE-grid coordinates traversed
};

struct VcgraSettings {
  std::vector<PeSettings> pes;  // rows*cols, row-major
  std::vector<RoutedNet> routes;

  /// Serialize every settings register into `settings_bits`-wide words in
  /// register order (PEs row-major, then VSBs) — what the dedicated bus
  /// writes in the conventional overlay and what becomes parameter values
  /// in the fully parameterized one.
  std::vector<std::uint32_t> register_words(const OverlayArch& arch) const;

  /// The three words one PE contributes to register_words(), in order:
  /// opcode|count|coefficient checksum, then the coefficient's low and
  /// high halves.
  static std::array<std::uint32_t, 3> pe_register_words(const PeSettings& pe);

  /// The VSB tail of register_words() alone, written into `out` (resized
  /// to the arch's VSB count) so a caller can reuse one buffer.
  void vsb_register_words(const OverlayArch& arch,
                          std::vector<std::uint32_t>& out) const;
};

struct CompileReport {
  double synth_seconds = 0;
  double map_seconds = 0;
  double place_seconds = 0;
  double route_seconds = 0;
  int pes_used = 0;
  int total_hops = 0;
  double total_seconds() const {
    return synth_seconds + map_seconds + place_seconds + route_seconds;
  }
};

struct Compiled {
  OverlayArch arch;
  VcgraSettings settings;
  std::vector<int> pe_of_node;  // DFG node -> PE index (-1 if not on a PE)
  CompileReport report;

  // Interface directory for the simulator (survives without the Dfg).
  std::map<std::string, int> input_node_by_name;
  std::map<std::string, int> output_node_by_name;
  std::map<int, int> output_source;  // output node -> producing node
};

/// Where one symbolic coefficient lands in the fabric: the settings
/// register of `pe` (feeding compute node `dfg_node`) holds the encoded
/// value of parameter `name`.
struct ParamSlot {
  std::string name;
  int pe = -1;
  int dfg_node = -1;
};

/// The structural half of a compiled overlay: everything synthesis,
/// mapping, placement and routing decide — and nothing a coefficient
/// *value* touches. `settings` is a skeleton whose coeff_bits are zero;
/// `param_slots` says which PE registers specialize() must fill, and
/// `defaults` carries the values hoisted from the kernel text.
///
/// The whole point of the split (the paper's Dynamic Circuit
/// Specialization): a coefficient change re-runs specialize() in
/// microseconds instead of the milliseconds-long place & route flow.
struct CompiledStructure {
  OverlayArch arch;
  VcgraSettings settings;  // coeff_bits all zero until specialization
  std::vector<int> pe_of_node;
  CompileReport report;
  std::vector<ParamSlot> param_slots;
  ParamBinding defaults;

  std::map<std::string, int> input_node_by_name;
  std::map<std::string, int> output_node_by_name;
  std::map<int, int> output_source;
};

/// Run synthesis / mapping / placement / routing only; coefficients stay
/// symbolic. Throws std::invalid_argument when the design does not fit
/// (more compute nodes than PEs) or uses an op the PE repertoire lacks.
CompiledStructure compile_structure(const Dfg& dfg, const OverlayArch& arch,
                                    std::uint64_t seed = 1);

/// Compile the structure from the kernel's alpha-renamed canonical DFG —
/// exactly what the runtime structure cache keys and stores, so every
/// kernel isomorphic to `parsed` can share the artifact. Ahead-of-time
/// builders (the persistent overlay store, vcgra_overlayc) must use this
/// path or their records will not match the cache's keys.
CompiledStructure compile_structure_canonical(const ParsedKernel& parsed,
                                              const OverlayArch& arch,
                                              std::uint64_t seed = 1);

/// Bind coefficient values into a structure: encodes
/// merge_params(structure.defaults, overrides) into the parameter slots'
/// settings registers. Performs zero place & route work. The result is
/// bit-identical to a from-scratch compile() of a kernel carrying the
/// same values (asserted by test_vcgra / test_runtime).
Compiled specialize(const CompiledStructure& structure,
                    const ParamBinding& overrides = {});

/// Compile a DFG onto the overlay (structure + specialization in one
/// step). Throws std::invalid_argument when the design does not fit or
/// uses an op the PE repertoire lacks.
Compiled compile(const Dfg& dfg, const OverlayArch& arch, std::uint64_t seed = 1);

/// Convenience: parse + compile.
Compiled compile_kernel(const std::string& kernel_text, const OverlayArch& arch,
                        std::uint64_t seed = 1);

}  // namespace vcgra::overlay
