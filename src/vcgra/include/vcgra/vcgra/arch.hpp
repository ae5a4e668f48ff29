// Virtual CGRA overlay architecture (Fig. 1 of the paper).
//
// A rows x cols grid of processing elements (floating-point MAC PEs, §IV)
// joined by a virtual interconnection network: Virtual Switch Blocks
// (VSBs) at interior crossings and Virtual Connection Blocks (VCBs) that
// attach PE ports to the network. Every PE and every VSB carries a
// settings register that selects its function / connection pattern.
//
// The Table II accounting lives here: a 4x4 grid has 16 PEs, 9 VSBs,
// 32 VCBs and 25 32-bit settings registers; conventionally the switches
// burn FPGA LUTs and the registers burn flip-flops, while the fully
// parameterized overlay maps both onto configuration memory (zero logic).
#pragma once

#include <cstdint>
#include <string>

#include "vcgra/softfloat/fpformat.hpp"

namespace vcgra::overlay {

struct PeCapability {
  bool mul = true;
  bool add = true;
  bool sub = true;
  bool mac = true;
  bool pass = true;  // route-through

  bool operator==(const PeCapability&) const = default;
};

struct OverlayArch {
  int rows = 4;
  int cols = 4;
  int tracks = 2;          // virtual channel tracks per direction
  int settings_bits = 32;  // width of one settings register
  int counter_bits = 16;   // MAC iteration counter inside the PE
  softfloat::FpFormat format = softfloat::FpFormat::paper();
  PeCapability pe;

  int num_pes() const { return rows * cols; }
  /// VSBs sit at interior crossings of the PE mesh.
  int num_vsbs() const { return (rows - 1) * (cols - 1); }
  /// Each PE attaches through two VCBs (input side + output side).
  int num_vcbs() const { return 2 * rows * cols; }
  /// One settings register per PE and per VSB (Table II: 16 + 9 = 25).
  int num_settings_registers() const { return num_pes() + num_vsbs(); }

  std::string to_string() const;

  /// Field-wise equality: equal archs compile and configure identically
  /// (and share one runtime::arch_signature).
  bool operator==(const OverlayArch&) const = default;
};

/// Resource bill of the overlay's own machinery (not the PE datapaths).
struct OverlayCost {
  std::size_t routing_switch_groups = 0;  // VSBs+VCBs realized in logic
  std::size_t settings_registers = 0;     // registers realized in flip-flops
  std::size_t settings_ff_bits = 0;       // total flip-flops for them
  std::size_t mux_luts = 0;               // LUTs implementing the network muxes
  std::size_t config_mem_bits = 0;        // bits moved into configuration memory

  std::string to_string() const;
};

/// Conventional overlay: switches in LUTs, registers in flip-flops.
OverlayCost conventional_overlay_cost(const OverlayArch& arch);

/// Fully parameterized overlay: everything lives in configuration memory;
/// the logic cost is zero by construction (the paper's Table II row).
OverlayCost parameterized_overlay_cost(const OverlayArch& arch);

}  // namespace vcgra::overlay
