// Per-program decode cache. The executor's issue path used to rediscover
// operand shapes, unit routing, latency and mix classification through
// per-opcode switch dispatch on every issue; decoding once per (program, GPU)
// pair turns all of that into flat table lookups. The decoded form is purely
// derived data — execution semantics still read the original isa::Instr.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/gpu_config.hpp"
#include "isa/program.hpp"

namespace gpurel::sim {

/// Issue-time metadata of one instruction, pre-resolved for one GpuConfig.
struct DecodedInstr {
  // Scoreboard operands: used source slots compacted to the front (RZ and
  // immediate slots dropped at decode time), destination span empty when the
  // instruction writes no GPR (or writes RZ).
  std::uint8_t src_base[3] = {0, 0, 0};
  std::uint8_t src_width[3] = {0, 0, 0};
  std::uint8_t src_count = 0;
  std::uint8_t dst_base = 0;
  std::uint8_t dst_width = 0;

  std::uint8_t guard_pred = 0;  // valid when `guarded`
  std::uint8_t wr_pred = 0;     // valid when `writes_pred`
  std::uint8_t sel_pred = 0;    // valid when `reads_sel` (SEL selector)
  bool guarded = false;
  bool writes_pred = false;
  bool reads_sel = false;
  bool is_control = false;
  bool is_mma = false;

  // Issue routing and accounting (GPU-dependent).
  std::uint8_t unit_group = 0;   // sim::UnitGroup
  std::uint8_t group_limit = 0;  // group_issue_limit(gpu, unit_group)
  std::uint8_t unit_kind = 0;    // isa::UnitKind (stats)
  std::uint8_t mix = 0;          // isa::MixClass (stats)
  std::uint16_t latency = 0;     // result-ready latency in cycles
};

/// Rebuild `out` as the decode table of `prog` on `gpu` (capacity reused;
/// out.size() == prog.size() afterwards). Cost is O(program size) — trivial
/// against the millions of issues a launch amortizes it over.
void build_decode_table(const arch::GpuConfig& gpu, const isa::Program& prog,
                        std::vector<DecodedInstr>& out);

/// Register footprint of `prog`: one past the highest GPR any of its
/// instructions can read or write, counting FP64/B64 pairs and MMA fragment
/// widths, and never less than the declared regs_per_thread() (the span
/// register-file injections sample from). Program::validate does not bound
/// operand indices by the declared count, so the operands are scanned.
/// Registers at or above the footprint are never touched by the program's
/// semantics, so the executor clears, captures and restores only
/// [0, footprint) of each lane and of the scoreboard. At most 256.
unsigned register_footprint(const isa::Program& prog);

}  // namespace gpurel::sim
