#include "sim/decode.hpp"

#include <algorithm>

#include "isa/instruction.hpp"
#include "sim/instr_info.hpp"
#include "sim/timing.hpp"

namespace gpurel::sim {

using isa::Instr;
using isa::kRZ;
using isa::Opcode;

void build_decode_table(const arch::GpuConfig& gpu, const isa::Program& prog,
                        std::vector<DecodedInstr>& out) {
  out.clear();
  out.reserve(prog.size());
  for (std::uint32_t pc = 0; pc < prog.size(); ++pc) {
    const Instr& in = prog.at(pc);
    DecodedInstr d;
    for (unsigned s = 0; s < 3; ++s) {
      if (!src_slot_used(in, s)) continue;
      d.src_base[d.src_count] = in.src[s];
      d.src_width[d.src_count] =
          static_cast<std::uint8_t>(src_reg_width(in, s));
      ++d.src_count;
    }
    if (isa::writes_gpr(in.op) && in.dst != kRZ) {
      d.dst_base = in.dst;
      d.dst_width = static_cast<std::uint8_t>(dst_reg_width(in));
    }
    d.guarded = !in.unguarded();
    d.guard_pred = in.guard_index();
    d.writes_pred = isa::writes_predicate(in.op);
    d.wr_pred = in.dst & 0x07;
    d.reads_sel = in.op == Opcode::SEL;
    d.sel_pred = in.aux & 0x07;
    d.is_control = isa::is_control(in.op);
    d.is_mma = in.op == Opcode::HMMA || in.op == Opcode::FMMA;
    const UnitGroup g = unit_group(gpu, in.op);
    d.unit_group = static_cast<std::uint8_t>(g);
    d.group_limit = static_cast<std::uint8_t>(group_issue_limit(gpu, g));
    d.unit_kind = static_cast<std::uint8_t>(isa::unit_kind(in.op));
    d.mix = static_cast<std::uint8_t>(isa::mix_class(in.op));
    d.latency = static_cast<std::uint16_t>(latency(gpu, in.op));
    out.push_back(d);
  }
}

unsigned register_footprint(const isa::Program& prog) {
  unsigned fp = prog.regs_per_thread();
  for (std::uint32_t pc = 0; pc < prog.size(); ++pc) {
    const Instr& in = prog.at(pc);
    // Every named source slot counts, immediate-flagged ones included: a few
    // opcodes read src[1] without consulting kAuxImmSrc1, and an
    // over-approximation only costs a wider copy.
    for (unsigned s = 0; s < 3; ++s)
      if (in.src[s] != kRZ) fp = std::max(fp, in.src[s] + src_reg_width(in, s));
    if (isa::writes_gpr(in.op) && in.dst != kRZ)
      fp = std::max(fp, in.dst + std::max(dst_reg_width(in), 1u));
  }
  return std::min(fp, 256u);
}

}  // namespace gpurel::sim
