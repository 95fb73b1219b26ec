#include "sim/snapshot.hpp"

namespace gpurel::sim {

std::uint64_t Snapshot::bytes() const {
  std::uint64_t b = sizeof(Snapshot) + memory.size();
  for (const BlockSnap& bs : exec.blocks)
    b += sizeof(BlockSnap) + bs.shared.size() +
         bs.warps.size() * sizeof(std::size_t);
  for (const WarpSnap& ws : exec.warps)
    b += sizeof(WarpSnap) + ws.stack.size() * sizeof(StackEntry) +
         ws.reg_ready.size() * sizeof(std::uint64_t) +
         ws.regs.size() * sizeof(std::uint32_t);
  for (const SmSnap& ss : exec.sms)
    b += sizeof(SmSnap) +
         (ss.blocks.size() + ss.warps.size()) * sizeof(std::size_t) +
         ss.rr.size() * sizeof(unsigned);
  return b;
}

}  // namespace gpurel::sim
