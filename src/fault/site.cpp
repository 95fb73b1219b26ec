#include "fault/site.hpp"

#include <iterator>
#include <stdexcept>

namespace gpurel::fault {

namespace {

// One row per SiteClass, in enum order.
constexpr SiteClassNames kNames[] = {
    {"IOV", "per_kind", "output", ""},
    {"RF", "rf", "rf", ""},
    {"PR", "pred", "pred", ""},
    {"IA", "ia", "ia", ""},
    {"STV", "store_value", "store_value", ""},
    {"STA", "store_addr", "store_addr", ""},
    {"SCHED", "scheduler", "sched", "+scheduler"},
    {"SCORE", "scoreboard", "scoreboard", "+scoreboards"},
    {"CTA", "cta", "cta", "+cta-bookkeeping"},
    {"WCTL", "warp_control", "warp_control", "+warp-control"},
};
static_assert(std::size(kNames) == kSiteClasses);

}  // namespace

const SiteClassNames& site_class_names(SiteClass c) {
  return kNames[static_cast<std::size_t>(c)];
}

FaultSite SiteSpace::decode(SiteClass cls, std::uint64_t index) const {
  const ClassSpace& cs = of(cls);
  for (const ComponentSpace& comp : cs.components) {
    const std::uint64_t n = comp.sites();
    if (index < n) {
      FaultSite site;
      site.cls = cls;
      site.component = comp.component;
      site.instance = index / comp.bits;
      site.bit = static_cast<std::uint32_t>(index % comp.bits);
      return site;
    }
    index -= n;
  }
  throw std::out_of_range("SiteSpace::decode: index beyond class site count");
}

}  // namespace gpurel::fault
