// The injection budget of a campaign: how many trials to spend per stratum.
// Shared — by inheritance or embedding — between fault::CampaignConfig,
// core::StudyConfig, and job::JobSpec so the knob set is declared exactly
// once and serializes the same way everywhere.
#pragma once

#include <cstddef>
#include <iterator>

#include "fault/site.hpp"

namespace gpurel::fault {

struct InjectionBudget {
  /// IOV injections per eligible instruction kind (paper: 1,000 per kind
  /// with SASSIFI; scaled down by default for simulation budgets).
  unsigned injections_per_kind = 120;
  /// One stratum per other site class, run only when the injector reaches
  /// the class. The micro-architectural strata (the MicroArch injector; see
  /// fault/microarch.hpp) are serialized only when nonzero, so pre-existing
  /// JobSpec hashes are untouched.
  unsigned rf_injections = 0;
  unsigned pred_injections = 0;
  unsigned ia_injections = 0;
  unsigned store_value_injections = 0;
  unsigned store_addr_injections = 0;
  unsigned sched_injections = 0;
  unsigned scoreboard_injections = 0;
  unsigned cta_injections = 0;
  unsigned warp_control_injections = 0;

  /// The field budgeting class `c` (InstructionOutput: injections_per_kind).
  unsigned& of(SiteClass c) { return this->*field(c); }
  unsigned of(SiteClass c) const { return this->*field(c); }

  friend bool operator==(const InjectionBudget&, const InjectionBudget&) = default;

 private:
  static unsigned InjectionBudget::*field(SiteClass c) {
    // One entry per SiteClass, in enum order.
    static constexpr unsigned InjectionBudget::*kFields[] = {
        &InjectionBudget::injections_per_kind,
        &InjectionBudget::rf_injections,
        &InjectionBudget::pred_injections,
        &InjectionBudget::ia_injections,
        &InjectionBudget::store_value_injections,
        &InjectionBudget::store_addr_injections,
        &InjectionBudget::sched_injections,
        &InjectionBudget::scoreboard_injections,
        &InjectionBudget::cta_injections,
        &InjectionBudget::warp_control_injections,
    };
    static_assert(std::size(kFields) == kSiteClasses);
    return kFields[static_cast<std::size_t>(c)];
  }
};

}  // namespace gpurel::fault
