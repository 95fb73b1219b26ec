// MicroArch injector: the unified site model's static site spaces, campaign
// determinism across workers and fork bucketings, the DUE-cause taxonomy,
// the injector-reach DUE sweep, and the old-vs-new API equivalence pin
// (registry-built SASSIFI/NVBitFI campaigns reproduce the pre-redesign
// tallies bit for bit).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/study.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fault/microarch.hpp"
#include "kernels/matmul.hpp"
#include "sim/device.hpp"

namespace gpurel::fault {
namespace {

using core::Outcome;
using core::Precision;
using core::WorkloadConfig;
using kernels::MxM;

WorkloadConfig micro_wc(isa::CompilerProfile profile) {
  return {arch::GpuConfig::kepler_k40c(2), profile, 0x5eed, 0.05};
}

TEST(MicroArchSites, EnumerationIsDeterministicAndCataloged) {
  auto inj = make_injector("MicroArch");
  const WorkloadConfig wc = micro_wc(inj->profile());
  const arch::GpuConfig& gpu = wc.gpu;
  MxM w(wc, Precision::Single, 16);
  sim::Device dev(gpu);
  w.prepare(dev);

  const SiteSpace a = inj->enumerate_sites(w, gpu);
  const SiteSpace b = inj->enumerate_sites(w, gpu);
  for (std::size_t c = 0; c < kSiteClasses; ++c) {
    const auto cls = static_cast<SiteClass>(c);
    ASSERT_EQ(a.of(cls).reached, b.of(cls).reached);
    ASSERT_EQ(a.of(cls).sites(), b.of(cls).sites());
    EXPECT_EQ(a.of(cls).reached, is_microarch(cls));
    ASSERT_EQ(a.of(cls).components.size(), b.of(cls).components.size());
    for (std::size_t i = 0; i < a.of(cls).components.size(); ++i) {
      EXPECT_EQ(a.of(cls).components[i].slots, b.of(cls).components[i].slots);
      EXPECT_EQ(a.of(cls).components[i].bits, b.of(cls).components[i].bits);
    }
  }

  // K40c-sim at 2 SMs: 64 warp slots, 4 schedulers/SM, 16 blocks/SM. The §13
  // catalogue then fixes the class populations (scoreboard scales with the
  // workload's register count and is only bounded here).
  const std::uint64_t warps = 2ull * gpu.max_warps_per_sm;
  EXPECT_EQ(a.of(SiteClass::Scheduler).sites(),
            2ull * gpu.schedulers_per_sm * 8 + 2ull * 32 + warps * 32);
  EXPECT_EQ(a.of(SiteClass::CtaBookkeeping).sites(),
            2ull * gpu.max_blocks_per_sm * 8 * 2);
  EXPECT_EQ(a.of(SiteClass::WarpControl).sites(), warps * (32 + 32 + 64));
  EXPECT_GT(a.of(SiteClass::Scoreboard).sites(),
            warps * isa::kNumPredicates * 32);

  // decode() covers the whole flat range and round-trips the catalogue.
  for (const SiteClass cls :
       {SiteClass::Scheduler, SiteClass::Scoreboard, SiteClass::CtaBookkeeping,
        SiteClass::WarpControl}) {
    const std::uint64_t n = a.of(cls).sites();
    ASSERT_GT(n, 0u);
    for (const std::uint64_t index : {std::uint64_t{0}, n / 2, n - 1}) {
      const FaultSite site = a.decode(cls, index);
      EXPECT_EQ(site.cls, cls);
      bool in_component = false;
      for (const auto& comp : a.of(cls).components)
        if (comp.component == site.component) {
          in_component = true;
          EXPECT_LT(site.instance, comp.slots);
          EXPECT_LT(site.bit, comp.bits);
        }
      EXPECT_TRUE(in_component) << "class " << site_class_names(cls).model
                                << " index " << index;
    }
  }

  // SASS-level tools expose no micro-architectural sites.
  for (const char* name : {"SASSIFI", "NVBitFI"}) {
    auto sass = make_injector(name);
    const SiteSpace s = sass->enumerate_sites(w, gpu);
    for (std::size_t c = kArchSiteClasses; c < kSiteClasses; ++c)
      EXPECT_FALSE(s.classes[c].reached) << name;
  }
}

struct RunOut {
  CampaignResult result;
  std::vector<Outcome> outcomes;
  std::vector<std::uint64_t> cycles;
};

RunOut run_micro(unsigned workers, unsigned fork_epochs) {
  auto inj = make_injector("MicroArch");
  const WorkloadConfig wc = micro_wc(inj->profile());
  auto factory = [&] {
    return std::make_unique<MxM>(wc, Precision::Single, 16);
  };
  CampaignConfig cc;
  cc.injections_per_kind = 0;  // no instruction sites on this injector
  cc.sched_injections = 8;
  cc.scoreboard_injections = 8;
  cc.cta_injections = 8;
  cc.warp_control_injections = 8;
  cc.seed = 0xf0f0;
  cc.workers = workers;
  cc.fork_epochs = fork_epochs;
  RunOut out;
  cc.trial_outcomes_out = &out.outcomes;
  cc.trial_cycles_out = &out.cycles;
  out.result = run_campaign(*inj, factory, cc);
  return out;
}

void expect_same_counts(const OutcomeCounts& a, const OutcomeCounts& b,
                        const char* what) {
  EXPECT_EQ(a.masked, b.masked) << what;
  EXPECT_EQ(a.sdc, b.sdc) << what;
  EXPECT_EQ(a.due, b.due) << what;
}

TEST(MicroArchCampaign, ByteIdenticalAcrossWorkersAndForkEpochs) {
  const RunOut base = run_micro(1, 0);
  EXPECT_EQ(base.result.total_injections(), 32u);
  for (const SiteClass cls : kMicroArchClasses)
    EXPECT_GT(base.result.sites_of(cls), 0u) << site_class_names(cls).model;

  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const unsigned epochs : {0u, 1u, 4u, 9u}) {
      if (workers == 1 && epochs == 0) continue;
      const RunOut other = run_micro(workers, epochs);
      ASSERT_EQ(base.outcomes.size(), other.outcomes.size());
      for (std::size_t t = 0; t < base.outcomes.size(); ++t) {
        EXPECT_EQ(base.outcomes[t], other.outcomes[t])
            << "trial " << t << " workers " << workers << " epochs " << epochs;
        EXPECT_EQ(base.cycles[t], other.cycles[t]) << "trial " << t;
      }
      for (const SiteClass cls : kMicroArchClasses)
        expect_same_counts(base.result.of(cls), other.result.of(cls),
                           site_class_names(cls).model.data());
      EXPECT_EQ(base.result.due_causes.by_cause,
                other.result.due_causes.by_cause);
    }
  }
}

TEST(MicroArchCampaign, DueCausesAccountForEveryDue) {
  const RunOut out = run_micro(2, 4);
  const CampaignResult& r = out.result;
  std::uint64_t dues = 0;
  for (const SiteClass cls : kMicroArchClasses) dues += r.of(cls).due;
  EXPECT_EQ(r.due_causes.total(), dues);
  // The point of the MicroArch injector: it actually produces DUEs, and they
  // manifest as the hidden-state kinds — hangs / launch failures / watchdog
  // / barrier deadlocks — never as ECC aborts (it strikes no memory).
  EXPECT_GT(dues, 0u);
  EXPECT_EQ(r.due_causes.of(core::DueCause::Ecc), 0u);
  EXPECT_GT(r.due_causes.of(core::DueCause::Hang) +
                r.due_causes.of(core::DueCause::LaunchFailure) +
                r.due_causes.of(core::DueCause::Watchdog) +
                r.due_causes.of(core::DueCause::BarrierDeadlock),
            0u);
}

TEST(DueCause, TaxonomyPinsEngineDueKinds) {
  using core::DueCause;
  using core::due_cause_of;
  EXPECT_EQ(due_cause_of(sim::DueKind::None), DueCause::None);
  EXPECT_EQ(due_cause_of(sim::DueKind::InvalidAddress),
            DueCause::LaunchFailure);
  EXPECT_EQ(due_cause_of(sim::DueKind::MisalignedAddress),
            DueCause::LaunchFailure);
  EXPECT_EQ(due_cause_of(sim::DueKind::IllegalInstruction),
            DueCause::LaunchFailure);
  EXPECT_EQ(due_cause_of(sim::DueKind::Watchdog), DueCause::Watchdog);
  EXPECT_EQ(due_cause_of(sim::DueKind::BarrierDeadlock),
            DueCause::BarrierDeadlock);
  EXPECT_EQ(due_cause_of(sim::DueKind::EccDoubleBit), DueCause::Ecc);
  EXPECT_EQ(due_cause_of(sim::DueKind::HiddenResource), DueCause::Hang);
  EXPECT_STREQ(std::string(core::due_cause_name(DueCause::Hang)).c_str(),
               "hang");
}

// Old-vs-new equivalence pin: a registry-built architectural campaign on the
// redesigned site-model API reproduces the pre-redesign per-stratum tallies
// exactly. These tables were captured from the legacy make_sassifi /
// make_nvbitfi code path; any drift in seeding, stratum order, or site
// bookkeeping shows up here as a tally change.
struct StratumPin {
  std::uint64_t masked, sdc, due;
};

void expect_pin(const OutcomeCounts& got, const StratumPin& pin,
                const char* what) {
  EXPECT_EQ(got.masked, pin.masked) << what;
  EXPECT_EQ(got.sdc, pin.sdc) << what;
  EXPECT_EQ(got.due, pin.due) << what;
}

CampaignResult run_arch_pin(const char* name) {
  auto inj = make_injector(name);
  const WorkloadConfig wc = micro_wc(inj->profile());
  auto factory = [&] {
    return std::make_unique<MxM>(wc, Precision::Single, 16);
  };
  CampaignConfig cc;
  cc.injections_per_kind = 6;
  cc.rf_injections = 6;
  cc.pred_injections = 4;
  cc.ia_injections = 6;
  cc.store_value_injections = 4;
  cc.store_addr_injections = 4;
  cc.seed = 0xf0f0;
  return run_campaign(*inj, factory, cc);
}

TEST(SiteModelEquivalence, SassifiReproducesLegacyTallies) {
  const CampaignResult r = run_arch_pin("SASSIFI");
  std::uint64_t km = 0, ks = 0, kd = 0;
  for (const auto& k : r.per_kind) {
    km += k.counts.masked;
    ks += k.counts.sdc;
    kd += k.counts.due;
  }
  EXPECT_EQ(km, 10u);
  EXPECT_EQ(ks, 19u);
  EXPECT_EQ(kd, 7u);
  expect_pin(r.of(SiteClass::RegisterFile), {2, 2, 2}, "rf");
  expect_pin(r.of(SiteClass::Predicate), {0, 4, 0}, "pred");
  expect_pin(r.of(SiteClass::InstructionAddress), {1, 1, 4}, "ia");
  expect_pin(r.of(SiteClass::StoreValue), {0, 4, 0}, "store_value");
  expect_pin(r.of(SiteClass::StoreAddress), {0, 2, 2}, "store_addr");
  EXPECT_EQ(r.total_injections(), 60u);
  // Architectural campaigns expose no micro-architectural sites; the result
  // serializes byte-identically to pre-redesign builds.
  for (const SiteClass cls : kMicroArchClasses)
    EXPECT_EQ(r.sites_of(cls), 0u) << site_class_names(cls).model;
}

TEST(SiteModelEquivalence, NvbitfiReproducesLegacyTallies) {
  const CampaignResult r = run_arch_pin("NVBitFI");
  std::uint64_t km = 0, ks = 0, kd = 0;
  for (const auto& k : r.per_kind) {
    km += k.counts.masked;
    ks += k.counts.sdc;
    kd += k.counts.due;
  }
  EXPECT_EQ(km, 4u);
  EXPECT_EQ(ks, 17u);
  EXPECT_EQ(kd, 15u);
  // NVBitFI reaches none of the aux architectural classes: the budgets above
  // must not leak into strata the injector cannot strike.
  for (const SiteClass cls : kStratumClasses)
    EXPECT_EQ(r.of(cls).total(), 0u) << site_class_names(cls).model;
  EXPECT_EQ(r.total_injections(), 36u);
}

TEST(ReachSweep, MonotoneAndAnchoredOnArchitecturalPrediction) {
  using core::Study;
  Study::CodeEvaluation ev;
  ev.name = "SYN";

  model::FitPrediction pred;
  pred.due = 2.0;
  ev.pred_nvbitfi_on = pred;

  ev.beam_ecc_on.fit_due = 50.0;
  ev.beam_ecc_on.per_event_fit = 5.0;
  auto& hidden = ev.beam_ecc_on.by_target[static_cast<std::size_t>(
      beam::StrikeTarget::Hidden)];
  hidden.due = 8;  // 40 of the 50 DUE FIT is hidden-state strikes

  fault::CampaignResult ma;
  for (const SiteClass cls : kMicroArchClasses) ma.sites_of(cls) = 1000;
  ma.of(SiteClass::Scheduler) = {2, 0, 2};       // DUE AVF 0.5
  ma.of(SiteClass::Scoreboard) = {4, 0, 0};      // DUE AVF 0
  ma.of(SiteClass::CtaBookkeeping) = {1, 1, 2};  // DUE AVF 0.5
  ma.of(SiteClass::WarpControl) = {0, 2, 2};     // DUE AVF 0.5
  ev.microarch = ma;

  const std::optional<Study::ReachSweep> sweep = Study::reach_sweep(ev);
  ASSERT_TRUE(sweep.has_value());
  EXPECT_EQ(sweep->base, "NVBitFI/ECC on");
  EXPECT_DOUBLE_EQ(sweep->beam_due, 50.0);
  EXPECT_DOUBLE_EQ(sweep->hidden_due, 40.0);
  ASSERT_EQ(sweep->levels.size(), 5u);

  // Level 0 reproduces today's architectural prediction exactly.
  EXPECT_EQ(sweep->levels[0].name, "architectural");
  EXPECT_DOUBLE_EQ(sweep->levels[0].predicted_due, 2.0);
  // Each granted class adds hidden_due x (1/4 site share) x its DUE AVF:
  // +5 for scheduler, +0 for scoreboards, +5 for CTA, +5 for warp control.
  EXPECT_DOUBLE_EQ(sweep->levels[1].predicted_due, 7.0);
  EXPECT_DOUBLE_EQ(sweep->levels[2].predicted_due, 7.0);
  EXPECT_DOUBLE_EQ(sweep->levels[3].predicted_due, 12.0);
  EXPECT_DOUBLE_EQ(sweep->levels[4].predicted_due, 17.0);
  for (std::size_t i = 1; i < sweep->levels.size(); ++i) {
    EXPECT_GE(sweep->levels[i].predicted_due,
              sweep->levels[i - 1].predicted_due);
    ASSERT_TRUE(sweep->levels[i].granted.has_value());
  }
  EXPECT_FALSE(sweep->levels[0].granted.has_value());
  // The gap shrinks monotonically toward the beam measurement.
  EXPECT_LT(sweep->beam_due - sweep->levels[4].predicted_due,
            sweep->beam_due - sweep->levels[0].predicted_due);

  // No MicroArch campaign (or no prediction): no sweep.
  Study::CodeEvaluation bare = ev;
  bare.microarch.reset();
  EXPECT_FALSE(Study::reach_sweep(bare).has_value());
  bare = ev;
  bare.pred_nvbitfi_on.reset();
  bare.pred_sassifi_on.reset();
  EXPECT_FALSE(Study::reach_sweep(bare).has_value());
}

TEST(InjectorRegistry, NamesAndUnknownNameContract) {
  const std::vector<std::string>& names = registered_injectors();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "SASSIFI");
  EXPECT_EQ(names[1], "NVBitFI");
  EXPECT_EQ(names[2], "MicroArch");
  for (const std::string& n : names) EXPECT_EQ(make_injector(n)->name(), n);
  try {
    make_injector("PVFI");
    FAIL() << "unknown injector must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("PVFI"), std::string::npos);
    for (const std::string& n : names)
      EXPECT_NE(msg.find(n), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace gpurel::fault
