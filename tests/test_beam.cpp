// Beam-experiment simulator tests: exposure bookkeeping, ECC behaviour
// (SDCs crushed, DUEs added), the LDST DUE-dominance the paper measures,
// determinism, the accelerated-vs-natural estimator agreement property,
// forked accelerated runs against digests recorded unforked, and the hooks a
// strike observer claims.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <string>
#include <vector>

#include "beam/experiment.hpp"
#include "common/bits.hpp"
#include "job/serialize.hpp"
#include "kernels/matmul.hpp"
#include "kernels/microbench.hpp"
#include "kernels/registry.hpp"
#include "obs/metrics.hpp"

namespace gpurel::beam {
namespace {

using core::Precision;
using core::WorkloadConfig;
using isa::UnitKind;
using kernels::ArithMicro;
using kernels::LdstMicro;
using kernels::MicroOp;
using kernels::MxM;
using kernels::RfMicro;

WorkloadConfig kepler_cfg(double scale = 0.05) {
  return {arch::GpuConfig::kepler_k40c(2), isa::CompilerProfile::Cuda10, 0x5eed,
          scale};
}

core::WorkloadFactory fadd_factory(double scale = 0.05) {
  return [=] {
    return std::make_unique<ArithMicro>(kepler_cfg(scale), Precision::Single,
                                        MicroOp::Add);
  };
}

core::WorkloadFactory mxm_factory(unsigned n = 16) {
  return [=] {
    return std::make_unique<MxM>(kepler_cfg(), Precision::Single, n);
  };
}

TEST(CrossSections, CalibratedShape) {
  const auto k = CrossSectionDb::kepler();
  // Kepler: integer units ~4x FP32, IMUL above IADD, IMAD above IMUL.
  EXPECT_NEAR(k.sigma_unit(UnitKind::IADD) / k.sigma_unit(UnitKind::FADD), 4.0, 1.0);
  EXPECT_GT(k.sigma_unit(UnitKind::IMUL), k.sigma_unit(UnitKind::IADD));
  EXPECT_GT(k.sigma_unit(UnitKind::IMAD), k.sigma_unit(UnitKind::IMUL));
  const auto v = CrossSectionDb::volta();
  // Volta: FIT grows with precision and complexity; MMA far above scalar.
  EXPECT_LT(v.sigma_unit(UnitKind::HADD), v.sigma_unit(UnitKind::FADD));
  EXPECT_LT(v.sigma_unit(UnitKind::FADD), v.sigma_unit(UnitKind::DADD));
  EXPECT_LT(v.sigma_unit(UnitKind::DADD), v.sigma_unit(UnitKind::DMUL));
  EXPECT_LT(v.sigma_unit(UnitKind::DMUL), v.sigma_unit(UnitKind::DFMA));
  EXPECT_GT(v.sigma_unit(UnitKind::MMA_H), 5 * v.sigma_unit(UnitKind::DFMA));
  // Kepler's 28nm planar RF is an order of magnitude above Volta's FinFET.
  EXPECT_NEAR(k.rf_bit / v.rf_bit, 10.0, 2.0);
}

TEST(Exposure, BreakdownIsConsistent) {
  auto w = fadd_factory()();
  sim::Device dev(w->config().gpu);
  w->prepare(dev);
  const auto e = compute_exposure(*w, dev.memory().allocated_bits());
  EXPECT_GT(e.trial_cycles, 0u);
  EXPECT_GT(e.rf_bit_cycles, 0.0);
  EXPECT_GT(e.global_bit_cycles, 0.0);
  EXPECT_GT(e.hidden_sm_cycles, 0.0);
  // An FADD chain microbenchmark is dominated by FADD unit busy time.
  const auto fadd = e.unit_busy[static_cast<std::size_t>(UnitKind::FADD)];
  const auto ffma = e.unit_busy[static_cast<std::size_t>(UnitKind::FFMA)];
  EXPECT_GT(fadd, 0.0);
  EXPECT_GT(fadd, ffma);
  // No shared memory used by this kernel.
  EXPECT_DOUBLE_EQ(e.shared_bit_cycles, 0.0);
}

TEST(Beam, DeterministicAndWorkerInvariant) {
  BeamConfig bc;
  bc.runs = 60;
  bc.ecc = false;
  bc.seed = 11;
  const auto a = run_beam(CrossSectionDb::kepler(), mxm_factory(), bc);
  const auto b = run_beam(CrossSectionDb::kepler(), mxm_factory(), bc);
  EXPECT_EQ(a.outcomes.sdc, b.outcomes.sdc);
  EXPECT_EQ(a.outcomes.due, b.outcomes.due);
  BeamConfig bc3 = bc;
  bc3.workers = 3;
  const auto c = run_beam(CrossSectionDb::kepler(), mxm_factory(), bc3);
  EXPECT_EQ(a.outcomes.sdc, c.outcomes.sdc);
  EXPECT_EQ(a.outcomes.due, c.outcomes.due);
}

TEST(Beam, EccSuppressesMemorySdcAndAddsDue) {
  // The RF microbenchmark's exposure is dominated by register-file bits, so
  // ECC ON should collapse its SDC rate (paper: up to 21x on K40c) while
  // double-bit detections keep a DUE floor.
  auto factory = [] {
    return std::make_unique<RfMicro>(kepler_cfg(), 128, 64);
  };
  BeamConfig off;
  off.runs = 250;
  off.ecc = false;
  off.seed = 21;
  BeamConfig on = off;
  on.ecc = true;
  const auto db = CrossSectionDb::kepler();
  const auto r_off = run_beam(db, factory, off);
  const auto r_on = run_beam(db, factory, on);
  EXPECT_GT(r_off.fit_sdc, 0.0);
  EXPECT_GT(r_off.fit_sdc, 4.0 * std::max(r_on.fit_sdc, 1e-12));
  // RF dominates the strike budget for this benchmark.
  EXPECT_GT(r_off.weight_share[static_cast<std::size_t>(StrikeTarget::RegisterFile)],
            0.5);
}

TEST(Beam, LdstIsDueDominated) {
  auto factory = [] {
    return std::make_unique<LdstMicro>(kepler_cfg(0.2));
  };
  BeamConfig bc;
  bc.runs = 300;
  bc.ecc = true;  // paper runs LDST with ECC enabled
  bc.seed = 33;
  const auto r = run_beam(CrossSectionDb::kepler(), factory, bc);
  // Address-path strikes turn into device exceptions: DUE well above SDC
  // (paper: 7.1x).
  EXPECT_GT(r.fit_due, 2.0 * std::max(r.fit_sdc, 1e-12));
}

TEST(Beam, ArithMicrobenchSdcComesFromItsUnit) {
  BeamConfig bc;
  bc.runs = 200;
  bc.ecc = true;
  bc.seed = 55;
  const auto r = run_beam(CrossSectionDb::kepler(), fadd_factory(0.2), bc);
  EXPECT_GT(r.outcomes.sdc, 0u);
  const auto& fu =
      r.by_target[static_cast<std::size_t>(StrikeTarget::FunctionalUnit)];
  EXPECT_GT(fu.sdc, 0u);
}

TEST(Beam, HiddenStrikesProduceDues) {
  BeamConfig bc;
  bc.runs = 250;
  bc.ecc = true;
  bc.seed = 77;
  const auto r = run_beam(CrossSectionDb::kepler(), mxm_factory(32), bc);
  const auto& hidden = r.by_target[static_cast<std::size_t>(StrikeTarget::Hidden)];
  if (hidden.total() > 0) {
    EXPECT_GT(hidden.due, 0u);
  }
  EXPECT_GT(r.outcomes.due, 0u);
}

TEST(Beam, AcceleratedMatchesNaturalEstimator) {
  // Property: in the <=1-strike regime the two estimators must agree within
  // statistical noise. Use generous run counts on a small workload.
  BeamConfig acc;
  acc.runs = 400;
  acc.ecc = false;
  acc.seed = 101;
  const auto db = CrossSectionDb::kepler();
  const auto a = run_beam(db, mxm_factory(16), acc);

  BeamConfig nat = acc;
  nat.mode = BeamMode::Natural;
  nat.runs = 800;
  // Aim for ~0.5 strikes per run: flux_scale = 0.5 / Σw, where Σw =
  // device_sigma_rate * T. Derive from the accelerated result.
  auto w = mxm_factory(16)();
  sim::Device dev(w->config().gpu);
  w->prepare(dev);
  const double total_weight =
      a.device_sigma_rate * static_cast<double>(w->golden_stats().cycles);
  nat.flux_scale = 0.5 / total_weight;
  const auto n = run_beam(db, mxm_factory(16), nat);

  ASSERT_GT(a.fit_sdc, 0.0);
  ASSERT_GT(n.fit_sdc, 0.0);
  const double ratio = a.fit_sdc / n.fit_sdc;
  EXPECT_GT(ratio, 0.55);
  EXPECT_LT(ratio, 1.8);
}

TEST(Beam, ZeroWeightGuard) {
  // A config with all cross-sections zero yields an empty result rather
  // than dividing by zero.
  CrossSectionDb db{};
  BeamConfig bc;
  bc.runs = 10;
  const auto r = run_beam(db, mxm_factory(16), bc);
  EXPECT_EQ(r.outcomes.total(), 0u);
  EXPECT_DOUBLE_EQ(r.fit_sdc, 0.0);
}

// Regression: run_beam used the factory's result without checking it, so a
// factory returning null crashed instead of being rejected as a campaign's
// is.
TEST(Beam, RejectsNullFactory) {
  const core::WorkloadFactory null_factory = [] {
    return std::unique_ptr<core::Workload>();
  };
  BeamConfig bc;
  bc.runs = 4;
  EXPECT_THROW(run_beam(CrossSectionDb::kepler(), null_factory, bc),
               std::invalid_argument);
}

TEST(BeamObserver, DropsHookClaimsOnceItsStrikeHasFired) {
  // One-shot: after its last strike has fired the observer claims no hook,
  // so the rest of the trial runs on the bare whole-warp paths. A strike
  // that never fires keeps the claims for the whole trial.
  auto w = mxm_factory()();
  sim::Device dev(w->config().gpu);
  w->prepare(dev);
  const std::uint64_t ffma =
      w->golden_stats().lane_per_unit[static_cast<std::size_t>(UnitKind::FFMA)];
  ASSERT_GT(ffma, 100u);

  auto fires = detail::strike_observer(StrikeTarget::FunctionalUnit, ffma / 2,
                                       0x1234, w->max_regs_per_thread(),
                                       UnitKind::FFMA);
  EXPECT_NE(fires->wants(), 0u);
  w->run_trial(dev, fires.get());
  EXPECT_EQ(fires->wants(), 0u);

  auto never = detail::strike_observer(StrikeTarget::FunctionalUnit, ffma,
                                       0x1234, w->max_regs_per_thread(),
                                       UnitKind::FFMA);
  const core::TrialResult r = w->run_trial(dev, never.get());
  EXPECT_EQ(r.outcome, core::Outcome::Masked);
  EXPECT_NE(never->wants(), 0u);
}

TEST(BeamObserver, ResultsMatchDigestsRecordedBeforeOneShot) {
  // FNV-1a digests of job::beam_result_to_json recorded while the observer
  // still claimed every hook for the whole trial: dropping the claims after
  // the last strike must not move a byte. Covers single-strike accelerated
  // runs (ECC off and on) and multi-strike natural runs.
  auto digest = [](const core::WorkloadFactory& f, BeamMode mode, bool ecc,
                   unsigned runs, double flux) {
    BeamConfig bc;
    bc.runs = runs;
    bc.mode = mode;
    bc.ecc = ecc;
    bc.seed = 0xbea3;
    bc.workers = 2;
    bc.flux_scale = flux;
    return fnv1a64(
        job::beam_result_to_json(run_beam(CrossSectionDb::kepler(), f, bc))
            .dump());
  };
  EXPECT_EQ(digest(mxm_factory(), BeamMode::Accelerated, false, 200, 1.0),
            0x71f1afd85ef25bf2u);
  EXPECT_EQ(digest(mxm_factory(), BeamMode::Natural, false, 30, 0.01),
            0x9e259cbb1c940a0fu);
  EXPECT_EQ(digest(fadd_factory(), BeamMode::Accelerated, true, 100, 1.0),
            0x07dfdd8f749efafau);
}

TEST(Beam, ForkedRunsMatchDigestsRecordedUnforked) {
  // FNV-1a digests of job::beam_result_to_json recorded before accelerated
  // runs forked from shared snapshots (every run simulated from the start):
  // forking must not move a byte, at any worker count or shard split.
  // MERGESORT forks across launches; BFS is host-stepped, so never forks.
  struct Case {
    const char* base;
    Precision precision;
    bool ecc;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"MERGESORT", Precision::Int32, false, 0xe1fef4a77e64e733u},
      {"MERGESORT", Precision::Int32, true, 0xbf907bc850d15a10u},
      {"LAVA", Precision::Single, false, 0xf061bee61f1758e0u},
      {"LAVA", Precision::Single, true, 0x4fce97cc9c31144au},
      {"YOLOV3", Precision::Single, false, 0xa941388bf49f7eacu},
      {"YOLOV3", Precision::Single, true, 0x812aa3f68f759b90u},
      {"BFS", Precision::Int32, false, 0x8a07d52e78c9012bu},
      {"BFS", Precision::Int32, true, 0xbc1f67f61fba2be7u},
  };
  obs::Counter& snapshots =
      obs::Registry::global().counter("gpurel_beam_snapshots_total");
  obs::Counter& forked =
      obs::Registry::global().counter("gpurel_beam_runs_forked_total");
  for (const Case& c : cases) {
    const auto factory =
        kernels::workload_factory(c.base, c.precision, kepler_cfg());
    // `shards` processes of `workers` workers each, merged.
    auto digest = [&](unsigned workers, unsigned shards) {
      BeamResult merged;
      for (unsigned s = 0; s < shards; ++s) {
        BeamConfig bc;
        bc.runs = 60;
        bc.ecc = c.ecc;
        bc.seed = 0xf04c;
        bc.workers = workers;
        bc.shard_index = s;
        bc.shard_count = shards;
        const BeamResult r = run_beam(CrossSectionDb::kepler(), factory, bc);
        if (s == 0)
          merged = r;
        else
          merged.merge(r);
      }
      return fnv1a64(job::beam_result_to_json(merged).dump());
    };
    const std::string what =
        std::string(c.base) + (c.ecc ? " ecc on" : " ecc off");
    const std::uint64_t snaps_before = snapshots.value();
    const std::uint64_t forked_before = forked.value();
    EXPECT_EQ(digest(1, 1), c.digest) << what << ", 1 worker";
    EXPECT_EQ(digest(4, 1), c.digest) << what << ", 4 workers";
    EXPECT_EQ(digest(2, 3), c.digest) << what << ", 3 shards";
    if (std::string(c.base) == "BFS") {
      EXPECT_EQ(snapshots.value(), snaps_before) << what;
      EXPECT_EQ(forked.value(), forked_before) << what;
    } else {
      EXPECT_GT(snapshots.value(), snaps_before) << what;
      EXPECT_GT(forked.value(), forked_before) << what;
    }
  }
}

/// Forwards every hook to a strike observer and records, at each hook it
/// delivers, which hooks the observer claims. Claims the inner observer's
/// hooks plus warp issues, so it sees every issue; the inner observer only
/// receives the hooks it claims itself.
class ClaimProbe final : public sim::SimObserver {
 public:
  explicit ClaimProbe(sim::SimObserver& inner) : inner_(inner) {}

  unsigned wants() const override { return inner_.wants() | kWantsWarpIssue; }

  void on_launch_begin(const sim::LaunchInfo& li, sim::Machine& m) override {
    inner_.on_launch_begin(li, m);
  }
  void on_launch_end(const sim::LaunchStats& st) override {
    inner_.on_launch_end(st);
  }
  void on_time_advance(std::uint64_t from, std::uint64_t to,
                       sim::Machine& m) override {
    seen_.push_back(inner_.wants());
    inner_.on_time_advance(from, to, m);
  }
  void on_warp_issue(const sim::WarpIssue& wi) override {
    const unsigned before = inner_.wants();
    seen_.push_back(before);
    if (before & kWantsWarpIssue) inner_.on_warp_issue(wi);
    // Lanes of the issued kind before this issue, and whether the observer
    // now claims the per-lane hooks for it.
    const UnitKind kind = isa::unit_kind(wi.instr->op);
    const unsigned lanes = static_cast<unsigned>(std::popcount(wi.exec_mask));
    std::uint64_t& n = lanes_[static_cast<std::size_t>(kind)];
    if (inner_.wants() & (kWantsBeforeExec | kWantsAfterExec))
      lane_claims_.push_back({kind, n, n + lanes});
    n += lanes;
  }
  void before_exec(sim::ExecContext& ctx) override { inner_.before_exec(ctx); }
  void after_exec(sim::ExecContext& ctx) override { inner_.after_exec(ctx); }

  struct LaneClaim {
    UnitKind kind;
    std::uint64_t first;  // lane-execution index range [first, end) of the kind
    std::uint64_t end;
  };
  /// inner.wants() at every delivered time advance and warp issue.
  const std::vector<unsigned>& seen() const { return seen_; }
  /// Issues for which the observer claimed the per-lane hooks.
  const std::vector<LaneClaim>& lane_claims() const { return lane_claims_; }

 private:
  sim::SimObserver& inner_;
  std::array<std::uint64_t, static_cast<std::size_t>(UnitKind::kCount)> lanes_{};
  std::vector<unsigned> seen_;
  std::vector<LaneClaim> lane_claims_;
};

TEST(BeamObserver, ClaimsOnlyTheHooksItsPlansNeed) {
  using sim::SimObserver;
  auto w = mxm_factory()();
  sim::Device dev(w->config().gpu);
  w->prepare(dev);
  const sim::LaunchStats& golden = w->golden_stats();
  const unsigned regs = w->max_regs_per_thread();

  // RF / SH / GL / Hidden strikes only ever act on a time advance: before
  // they fire that is all they claim, and afterwards nothing.
  const std::pair<StrikeTarget, std::uint64_t> aux[] = {
      {StrikeTarget::RegisterFile,
       static_cast<std::uint64_t>(golden.warp_cycles / 2)},
      {StrikeTarget::SharedMem,
       static_cast<std::uint64_t>(golden.block_cycles / 2)},
      {StrikeTarget::GlobalMem, golden.cycles / 2},
      {StrikeTarget::Hidden, golden.cycles / 2},
  };
  for (const auto& [target, position] : aux) {
    const std::string what(strike_target_name(target));
    auto strike = detail::strike_observer(target, position, 0x77, regs);
    EXPECT_EQ(strike->wants(), SimObserver::kWantsTimeAdvance) << what;
    ClaimProbe probe(*strike);
    w->run_trial(dev, &probe);
    ASSERT_FALSE(probe.seen().empty()) << what;
    for (const unsigned claims : probe.seen())
      EXPECT_TRUE(claims == SimObserver::kWantsTimeAdvance || claims == 0u)
          << what << " claimed " << claims;
    EXPECT_EQ(probe.seen().front(), SimObserver::kWantsTimeAdvance) << what;
    EXPECT_EQ(strike->wants(), 0u) << what << " did not fire";
  }

  // An FU strike counts issued lanes and claims the per-lane hooks for the
  // one issue that holds its target lane, never before it.
  const std::uint64_t ffma =
      golden.lane_per_unit[static_cast<std::size_t>(UnitKind::FFMA)];
  ASSERT_GT(ffma, 100u);
  const std::uint64_t target = ffma / 2 + 3;
  auto fu = detail::strike_observer(StrikeTarget::FunctionalUnit, target, 0x77,
                                    regs, UnitKind::FFMA);
  EXPECT_EQ(fu->wants(), SimObserver::kWantsWarpIssue);
  ClaimProbe probe(*fu);
  w->run_trial(dev, &probe);
  ASSERT_EQ(probe.lane_claims().size(), 1u);
  const ClaimProbe::LaneClaim& c = probe.lane_claims().front();
  EXPECT_EQ(c.kind, UnitKind::FFMA);
  EXPECT_LE(c.first, target);
  EXPECT_LT(target, c.end);
  for (const unsigned claims : probe.seen())
    EXPECT_TRUE(claims == SimObserver::kWantsWarpIssue || claims == 0u)
        << "claimed " << claims << " between issues";
  EXPECT_EQ(fu->wants(), 0u);
}

}  // namespace
}  // namespace gpurel::beam
