// Beam-experiment simulator tests: exposure bookkeeping, ECC behaviour
// (SDCs crushed, DUEs added), the LDST DUE-dominance the paper measures,
// determinism, and the accelerated-vs-natural estimator agreement property.
#include <gtest/gtest.h>

#include "beam/experiment.hpp"
#include "common/bits.hpp"
#include "job/serialize.hpp"
#include "kernels/matmul.hpp"
#include "kernels/microbench.hpp"

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

  auto fires = detail::unit_strike_observer(UnitKind::FFMA, ffma / 2, 0x1234,
                                            w->max_regs_per_thread());
  EXPECT_NE(fires->wants(), 0u);
  w->run_trial(dev, fires.get());
  EXPECT_EQ(fires->wants(), 0u);

  auto never = detail::unit_strike_observer(UnitKind::FFMA, ffma, 0x1234,
                                            w->max_regs_per_thread());
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

}  // namespace
}  // namespace gpurel::beam
