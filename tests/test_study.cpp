// End-to-end tests of the Study orchestration at miniature campaign sizes:
// microbenchmark characterization feeds the model inputs, code evaluations
// carry all the pieces, the Kepler library substitution engages, and the
// headline relationships (prediction within a sane band of beam; DUE
// underestimated) hold on a spot-checked code.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "core/study.hpp"
#include "obs/metrics.hpp"

namespace gpurel::core {
namespace {

StudyConfig tiny_config() {
  StudyConfig c;
  c.micro_beam_runs = 60;
  c.app_beam_runs = 60;
  c.injections_per_kind = 12;
  c.micro_injections_per_kind = 10;
  c.rf_injections = 10;
  c.pred_injections = 8;
  c.ia_injections = 8;
  c.app_scale = 0.4;
  c.micro_scale = 0.1;
  c.seed = 77;
  return c;
}

// A Study whose campaigns never fork: auto-forking is an execution knob of
// job::RunOptions, so turning it off must change neither a result nor a job
// cache key.
class NoForkStudy final : public Study {
 public:
  using Study::Study;

 protected:
  job::RunOptions run_options() const override {
    job::RunOptions opts = Study::run_options();
    opts.auto_fork = false;
    return opts;
  }
};

std::set<std::string> cache_entries(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    names.insert(e.path().filename().string());
  return names;
}

TEST(Study, AutoForkChangesNeitherReportsNorCacheKeys) {
  // Stage 1 (micro campaigns), one fork-safe code (FMXM) and one that is
  // not (QUICKSORT, host-stepped): the forking Study must take snapshots in
  // stage 1 and for FMXM but none for QUICKSORT, and produce byte-identical
  // reports and the same cache entries as a Study that never forks.
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "gpurel_study_auto_fork";
  std::filesystem::remove_all(root);
  StudyConfig forked_cfg = tiny_config();
  forked_cfg.micro_beam_runs = 20;
  forked_cfg.app_beam_runs = 20;
  forked_cfg.injections_per_kind = 6;
  forked_cfg.micro_injections_per_kind = 6;
  forked_cfg.rf_injections = 6;
  forked_cfg.store_value_injections = 4;
  forked_cfg.store_addr_injections = 4;
  forked_cfg.sched_injections = 4;
  forked_cfg.scoreboard_injections = 4;
  forked_cfg.cta_injections = 4;
  forked_cfg.warp_control_injections = 4;
  forked_cfg.app_scale = 0.2;
  forked_cfg.workers = 2;
  StudyConfig plain_cfg = forked_cfg;
  forked_cfg.cache_dir = (root / "forked").string();
  plain_cfg.cache_dir = (root / "plain").string();
  Study forked(arch::GpuConfig::kepler_k40c(2), forked_cfg);
  NoForkStudy plain(arch::GpuConfig::kepler_k40c(2), plain_cfg);

  obs::Counter& snapshots =
      obs::Registry::global().counter("gpurel_campaign_snapshots_total");
  const std::uint64_t before_stage1 = snapshots.value();
  forked.fit_inputs();
  EXPECT_GT(snapshots.value(), before_stage1);
  const std::uint64_t after_stage1 = snapshots.value();
  plain.fit_inputs();
  EXPECT_EQ(snapshots.value(), after_stage1);
  for (const kernels::CatalogEntry& e :
       {kernels::CatalogEntry{"MXM", Precision::Single},
        kernels::CatalogEntry{"QUICKSORT", Precision::Int32}}) {
    const std::uint64_t s0 = snapshots.value();
    const std::string a = code_report_json(forked.evaluate(e)).dump();
    const std::uint64_t s1 = snapshots.value();
    const std::string b = code_report_json(plain.evaluate(e)).dump();
    EXPECT_EQ(snapshots.value(), s1) << e.base;  // the plain Study never forks
    if (e.base == "MXM") EXPECT_GT(s1, s0);
    else EXPECT_EQ(s1, s0) << "QUICKSORT is not fork-safe";
    EXPECT_EQ(a, b) << e.base;
  }
  const std::set<std::string> keys = cache_entries(root / "forked");
  EXPECT_FALSE(keys.empty());
  EXPECT_EQ(keys, cache_entries(root / "plain"));
  std::filesystem::remove_all(root);
}

TEST(Study, MicrobenchmarksCoverEveryUnitTheModelNeeds) {
  Study study(arch::GpuConfig::kepler_k40c(2), tiny_config());
  const auto& micro = study.microbenchmarks();
  EXPECT_GE(micro.size(), 8u);  // Fig. 3 Kepler catalog (+LDST already there)
  bool saw_rf = false;
  for (const auto& mc : micro) {
    if (mc.is_rf) {
      saw_rf = true;
      EXPECT_GT(mc.exposed_bits, 0.0);
    } else {
      EXPECT_GT(mc.micro_avf, 0.5) << mc.name;  // paper: >70%, 100% for INT
    }
  }
  EXPECT_TRUE(saw_rf);

  const auto& in = study.fit_inputs();
  for (auto k : {isa::UnitKind::FADD, isa::UnitKind::FMUL, isa::UnitKind::FFMA,
                 isa::UnitKind::IADD, isa::UnitKind::IMUL, isa::UnitKind::IMAD,
                 isa::UnitKind::LDST}) {
    EXPECT_TRUE(in.unit(k).measured) << unit_kind_name(k);
    EXPECT_GT(in.unit(k).fit_sdc, 0.0) << unit_kind_name(k);
  }
  EXPECT_GT(in.sram_bit_fit_sdc, 0.0);
}

TEST(Study, VoltaInputsIncludeTensorAndBorrowedHalfAvf) {
  Study study(arch::GpuConfig::volta_v100(2), tiny_config());
  const auto& in = study.fit_inputs();
  EXPECT_TRUE(in.unit(isa::UnitKind::MMA_H).measured);
  EXPECT_TRUE(in.unit(isa::UnitKind::MMA_F).measured);
  EXPECT_TRUE(in.unit(isa::UnitKind::HFMA).measured);
  // NVBitFI cannot inject FP16: the masking estimate is borrowed from FP32.
  EXPECT_NEAR(in.unit(isa::UnitKind::HFMA).micro_avf,
              in.unit(isa::UnitKind::FFMA).micro_avf, 1e-12);
  // LDST is characterized for the model even though Fig. 3 (Volta) omits it.
  EXPECT_TRUE(in.unit(isa::UnitKind::LDST).measured);
}

TEST(Study, EvaluateCarriesAllPieces) {
  Study study(arch::GpuConfig::kepler_k40c(2), tiny_config());
  const auto ev = study.evaluate({"MXM", Precision::Single});
  EXPECT_EQ(ev.name, "FMXM");
  EXPECT_GT(ev.profile.ipc, 0.0);
  ASSERT_TRUE(ev.profile_cuda7.has_value());
  // The two toolchains generate different code: dynamic counts differ.
  EXPECT_NE(ev.profile_cuda7->lane_instructions, ev.profile.lane_instructions);
  ASSERT_TRUE(ev.sassifi.has_value());
  ASSERT_TRUE(ev.nvbitfi.has_value());
  EXPECT_FALSE(ev.nvbitfi_substituted);
  EXPECT_GT(ev.beam_ecc_off.outcomes.total(), 0u);
  ASSERT_TRUE(ev.pred_sassifi_off.has_value());
  ASSERT_TRUE(ev.pred_nvbitfi_off.has_value());
  // ECC-off prediction adds the memory term on top of the instruction term.
  EXPECT_GT(ev.pred_nvbitfi_off->sdc, ev.pred_nvbitfi_on->sdc);
  EXPECT_DOUBLE_EQ(ev.pred_nvbitfi_on->sdc_mem, 0.0);
}

TEST(Study, KeplerLibraryCodeUsesVoltaSubstitution) {
  Study study(arch::GpuConfig::kepler_k40c(2), tiny_config());
  const auto ev = study.evaluate(
      {"GEMM", Precision::Single},
      {.injections = true, .beam = false, .predictions = false});
  EXPECT_FALSE(ev.sassifi.has_value());  // SASSIFI can't touch libraries
  ASSERT_TRUE(ev.nvbitfi.has_value());
  EXPECT_TRUE(ev.nvbitfi_substituted);   // AVF measured on Volta (§III-D)
}

TEST(Study, DuePredictionIsUnderestimated) {
  Study study(arch::GpuConfig::kepler_k40c(2), tiny_config());
  const auto ev = study.evaluate({"MXM", Precision::Single});
  ASSERT_TRUE(ev.pred_nvbitfi_off.has_value());
  if (ev.beam_ecc_off.fit_due > 0.0) {
    EXPECT_GT(ev.beam_ecc_off.fit_due, ev.pred_nvbitfi_off->due);
  }
}


TEST(Study, HalfPrecisionAvfGraftedFromSingle) {
  Study study(arch::GpuConfig::volta_v100(2), tiny_config());
  const auto ev = study.evaluate(
      {"MXM", Precision::Half},
      {.injections = true, .beam = false, .predictions = false});
  ASSERT_TRUE(ev.nvbitfi.has_value());
  // NVBitFI itself saw no FP16 sites...
  EXPECT_EQ(ev.nvbitfi->kind(isa::UnitKind::HFMA).dynamic_sites, 0u);
  // ...but the grafted FP32-variant AVF feeds the Eq. 2 prediction.
  EXPECT_TRUE(ev.half_avf_substituted);
  EXPECT_GT(ev.nvbitfi->kind(isa::UnitKind::HFMA).counts.total(), 0u);
}

TEST(Study, ReportRendersWithoutCrashing) {
  Study study(arch::GpuConfig::kepler_k40c(2), tiny_config());
  const auto ev = study.evaluate({"NW", Precision::Int32});
  std::ostringstream ss;
  write_code_report(ss, ev);
  const std::string text = ss.str();
  EXPECT_NE(text.find("=== NW ==="), std::string::npos);
  EXPECT_NE(text.find("IPC"), std::string::npos);
  EXPECT_NE(text.find("SASSIFI"), std::string::npos);
  std::ostringstream ms;
  write_micro_report(ms, study.microbenchmarks());
  EXPECT_NE(ms.str().find("RF"), std::string::npos);
}

TEST(Report, VerdictLanguage) {
  EXPECT_NE(prediction_verdict(10.0, 4.0).find("within"), std::string::npos);
  EXPECT_NE(prediction_verdict(100.0, 1.0).find("underestimated"),
            std::string::npos);
  EXPECT_NE(prediction_verdict(1.0, 100.0).find("overestimated"),
            std::string::npos);
  EXPECT_NE(prediction_verdict(0.0, 0.0).find("no events"), std::string::npos);
}

TEST(Study, CatalogsMatchDevice) {
  Study kepler(arch::GpuConfig::kepler_k40c(2), tiny_config());
  Study volta(arch::GpuConfig::volta_v100(2), tiny_config());
  EXPECT_EQ(kepler.app_catalog().size(), 13u);
  EXPECT_EQ(volta.app_catalog().size(), 16u);
  EXPECT_EQ(kepler.micro_catalog().size(), 8u);
  EXPECT_EQ(volta.micro_catalog().size(), 15u);
}

}  // namespace
}  // namespace gpurel::core
