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

#include "common/bits.hpp"
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

std::set<std::string> cache_entries(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    names.insert(e.path().filename().string());
  return names;
}

TEST(Study, ReportsMatchDigestsRecordedUnforked) {
  // FNV-1a digests of code_report_json and the job cache file names,
  // recorded while the Study's campaigns still ran plain: forking (which
  // every campaign now does when its workload allows it) must move neither a
  // report byte nor a cache key. Covers stage 1 (micro campaigns), one
  // fork-safe code (FMXM) and one that is not (QUICKSORT, host-stepped):
  // stage 1 and FMXM take snapshots, QUICKSORT takes none.
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "gpurel_study_digests";
  std::filesystem::remove_all(root);
  StudyConfig cfg = tiny_config();
  cfg.micro_beam_runs = 20;
  cfg.app_beam_runs = 20;
  cfg.injections_per_kind = 6;
  cfg.micro_injections_per_kind = 6;
  cfg.rf_injections = 6;
  cfg.store_value_injections = 4;
  cfg.store_addr_injections = 4;
  cfg.sched_injections = 4;
  cfg.scoreboard_injections = 4;
  cfg.cta_injections = 4;
  cfg.warp_control_injections = 4;
  cfg.app_scale = 0.2;
  cfg.workers = 2;
  cfg.cache_dir = root.string();
  Study study(arch::GpuConfig::kepler_k40c(2), cfg);

  obs::Counter& snapshots =
      obs::Registry::global().counter("gpurel_campaign_snapshots_total");
  const std::uint64_t before_stage1 = snapshots.value();
  study.fit_inputs();
  EXPECT_GT(snapshots.value(), before_stage1);
  const std::uint64_t s0 = snapshots.value();
  EXPECT_EQ(fnv1a64(code_report_json(
                        study.evaluate({"MXM", Precision::Single}))
                        .dump()),
            0xf9ca4ff3644b69c1u);
  const std::uint64_t s1 = snapshots.value();
  EXPECT_GT(s1, s0);
  EXPECT_EQ(fnv1a64(code_report_json(
                        study.evaluate({"QUICKSORT", Precision::Int32}))
                        .dump()),
            0x266552c163acb40cu);
  EXPECT_EQ(snapshots.value(), s1) << "QUICKSORT is not fork-safe";
  EXPECT_EQ(cache_entries(root), (std::set<std::string>{
                                     "04e54eb8ac0fe270-gpurel-engine-6.json",
                                     "13c41406da39ae52-gpurel-engine-6.json",
                                     "247ff2de297b8e9c-gpurel-engine-6.json",
                                     "33101b0aa94a0b29-gpurel-engine-6.json",
                                     "35321faad287ad78-gpurel-engine-6.json",
                                     "564d15ad80dd974e-gpurel-engine-6.json",
                                     "73db27f2af4312b5-gpurel-engine-6.json",
                                     "bbc47926414e2ba2-gpurel-engine-6.json",
                                     "c916e9c6457074e8-gpurel-engine-6.json",
                                     "ec3ae8743598da07-gpurel-engine-6.json",
                                 }));
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

TEST(Study, MicroRunsHonourProgress) {
  // --progress reaches stage 1's micro beam runs and campaigns, not only
  // the per-code jobs.
  StudyConfig c = tiny_config();
  c.micro_beam_runs = 8;
  c.micro_injections_per_kind = 2;
  c.progress = true;
  Study study(arch::GpuConfig::kepler_k40c(2), c);
  testing::internal::CaptureStderr();
  study.microbenchmarks();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[beam "), std::string::npos) << err;
  EXPECT_NE(err.find("[campaign "), std::string::npos) << err;
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
