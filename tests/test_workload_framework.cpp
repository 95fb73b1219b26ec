// Workload-framework contract tests with a purpose-built workload: watchdog
// budgets, force_due precedence, launch short-circuiting after a DUE, golden
// self-verification, and misuse errors — plus adversarial-input property
// checks on the sorting codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/workload.hpp"
#include "isa/kernel_builder.hpp"
#include "kernels/sort.hpp"

namespace gpurel::core {
namespace {

using isa::CmpOp;
using isa::KernelBuilder;
using isa::Pred;
using isa::Reg;

/// A configurable workload: N sequential launches of a spin kernel, with
/// optional host-forced DUE between them.
class SpinWorkload final : public Workload {
 public:
  SpinWorkload(WorkloadConfig cfg, unsigned launches, unsigned spin_iters,
               bool force_due_after_first = false)
      : Workload(std::move(cfg)),
        launches_(launches),
        spin_iters_(spin_iters),
        force_due_(force_due_after_first) {}

  std::string base_name() const override { return "SPIN"; }
  Precision precision() const override { return Precision::Int32; }

  unsigned launches_done = 0;

 protected:
  void build_programs() override {
    KernelBuilder b("spin", config_.profile);
    Reg out = b.load_param(0);
    Reg i = b.reg(), acc = b.reg();
    b.movi(acc, 0);
    b.for_range_static(i, 0, static_cast<std::int32_t>(spin_iters_), 1,
                       [&] { b.iaddi(acc, acc, 1); });
    Reg tid = b.global_tid_x();
    Reg addr = b.reg();
    b.addr_index(addr, out, tid, 4);
    b.stg(addr, acc);
    program_ = b.build();
    register_program(&program_);
  }

  void setup(sim::Device& dev) override {
    out_ = dev.alloc(64 * 4);
    register_output(out_, 64 * 4);
  }

  void execute(sim::Device& dev, TrialRunner& runner) override {
    (void)dev;
    launches_done = 0;
    for (unsigned l = 0; l < launches_; ++l) {
      sim::KernelLaunch kl{&program_, {1, 1}, {64, 1}, 0, {out_}};
      if (!runner.launch(kl)) return;
      ++launches_done;
      if (force_due_ && l == 0) {
        runner.force_due(sim::DueKind::HiddenResource);
        return;
      }
    }
  }

 private:
  unsigned launches_;
  unsigned spin_iters_;
  bool force_due_;
  isa::Program program_;
  std::uint32_t out_ = 0;
};

WorkloadConfig cfg() {
  return {arch::GpuConfig::kepler_k40c(1), isa::CompilerProfile::Cuda10, 1, 1.0};
}

TEST(WorkloadFramework, MultiLaunchTrialAggregatesStats) {
  SpinWorkload w(cfg(), 3, 64);
  sim::Device dev(w.config().gpu);
  w.prepare(dev);
  const auto r = w.run_trial(dev);
  EXPECT_EQ(r.outcome, Outcome::Masked);
  EXPECT_EQ(w.launches_done, 3u);
  // Stats merged over the three launches.
  SpinWorkload one(cfg(), 1, 64);
  sim::Device dev1(one.config().gpu);
  one.prepare(dev1);
  EXPECT_NEAR(static_cast<double>(r.stats.warp_instructions),
              3.0 * one.golden_stats().warp_instructions, 4.0);
}

TEST(WorkloadFramework, GoldenRunMustBeClean) {
  SpinWorkload w(cfg(), 3, 64, /*force_due_after_first=*/true);
  sim::Device dev(w.config().gpu);
  EXPECT_THROW(w.prepare(dev), std::runtime_error);
}

TEST(WorkloadFramework, WatchdogBudgetCoversWholeTrial) {
  SpinWorkload w(cfg(), 2, 64);
  sim::Device dev(w.config().gpu);
  w.prepare(dev);
  EXPECT_GT(w.watchdog_budget(), w.golden_stats().cycles);
  // A trial with a budget-exceeding observer-free run stays Masked.
  EXPECT_EQ(w.run_trial(dev).outcome, Outcome::Masked);
}

TEST(WorkloadFramework, RunnerRefusesLaunchesAfterDue) {
  SpinWorkload w(cfg(), 1, 32);
  sim::Device dev(w.config().gpu);
  w.prepare(dev);
  TrialRunner runner(dev, nullptr, 0);
  runner.force_due(sim::DueKind::Watchdog);
  EXPECT_TRUE(runner.due());
  sim::KernelLaunch kl{w.programs().front(), {1, 1}, {64, 1}, 0, {4096}};
  EXPECT_FALSE(runner.launch(kl));
  EXPECT_EQ(runner.stats().due, sim::DueKind::Watchdog);
}

TEST(WorkloadFramework, FirstDueKindWins) {
  sim::Device dev(arch::GpuConfig::kepler_k40c(1));
  TrialRunner runner(dev, nullptr, 0);
  runner.force_due(sim::DueKind::InvalidAddress);
  runner.force_due(sim::DueKind::Watchdog);
  EXPECT_EQ(runner.stats().due, sim::DueKind::InvalidAddress);
}

// Regression: the command-line precision parsers mapped any unknown name to
// FP32, so a typo planned, ran and cached a different job.
TEST(WorkloadFramework, ParsePrecisionAcceptsOnlyKnownSpellings) {
  EXPECT_EQ(parse_precision("int"), Precision::Int32);
  EXPECT_EQ(parse_precision("int32"), Precision::Int32);
  EXPECT_EQ(parse_precision("half"), Precision::Half);
  EXPECT_EQ(parse_precision("fp16"), Precision::Half);
  EXPECT_EQ(parse_precision("single"), Precision::Single);
  EXPECT_EQ(parse_precision("fp32"), Precision::Single);
  EXPECT_EQ(parse_precision("double"), Precision::Double);
  EXPECT_EQ(parse_precision("fp64"), Precision::Double);
  for (const char* bad : {"fp32x", "", "FP32", "float", "singl"})
    EXPECT_THROW(parse_precision(bad), std::invalid_argument) << bad;
}

// --- adversarial sorting inputs -------------------------------------------

TEST(SortProperties, MergesortHandlesAllEqualAndSortedInputs) {
  // Different seeds exercise duplicates and near-sorted patterns; results
  // must always match std::sort of the same generated data.
  for (std::uint64_t seed : {1ull, 42ull, 0xffffull}) {
    WorkloadConfig c = cfg();
    c.input_seed = seed;
    kernels::Mergesort w(c, 256);
    sim::Device dev(c.gpu);
    w.prepare(dev);
    ASSERT_EQ(w.run_trial(dev).outcome, Outcome::Masked);
    Rng rng(seed);
    std::vector<std::int32_t> want(256);
    for (auto& v : want)
      v = static_cast<std::int32_t>(rng.uniform_i64(-1000000, 1000000));
    std::sort(want.begin(), want.end());
    const auto got =
        dev.copy_out<std::int32_t>(sim::GlobalMemory::kNullGuard, 256);
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(SortProperties, QuicksortSizesSweep) {
  for (unsigned n : {128u, 192u, 512u}) {
    WorkloadConfig c = cfg();
    kernels::Quicksort w(c, n);
    sim::Device dev(c.gpu);
    w.prepare(dev);
    ASSERT_EQ(w.run_trial(dev).outcome, Outcome::Masked) << n;
    Rng rng(c.input_seed);
    std::vector<std::int32_t> want(n);
    for (auto& v : want)
      v = static_cast<std::int32_t>(rng.uniform_i64(-1000000, 1000000));
    std::sort(want.begin(), want.end());
    const auto got = dev.copy_out<std::int32_t>(sim::GlobalMemory::kNullGuard, n);
    EXPECT_EQ(got, want) << n;
  }
}

}  // namespace
}  // namespace gpurel::core
