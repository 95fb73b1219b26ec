// GOOD fixture for rule emission-path (O1): the same Study-layer step as one
// RunContext stage step, which fans out to JSONL, trace and progress. Other
// emit() calls — KernelBuilder::emit, the bench harness's table emit — are
// unrelated and stay legal. Analyzed by test_lint.cpp as src/core/<this>;
// never compiled.
#include "bench/bench_common.hpp"
#include "isa/kernel_builder.hpp"
#include "obs/run_context.hpp"

void profile_stage(const gpurel::obs::RunContext& ctx, const gpurel::Table& t) {
  gpurel::obs::Step step = ctx.stage("study_stage", "profile");
  gpurel::bench::emit(t, /*csv=*/false);
  step.end({{"stage", 2}, {"name", "profile"}});
}

void gpurel::isa::KernelBuilder::bar() { emit({.op = Opcode::BAR}); }
