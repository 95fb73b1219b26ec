// BAD fixture for rule emission-path (O1): a Study-layer step that resolves
// the channels itself and writes each one separately. Analyzed by
// test_lint.cpp as src/core/<this>; never compiled.
#include "common/telemetry.hpp"
#include "obs/run_context.hpp"

void stage_done(const gpurel::obs::RunContext& ctx, double ms) {
  gpurel::telemetry::Sink* sink = gpurel::telemetry::resolve(ctx.telemetry);
  if (sink != nullptr) sink->emit("study_stage", {{"wall_ms", ms}});
  if (gpurel::obs::TraceWriter* trace = ctx.resolved_trace())
    trace->complete("profile", "study", 1, 1000, trace->now_us(), ms);
  gpurel::telemetry::Progress meter(ctx.progress, "stage", 1);
  meter.tick();
}
