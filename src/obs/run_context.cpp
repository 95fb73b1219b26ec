#include "obs/run_context.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>
#include <vector>

namespace gpurel::obs {

namespace {

/// The process-wide channel at $`var`, opened on first use and kept until
/// exit. An unusable path warns and leaves the channel off rather than kill a
/// long run (configured channels still throw: the caller asked for the file).
template <class Channel>
Channel* open_env(const char* var) {
  const char* path = std::getenv(var);
  if (path == nullptr || *path == '\0') return nullptr;
  try {
    return new Channel(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpurel: %s disabled: %s\n", var, e.what());
    return nullptr;
  }
}

telemetry::Sink* env_sink() {
  static telemetry::Sink* const sink =
      open_env<telemetry::Sink>("GPUREL_TELEMETRY");
  return sink;
}

TraceWriter* env_trace() {
  static TraceWriter* const writer = [] {
    TraceWriter* w = open_env<TraceWriter>("GPUREL_TRACE");
    // The closing bracket keeps the file valid JSON without a close() call.
    if (w != nullptr) std::atexit([] { env_trace()->close(); });
    return w;
  }();
  return writer;
}

telemetry::Sink* sink_of(const RunContext& c) {
  return c.telemetry != nullptr ? c.telemetry : env_sink();
}

TraceWriter* writer_of(const RunContext& c) {
  return c.trace != nullptr ? c.trace : env_trace();
}

}  // namespace

void RunContext::event(std::string_view name,
                       std::initializer_list<telemetry::Field> fields) const {
  if (telemetry::Sink* sink = sink_of(*this)) sink->emit(name, fields);
}

void RunContext::event(std::string_view name, const json::Value& object) const {
  if (telemetry::Sink* sink = sink_of(*this)) sink->emit(name, object);
}

Step RunContext::step(std::string event, std::string span,
                      std::string category, int tid) const {
  return {*this, std::move(event), std::move(span), std::move(category), tid};
}

Step RunContext::stage(std::string event, std::string span) const {
  return {*this, std::move(event), std::move(span), "study", kStudyTid, true};
}

TraceWriter* RunContext::sim_timeline() const { return writer_of(*this); }

void Step::end(std::initializer_list<telemetry::Field> fields) {
  const double ms = timer.elapsed_ms();
  telemetry::Sink* sink = sink_of(ctx);
  TraceWriter* writer = writer_of(ctx);
  if (sink != nullptr || writer != nullptr) {
    std::vector<telemetry::Field> all(fields);
    all.emplace_back("wall_ms", ms);
    if (sink != nullptr) sink->emit(event, all);
    if (writer != nullptr) {
      writer->name_process(kWallPid, "gpurel runtime (wall clock)");
      writer->name_thread(kWallPid, tid,
                          tid == kStudyTid ? std::string("study stages")
                                           : "worker " + std::to_string(tid));
      writer->complete(span, category, kWallPid, tid,
                       writer->now_us() - ms * 1000.0, ms * 1000.0, all);
    }
  }
  if (meter != nullptr) meter->tick(ticks);
  if (stage_line && ctx.progress)
    std::fprintf(stderr, "[study] %s done in %.2f s\n", span.c_str(),
                 ms / 1000.0);
}

ChunkMeter::ChunkMeter(const RunContext& ctx, std::string event,
                       std::string label, std::string category,
                       std::uint64_t total)
    : proto_{ctx, std::move(event), label, std::move(category)},
      progress_(ctx.progress, std::move(label), total) {}

Step ChunkMeter::chunk(int tid, std::uint64_t n) {
  return {proto_.ctx, proto_.event, proto_.span, proto_.category,
          tid,        false,        &progress_,  n};
}

}  // namespace gpurel::obs
