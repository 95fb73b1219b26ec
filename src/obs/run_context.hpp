// The observability context of a run and the one path its events take:
// CampaignConfig / BeamConfig / StudyConfig inherit it, job::RunOptions
// carries it, and every layer reports one call per fact through it — an
// event (one JSONL line) or a timed step, whose end() fans out to JSONL,
// trace and progress. Unset channels fall back to GPUREL_TELEMETRY /
// GPUREL_TRACE here and nowhere else (lint rule emission-path). Channels
// only read clocks, so results are bit-identical whatever they point at
// (tests/test_determinism.cpp). Schema: docs/ARCHITECTURE.md §8.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/telemetry.hpp"
#include "obs/trace.hpp"

namespace gpurel::obs {

/// Wall-clock trace track of the Study stages (worker tracks are 0..N).
inline constexpr int kStudyTid = 1000;

struct Step;

struct RunContext {
  telemetry::Sink* telemetry = nullptr;  ///< JSONL; null: GPUREL_TELEMETRY
  TraceWriter* trace = nullptr;          ///< timeline; null: GPUREL_TRACE
  bool progress = false;                 ///< live progress on stderr

  /// One JSONL line {"event":name,"t_ms":...,fields...}.
  void event(std::string_view name,
             std::initializer_list<telemetry::Field> fields) const;
  /// The same with a JSON object's members (a record's own serialization).
  void event(std::string_view name, const json::Value& object) const;
  /// A timed step; its end() writes JSONL `event` and the span `span` in
  /// `category` on wall-clock track `tid`.
  Step step(std::string event, std::string span, std::string category,
            int tid = 0) const;
  /// A Study stage step (category "study", track kStudyTid); its end() also
  /// prints "[study] <span> done in <s> s" when progress is on.
  Step stage(std::string event, std::string span) const;
  /// The writer simulated-time timelines (profile::profile_workload) use.
  TraceWriter* sim_timeline() const;
};

/// A timed fact in flight; its clock starts when it is made.
struct Step {
  /// Fan out: the JSONL event with `fields` plus wall_ms, one trace span with
  /// the same fields as args, and progress. An unended step writes nothing.
  void end(std::initializer_list<telemetry::Field> fields);
  double elapsed_ms() const { return timer.elapsed_ms(); }

  RunContext ctx;
  std::string event, span, category;
  int tid = 0;
  bool stage_line = false;               ///< print one progress line at end()
  telemetry::Progress* meter = nullptr;  ///< ticked by `ticks` at end()
  std::uint64_t ticks = 0;
  telemetry::Timer timer{};
};

/// The "\r[<label>] done/total" meter of one dispatched run. Its chunk steps
/// write `event` and the span `label` in `category`, and tick the meter.
class ChunkMeter {
 public:
  ChunkMeter(const RunContext& ctx, std::string event, std::string label,
             std::string category, std::uint64_t total);
  /// A chunk of `n` positions on worker track `tid`.
  Step chunk(int tid, std::uint64_t n);

 private:
  Step proto_;
  telemetry::Progress progress_;
};

}  // namespace gpurel::obs
