// Chrome-trace / Perfetto timeline output. A TraceWriter streams a valid
// JSON array of trace events ("X" complete spans plus "M" metadata) to a
// file; load the result in https://ui.perfetto.dev or chrome://tracing.
//
// Two process groups (pids) keep wall-clock and simulated time apart:
//   kWallPid — the steps of obs::RunContext: campaign/beam chunks per worker
//              thread, whole runs, job steps, Study stages (ts = wall-clock
//              microseconds since the writer opened);
//   kSimPid  — kernel launches and per-SM block residency emitted by
//              obs::SimTracer (ts = simulated cycles, rendered as "us").
//
// Like telemetry, tracing is strictly observational: it reads timestamps and
// simulator state but never feeds anything back into RNG, scheduling, or
// results (pinned by tests/test_determinism.cpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/telemetry.hpp"

namespace gpurel::obs {

/// Wall-clock track group: RunContext steps (tid = worker, or kStudyTid).
inline constexpr int kWallPid = 1;
/// Simulated-cycles track group: kernel spans and SM residency lanes.
inline constexpr int kSimPid = 2;

class TraceWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Wall-clock microseconds since this writer was opened (span timestamps
  /// in the kWallPid group use this clock).
  double now_us() const { return since_open_.elapsed_ms() * 1000.0; }

  /// Emit one complete ("X") span. `args` become the event's args object.
  void complete(std::string_view name, std::string_view category, int pid,
                int tid, double ts_us, double dur_us,
                std::span<const telemetry::Field> args);
  void complete(std::string_view name, std::string_view category, int pid,
                int tid, double ts_us, double dur_us,
                std::initializer_list<telemetry::Field> args = {}) {
    complete(name, category, pid, tid, ts_us, dur_us,
             std::span<const telemetry::Field>(args.begin(), args.size()));
  }

  /// Name a track group / track in the viewer. Idempotent per (pid[, tid]).
  void name_process(int pid, std::string_view name);
  void name_thread(int pid, int tid, std::string_view name);

  std::uint64_t events_emitted() const { return emitted_.value(); }

  /// Write the closing bracket and close the file (also done by the
  /// destructor). Further emits are dropped.
  void close();

 private:
  void emit(const std::string& event_json);
  void name_track(const char* kind, int pid, int tid, std::string_view name);

  std::FILE* file_;
  std::mutex mu_;
  telemetry::Timer since_open_;
  telemetry::Counter emitted_;
  bool first_ = true;
  std::set<std::pair<int, int>> named_tracks_;  // (pid, tid); tid -1: process
};

}  // namespace gpurel::obs
