// Command-line plumbing shared by bench and example mains: one Exporter
// owns the optional --trace-out writer and, on flush/destruction, snapshots
// the global metrics registry to --metrics-out as JSON plus the Prometheus
// text exposition alongside it. An empty metrics path falls back to the
// GPUREL_METRICS environment variable; an empty trace path leaves trace()
// null, and the run's obs::RunContext then falls back to GPUREL_TRACE.
#pragma once

#include <memory>
#include <string>

#include "obs/trace.hpp"

namespace gpurel::obs {

/// Where the Prometheus rendering of `metrics_path` goes: the same path with
/// a ".json" suffix swapped for ".prom", else path + ".prom".
std::string prometheus_path_for(const std::string& metrics_path);

class Exporter {
 public:
  /// Paths may be empty (see above). An unopenable trace path warns and
  /// disables tracing rather than aborting the run.
  Exporter(std::string metrics_path, std::string trace_path);
  ~Exporter();

  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  /// The --trace-out writer, to set as a RunContext's `trace`; null without
  /// one. (Metrics need no handle: the registry is process-global.)
  TraceWriter* trace() const { return owned_trace_.get(); }

  /// Write metrics (JSON + Prometheus) and close the trace. Idempotent;
  /// also run by the destructor.
  void flush();

 private:
  std::string metrics_path_;
  std::unique_ptr<TraceWriter> owned_trace_;
  bool flushed_ = false;
};

}  // namespace gpurel::obs
