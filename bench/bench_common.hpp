// Shared plumbing for the bench harnesses that regenerate the paper's
// tables and figures: flag parsing into a StudyConfig, device selection,
// and normalization helpers.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "core/study.hpp"
#include "obs/export.hpp"

namespace gpurel::bench {

struct BenchOptions {
  core::StudyConfig study;
  std::vector<arch::Architecture> archs;
  unsigned sm_count = 2;
  bool csv = false;
  /// Owns --metrics-out / --trace-out (and their GPUREL_METRICS /
  /// GPUREL_TRACE env fallbacks); flushed when the options go out of scope
  /// at the end of main. study.trace aliases exporter->trace().
  std::shared_ptr<obs::Exporter> exporter;
};

inline BenchOptions parse_options(int argc, char** argv) {
  const Cli cli(argc, argv);
  BenchOptions o;
  o.study.app_beam_runs = static_cast<unsigned>(
      cli.get_int_env("runs", "GPUREL_RUNS", o.study.app_beam_runs));
  o.study.micro_beam_runs = static_cast<unsigned>(cli.get_int_env(
      "micro-runs", "GPUREL_MICRO_RUNS", o.study.micro_beam_runs));
  o.study.injections_per_kind = static_cast<unsigned>(cli.get_int_env(
      "injections", "GPUREL_INJECTIONS", o.study.injections_per_kind));
  o.study.micro_injections_per_kind = static_cast<unsigned>(
      cli.get_int("micro-injections", o.study.micro_injections_per_kind));
  o.study.workers =
      static_cast<unsigned>(cli.get_int_env("workers", "GPUREL_WORKERS", 1));
  // Live progress on stderr; JSONL event telemetry is enabled separately via
  // the GPUREL_TELEMETRY=<path> environment override (see common/telemetry.hpp).
  o.study.progress = cli.get_bool_env("progress", "GPUREL_PROGRESS", false);
  o.study.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  o.study.app_scale = cli.get_double("scale", o.study.app_scale);
  o.sm_count = static_cast<unsigned>(cli.get_int("sms", 2));
  o.csv = cli.get_bool("csv");
  o.exporter = std::make_shared<obs::Exporter>(cli.get("metrics-out"),
                                               cli.get("trace-out"));
  o.study.trace = o.exporter->trace();
  const std::string arch = cli.get("arch", "both");
  if (arch == "kepler" || arch == "both") o.archs.push_back(arch::Architecture::Kepler);
  if (arch == "volta" || arch == "both") o.archs.push_back(arch::Architecture::Volta);
  return o;
}

inline arch::GpuConfig gpu_for(arch::Architecture a, unsigned sms) {
  return a == arch::Architecture::Kepler ? arch::GpuConfig::kepler_k40c(sms)
                                         : arch::GpuConfig::volta_v100(sms);
}

inline void emit(const Table& t, bool csv) {
  if (csv) std::fputs(t.to_csv().c_str(), stdout);
  else std::fputs(t.to_text().c_str(), stdout);
  std::fputc('\n', stdout);
}

/// Flat "metric name -> value" JSON snapshot (the BENCH_simspeed.json
/// format). Merges into an existing snapshot at `path` — keys not in
/// `entries` survive — so bench_simspeed and bench_campaign_throughput can
/// accumulate into one file. No-op when `path` is empty.
inline void write_bench_json(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& entries) {
  if (path.empty()) return;
  json::Value doc = json::Value::object();
  if (std::ifstream in(path); in) {
    std::stringstream text;
    text << in.rdbuf();
    doc = json::Value::parse(text.str());
  }
  for (const auto& [k, v] : entries) doc.set(k, v);
  std::ofstream(path, std::ios::trunc) << doc.dump() << '\n';
}

}  // namespace gpurel::bench
