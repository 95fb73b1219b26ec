#include "obs/export.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "obs/metrics.hpp"

#ifdef __linux__
#include <cstring>
#include <fstream>
#include <string>
#endif

namespace gpurel::obs {

namespace {

/// Peak resident set size of this process in bytes (0 where unavailable).
double peak_rss_bytes() {
#ifdef __linux__
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    // "VmHWM:     12345 kB"
    return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
  }
#endif
  return 0.0;
}

}  // namespace

std::string prometheus_path_for(const std::string& metrics_path) {
  const std::string json_ext = ".json";
  if (metrics_path.size() > json_ext.size() &&
      metrics_path.compare(metrics_path.size() - json_ext.size(),
                           json_ext.size(), json_ext) == 0)
    return metrics_path.substr(0, metrics_path.size() - json_ext.size()) +
           ".prom";
  return metrics_path + ".prom";
}

Exporter::Exporter(std::string metrics_path, std::string trace_path)
    : metrics_path_(std::move(metrics_path)) {
  if (metrics_path_.empty()) {
    const char* env = std::getenv("GPUREL_METRICS");
    if (env != nullptr) metrics_path_ = env;
  }
  if (!trace_path.empty()) {
    try {
      owned_trace_ = std::make_unique<TraceWriter>(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gpurel: --trace-out disabled: %s\n", e.what());
    }
  }
}

Exporter::~Exporter() { flush(); }

void Exporter::flush() {
  if (flushed_) return;
  flushed_ = true;
  if (owned_trace_ != nullptr) owned_trace_->close();
  if (metrics_path_.empty()) return;
  Registry& reg = Registry::global();
  if (const double rss = peak_rss_bytes(); rss > 0.0)
    reg.gauge("gpurel_process_peak_rss_bytes").set_max(rss);
  reg.write_json(metrics_path_);
  reg.write_prometheus(prometheus_path_for(metrics_path_));
}

}  // namespace gpurel::obs
