#include "obs/trace.hpp"

#include <cmath>
#include <stdexcept>

namespace gpurel::obs {

namespace {

void append_ts(std::string& out, double us) {
  if (!std::isfinite(us)) us = 0.0;
  char buf[40];
  // Chrome trace-event timestamps are microseconds with fixed millisecond
  // precision by convention; the viewer owns this format, we just feed it.
  // gpurel-lint: allow(float-format) externally-owned trace-event format
  std::snprintf(buf, sizeof buf, "%.3f", us);
  out += buf;
}

void append_common(std::string& out, std::string_view name,
                   std::string_view category, int pid, int tid, double ts_us) {
  out += "\"name\":";
  telemetry::append_json_string(out, name);
  out += ",\"cat\":";
  telemetry::append_json_string(out, category);
  out += ",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"ts\":";
  append_ts(out, ts_us);
}

void append_args(std::string& out, std::span<const telemetry::Field> args) {
  out += ",\"args\":{";
  bool first = true;
  for (const auto& f : args) {
    if (!first) out += ',';
    first = false;
    f.append_to(out);
  }
  out += '}';
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr)
    throw std::runtime_error("TraceWriter: cannot open '" + path +
                             "' for writing");
  std::fputs("[\n", file_);
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fputs("\n]\n", file_);
  std::fclose(file_);
  file_ = nullptr;
}

void TraceWriter::emit(const std::string& event_json) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  if (!first_) std::fputs(",\n", file_);
  first_ = false;
  std::fwrite(event_json.data(), 1, event_json.size(), file_);
  emitted_.add();
}

void TraceWriter::complete(std::string_view name, std::string_view category,
                           int pid, int tid, double ts_us, double dur_us,
                           std::span<const telemetry::Field> args) {
  // Chrome/Perfetto own the trace-event schema ("ph"/"ts"/"dur"/...); a
  // schema_version field is not part of that format.
  // gpurel-lint: allow(schema-version) externally-owned trace-event format
  std::string out = "{\"ph\":\"X\",";
  append_common(out, name, category, pid, tid, ts_us);
  out += ",\"dur\":";
  append_ts(out, dur_us < 0.0 ? 0.0 : dur_us);
  append_args(out, args);
  out += '}';
  emit(out);
}

void TraceWriter::name_process(int pid, std::string_view name) {
  name_track("process_name", pid, -1, name);
}

void TraceWriter::name_thread(int pid, int tid, std::string_view name) {
  name_track("thread_name", pid, tid, name);
}

void TraceWriter::name_track(const char* kind, int pid, int tid,
                             std::string_view name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!named_tracks_.insert({pid, tid}).second) return;
  }
  std::string out = std::string("{\"ph\":\"M\",\"name\":\"") + kind +
                    "\",\"pid\":" + std::to_string(pid);
  if (tid >= 0) out += ",\"tid\":" + std::to_string(tid);
  out += ",\"ts\":0,\"args\":{";
  telemetry::Field("name", name).append_to(out);
  out += "}}";
  emit(out);
}

}  // namespace gpurel::obs
