// Minimal command-line flag parsing for bench and example binaries.
// Supports --name=value, --name value, and bare --flag booleans, plus
// environment-variable fallbacks so the whole bench suite can be scaled
// with GPUREL_RUNS / GPUREL_INJECTIONS without editing invocations.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace gpurel {

/// Parsed flags with typed accessors and defaults.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// String flag; returns `def` when absent.
  std::string get(const std::string& name, const std::string& def = "") const;
  /// Integer flag (base 10); throws std::invalid_argument on malformed value.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// Count flag: an integer in [0, UINT32_MAX] from the flag, else from
  /// environment variable `env` when given, else `def`; throws
  /// std::invalid_argument on a malformed, negative or too-large value.
  unsigned get_uint(const std::string& name, unsigned def,
                    const char* env = nullptr) const;
  /// Double flag; throws std::invalid_argument on malformed value.
  double get_double(const std::string& name, double def) const;
  /// Boolean flag: present without value, or =true/=false.
  bool get_bool(const std::string& name, bool def = false) const;
  /// Whether the flag appeared at all.
  bool has(const std::string& name) const;

  /// Integer from flag, else environment variable `env`, else `def`.
  std::int64_t get_int_env(const std::string& name, const char* env,
                           std::int64_t def) const;

  /// String from flag, else environment variable `env`, else `def` (used by
  /// the observability flags: --metrics-out/GPUREL_METRICS,
  /// --trace-out/GPUREL_TRACE, --telemetry/GPUREL_TELEMETRY).
  std::string get_env(const std::string& name, const char* env,
                      const std::string& def = "") const;

  /// Boolean from flag (e.g. --progress), else environment variable `env`
  /// ("" / "0" / "false" are false, anything else true), else `def`.
  bool get_bool_env(const std::string& name, const char* env, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace gpurel
