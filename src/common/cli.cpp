#include "common/cli.hpp"

#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace gpurel {

namespace {

/// Base-10 integer spanning all of `text`; `what` names its source in the
/// error.
std::int64_t parse_int(const std::string& text, const std::string& what) {
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(text, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;  // stoll threw ("abc", out of range): same error
  }
  if (pos != text.size())
    throw std::invalid_argument(what + ": not an integer: " + text);
  return v;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;  // ignore positional arguments
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return parse_int(it->second, "--" + name);
}

unsigned Cli::get_uint(const std::string& name, unsigned def,
                       const char* env) const {
  const std::int64_t v =
      env != nullptr ? get_int_env(name, env, def) : get_int(name, def);
  constexpr std::int64_t kMax = std::numeric_limits<unsigned>::max();
  if (v < 0 || v > kMax)
    throw std::invalid_argument("--" + name + ": not a count in [0, " +
                                std::to_string(kMax) +
                                "]: " + std::to_string(v));
  return static_cast<unsigned>(v);
}

double Cli::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(it->second, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != it->second.size())
    throw std::invalid_argument("--" + name + ": not a number: " + it->second);
  return v;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

bool Cli::has(const std::string& name) const { return values_.count(name) != 0; }

std::int64_t Cli::get_int_env(const std::string& name, const char* env,
                              std::int64_t def) const {
  if (has(name)) return get_int(name, def);
  if (const char* v = std::getenv(env)) return parse_int(v, env);
  return def;
}

std::string Cli::get_env(const std::string& name, const char* env,
                         const std::string& def) const {
  if (has(name)) return get(name);
  if (const char* v = std::getenv(env)) return v;
  return def;
}

bool Cli::get_bool_env(const std::string& name, const char* env,
                       bool def) const {
  if (has(name)) return get_bool(name, def);
  if (const char* v = std::getenv(env)) {
    const std::string s(v);
    return !s.empty() && s != "0" && s != "false";
  }
  return def;
}

}  // namespace gpurel
