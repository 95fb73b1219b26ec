// Campaign observability primitives: monotonic timers, relaxed counters, a
// thread-safe JSONL event sink, and a throttled stderr progress meter. They
// read wall-clock time but never feed anything back into the RNG or the
// scheduling decisions that affect results.
//
// Event format: one JSON object per line (JSONL), each carrying `event` (its
// name) and `t_ms` (milliseconds since the sink was opened, monotonic), e.g.
//
//   {"event":"campaign_start","t_ms":0.012,"injector":"NVBitFI",...}
//
// Engine code reaches the sink and the meter only through obs::RunContext
// (obs/run_context.hpp); docs/ARCHITECTURE.md §8 lists every event.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

namespace gpurel::json {
class Value;
}  // namespace gpurel::json

namespace gpurel::telemetry {

/// Monotonic stopwatch (steady_clock).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  // Observability-only stopwatch: elapsed_ms() feeds progress meters and the
  // telemetry t_ms field, never results or cache keys.
  // gpurel-lint: allow(wall-clock) timing is observability-only, see above
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Relaxed atomic event counter (safe to bump from campaign workers).
class Counter {
 public:
  void add(std::uint64_t n = 1) { n_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return n_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> n_{0};
};

/// One key/value pair of an event. Implicitly constructible from the scalar
/// types events carry; strings are JSON-escaped at serialization time.
class Field {
 public:
  Field(std::string_view key, std::string_view v)
      : key_(key), kind_(Kind::Str), str_(v) {}
  Field(std::string_view key, const char* v)
      : key_(key), kind_(Kind::Str), str_(v == nullptr ? "" : v) {}
  Field(std::string_view key, const std::string& v)
      : key_(key), kind_(Kind::Str), str_(v) {}
  Field(std::string_view key, bool v) : key_(key), kind_(Kind::Bool), b_(v) {}
  Field(std::string_view key, double v) : key_(key), kind_(Kind::Dbl), d_(v) {}
  Field(std::string_view key, std::uint64_t v)
      : key_(key), kind_(Kind::Uint), u_(v) {}
  Field(std::string_view key, std::int64_t v)
      : key_(key), kind_(Kind::Int), i_(v) {}
  // (std::size_t and std::uint64_t are the same type on this platform's
  // LP64 ABI; smaller integers widen through these two.)
  Field(std::string_view key, unsigned v)
      : Field(key, static_cast<std::uint64_t>(v)) {}
  Field(std::string_view key, int v)
      : Field(key, static_cast<std::int64_t>(v)) {}

  /// Appends `"key":value` (no surrounding separators) to `out`.
  void append_to(std::string& out) const;

 private:
  enum class Kind : std::uint8_t { Str, Int, Uint, Dbl, Bool };

  std::string_view key_;
  Kind kind_;
  std::string str_;
  union {
    std::int64_t i_;
    std::uint64_t u_;
    double d_;
    bool b_;
  };
};

/// Append a JSON string literal (quotes + escapes) to `out`.
void append_json_string(std::string& out, std::string_view s);

/// Thread-safe JSONL event sink over a file. Each emit writes and flushes
/// one complete line, so concurrent writers never interleave and a killed
/// process loses at most nothing.
class Sink {
 public:
  /// Opens `path` for append; throws std::runtime_error on failure.
  explicit Sink(const std::string& path);
  ~Sink();

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Emit one event line: {"event":name,"t_ms":...,fields...}.
  void emit(std::string_view event, std::span<const Field> fields);
  void emit(std::string_view event, std::initializer_list<Field> fields) {
    emit(event, std::span<const Field>(fields.begin(), fields.size()));
  }
  /// The same line with the members of a JSON object as its fields.
  void emit(std::string_view event, const json::Value& object);

  std::uint64_t events_emitted() const { return emitted_.value(); }

 private:
  void write(std::string_view event, std::string_view members);

  std::FILE* file_;
  std::mutex mu_;
  Timer since_open_;
  Counter emitted_;
};

/// Throttled "\r[label] done/total" meter on stderr; prints at most every
/// ~100 ms plus a final newline. All methods are thread-safe; a disabled
/// meter is a no-op.
class Progress {
 public:
  Progress(bool enabled, std::string label, std::uint64_t total);
  ~Progress();

  void tick(std::uint64_t n = 1);
  /// Force the final line out (also done by the destructor).
  void finish();

 private:
  void print_line(std::uint64_t done, bool newline);

  bool enabled_;
  std::string label_;
  std::uint64_t total_;
  Counter done_;
  std::mutex mu_;
  Timer since_print_;
  bool printed_ = false;
  bool finished_ = false;
};

}  // namespace gpurel::telemetry
