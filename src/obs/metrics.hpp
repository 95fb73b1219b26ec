// Process-wide metrics registry: named counters, gauges and log-bucketed
// latency histograms, bumped lock-free from campaign/beam workers and
// snapshotted serially into JSON or Prometheus text exposition format.
// Registration (name + label lookup) takes a mutex; the returned references
// are stable for the life of the process, so hot paths resolve a metric once
// and then only touch relaxed atomics. Purely observational: nothing here
// feeds back into RNG, scheduling, or results (see tests/test_determinism).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/telemetry.hpp"

namespace gpurel::obs {

/// Monotonic event count (Prometheus counter semantics): the relaxed atomic
/// counter the event channels use too.
using Counter = telemetry::Counter;

/// Last-written instantaneous value (queue depth, AVF, bench timing).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d);
  /// Monotonic high-water mark (used for queue-depth peaks).
  void set_max(double v);
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed log-bucketed distribution with lock-free observe(). Quantiles are
/// estimated as the upper bound of the bucket holding the requested rank —
/// exact enough for latency reporting given the x2 bucket growth.
class Histogram {
 public:
  explicit Histogram(HistogramBuckets buckets);

  void observe(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const HistogramBuckets& buckets() const { return buckets_; }
  /// Count in bucket i, i in [0, buckets().size()] (last = overflow).
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  /// Bucket-upper-bound quantile estimate, q in [0, 1]; 0 when empty.
  /// Observations in the overflow bucket report the last finite bound.
  double quantile(double q) const;

 private:
  HistogramBuckets buckets_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Label set attached to a metric, e.g. {{"kind","FADD"},{"outcome","sdc"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Layout version stamped into Registry::to_json() documents (lint rule
/// schema-version / S1). Bump on any field change.
inline constexpr int kMetricsSchemaVersion = 1;

class Registry {
 public:
  /// The process-wide registry used by the runtime, benches and examples.
  static Registry& global();

  /// Find-or-create. The reference stays valid for the registry's lifetime.
  /// Throws std::logic_error if the (name, labels) key already exists with a
  /// different metric type.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {},
                       const HistogramBuckets& buckets =
                           HistogramBuckets::latency_ms());

  /// {"schema_version":N,"metrics":[{name, type, labels,
  ///  value | count/sum/p50/p90/p99/buckets}]} with N = kMetricsSchemaVersion.
  std::string to_json() const;
  /// Prometheus text exposition format (# TYPE lines, _bucket/_sum/_count
  /// series with cumulative le labels for histograms).
  std::string to_prometheus() const;
  /// Serialize to a file; warns on stderr and returns false on I/O failure
  /// (observability must not kill a campaign).
  bool write_json(const std::string& path) const;
  bool write_prometheus(const std::string& path) const;

  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Metric {
    Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric& find_or_create(std::string_view name, Labels&& labels, Kind kind,
                         const HistogramBuckets* buckets);

  mutable std::mutex mu_;
  // Keyed by name + serialized labels; map iteration gives the sorted,
  // deterministic export order both formats rely on.
  std::map<std::string, Metric> metrics_;
};

}  // namespace gpurel::obs
