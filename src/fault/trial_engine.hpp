// The trial runtime shared by fault-injection campaigns (fault/campaign.cpp)
// and beam experiments (beam/experiment.cpp). Both run a list of independent
// single-workload trials, each seeded by its index, and classify every one
// as Masked/SDC/DUE; only the trial plan and what a trial simulates differ.
// The engine owns everything else: the prepared workload instances, the
// shard a process owns, guided dynamic dispatch over a worker pool, and the
// per-chunk telemetry event, trace span and progress meter.
//
// Results never depend on the engine's work distribution: callers write
// each trial's outcome into a slot indexed by trial and tally serially after
// run() returns, so any worker count reproduces the single-worker result
// bit for bit (tests/test_determinism.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/workload.hpp"
#include "obs/run_context.hpp"
#include "sim/device.hpp"

namespace gpurel::fault {

/// One worker's workload instance, prepared on its own device and reused for
/// every trial the worker runs (each trial resets device memory).
struct TrialWorker {
  std::unique_ptr<core::Workload> w;
  std::unique_ptr<sim::Device> dev;
  unsigned max_regs = 0;  ///< w->max_regs_per_thread()
};

/// Build a workload with `factory` and prepare it on a fresh device of its
/// GPU. Throws std::invalid_argument naming `caller` when the factory
/// returns null.
TrialWorker prepare_worker(const core::WorkloadFactory& factory,
                           std::string_view caller);

class TrialEngine {
 public:
  /// Prepares the reference instance, which worker 0 inherits; the other
  /// workers prepare their own instance on their first chunk. `kind`
  /// ("campaign", "beam") names the `<kind>_chunk` telemetry event, the
  /// trace category, the "<kind> <workload>" span and progress label, and
  /// the "run_<kind>" prefix of errors; `unit` ("trials", "runs") names the
  /// span's count argument.
  TrialEngine(std::string kind, std::string unit,
              const core::WorkloadFactory& factory, unsigned workers,
              const obs::RunContext& context);

  /// The prepared reference instance (worker 0's).
  TrialWorker& reference() { return workers_[0]; }
  /// Every worker slot; slots of workers that never ran a chunk are empty.
  const std::vector<TrialWorker>& workers() const { return workers_; }

  /// Multi-process sharding: the indices t of [0, count) with
  /// t % shard_count == shard_index, in increasing order. Throws
  /// std::invalid_argument unless shard_index < shard_count.
  std::vector<std::size_t> shard(std::size_t count, unsigned shard_index,
                                 unsigned shard_count) const;

  /// body(worker, begin, end) runs positions [begin, end) on that worker.
  using ChunkBody =
      std::function<void(TrialWorker&, std::size_t, std::size_t)>;
  /// Called once per completed chunk, possibly from several workers at once.
  using ChunkDone = std::function<void(std::size_t, std::size_t)>;

  /// Run positions [0, total) in guided dynamic chunks (each takes
  /// remaining / (4 x workers) positions, clamped to [1, 8]): inline for one
  /// worker, on a pool otherwise.
  /// After each chunk: its trace span, a progress tick, the `<kind>_chunk`
  /// event {begin, end, done, total}, then `on_done`. Blocks until every
  /// chunk finished; rethrows the first exception a chunk raised.
  void run(std::size_t total, const ChunkBody& body,
           const ChunkDone& on_done = nullptr);

 private:
  TrialWorker& worker(std::size_t i);

  std::string kind_;
  std::string unit_;
  core::WorkloadFactory factory_;
  telemetry::Sink* sink_;
  obs::TraceWriter* trace_;
  bool progress_;
  std::vector<TrialWorker> workers_;
};

}  // namespace gpurel::fault
