// The trial runtime shared by fault-injection campaigns (fault/campaign.cpp)
// and beam experiments (beam/experiment.cpp). Both run a list of independent
// single-workload trials, each seeded by its index, and classify every one
// as Masked/SDC/DUE; only the trial plan and what a trial simulates differ.
// The engine owns everything else: the prepared workload instances, the
// shard a process owns, guided dynamic dispatch over a worker pool, the
// per-chunk telemetry event, trace span and progress meter, and checkpoint
// forking: one fault-free pass of the reference instance captures snapshots
// at evenly placed marks, and a forked trial resumes from the deepest
// snapshot that precedes its fault instead of simulating the shared prefix.
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
#include "sim/snapshot.hpp"

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
  /// forked-trial counter.
  TrialEngine(std::string kind, std::string unit,
              const core::WorkloadFactory& factory, unsigned workers,
              const obs::RunContext& context);

  /// The prepared reference instance (worker 0's).
  TrialWorker& reference() { return workers_[0]; }
  /// Every worker slot; slots of workers that never ran a chunk are empty.
  const std::vector<TrialWorker>& workers() const { return workers_; }

  /// Up to `epochs` snapshot marks spread evenly over a trial of
  /// `total_lanes` cumulative lane instructions, strictly inside
  /// (0, total_lanes) and strictly increasing (coinciding marks collapse).
  static std::vector<std::uint64_t> even_marks(std::uint64_t total_lanes,
                                               unsigned epochs);

  /// The one fault-free pass of a forked experiment: runs the reference
  /// instance with `observer` attached (may be null), capturing a snapshot
  /// at each of `marks` (see core::Workload::capture_prefix), and keeps the
  /// set for every worker to resume from (read-only, so shared without
  /// locks) until the engine is destroyed. Adds the snapshot count to
  /// gpurel_<kind>_snapshots_total; the `<kind>_snapshot_capture` event
  /// {workload, epochs, image_bytes} follows when run() starts dispatch, so
  /// it comes after the caller's own start event. Returns the set.
  const std::vector<sim::Snapshot>& capture(
      const std::vector<std::uint64_t>& marks, sim::SimObserver* observer);
  /// The captured set (empty before capture()).
  const std::vector<sim::Snapshot>& snapshots() const { return snaps_; }

  /// Resume one trial on `st` from captured snapshot `epoch` (requires
  /// capture()) with `observer` attached, using the delta restore when `st`
  /// last ran from the same snapshot. Adds the restored bytes to
  /// gpurel_<kind>_snapshot_restore_bytes_total and counts the trial in
  /// gpurel_<kind>_<unit>_forked_total.
  core::TrialResult run_forked(TrialWorker& st, std::size_t epoch,
                               sim::SimObserver* observer);

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
  /// Emits a pending `<kind>_snapshot_capture` event first (see capture()).
  /// Each chunk is one obs::ChunkMeter step (event, span, progress tick),
  /// then `on_done`. Blocks until every chunk finished; rethrows the first
  /// exception a chunk raised.
  void run(std::size_t total, const ChunkBody& body,
           const ChunkDone& on_done = nullptr);

 private:
  TrialWorker& worker(std::size_t i);

  std::string kind_;
  std::string unit_;
  core::WorkloadFactory factory_;
  obs::RunContext context_;
  std::vector<TrialWorker> workers_;
  std::vector<sim::Snapshot> snaps_;
  std::uint64_t capture_bytes_ = 0;
  bool capture_pending_ = false;  // capture event not yet emitted
  telemetry::Counter* m_restore_bytes_ = nullptr;  // resolved by capture()
  telemetry::Counter* m_forked_ = nullptr;
};

}  // namespace gpurel::fault
