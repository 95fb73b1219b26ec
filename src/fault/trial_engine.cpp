#include "fault/trial_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace gpurel::fault {

TrialWorker prepare_worker(const core::WorkloadFactory& factory,
                           std::string_view caller) {
  TrialWorker st;
  st.w = factory();
  if (!st.w)
    throw std::invalid_argument(std::string(caller) +
                                ": factory returned null");
  st.dev = std::make_unique<sim::Device>(st.w->config().gpu);
  st.w->prepare(*st.dev);
  st.max_regs = st.w->max_regs_per_thread();
  return st;
}

TrialEngine::TrialEngine(std::string kind, std::string unit,
                         const core::WorkloadFactory& factory,
                         unsigned workers, const obs::RunContext& context)
    : kind_(std::move(kind)),
      unit_(std::move(unit)),
      factory_(factory),
      context_(context),
      workers_(std::max(1u, workers)) {
  workers_[0] = prepare_worker(factory_, "run_" + kind_);
}

std::vector<std::size_t> TrialEngine::shard(std::size_t count,
                                            unsigned shard_index,
                                            unsigned shard_count) const {
  if (shard_count == 0 || shard_index >= shard_count)
    throw std::invalid_argument("run_" + kind_ +
                                ": shard_index must be < shard_count (>= 1)");
  std::vector<std::size_t> owned;
  owned.reserve(count / shard_count + 1);
  for (std::size_t t = shard_index; t < count; t += shard_count)
    owned.push_back(t);
  return owned;
}

std::vector<std::uint64_t> TrialEngine::even_marks(std::uint64_t total_lanes,
                                                   unsigned epochs) {
  std::vector<std::uint64_t> marks;
  for (unsigned i = 1; i <= epochs; ++i) {
    const std::uint64_t m = total_lanes / (epochs + 1) * i +
                            total_lanes % (epochs + 1) * i / (epochs + 1);
    if (m == 0 || m >= total_lanes) continue;
    if (!marks.empty() && marks.back() == m) continue;
    marks.push_back(m);
  }
  return marks;
}

const std::vector<sim::Snapshot>& TrialEngine::capture(
    const std::vector<std::uint64_t>& marks, sim::SimObserver* observer) {
  TrialWorker& ref = reference();
  snaps_.clear();
  ref.w->capture_prefix(*ref.dev, marks, snaps_, observer);
  std::uint64_t bytes = 0;
  for (const sim::Snapshot& s : snaps_) bytes += s.bytes();
  auto& metrics = obs::Registry::global();
  metrics.counter("gpurel_" + kind_ + "_snapshots_total").add(snaps_.size());
  m_restore_bytes_ =
      &metrics.counter("gpurel_" + kind_ + "_snapshot_restore_bytes_total");
  m_forked_ =
      &metrics.counter("gpurel_" + kind_ + "_" + unit_ + "_forked_total");
  capture_bytes_ = bytes;
  capture_pending_ = true;
  return snaps_;
}

core::TrialResult TrialEngine::run_forked(TrialWorker& st, std::size_t epoch,
                                          sim::SimObserver* observer) {
  core::TrialResult r =
      st.w->run_trial_forked(*st.dev, snaps_[epoch], observer, /*delta=*/true);
  m_restore_bytes_->add(st.w->last_restore_bytes());
  m_forked_->add();
  return r;
}

TrialWorker& TrialEngine::worker(std::size_t i) {
  TrialWorker& st = workers_[i];
  if (!st.w) st = prepare_worker(factory_, "run_" + kind_);
  return st;
}

void TrialEngine::run(std::size_t total, const ChunkBody& body,
                      const ChunkDone& on_done) {
  obs::ChunkMeter meter(context_, kind_ + "_chunk",
                        kind_ + " " + workers_[0].w->name(), kind_, total);
  telemetry::Counter done;
  if (capture_pending_)
    context_.event(kind_ + "_snapshot_capture",
                   {{"workload", workers_[0].w->name()},
                    {"epochs", snaps_.size()},
                    {"image_bytes", capture_bytes_}});
  capture_pending_ = false;

  // Each puller id is used by one thread at a time, so its worker slot needs
  // no synchronisation.
  auto run_range = [&](std::size_t w, std::size_t begin, std::size_t end) {
    TrialWorker& st = worker(w);
    obs::Step chunk = meter.chunk(static_cast<int>(w), end - begin);
    body(st, begin, end);
    done.add(end - begin);
    chunk.end({{"begin", begin},
               {"end", end},
               {"done", done.value()},
               {"total", total}});
    if (on_done) on_done(begin, end);
  };

  if (workers_.size() == 1) {
    for (std::size_t begin = 0; begin < total;) {
      const std::size_t end = std::min(total, begin + guided_chunk(total - begin, 1));
      run_range(0, begin, end);
      begin = end;
    }
  } else {
    ThreadPool pool(workers_.size());
    parallel_chunks(pool, total, 0, run_range);
  }
}

}  // namespace gpurel::fault
