#include "fault/trial_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

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
      sink_(context.resolved_sink()),
      trace_(context.resolved_trace()),
      progress_(context.progress),
      workers_(std::max(1u, workers)) {
  workers_[0] = prepare_worker(factory_, "run_" + kind_);
  if (trace_ != nullptr)
    trace_->name_process(obs::kWallPid, "gpurel runtime (wall clock)");
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

TrialWorker& TrialEngine::worker(std::size_t i) {
  TrialWorker& st = workers_[i];
  if (!st.w) st = prepare_worker(factory_, "run_" + kind_);
  return st;
}

void TrialEngine::run(std::size_t total, const ChunkBody& body,
                      const ChunkDone& on_done) {
  const std::string label = kind_ + " " + workers_[0].w->name();
  const std::string chunk_event = kind_ + "_chunk";
  telemetry::Progress progress(progress_, label, total);
  telemetry::Counter done;

  // Each puller id is used by one thread at a time, so its worker slot needs
  // no synchronisation.
  auto run_range = [&](std::size_t w, std::size_t begin, std::size_t end) {
    TrialWorker& st = worker(w);
    const double t0 = trace_ != nullptr ? trace_->now_us() : 0.0;
    body(st, begin, end);
    if (trace_ != nullptr) {
      trace_->name_thread(obs::kWallPid, static_cast<int>(w),
                          "worker " + std::to_string(w));
      trace_->complete(label, kind_, obs::kWallPid, static_cast<int>(w), t0,
                       trace_->now_us() - t0,
                       {{"begin", begin}, {unit_, end - begin}});
    }
    done.add(end - begin);
    progress.tick(end - begin);
    if (sink_ != nullptr)
      sink_->emit(chunk_event, {{"begin", begin},
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
