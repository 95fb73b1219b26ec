// perfbench: the repository benchmark. Runs one workload through the public
// gpurel API for a fixed measuring time and prints every metric by name with
// its unit, then one JSON result line (see BENCHMARK.md for definitions).
//
//   perfbench --workload study-cold --seed 7 --seconds 20 --trace 0
//             --work-dir .bench_build/work [--size full|tiny]
//             [--references perfbench/references.json]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the workload twice in one process — untraced, then with a TraceWriter and
// the benchmark's own spans — and reports the per-layer metrics plus the
// tracing overhead. Every op's result is checked (see Checker); a throw or a
// mismatch counts the op as failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/gpu_config.hpp"
#include "beam/experiment.hpp"
#include "common/json.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "core/workload.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "job/serialize.hpp"
#include "job/spec.hpp"
#include "kernels/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "profile/profiler.hpp"
#include "sim/device.hpp"

using namespace gpurel;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string digest_of(const json::Value& doc) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : doc.dump()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation percentile (q in [0, 1]) of a sample set.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Workload definitions ------------------------------------------------

/// Problem sizes: `full` is the measured benchmark, `tiny` the self-test.
struct Size {
  double app_scale;
  unsigned micro_beam_runs;
  unsigned micro_injections_per_kind;
  unsigned app_beam_runs;
  unsigned injections_per_kind;
  unsigned aux_injections;      // rf/pred/ia/store-value/store-addr each
  unsigned microarch_injections;  // each of the four MicroArch strata
  double campaign_scale;
  unsigned campaign_iov;        // campaign-fork SASSIFI IOV per kind
  unsigned campaign_aux;        // campaign-fork SASSIFI IA and RF each
  unsigned campaign_microarch;  // campaign-fork MicroArch per stratum
  unsigned fork_epochs;
  unsigned setup_reps;          // timed set-ups per run (median reported)
};

Size size_named(const std::string& name) {
  if (name == "full")
    return {.app_scale = 0.5,
            .micro_beam_runs = 40,
            .micro_injections_per_kind = 12,
            .app_beam_runs = 80,
            .injections_per_kind = 16,
            .aux_injections = 10,
            .microarch_injections = 8,
            .campaign_scale = 1.0,
            .campaign_iov = 40,
            .campaign_aux = 40,
            .campaign_microarch = 16,
            .fork_epochs = 16,
            .setup_reps = 3};
  if (name == "tiny")
    return {.app_scale = 0.25,
            .micro_beam_runs = 8,
            .micro_injections_per_kind = 4,
            .app_beam_runs = 8,
            .injections_per_kind = 4,
            .aux_injections = 3,
            .microarch_injections = 2,
            .campaign_scale = 0.25,
            .campaign_iov = 6,
            .campaign_aux = 6,
            .campaign_microarch = 3,
            .fork_epochs = 4,
            .setup_reps = 1};
  throw std::invalid_argument("unknown --size " + name);
}

struct Code {
  kernels::CatalogEntry entry;
  std::string name;
};

Code code(const std::string& base, core::Precision p) {
  kernels::CatalogEntry e{base, p};
  return {e, kernels::entry_name(e)};
}

std::vector<Code> codes_of(const std::string& workload) {
  using core::Precision;
  if (workload == "study-cold" || workload == "study-warm")
    return {code("LAVA", Precision::Single), code("GEMM", Precision::Single),
            code("QUICKSORT", Precision::Int32)};
  if (workload == "beam-sweep") {
    std::vector<Code> out;
    for (const auto& e : kernels::kepler_app_catalog())
      out.push_back({e, kernels::entry_name(e)});
    return out;
  }
  if (workload == "campaign-fork")
    return {code("MXM", Precision::Single), code("HOTSPOT", Precision::Single),
            code("BFS-DEV", Precision::Int32)};
  throw std::invalid_argument("unknown --workload " + workload);
}

// ---- Registry deltas -----------------------------------------------------

/// The engine's process-wide counters the benchmark reads. Counters only
/// grow, so a metric over a window is the difference of two snapshots.
struct CounterSnap {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> histograms;

  static const std::vector<std::string>& counter_names() {
    static const std::vector<std::string> names = {
        "gpurel_campaign_trials_total",
        "gpurel_beam_runs_total",
        "gpurel_job_cache_hits_total",
        "gpurel_job_cache_misses_total",
        "gpurel_job_cache_stores_total",
        "gpurel_campaign_snapshots_total",
        "gpurel_campaign_snapshot_restore_bytes_total",
        "gpurel_threadpool_chunk_pulls_total",
    };
    return names;
  }

  static CounterSnap take() {
    auto& reg = obs::Registry::global();
    CounterSnap s;
    for (const auto& n : counter_names())
      s.counters[n] = reg.counter(n).value();
    for (const char* n : {"gpurel_campaign_trial_latency_ms",
                          "gpurel_beam_run_latency_ms"}) {
      const obs::Histogram& h = reg.histogram(n);
      auto& b = s.histograms[n];
      for (std::size_t i = 0; i <= h.buckets().size(); ++i)
        b.push_back(h.bucket_count(i));
    }
    return s;
  }

  std::uint64_t since(const CounterSnap& before, const std::string& n) const {
    return counters.at(n) - before.counters.at(n);
  }

  /// Bucket-upper-bound quantile of the observations made since `before`.
  double quantile_since(const CounterSnap& before, const std::string& n,
                        bool tail) const {
    const auto& now = histograms.at(n);
    const auto& then = before.histograms.at(n);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < now.size(); ++i) total += now[i] - then[i];
    if (total == 0) return 0.0;
    // Rank of the median, or of the sample with ten samples beyond it.
    std::uint64_t rank = (total + 1) / 2;
    if (tail) rank = total > 10 ? total - 10 : total;
    const HistogramBuckets& buckets =
        obs::Registry::global().histogram(n).buckets();
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < now.size(); ++i) {
      cum += now[i] - then[i];
      if (cum >= rank)
        return buckets.bound(std::min(i, buckets.size() - 1));
    }
    return buckets.bound(buckets.size() - 1);
  }
};

// ---- Result checks -------------------------------------------------------

/// What one op produced: the digest of its canonical result JSON plus the
/// deterministic work counts behind it.
struct OpCheck {
  std::string digest;
  std::uint64_t trials = 0;
  std::uint64_t beam_runs = 0;
  std::uint64_t job_hits = 0;
  std::uint64_t job_misses = 0;
  std::uint64_t job_stores = 0;

  bool same_counts(const OpCheck& o) const {
    return trials == o.trials && beam_runs == o.beam_runs &&
           job_hits == o.job_hits && job_misses == o.job_misses &&
           job_stores == o.job_stores;
  }
  static OpCheck counts_from_json(const json::Value& v) {
    OpCheck c;
    c.trials = json::get_uint(v, "trials");
    c.beam_runs = json::get_uint(v, "beam_runs");
    c.job_hits = json::get_uint(v, "job_hits");
    c.job_misses = json::get_uint(v, "job_misses");
    c.job_stores = json::get_uint(v, "job_stores");
    return c;
  }
  json::Value counts_json() const {
    json::Value v = json::Value::object();
    v.set("trials", trials);
    v.set("beam_runs", beam_runs);
    v.set("job_hits", job_hits);
    v.set("job_misses", job_misses);
    v.set("job_stores", job_stores);
    return v;
  }
};

/// The code (or code/injector cell) an op key names: keys are
/// "<op>#<set-up index>", and ops of every set-up share their counts.
std::string op_of(const std::string& key) {
  return key.substr(0, key.find('#'));
}

/// Checks every op against (a) the first run of the same op in this process
/// (results are deterministic), (b) an expected digest set before the runs
/// (study-warm: the cold evaluation that filled the cache), and (c) the
/// recorded references for this engine version, workload and size: counts
/// (seed-independent) for every seed, digests for the recorded seed.
class Checker {
 public:
  Checker(const json::Value* reference, std::uint64_t seed) {
    if (reference == nullptr) return;
    counts_ = reference->find("counts");
    if (const json::Value* d = reference->find("digests")) {
      if (const json::Value* s = d->find(std::to_string(seed))) digests_ = s;
    }
  }

  void expect_digest(const std::string& key, const std::string& digest) {
    expected_[key] = digest;
  }

  /// Empty when the op passes, else a description of the mismatch.
  std::string check(const std::string& key, const OpCheck& got) {
    records_.emplace(key, got);  // keeps the first record per key
    const OpCheck& first = records_.at(key);
    if (got.digest != first.digest || !got.same_counts(first))
      return key + ": result differs from the first run of the same op";
    if (auto it = expected_.find(key);
        it != expected_.end() && it->second != got.digest)
      return key + ": digest " + got.digest + " != expected " + it->second;
    if (digests_ != nullptr) {
      const json::Value* d = digests_->find(key);
      if (d == nullptr || d->as_string() != got.digest)
        return key + ": digest " + got.digest + " != reference";
    }
    if (counts_ != nullptr) {
      const json::Value* c = counts_->find(op_of(key));
      if (c == nullptr || !got.same_counts(OpCheck::counts_from_json(*c)))
        return key + ": counts " + got.counts_json().dump() + " != reference";
    }
    return {};
  }

  /// First record of every op key, in the reference-file layout.
  json::Value records_json() const {
    json::Value digests = json::Value::object();
    json::Value counts = json::Value::object();
    for (const auto& [key, r] : records_) {
      digests.set(key, r.digest);
      counts.set(op_of(key), r.counts_json());
    }
    json::Value out = json::Value::object();
    out.set("engine", job::kEngineVersion);
    out.set("digests", std::move(digests));
    out.set("counts", std::move(counts));
    return out;
  }

 private:
  const json::Value* counts_ = nullptr;
  const json::Value* digests_ = nullptr;
  std::map<std::string, std::string> expected_;
  std::map<std::string, OpCheck> records_;
};

// ---- Per-layer spans -----------------------------------------------------

/// In-memory span totals recorded around the benchmark's calls into each
/// layer (count and summed seconds per name), reported as per-call means.
struct Spans {
  std::map<std::string, double> total_s;
  std::map<std::string, std::uint64_t> calls;

  template <class F>
  auto time(const std::string& name, F&& f) {
    const auto t0 = Clock::now();
    auto result = f();
    total_s[name] += seconds_since(t0);
    ++calls[name];
    return result;
  }
  double mean(const std::string& name) const {
    const auto it = calls.find(name);
    return it == calls.end() || it->second == 0
               ? 0.0
               : total_s.at(name) / static_cast<double>(it->second);
  }
};

// ---- The workload runners ------------------------------------------------

struct Op {
  std::string key;  // "<code or code/injector>#<set-up index>"
  std::function<OpCheck()> run;
};

/// The seed of a run's i-th set-up. Each set-up of a run generates its own
/// inputs, and passes rotate over the set-ups, so one run averages over
/// several input sets instead of timing a single one.
std::uint64_t setup_seed(std::uint64_t run_seed, std::size_t i) {
  return splitmix64(run_seed + i);
}

/// One workload: timed set-ups (each adding one input set), an optional
/// untimed priming step, and the ops of one pass. `spans` receives the
/// benchmark-side layer spans (only read in traced runs).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(obs::TraceWriter* trace) = 0;
  virtual void prime(Checker&) {}
  /// The ops of the next pass, on the next set-up in rotation.
  virtual std::vector<Op> pass() = 0;
  /// Fraction of (code, injector, ECC) SDC predictions within 5x of the beam
  /// SDC FIT over every evaluation seen; 0 without predictions.
  double sdc_within_5x() const {
    return predictions_ ? static_cast<double>(within_5x_) / predictions_ : 0.0;
  }

  Spans spans;

 protected:
  void score(const core::Study::CodeEvaluation& ev) {
    const auto tally = [&](const std::optional<model::FitPrediction>& p,
                           const beam::BeamResult& b) {
      if (!p || b.fit_sdc <= 0.0) return;
      ++predictions_;
      const double r = p->sdc / b.fit_sdc;
      if (r >= 0.2 && r <= 5.0) ++within_5x_;
    };
    tally(ev.pred_sassifi_on, ev.beam_ecc_on);
    tally(ev.pred_sassifi_off, ev.beam_ecc_off);
    tally(ev.pred_nvbitfi_on, ev.beam_ecc_on);
    tally(ev.pred_nvbitfi_off, ev.beam_ecc_off);
  }
  std::size_t next_pass_ = 0;

 private:
  unsigned predictions_ = 0;
  unsigned within_5x_ = 0;
};

std::uint64_t trials_of(const core::Study::CodeEvaluation& ev) {
  std::uint64_t n = 0;
  for (const auto* c : {&ev.sassifi, &ev.nvbitfi, &ev.microarch})
    if (*c) n += (*c)->total_injections();
  return n;
}

/// study-cold / study-warm / beam-sweep: Study::evaluate per code.
class StudyWorkload : public Workload {
 public:
  enum class Kind { Cold, Warm, BeamSweep };

  StudyWorkload(Kind kind, std::vector<Code> codes, const Size& size,
                std::uint64_t seed, unsigned workers, fs::path cache_dir)
      : kind_(kind), codes_(std::move(codes)), seed_(seed),
        cache_dir_(std::move(cache_dir)) {
    config_.workers = workers;
    config_.app_scale = size.app_scale;
    config_.micro_beam_runs = size.micro_beam_runs;
    config_.micro_injections_per_kind = size.micro_injections_per_kind;
    config_.app_beam_runs = size.app_beam_runs;
    config_.injections_per_kind = size.injections_per_kind;
    config_.rf_injections = size.aux_injections;
    config_.pred_injections = size.aux_injections;
    config_.ia_injections = size.aux_injections;
    config_.store_value_injections = size.aux_injections;
    config_.store_addr_injections = size.aux_injections;
    config_.sched_injections = size.microarch_injections;
    config_.scoreboard_injections = size.microarch_injections;
    config_.cta_injections = size.microarch_injections;
    config_.warp_control_injections = size.microarch_injections;
    config_.progress = false;
    config_.propagation = false;
    // beam-sweep runs without a cache; the environment fallback is refused
    // in main(), so an empty directory really disables it.
    if (kind_ != Kind::BeamSweep) config_.cache_dir = cache_dir_.string();
    if (kind_ == Kind::BeamSweep) parts_ = {false, true, false};
  }

  void setup(obs::TraceWriter* trace) override {
    core::StudyConfig c = config_;
    c.trace = trace;
    c.seed = setup_seed(seed_, studies_.size());
    auto study =
        std::make_unique<core::Study>(arch::GpuConfig::kepler_k40c(2), c);
    spans.time("core.stage1", [&] {
      study->microbenchmarks();
      study->fit_inputs();
      return 0;
    });
    studies_.push_back(std::move(study));
  }

  void prime(Checker& checker) override {
    // Fill the cache once per process, untimed; each fill is a cold
    // evaluation whose digest every later cache-served op must reproduce
    // byte for byte.
    if (kind_ != Kind::Warm || fs::exists(cache_dir_)) return;
    fs::create_directories(cache_dir_);
    for (std::size_t i = 0; i < studies_.size(); ++i)
      for (const Code& c : codes_)
        checker.expect_digest(key(c, i), digest_of(core::code_report_json(
                                             studies_[i]->evaluate(c.entry))));
  }

  std::vector<Op> pass() override {
    const std::size_t i = next_pass_++ % studies_.size();
    std::vector<Op> ops;
    for (const Code& c : codes_)
      ops.push_back({key(c, i), [this, &c, i] { return evaluate(c, i); }});
    return ops;
  }

 private:
  static std::string key(const Code& c, std::size_t i) {
    return c.name + "#" + std::to_string(i);
  }

  OpCheck evaluate(const Code& c, std::size_t i) {
    if (kind_ == Kind::Cold) {
      fs::remove_all(cache_dir_);
      fs::create_directories(cache_dir_);
    }
    const CounterSnap before = CounterSnap::take();
    const core::Study::CodeEvaluation ev = spans.time("core.evaluate", [&] {
      return studies_[i]->evaluate(c.entry, parts_);
    });
    const CounterSnap after = CounterSnap::take();
    score(ev);
    OpCheck r;
    r.digest = digest_of(core::code_report_json(ev));
    r.trials = trials_of(ev);
    r.beam_runs = ev.beam_ecc_on.runs + ev.beam_ecc_off.runs;
    r.job_hits = after.since(before, "gpurel_job_cache_hits_total");
    r.job_misses = after.since(before, "gpurel_job_cache_misses_total");
    r.job_stores = after.since(before, "gpurel_job_cache_stores_total");
    return r;
  }

  Kind kind_;
  std::vector<Code> codes_;
  std::uint64_t seed_;
  fs::path cache_dir_;
  core::StudyConfig config_;
  core::Study::EvalParts parts_ = core::Study::kAllParts;
  std::vector<std::unique_ptr<core::Study>> studies_;
};

/// campaign-fork: fault::run_campaign with fork_epochs > 0, a SASSIFI
/// IOV+IA+RF campaign and a MicroArch campaign per code.
class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(std::vector<Code> codes, const Size& size,
                   std::uint64_t seed, unsigned workers)
      : codes_(std::move(codes)), size_(size), seed_(seed), workers_(workers) {}

  void setup(obs::TraceWriter* trace) override {
    trace_ = trace;
    const std::size_t index = cell_sets_.size();
    const std::uint64_t seed = setup_seed(seed_, index);
    std::vector<Cell> cells;
    for (const Code& c : codes_) {
      for (const char* inj : {"SASSIFI", "MicroArch"}) {
        Cell cell;
        cell.key = c.name + "/" + inj + "#" + std::to_string(index);
        cell.injector = fault::make_injector(inj);
        cell.factory = kernels::workload_factory(
            c.entry.base, c.entry.precision,
            {arch::GpuConfig::kepler_k40c(2), cell.injector->profile(),
             seed ^ 0x5eed, size_.campaign_scale});
        cell.sites = spans.time("fault.count_sites", [&] {
          return fault::count_sites(*cell.injector, cell.factory);
        });
        cell.seed = splitmix64(seed ^ std::hash<std::string>{}(c.name + inj));
        cells.push_back(std::move(cell));
      }
    }
    cell_sets_.push_back(std::move(cells));
  }

  std::vector<Op> pass() override {
    std::vector<Op> ops;
    for (const Cell& cell : cell_sets_[next_pass_++ % cell_sets_.size()])
      ops.push_back({cell.key, [this, &cell] { return run(cell); }});
    return ops;
  }

 private:
  struct Cell {
    std::string key;
    std::unique_ptr<fault::Injector> injector;
    fault::WorkloadFactory factory;
    fault::SiteCounts sites;
    std::uint64_t seed = 0;
  };

  OpCheck run(const Cell& cell) {
    fault::CampaignConfig cc;
    cc.seed = cell.seed;
    cc.workers = workers_;
    cc.fork_epochs = size_.fork_epochs;
    cc.sites = &cell.sites;
    cc.trace = trace_;
    if (cell.injector->name() == "MicroArch") {
      cc.injections_per_kind = 0;
      cc.sched_injections = size_.campaign_microarch;
      cc.scoreboard_injections = size_.campaign_microarch;
      cc.cta_injections = size_.campaign_microarch;
      cc.warp_control_injections = size_.campaign_microarch;
    } else {
      cc.injections_per_kind = size_.campaign_iov;
      cc.ia_injections = size_.campaign_aux;
      cc.rf_injections = size_.campaign_aux;
    }
    const fault::CampaignResult r = spans.time("fault.campaign", [&] {
      return fault::run_campaign(*cell.injector, cell.factory, cc);
    });
    OpCheck out;
    out.digest = digest_of(job::campaign_result_to_json(r));
    out.trials = r.total_injections();
    return out;
  }

  std::vector<Code> codes_;
  Size size_;
  std::uint64_t seed_;
  unsigned workers_;
  obs::TraceWriter* trace_ = nullptr;
  std::vector<std::vector<Cell>> cell_sets_;
};

// ---- Measurement ---------------------------------------------------------

struct RunStats {
  std::vector<double> setup_s;
  std::vector<double> op_s;
  std::map<std::string, std::vector<double>> op_s_by_op;
  std::vector<double> pass_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t passes = 0;  // measured passes (the warm-up pass excluded)
  double op_total_s = 0.0;
  std::vector<std::string> failures;

  /// Set-up plus one op on every code: what a one-shot user run costs.
  double wall_s() const { return median(setup_s) + median(pass_s); }
  /// Median over the workload's ops of each op's median latency (the ops of
  /// a workload differ in cost, so pooling them would put the median on the
  /// boundary between two ops whenever their count is even).
  double op_p50() const {
    std::vector<double> medians;
    for (const auto& [op, v] : op_s_by_op) medians.push_back(median(v));
    return median(medians);
  }
};

/// Set up `reps` times, prime, then run whole passes until `seconds` have
/// elapsed and every set-up has had a measured pass. With `warmup`, the first
/// pass lets lazily grown state (worker pools, snapshot pools, allocator
/// arenas) settle: it is checked like any other but left out of the latency
/// figures. `at_start`, when set, receives the engine counters as measuring
/// begins.
void measure(Workload& w, Checker& checker, obs::TraceWriter* trace,
             unsigned reps, double seconds, bool warmup, RunStats& st,
             CounterSnap* at_start = nullptr) {
  for (unsigned i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    w.setup(trace);
    st.setup_s.push_back(seconds_since(t0));
  }
  w.prime(checker);
  const auto run_pass = [&](bool measured) {
    const auto p0 = Clock::now();
    bool pass_ok = true;
    for (const Op& op : w.pass()) {
      ++st.attempted;
      const auto t0 = Clock::now();
      std::string error;
      try {
        const OpCheck r = op.run();
        const double dt = seconds_since(t0);
        if (measured) {
          st.op_s.push_back(dt);
          st.op_s_by_op[op_of(op.key)].push_back(dt);
          st.op_total_s += dt;
        }
        error = checker.check(op.key, r);
      } catch (const std::exception& e) {
        error = op.key + ": threw: " + e.what();
      }
      if (!error.empty()) {
        ++st.failed;
        pass_ok = false;
        st.failures.push_back(error);
      }
    }
    if (!measured) return;
    if (pass_ok) st.pass_s.push_back(seconds_since(p0));
    ++st.passes;
  };
  const auto start = Clock::now();
  if (warmup) run_pass(false);
  if (at_start != nullptr) *at_start = CounterSnap::take();
  do {
    run_pass(true);
  } while (seconds_since(start) < seconds || st.passes < reps);
}

// ---- Traced-run analysis -------------------------------------------------

/// Busy share of a runtime's chunk spans: 1 - sum(chunk durations) /
/// (workers x time during which at least one chunk was running).
double idle_fraction(std::vector<std::pair<double, double>> spans,
                     unsigned workers) {
  if (spans.empty()) return 0.0;
  std::sort(spans.begin(), spans.end());
  double busy = 0.0, covered = 0.0;
  double cur_begin = spans[0].first, cur_end = spans[0].first;
  for (const auto& [b, e] : spans) {
    busy += e - b;
    if (b > cur_end) {
      covered += cur_end - cur_begin;
      cur_begin = b;
    }
    cur_end = std::max(cur_end, e);
  }
  covered += cur_end - cur_begin;
  if (covered <= 0.0) return 0.0;
  return std::max(0.0, 1.0 - busy / (workers * covered));
}

struct TraceTotals {
  std::map<std::string, double> stage_s;  // Study stage spans by stage
  double job_hit_s = 0.0, job_run_s = 0.0;
  std::uint64_t job_hit_n = 0, job_run_n = 0;
  double campaign_idle = 0.0, beam_idle = 0.0;
};

TraceTotals read_trace(const fs::path& path, unsigned workers) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::Value::parse(ss.str());
  TraceTotals t;
  std::vector<std::pair<double, double>> campaign, beam;
  for (const json::Value& ev : doc.items()) {
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    if (json::get_int(ev, "pid") != obs::kWallPid) continue;
    const std::string& name = json::get_string(ev, "name");
    const std::string& cat = json::get_string(ev, "cat");
    const double ts = json::get_double(ev, "ts") * 1e-6;
    const double dur = json::get_double(ev, "dur") * 1e-6;
    if (cat == "study") {
      const std::string stage = name.substr(0, name.find(' '));
      t.stage_s[stage] += dur;
    } else if (cat == "job" && name == "job cache hit") {
      t.job_hit_s += dur;
      ++t.job_hit_n;
    } else if (cat == "job" && name == "job run") {
      t.job_run_s += dur;
      ++t.job_run_n;
    } else if (cat == "campaign") {
      campaign.emplace_back(ts, ts + dur);
    } else if (cat == "beam") {
      beam.emplace_back(ts, ts + dur);
    }
  }
  t.campaign_idle = idle_fraction(std::move(campaign), workers);
  t.beam_idle = idle_fraction(std::move(beam), workers);
  return t;
}

/// Single-thread probes of the sim/profile/beam layers on every code of the
/// workload, outside the worker pool.
struct Probes {
  double prepare_s = 0.0, trial_s = 0.0, capture_s = 0.0, fork_trial_s = 0.0;
  double profile_s = 0.0, exposure_s = 0.0;
  std::uint64_t lane_instr = 0, cycles = 0, restore_bytes = 0;
  std::map<std::string, json::Value> golden;  // per code: cycles, lane_instr
};

Probes run_probes(const std::vector<Code>& codes, std::uint64_t seed,
                  double scale) {
  Probes p;
  const arch::GpuConfig gpu = arch::GpuConfig::kepler_k40c(2);
  const core::WorkloadConfig wc{gpu, isa::CompilerProfile::Cuda10,
                                seed ^ 0x5eed, scale};
  const auto timed = [](double& acc, auto&& f) {
    const auto t0 = Clock::now();
    f();
    acc += seconds_since(t0);
  };
  for (const Code& c : codes) {
    auto w = kernels::make_workload(c.entry.base, c.entry.precision, wc);
    sim::Device dev(gpu);
    timed(p.prepare_s, [&] { w->prepare(dev); });
    const sim::LaunchStats& g = w->golden_stats();
    p.lane_instr += g.lane_instructions;
    p.cycles += g.cycles;
    json::Value gj = json::Value::object();
    gj.set("cycles", g.cycles);
    gj.set("lane_instr", g.lane_instructions);
    p.golden[c.name] = std::move(gj);
    timed(p.trial_s, [&] { w->run_trial(dev); });
    timed(p.exposure_s, [&] {
      beam::compute_exposure(*w, dev.memory().allocated_bits());
    });
    if (w->fork_safe() && g.lane_instructions >= 4) {
      const std::uint64_t l = g.lane_instructions;
      std::vector<sim::Snapshot> snaps;
      timed(p.capture_s,
            [&] { w->capture_prefix(dev, {l / 4, l / 2, 3 * l / 4}, snaps); });
      // The first fork restores the full image; the second, from the same
      // snapshot, takes the delta path that campaigns use.
      w->run_trial_forked(dev, snaps[1], nullptr, true);
      timed(p.fork_trial_s,
            [&] { w->run_trial_forked(dev, snaps[1], nullptr, true); });
      p.restore_bytes += w->last_restore_bytes();
    }
    auto fresh = kernels::make_workload(c.entry.base, c.entry.precision, wc);
    sim::Device dev2(gpu);
    timed(p.profile_s, [&] { profile::profile_workload(*fresh, dev2); });
  }
  return p;
}

// ---- Output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  json::Value m = json::Value::object();
  for (const Metric& x : metrics) {
    std::printf("metric %-34s %.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
    json::Value v = json::Value::object();
    v.set("value", std::isfinite(x.value) ? x.value : 0.0);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  json::Value out = json::Value::object();
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(m));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string size = "full";
  fs::path work_dir;
  std::string references;
  std::string record;  // write this run's op records here (re-recording)
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      a.size = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
      have_dir = true;
    } else if (k == "--references") {
      a.references = v;
    } else if (k == "--record") {
      a.record = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (!have_workload || !have_seed || !have_dir)
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --work-dir DIR "
        "[--seconds S] [--trace 0|1] [--size full|tiny] [--references F]");
  return a;
}

/// The reference block for this engine version, workload and size, if any.
std::optional<json::Value> load_reference(const Args& a) {
  if (a.references.empty()) return std::nullopt;
  std::ifstream in(a.references);
  if (!in) throw std::runtime_error("cannot read " + a.references);
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::Value::parse(ss.str());
  const json::Value* engine = doc.find(job::kEngineVersion);
  if (engine == nullptr) return std::nullopt;
  const json::Value* wl = engine->find(a.workload);
  if (wl == nullptr) return std::nullopt;
  const json::Value* sz = wl->find(a.size);
  if (sz == nullptr) return std::nullopt;
  return *sz;
}

std::unique_ptr<Workload> make_workload(const Args& a, const Size& size,
                                        std::uint64_t lib_seed,
                                        unsigned workers) {
  const std::vector<Code> codes = codes_of(a.workload);
  if (a.workload == "campaign-fork")
    return std::make_unique<CampaignWorkload>(codes, size, lib_seed, workers);
  using Kind = StudyWorkload::Kind;
  const Kind kind = a.workload == "study-cold"   ? Kind::Cold
                    : a.workload == "study-warm" ? Kind::Warm
                                                 : Kind::BeamSweep;
  return std::make_unique<StudyWorkload>(kind, codes, size, lib_seed, workers,
                                         a.work_dir / "cache");
}

int run(const Args& a) {
  // Empty config fields fall back to these variables; the benchmark sets
  // every field itself, so an inherited value would silently change what is
  // measured (a stale cache, an unwanted trace).
  for (const char* env : {"GPUREL_CACHE", "GPUREL_TELEMETRY", "GPUREL_TRACE",
                          "GPUREL_METRICS", "GPUREL_WORKERS"}) {
    if (const char* v = std::getenv(env); v != nullptr && v[0] != '\0') {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", env);
      return 2;
    }
  }
  const Size size = size_named(a.size);
  const std::vector<Code> codes = codes_of(a.workload);
  // The library sees only configs generated from the benchmark seed.
  const std::uint64_t lib_seed = splitmix64(a.seed);
  const unsigned workers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  fs::remove_all(a.work_dir);
  fs::create_directories(a.work_dir);

  const std::optional<json::Value> reference = load_reference(a);
  Checker checker(reference ? &*reference : nullptr, a.seed);
  const auto t_run = Clock::now();

  std::vector<Metric> metrics;
  RunStats st;
  if (!a.trace) {
    auto w = make_workload(a, size, lib_seed, workers);
    measure(*w, checker, nullptr, size.setup_reps, a.seconds, true, st);
    for (const auto& [op, v] : st.op_s_by_op)
      std::printf("info op %-22s median_s=%.4f max_s=%.4f n=%zu\n", op.c_str(),
                  median(v), *std::max_element(v.begin(), v.end()), v.size());
    std::printf("info op_s.tail is p90 of %zu op samples\n", st.op_s.size());
    std::printf("info passes=%llu ops=%llu error_rate=%g run_s=%.3f\n",
                static_cast<unsigned long long>(st.passes),
                static_cast<unsigned long long>(st.attempted),
                static_cast<double>(st.failed) /
                    static_cast<double>(st.attempted),
                seconds_since(t_run));
    metrics = {
        {"wall_s", st.wall_s(), "s"},
        {"setup_s", median(st.setup_s), "s"},
        {"op_s.p50", st.op_p50(), "s"},
        {"op_s.tail", percentile(st.op_s, 0.9), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Untraced reference pass for the overhead ratio, then the traced pass
    // whose spans and counter deltas give the per-layer metrics.
    RunStats plain;
    {
      auto w = make_workload(a, size, lib_seed, workers);
      measure(*w, checker, nullptr, 1, 0.4 * a.seconds, true, plain);
    }
    const fs::path trace_path = a.work_dir / "trace.json";
    auto writer = std::make_unique<obs::TraceWriter>(trace_path.string());
    auto w = make_workload(a, size, lib_seed, workers);
    CounterSnap before;
    measure(*w, checker, writer.get(), 1, 0.6 * a.seconds, false, st, &before);
    const CounterSnap after = CounterSnap::take();
    writer->close();
    const Probes probes = run_probes(
        codes, setup_seed(lib_seed, 0),
        a.workload == "campaign-fork" ? size.campaign_scale : size.app_scale);
    const TraceTotals tt = read_trace(trace_path, workers);
    st.attempted += plain.attempted;
    st.failed += plain.failed;
    st.failures.insert(st.failures.end(), plain.failures.begin(),
                       plain.failures.end());

    const double passes = static_cast<double>(st.passes);
    const double evals = static_cast<double>(
        std::max<std::uint64_t>(1, w->spans.calls["core.evaluate"]));
    const auto delta = [&](const char* counter) {
      return static_cast<double>(after.since(before, counter));
    };
    const auto per_pass = [&](const char* counter) {
      return delta(counter) / passes;
    };
    const auto rate = [&](double n) {
      return st.op_total_s > 0 ? n / st.op_total_s : 0.0;
    };
    const auto quantile = [&](const char* histogram, bool tail) {
      return after.quantile_since(before, histogram, tail);
    };
    const auto stage = [&](const char* s) {
      const auto it = tt.stage_s.find(s);
      return it == tt.stage_s.end() ? 0.0 : it->second / evals;
    };
    // Trials and beam runs executed (a cache hit executes none), unlike the
    // result totals the op checks compare.
    const double trials = delta("gpurel_campaign_trials_total");
    const double beam_runs = delta("gpurel_beam_runs_total");
    const double restore =
        delta("gpurel_campaign_snapshot_restore_bytes_total");
    auto& reg = obs::Registry::global();
    metrics = {
        {"core.stage1_s", w->spans.mean("core.stage1"), "s"},
        {"core.evaluate_s", w->spans.mean("core.evaluate"), "s"},
        {"core.stage.profile_s", stage("profile"), "s"},
        {"core.stage.injections_s", stage("injections"), "s"},
        {"core.stage.beam_s", stage("beam"), "s"},
        {"core.stage.predictions_s", stage("predictions"), "s"},
        {"model.sdc_within_5x", w->sdc_within_5x(), "ratio"},
        {"fault.trials", trials / passes, "count"},
        {"fault.trials_per_s", rate(trials), "1/s"},
        {"fault.campaign_s", w->spans.mean("fault.campaign"), "s"},
        {"fault.count_sites_s", w->spans.mean("fault.count_sites"), "s"},
        {"fault.trial_ms.p50",
         quantile("gpurel_campaign_trial_latency_ms", false), "ms"},
        {"fault.trial_ms.tail",
         quantile("gpurel_campaign_trial_latency_ms", true), "ms"},
        {"fault.worker_idle_frac", tt.campaign_idle, "ratio"},
        {"fault.snapshots", per_pass("gpurel_campaign_snapshots_total"),
         "count"},
        {"fault.restore_bytes_per_trial",
         trials > 0 ? restore / trials : 0.0, "bytes"},
        {"fault.snapshot_pool_bytes",
         reg.gauge("gpurel_campaign_snapshot_pool_bytes").value(), "bytes"},
        {"beam.runs", beam_runs / passes, "count"},
        {"beam.runs_per_s", rate(beam_runs), "1/s"},
        {"beam.run_ms.p50", quantile("gpurel_beam_run_latency_ms", false),
         "ms"},
        {"beam.run_ms.tail", quantile("gpurel_beam_run_latency_ms", true),
         "ms"},
        {"beam.worker_idle_frac", tt.beam_idle, "ratio"},
        {"beam.exposure_s", probes.exposure_s, "s"},
        {"job.hits", per_pass("gpurel_job_cache_hits_total"), "count"},
        {"job.misses", per_pass("gpurel_job_cache_misses_total"), "count"},
        {"job.stores", per_pass("gpurel_job_cache_stores_total"), "count"},
        {"job.hit_s", tt.job_hit_n ? tt.job_hit_s / tt.job_hit_n : 0.0, "s"},
        {"job.run_s", tt.job_run_n ? tt.job_run_s / tt.job_run_n : 0.0, "s"},
        {"sim.prepare_s", probes.prepare_s, "s"},
        {"sim.lane_instr", static_cast<double>(probes.lane_instr), "count"},
        {"sim.cycles", static_cast<double>(probes.cycles), "count"},
        {"sim.ns_per_lane_instr",
         probes.lane_instr
             ? 1e9 * probes.trial_s / static_cast<double>(probes.lane_instr)
             : 0.0,
         "ns"},
        {"sim.trial_s", probes.trial_s, "s"},
        {"sim.capture_s", probes.capture_s, "s"},
        {"sim.fork_trial_s", probes.fork_trial_s, "s"},
        {"sim.restore_bytes", static_cast<double>(probes.restore_bytes),
         "bytes"},
        {"profile.s", probes.profile_s, "s"},
        {"common.pool.chunk_pulls",
         per_pass("gpurel_threadpool_chunk_pulls_total"), "count"},
        {"common.pool.queue_depth_peak",
         reg.gauge("gpurel_threadpool_queue_depth_peak").value(), "count"},
        {"obs.trace_overhead_frac",
         plain.wall_s() > 0 ? st.wall_s() / plain.wall_s() - 1.0 : 0.0,
         "ratio"},
    };
    // The golden statistics are deterministic: check them like op results.
    for (const auto& [name, g] : probes.golden) {
      OpCheck r;
      r.digest = digest_of(g);
      ++st.attempted;
      if (std::string e = checker.check("probe/" + name, r); !e.empty()) {
        ++st.failed;
        st.failures.push_back(e);
      }
    }
    std::printf("info traced passes=%llu untraced passes=%llu run_s=%.3f\n",
                static_cast<unsigned long long>(st.passes),
                static_cast<unsigned long long>(plain.passes),
                seconds_since(t_run));
  }

  for (const std::string& f : st.failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  if (!a.record.empty()) {
    std::ofstream out(a.record);
    out << checker.records_json().dump() << "\n";
  }
  fs::remove_all(a.work_dir);
  print_result(metrics, st.failed == 0, st.attempted, st.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
