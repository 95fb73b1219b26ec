// bench_campaign_throughput: campaign-runtime throughput benchmark.
//
// Runs fault-injection campaigns on four trial mixes and reports wall-clock
// trials/sec for each series:
//
//   balanced     IOV-only injections on MXM — every trial costs roughly the
//                golden runtime;
//   due-heavy    instruction-address + store-address heavy injections on
//                QUICKSORT — control-flow corruption in its data-dependent
//                loops produces a heavy-tailed cost distribution (a fraction
//                of trials burn the full watchdog budget, ~20x the median),
//                the load profile guided dynamic chunks exist for;
//   fork-heavy   an IA-skewed mix on fork-safe MXM, plain vs forked
//                (checkpoint-fork batching with delta restores);
//   graph-heavy  the device-stepped BFS-DEV/CCL-DEV/QUICKSORT-DEV, plain vs
//                forked.
//
//   ./bench_campaign_throughput --workers=4 --ia=160 --injections=40
//   GPUREL_TELEMETRY=out.jsonl ./bench_campaign_throughput --progress
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/telemetry.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "kernels/registry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

using namespace gpurel;

namespace {

struct Mix {
  std::string name;
  std::string code;  ///< kernel catalog code the mix runs on
  fault::CampaignConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const unsigned workers = std::max<unsigned>(
      1, static_cast<unsigned>(cli.get_int_env("workers", "GPUREL_WORKERS", 4)));
  const unsigned iov = static_cast<unsigned>(
      cli.get_int_env("injections", "GPUREL_INJECTIONS", 16));
  const unsigned ia = static_cast<unsigned>(cli.get_int("ia", 4 * iov));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const double scale = cli.get_double("scale", 0.05);
  const bool csv = cli.get_bool("csv");
  const bool progress = cli.get_bool_env("progress", "GPUREL_PROGRESS", false);
  const std::string bench_json = cli.get("bench-json");
  obs::Exporter exporter(cli.get("metrics-out"), cli.get("trace-out"));
  std::vector<std::pair<std::string, double>> json_entries;

  auto injector = fault::make_injector("SASSIFI");
  const core::WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                                injector->profile(), 0x5eed, scale};

  fault::CampaignConfig base;
  base.injections_per_kind = iov;
  base.seed = seed;
  base.workers = workers;
  base.progress = progress;

  std::vector<Mix> mixes;
  {
    Mix balanced{"balanced", "MXM", base};
    mixes.push_back(balanced);
    Mix heavy{"due-heavy", "QUICKSORT", base};
    heavy.config.injections_per_kind = std::max(1u, iov / 4);
    heavy.config.ia_injections = ia;  // control-flow corruption: hangs
    heavy.config.rf_injections = ia;  // loop-state corruption: hangs
    heavy.config.store_addr_injections = ia / 2;  // invalid-address DUEs
    mixes.push_back(heavy);
  }

  Table table({"mix", "series", "trials", "wall_ms", "trials/s"});
  table.set_align(1, Align::Left);
  auto& metrics = obs::Registry::global();
  // One table row, two gauges and one bench-JSON entry per measured series.
  auto record = [&](const std::string& mix, const std::string& series,
                    std::uint64_t trials, double ms) {
    const double tps =
        ms > 0 ? 1000.0 * static_cast<double>(trials) / ms : 0.0;
    const obs::Labels labels{{"bench", "campaign_throughput"},
                             {"mix", mix},
                             {"series", series}};
    metrics.gauge("gpurel_bench_wall_ms", labels).set(ms);
    metrics.gauge("gpurel_bench_trials_per_sec", labels).set(tps);
    json_entries.emplace_back("campaign/" + mix + "/" + series + ".trials_per_s",
                              tps);
    table.row()
        .cell(mix)
        .cell(series)
        .cell_int(static_cast<long long>(trials))
        .cell(ms, 1)
        .cell(tps, 1);
    return tps;
  };

  for (const Mix& mix : mixes) {
    const auto factory =
        kernels::workload_factory(mix.code, core::Precision::Single, wc);
    // Counted outside the timed run, so trials/s measures trials only.
    const fault::SiteCounts sites = fault::count_sites(*injector, factory);
    fault::CampaignConfig cc = mix.config;
    cc.sites = &sites;
    cc.trace = exporter.trace();
    telemetry::Timer wall;
    const auto result = fault::run_campaign(*injector, factory, cc);
    record(mix.name, "dynamic", result.total_injections(), wall.elapsed_ms());
  }

  const unsigned fork_epochs =
      std::max<unsigned>(1, static_cast<unsigned>(cli.get_int("fork-epochs", 8)));

  // Checkpoint-fork batching: the same injection-heavy profile as due-heavy,
  // but on MXM, which is fork-safe (host-stepped QUICKSORT reads host state
  // mid-trial and falls back to plain execution). Two series: plain
  // execution and forked (shared snapshot pool, delta restores). Results
  // are bit-identical across both; only wall-clock moves.
  {
    fault::CampaignConfig fc = base;
    fc.injections_per_kind = std::max(1u, iov / 4);
    // IA-skewed: instruction-address trials usually DUE at the fault itself,
    // so a plain run pays the whole prefix for nothing while a forked run
    // pays only the snapshot-to-fault gap -- the profile fork batching is for.
    fc.ia_injections = 2 * ia;
    fc.rf_injections = ia / 2;
    fc.store_addr_injections = ia / 2;
    const auto factory =
        kernels::workload_factory("MXM", core::Precision::Single, wc);
    fault::CampaignResult reference;
    double plain_tps = 0.0;
    for (const bool forked : {false, true}) {
      fault::CampaignConfig cc = fc;
      cc.fork_epochs = forked ? fork_epochs : 0;
      cc.trace = exporter.trace();
      telemetry::Timer wall;
      const auto result = fault::run_campaign(*injector, factory, cc);
      const double tps = record("fork-heavy", forked ? "forked" : "plain",
                                result.total_injections(), wall.elapsed_ms());
      if (!forked) {
        reference = result;
        plain_tps = tps;
        continue;
      }
      if (result.total_injections() != reference.total_injections() ||
          result.overall_avf_sdc() != reference.overall_avf_sdc() ||
          result.overall_avf_due() != reference.overall_avf_due()) {
        std::fprintf(stderr, "FATAL: fork batching changed fork-heavy results\n");
        return 1;
      }
      json_entries.emplace_back("campaign/fork-heavy/forked.speedup_x",
                                plain_tps > 0 ? tps / plain_tps : 0.0);
    }
  }

  // Graph-heavy mix: the device-stepped graph/sort workloads (BFS-DEV,
  // CCL-DEV, QUICKSORT-DEV) whose fixed launch sequences made the iterative
  // third of the catalog fork-safe. Plain and forked series are interleaved
  // over `reps` rounds so load noise on a shared CI box hits both equally;
  // trials and wall time accumulate per series and the reported trials/s is
  // the aggregate over every workload and round.
  {
    const unsigned reps =
        std::max<unsigned>(1, static_cast<unsigned>(cli.get_int("reps", 3)));
    const std::vector<std::string> codes{"BFS-DEV", "CCL-DEV", "QUICKSORT-DEV"};
    fault::CampaignConfig gc = base;
    gc.injections_per_kind = std::max(1u, iov / 4);
    gc.ia_injections = ia;
    gc.rf_injections = ia / 2;
    gc.store_addr_injections = ia / 4;

    std::vector<core::WorkloadFactory> factories;
    std::vector<fault::SiteCounts> site_counts;
    std::vector<fault::CampaignResult> references(codes.size());
    for (const std::string& code : codes) {
      factories.push_back(
          kernels::workload_factory(code, core::Precision::Int32, wc));
      site_counts.push_back(fault::count_sites(*injector, factories.back()));
    }

    double wall_ms[2] = {0.0, 0.0};
    std::uint64_t trials[2] = {0, 0};
    for (unsigned rep = 0; rep < reps; ++rep) {
      for (const bool forked : {false, true}) {
        for (std::size_t i = 0; i < codes.size(); ++i) {
          fault::CampaignConfig cc = gc;
          cc.fork_epochs = forked ? fork_epochs : 0;
          cc.sites = &site_counts[i];
          cc.trace = exporter.trace();
          telemetry::Timer wall;
          const auto result = fault::run_campaign(*injector, factories[i], cc);
          const std::size_t k = forked ? 1 : 0;
          wall_ms[k] += wall.elapsed_ms();
          trials[k] += result.total_injections();
          if (rep == 0 && !forked) {
            references[i] = result;
          } else if (result.total_injections() !=
                         references[i].total_injections() ||
                     result.overall_avf_sdc() !=
                         references[i].overall_avf_sdc() ||
                     result.overall_avf_due() !=
                         references[i].overall_avf_due()) {
            std::fprintf(stderr, "FATAL: fork batching changed %s results\n",
                         codes[i].c_str());
            return 1;
          }
        }
      }
    }
    const double plain_tps = record("graph-heavy", "plain", trials[0], wall_ms[0]);
    const double forked_tps =
        record("graph-heavy", "forked", trials[1], wall_ms[1]);
    json_entries.emplace_back("campaign/graph-heavy/forked.speedup_x",
                              plain_tps > 0 ? forked_tps / plain_tps : 0.0);
  }

  if (csv) std::fputs(table.to_csv().c_str(), stdout);
  else std::fputs(table.to_text().c_str(), stdout);
  std::fputc('\n', stdout);
  std::printf("workers=%u\n", workers);
  bench::write_bench_json(bench_json, json_entries);
  return 0;
}
