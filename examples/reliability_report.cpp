// reliability_report: the downstream-user tool — point it at one code and
// get the full cross-validated reliability picture: profile, injected AVF,
// beam FIT (ECC on/off), the Eq. 1-4 prediction, and the beam-vs-prediction
// verdicts, rendered by the library's report module.
//
//   ./reliability_report --code=MXM --precision=single --arch=kepler
//   ./reliability_report --code=GEMM-MMA --precision=half --arch=volta --csv
//   ./reliability_report --code=MXM --metrics-out=m.json --trace-out=t.json
//   ./reliability_report --code=MXM --json          # versioned JSON document
//   ./reliability_report --code=MXM --cache-dir=/tmp/gpurel-cache
#include <cstdio>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "obs/export.hpp"

using namespace gpurel;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string code = cli.get("code", "MXM");
  const auto precision = core::parse_precision(cli.get("precision", "single"));
  const bool volta = cli.get("arch", "kepler") == "volta";

  core::StudyConfig sc;
  sc.app_beam_runs =
      static_cast<unsigned>(cli.get_int_env("runs", "GPUREL_RUNS", 150));
  sc.injections_per_kind = static_cast<unsigned>(
      cli.get_int_env("injections", "GPUREL_INJECTIONS", 50));
  sc.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  sc.app_scale = cli.get_double("scale", 1.0);
  sc.workers = static_cast<unsigned>(cli.get_int_env("workers", "GPUREL_WORKERS", 1));
  sc.progress = cli.get_bool_env("progress", "GPUREL_PROGRESS", false);
  sc.cache_dir = cli.get("cache-dir");  // empty → GPUREL_CACHE → recompute
  obs::Exporter exporter(cli.get("metrics-out"), cli.get("trace-out"));
  sc.trace = exporter.trace();
  core::Study study(volta ? arch::GpuConfig::volta_v100(2)
                          : arch::GpuConfig::kepler_k40c(2),
                    sc);

  const kernels::CatalogEntry entry{code, precision};
  const bool as_json = cli.get_bool("json");
  if (!as_json)
    std::printf("reliability report: %s on %s\n\n",
                kernels::entry_name(entry).c_str(), study.gpu().name.c_str());
  const auto ev = study.evaluate(entry);

  if (as_json) {
    // Machine-readable document, schema-versioned (see core/report.hpp).
    std::cout << core::code_report_json(ev).dump() << "\n";
    if (cli.get_bool("micro"))
      std::cout << core::micro_report_json(study.microbenchmarks()).dump()
                << "\n";
    return 0;
  }

  core::ReportOptions options;
  options.csv = cli.get_bool("csv");
  core::write_code_report(std::cout, ev, options);

  if (cli.get_bool("micro")) {
    std::printf("\nmicrobenchmark characterization (model inputs):\n");
    core::write_micro_report(std::cout, study.microbenchmarks(), options.csv);
  }
  return 0;
}
