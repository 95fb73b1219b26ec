// hardening_planner: the mitigation-evaluation use case from the paper's
// introduction — once the Eq. 1-4 inputs exist for a code, compare
// protection schemes *before* building them:
//
//   ./hardening_planner --code=MXM [--arch=kepler] [--ecc=off]
//
// Schemes evaluated: SECDED over the memories, duplication of the dominant
// arithmetic unit, duplication of the LDST path, and full instruction DMR.
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/study.hpp"
#include "model/what_if.hpp"

using namespace gpurel;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string code = cli.get("code", "MXM");
  const bool volta = cli.get("arch", "kepler") == "volta";
  const bool ecc_on = cli.get("ecc", "off") == "on";

  core::StudyConfig sc;
  sc.app_beam_runs = 40;  // beam not needed for what-if; keep stage 2 cheap
  sc.injections_per_kind = static_cast<unsigned>(
      cli.get_int_env("injections", "GPUREL_INJECTIONS", 50));
  sc.app_scale = cli.get_double("scale", 1.0);
  core::Study study(volta ? arch::GpuConfig::volta_v100(2)
                          : arch::GpuConfig::kepler_k40c(2),
                    sc);

  const auto precision = code == "CCL" || code == "BFS" || code == "NW" ||
                                 code == "MERGESORT" || code == "QUICKSORT"
                             ? core::Precision::Int32
                             : core::Precision::Single;
  const kernels::CatalogEntry entry{code, precision};
  const auto ev = study.evaluate(
      entry, {.injections = true, .beam = false, .predictions = false});
  const auto& campaign = ev.nvbitfi ? *ev.nvbitfi : *ev.sassifi;

  // Assemble the code observables the model needs (same path as Study).
  auto w = kernels::make_workload(
      entry.base, entry.precision,
      {study.gpu(), isa::CompilerProfile::Cuda10, 42 ^ 0x5eed, sc.app_scale});
  sim::Device dev(study.gpu());
  w->prepare(dev);
  const auto exposure = beam::compute_exposure(*w, dev.memory().allocated_bits());

  model::CodeObservables obs;
  obs.profile = ev.profile;
  obs.avf = &campaign;
  obs.ecc = ecc_on;
  if (exposure.trial_cycles > 0) {
    obs.rf_bits = exposure.rf_bit_cycles / exposure.trial_cycles;
    obs.shared_bits = exposure.shared_bit_cycles / exposure.trial_cycles;
  }
  obs.global_bits = static_cast<double>(dev.memory().allocated_bits());
  const fault::OutcomeCounts& rf = campaign.of(fault::SiteClass::RegisterFile);
  obs.mem_avf_sdc = rf.total() > 0 ? rf.avf_sdc() : campaign.overall_avf_sdc();
  obs.mem_avf_due = rf.total() > 0 ? rf.avf_due() : campaign.overall_avf_due();

  // Find the dominant measured arithmetic unit for the targeted scheme.
  isa::UnitKind hot = isa::UnitKind::FFMA;
  double hot_f = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(isa::UnitKind::kCount);
       ++k) {
    const auto kind = static_cast<isa::UnitKind>(k);
    if (!model::kind_in_method(kind) || kind == isa::UnitKind::LDST) continue;
    if (ev.profile.lane_fraction(kind) > hot_f) {
      hot_f = ev.profile.lane_fraction(kind);
      hot = kind;
    }
  }

  std::printf("=== hardening planner: %s on %s (ECC %s) ===\n\n",
              ev.name.c_str(), study.gpu().name.c_str(), ecc_on ? "on" : "off");
  Table t({"scheme", "SDC FIT", "reduction", "detections added"});
  const auto& inputs = study.fit_inputs();

  auto row = [&](const std::string& name, const model::Hardening& scheme) {
    const auto r = model::what_if(inputs, obs, scheme);
    t.row()
        .cell(name)
        .cell(format_sci(r.hardened.sdc))
        .cell(format_fixed(100.0 * r.sdc_reduction, 1) + "%")
        .cell(format_sci(r.due_added));
    return r;
  };

  model::Hardening none, ecc, hot_unit, ldst, dmr, dmr_ecc;
  ecc.ecc_memory = true;
  hot_unit.hardened_units = {hot};
  ldst.hardened_units = {isa::UnitKind::LDST};
  dmr.duplicate_all = true;
  dmr_ecc.duplicate_all = true;
  dmr_ecc.ecc_memory = true;
  row("(baseline)", none);
  row("SECDED memories", ecc);
  row("duplicate " + std::string(isa::unit_kind_name(hot)), hot_unit);
  row("duplicate LDST path", ldst);
  row("full instruction DMR", dmr);
  row("DMR + SECDED", dmr_ecc);
  std::fputs(t.to_text().c_str(), stdout);
  std::printf("\n(Predictions via Eq. 1-4 with the protected resources' "
              "contribution converted to detections; §I motivation.)\n");
  return 0;
}
