// injector_compare: the §VI analysis as a tool — run SASSIFI and NVBitFI on
// the same code and show where their AVFs diverge (site coverage, fault
// modes, and the compiler-era codegen they instrument).
//
//   ./injector_compare --code=HOTSPOT [--injections=60]
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "fault/campaign.hpp"
#include "kernels/registry.hpp"

using namespace gpurel;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string code = cli.get("code", "HOTSPOT");
  const auto precision = code == "CCL" || code == "BFS" || code == "NW" ||
                                 code == "MERGESORT" || code == "QUICKSORT"
                             ? core::Precision::Int32
                             : core::Precision::Single;
  const auto gpu = arch::GpuConfig::kepler_k40c(2);

  fault::CampaignConfig cc;
  cc.injections_per_kind = static_cast<unsigned>(
      cli.get_int_env("injections", "GPUREL_INJECTIONS", 60));
  cc.rf_injections = 40;
  cc.pred_injections = 30;
  cc.ia_injections = 30;
  cc.store_value_injections = 30;
  cc.store_addr_injections = 30;
  cc.seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));

  std::printf("=== %s under SASSIFI (CUDA 7 era) vs NVBitFI (CUDA 10 era) "
              "===\n\n",
              code.c_str());
  Table t({"kind", "tool", "sites", "SDC AVF", "DUE AVF", "masked"});

  fault::CampaignResult results[2];
  const char* names[2] = {"SASSIFI", "NVBitFI"};
  for (int i = 0; i < 2; ++i) {
    auto inj = i == 0 ? fault::make_injector("SASSIFI") : fault::make_injector("NVBitFI");
    const core::WorkloadConfig wc{gpu, inj->profile(), 0x5eed, 1.0};
    results[i] =
        fault::run_campaign(*inj, kernels::workload_factory(code, precision, wc),
                            cc);
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(isa::UnitKind::kCount); ++k) {
      const auto& ks = results[i].per_kind[k];
      if (ks.counts.total() == 0) continue;
      t.row()
          .cell(std::string(isa::unit_kind_name(static_cast<isa::UnitKind>(k))))
          .cell(names[i])
          .cell_int(static_cast<long long>(ks.dynamic_sites))
          .cell(ks.counts.avf_sdc(), 3)
          .cell(ks.counts.avf_due(), 3)
          .cell(ks.counts.masked_fraction(), 3);
    }
  }
  std::fputs(t.to_text().c_str(), stdout);

  auto sassifi = [&](fault::SiteClass c) { return results[0].of(c); };
  std::printf("\nSASSIFI aux modes: predicate SDC %.2f/DUE %.2f, instr-address "
              "SDC %.2f/DUE %.2f, RF SDC %.2f/DUE %.2f,\n"
              "                   store-value SDC %.2f/DUE %.2f, store-address "
              "SDC %.2f/DUE %.2f\n",
              sassifi(fault::SiteClass::Predicate).avf_sdc(),
              sassifi(fault::SiteClass::Predicate).avf_due(),
              sassifi(fault::SiteClass::InstructionAddress).avf_sdc(),
              sassifi(fault::SiteClass::InstructionAddress).avf_due(),
              sassifi(fault::SiteClass::RegisterFile).avf_sdc(),
              sassifi(fault::SiteClass::RegisterFile).avf_due(),
              sassifi(fault::SiteClass::StoreValue).avf_sdc(),
              sassifi(fault::SiteClass::StoreValue).avf_due(),
              sassifi(fault::SiteClass::StoreAddress).avf_sdc(),
              sassifi(fault::SiteClass::StoreAddress).avf_due());
  std::printf("overall SDC AVF: SASSIFI %.3f vs NVBitFI %.3f (ratio %.2fx; "
              "paper mean ~1.18x in NVBitFI's favour)\n",
              results[0].overall_avf_sdc(), results[1].overall_avf_sdc(),
              results[1].overall_avf_sdc() /
                  std::max(results[0].overall_avf_sdc(), 1e-9));
  return 0;
}
