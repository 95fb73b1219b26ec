// Quickstart: the three layers of the public API in ~100 lines.
//
//   1. Write a kernel with the KernelBuilder eDSL and run it on a simulated
//      device (the SASS-level substrate).
//   2. Wrap an existing paper workload and profile it (Table-I metrics).
//   3. Run a small beam experiment and a small fault-injection campaign on
//      it, and print FIT / AVF numbers.
//
// Build: cmake --build build && ./build/examples/quickstart
//
// Observability: --metrics-out=metrics.json writes the metrics registry
// snapshot (plus metrics.prom Prometheus text), --trace-out=trace.json a
// Chrome-trace timeline; GPUREL_METRICS / GPUREL_TRACE env vars do the same.
#include <cstdio>
#include <vector>

#include "beam/experiment.hpp"
#include "common/cli.hpp"
#include "fault/campaign.hpp"
#include "isa/kernel_builder.hpp"
#include "kernels/registry.hpp"
#include "obs/export.hpp"
#include "profile/profiler.hpp"
#include "sim/device.hpp"

using namespace gpurel;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  obs::Exporter exporter(cli.get("metrics-out"), cli.get("trace-out"));
  // ---- 1. A hand-written kernel: out[i] = a[i] * a[i] + 1 ------------------
  isa::KernelBuilder b("square_plus_one");
  isa::Reg tid = b.global_tid_x();
  isa::Reg n = b.load_param(0);
  isa::Pred in_range = b.pred();
  b.isetp(in_range, tid, n, isa::CmpOp::LT);
  b.if_then(in_range, [&] {
    isa::Reg in = b.load_param(1), out = b.load_param(2);
    isa::Reg addr = b.reg(), v = b.reg(), one = b.reg();
    b.addr_index(addr, in, tid, 4);
    b.ldg(v, addr);
    b.movf(one, 1.0f);
    b.ffma(v, v, v, one);
    b.addr_index(addr, out, tid, 4);
    b.stg(addr, v);
  });
  isa::Program prog = b.build();
  std::printf("--- disassembly ---\n%s\n", prog.disassemble().c_str());

  sim::Device dev(arch::GpuConfig::kepler_k40c(2));
  std::vector<float> host(100);
  for (unsigned i = 0; i < host.size(); ++i) host[i] = 0.5f * i;
  const auto in_addr = dev.alloc_copy<float>(host);
  const auto out_addr = dev.alloc(100 * 4);
  sim::KernelLaunch launch{&prog, {2, 1}, {64, 1}, 0,
                           {100, in_addr, out_addr}};
  const auto stats = dev.launch(launch);
  const auto result = dev.copy_out<float>(out_addr, 100);
  std::printf("out[10] = %.2f (expect 26.00); %llu cycles, IPC %.2f\n\n",
              result[10], static_cast<unsigned long long>(stats.cycles),
              stats.ipc);

  // ---- 2. A paper workload, profiled ---------------------------------------
  core::WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                          isa::CompilerProfile::Cuda10, 0x5eed, 0.5};
  auto mxm = kernels::make_workload("MXM", core::Precision::Single, wc);
  sim::Device dev2(wc.gpu);
  obs::RunContext ctx;  // GPUREL_TELEMETRY / GPUREL_TRACE apply when unset
  ctx.trace = exporter.trace();
  const auto profile =
      profile::profile_workload(*mxm, dev2, ctx.sim_timeline());
  std::printf("FMXM profile: IPC %.2f, occupancy %.2f, %u regs/thread, "
              "FMA share %.0f%%\n\n",
              profile.ipc, profile.occupancy, profile.regs_per_thread,
              100.0 * profile.mix_of(isa::MixClass::FMA));

  // ---- 3. Beam + injection on the same workload ----------------------------
  const auto factory =
      kernels::workload_factory("MXM", core::Precision::Single, wc);
  beam::BeamConfig bc;
  bc.runs = 60;
  bc.ecc = false;
  bc.context() = ctx;
  const auto beam_result =
      beam::run_beam(beam::CrossSectionDb::kepler(), factory, bc);
  std::printf("beam (ECC off, %llu runs): SDC FIT %.3g [%.3g, %.3g], "
              "DUE FIT %.3g\n",
              static_cast<unsigned long long>(beam_result.runs),
              beam_result.fit_sdc, beam_result.fit_sdc_ci.lower,
              beam_result.fit_sdc_ci.upper, beam_result.fit_due);

  auto injector = fault::make_injector("NVBitFI");
  fault::CampaignConfig cc;
  cc.injections_per_kind = 25;
  cc.context() = ctx;
  const auto campaign = fault::run_campaign(*injector, factory, cc);
  std::printf("NVBitFI campaign (%llu injections): SDC AVF %.2f, DUE AVF "
              "%.2f, masked %.2f\n",
              static_cast<unsigned long long>(campaign.total_injections()),
              campaign.overall_avf_sdc(), campaign.overall_avf_due(),
              campaign.overall_masked());
  return 0;
}
