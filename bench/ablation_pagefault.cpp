//===- bench/ablation_pagefault.cpp - lib-pf cost sweep -------------------===//
///
/// \file
/// Ablation B: sweep the shared-space page-fault handling cost (lib-pf,
/// Table IV default 42000) on the LRB system. Page faults are LRB's main
/// communication overhead; at lib-pf=0 LRB's aperture transfers make it
/// far cheaper than synchronous PCI-E memcpys, while large lib-pf values
/// make it the most expensive system.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Ablation B: lib-pf sweep on LRB ===\n\n");

  static const uint64_t LibPfValues[] = {0,     5000,  20000,
                                         42000, 84000, 168000};
  static const uint64_t PageSizes[] = {4096, 16384, 65536, 262144};

  // One sweep: PCI-E reference + lib-pf grid + page-size grid.
  std::vector<SweepPoint> Points;
  Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::CpuGpu),
                      KernelId::Reduction);
  for (uint64_t LibPf : LibPfValues) {
    ConfigStore Overrides;
    Overrides.setInt("comm.lib_pf", int64_t(LibPf));
    Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Lrb, Overrides),
                        KernelId::Reduction);
  }
  for (uint64_t PageBytes : PageSizes) {
    ConfigStore Overrides;
    Overrides.setInt("mem.gpu_page_bytes", int64_t(PageBytes));
    Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Lrb, Overrides),
                        KernelId::Reduction);
  }
  SweepRunner Runner(0, Opts);
  std::vector<RunResult> Results = Runner.run(Points);

  double PciComm = Results[0].Time.CommunicationNs / 1e3;
  std::printf("CPU+GPU (PCI-E) communication reference: %.1f us\n\n",
              PciComm);

  TextTable Table({"lib_pf", "page_faults", "comm_us", "total_us",
                   "vs CPU+GPU comm"});
  size_t Next = 1;
  for (uint64_t LibPf : LibPfValues) {
    const RunResult &R = Results[Next++];
    double Comm = R.Time.CommunicationNs / 1e3;
    Table.addRow({std::to_string(LibPf), std::to_string(R.PageFaults),
                  formatDouble(Comm, 1),
                  formatDouble(R.Time.totalNs() / 1e3, 1),
                  formatDouble(Comm / PciComm, 2)});
  }
  std::printf("%s\n", Table.render().c_str());

  std::printf("GPU page size also sets the fault count (large pages\n"
              "amortize lib-pf, Section II-A1):\n\n");
  TextTable Pages({"gpu_page_bytes", "page_faults", "comm_us"});
  for (uint64_t PageBytes : PageSizes) {
    const RunResult &R = Results[Next++];
    Pages.addRow({std::to_string(PageBytes), std::to_string(R.PageFaults),
                  formatDouble(R.Time.CommunicationNs / 1e3, 1)});
  }
  std::printf("%s", Pages.render().c_str());
  std::fprintf(stderr, "%s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("ablation_pagefault", Runner.telemetry(), Opts);
  return 0;
}
