//===- bench/ablation_comm_latency.cpp - PCI-E cost sweep -----------------===//
///
/// \file
/// Ablation A: sweep the api-pci fixed cost (Table IV default 33250) and
/// watch the disjoint CPU+GPU system converge toward Fusion as the
/// interconnect gets cheaper — the paper's point that the performance
/// delta between systems is mostly the hardware communication mechanism.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Ablation A: api-pci base-cost sweep (reduction, "
              "k-mean) ===\n\n");

  static const uint64_t Bases[] = {0,     1000,  5000,  10000,
                                   33250, 66500, 133000};

  // One sweep: the two Fusion reference runs plus the (base x kernel)
  // grid, fanned out together over the sweep engine.
  std::vector<SweepPoint> Points;
  SystemConfig Fusion = SystemConfig::forCaseStudy(CaseStudy::Fusion);
  Points.emplace_back(Fusion, KernelId::Reduction);
  Points.emplace_back(Fusion, KernelId::KMeans);
  for (uint64_t Base : Bases) {
    ConfigStore Overrides;
    Overrides.setInt("comm.api_pci_base", int64_t(Base));
    SystemConfig Config =
        SystemConfig::forCaseStudy(CaseStudy::CpuGpu, Overrides);
    Points.emplace_back(Config, KernelId::Reduction);
    Points.emplace_back(Config, KernelId::KMeans);
  }
  SweepRunner Runner(0, Opts);
  std::vector<RunResult> Results = Runner.run(Points);

  std::printf("Fusion communication reference: reduction %.1f us, "
              "k-mean %.1f us\n\n",
              Results[0].Time.CommunicationNs / 1e3,
              Results[1].Time.CommunicationNs / 1e3);

  TextTable Table({"api_pci_base", "reduction comm_us", "reduction total_us",
                   "k-mean comm_us", "k-mean total_us"});
  size_t Next = 2;
  for (uint64_t Base : Bases) {
    const RunResult &Reduction = Results[Next++];
    const RunResult &KMeans = Results[Next++];
    Table.addRow({std::to_string(Base),
                  formatDouble(Reduction.Time.CommunicationNs / 1e3, 1),
                  formatDouble(Reduction.Time.totalNs() / 1e3, 1),
                  formatDouble(KMeans.Time.CommunicationNs / 1e3, 1),
                  formatDouble(KMeans.Time.totalNs() / 1e3, 1)});
  }
  std::printf("%s\n", Table.render().c_str());
  std::fprintf(stderr, "%s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("ablation_comm_latency", Runner.telemetry(), Opts);
  std::printf("Even at api_pci_base=0 the PCI-E system still pays the\n"
              "bandwidth term (bytes at 16GB/s), so it cannot reach\n"
              "Fusion's memory-controller cost for small transfers.\n");
  return 0;
}
