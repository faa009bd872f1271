//===- bench/extra_workloads.cpp - Beyond-Table-III workloads -------------===//
///
/// \file
/// Ablation H: three workloads the paper does not evaluate (stream triad,
/// histogram, SpMV) on three design points, plus a problem-size scaling
/// study showing where communication stops mattering — the design-space
/// tool applied to new inputs.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/ExtraWorkloads.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Ablation H: extra workloads (stream triad, histogram, "
              "spmv) ===\n\n");

  TextTable Table({"workload", "system", "total_us", "comm_us",
                   "comm_frac"});
  for (ExtraWorkloadId Id : allExtraWorkloads()) {
    for (CaseStudy Study :
         {CaseStudy::CpuGpu, CaseStudy::Fusion, CaseStudy::IdealHetero}) {
      SystemConfig Config = SystemConfig::forCaseStudy(Study);
      HeteroSimulator Sim(Config, Opts);
      LoweredProgram Program = buildExtraWorkload(Id, Config, 128 * 1024);
      RunResult R = Sim.runLowered(Program);
      Table.addRow({extraWorkloadName(Id), Config.Name,
                    formatDouble(R.Time.totalNs() / 1e3, 1),
                    formatDouble(R.Time.CommunicationNs / 1e3, 1),
                    formatPercent(R.Time.commFraction())});
    }
  }
  std::printf("%s\n", Table.render().c_str());

  std::printf("Scaling study: stream triad on CPU+GPU, communication "
              "fraction vs size\n\n");
  TextTable Scale({"elements", "bytes moved", "total_us", "comm_frac"});
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  HeteroSimulator Sim(Config, Opts);
  for (uint64_t Elements : {4096ull, 16384ull, 65536ull, 262144ull,
                            1048576ull}) {
    LoweredProgram Program =
        buildExtraWorkload(ExtraWorkloadId::StreamTriad, Config, Elements);
    RunResult R = Sim.runLowered(Program);
    Scale.addRow({formatCount(Elements), formatCount(R.TransferredBytes),
                  formatDouble(R.Time.totalNs() / 1e3, 1),
                  formatPercent(R.Time.commFraction())});
  }
  std::printf("%s\n", Scale.render().c_str());
  std::printf("Fixed API costs dominate small problems; bandwidth terms\n"
              "dominate large ones — the crossover the Table IV model\n"
              "implies.\n");
  return 0;
}
