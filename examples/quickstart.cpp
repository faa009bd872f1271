//===- examples/quickstart.cpp - HetSim in 60 lines -----------------------===//
///
/// \file
/// Quickstart: simulate the reduction kernel on two heterogeneous systems
/// — a discrete CPU+GPU connected by PCI-E and the ideal unified machine —
/// and print the execution-time breakdown (sequential / parallel /
/// communication) plus the programmability cost of each address space.
///
/// Build & run:  ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("HetSim quickstart: reduction on two design points\n\n");

  for (CaseStudy Study : {CaseStudy::CpuGpu, CaseStudy::IdealHetero}) {
    SystemConfig Config = SystemConfig::forCaseStudy(Study);
    HeteroSimulator Simulator(Config, Opts);
    RunResult Result = Simulator.run(KernelId::Reduction);

    const TimeBreakdown &T = Result.Time;
    std::printf("%-14s total %8.1f us   (seq %7.1f, par %7.1f, comm %7.1f)"
                "  comm %5.1f%%\n",
                Config.Name.c_str(), T.totalNs() / 1e3,
                T.SequentialNs / 1e3, T.ParallelNs / 1e3,
                T.CommunicationNs / 1e3, 100.0 * T.commFraction());
    std::printf("    CPU: %llu insts, IPC %.2f, %llu mispredicts;  "
                "GPU: %llu warp insts;  moved %llu bytes in %llu copies\n\n",
                (unsigned long long)Result.CpuTotal.Insts,
                Result.CpuTotal.ipc(),
                (unsigned long long)Result.CpuTotal.BranchMispredicts,
                (unsigned long long)Result.GpuTotal.Insts,
                (unsigned long long)Result.TransferredBytes,
                (unsigned long long)Result.TransferCount);
  }

  std::printf("Programmability (communication source lines, reduction):\n");
  for (AddressSpaceKind Kind :
       {AddressSpaceKind::Unified, AddressSpaceKind::PartiallyShared,
        AddressSpaceKind::Adsm, AddressSpaceKind::Disjoint}) {
    HostSource Source = emitCommunicationSource(KernelId::Reduction, Kind);
    std::printf("  %-18s %2u lines\n", addressSpaceName(Kind),
                Source.lineCount());
    for (const std::string &Statement : Source.Statements)
      std::printf("      %s\n", Statement.c_str());
  }
  return 0;
}
