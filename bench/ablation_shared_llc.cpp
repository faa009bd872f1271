//===- bench/ablation_shared_llc.cpp - Disjoint space, shared LLC ---------===//
///
/// \file
/// Ablation G: Section II-A2 stresses that "even though memory spaces are
/// not shared, they can still share the cache" (Intel Sandy Bridge).
/// This ablation compares a Fusion-style disjoint system without a shared
/// LLC against a Sandy-Bridge-style one where the GPU also fills the L3:
/// address-space organization and cache sharing are independent axes.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Ablation G: disjoint space with vs without shared LLC "
              "(Section II-A2) ===\n\n");

  TextTable Table({"kernel", "total_us priv/shared", "gpu avg mem lat (cyc)",
                   "gpu dram lines", "gpu L3 hit rate"});
  for (KernelId Kernel :
       {KernelId::Reduction, KernelId::Convolution, KernelId::MergeSort,
        KernelId::KMeans}) {
    HeteroSimulator Fusion(SystemConfig::forCaseStudy(CaseStudy::Fusion),
                           Opts);
    RunResult Private = Fusion.run(Kernel);
    double PrivateLat =
        Private.GpuTotal.MemAccesses == 0
            ? 0
            : double(Private.GpuTotal.MemLatencySum) /
                  double(Private.GpuTotal.MemAccesses);
    uint64_t PrivateDram = Fusion.memory().cpuDram().stats().Reads;

    HeteroSimulator Sandy(SystemConfig::sandyBridgeStyle(), Opts);
    RunResult Shared = Sandy.run(Kernel);
    double SharedLat = Shared.GpuTotal.MemAccesses == 0
                           ? 0
                           : double(Shared.GpuTotal.MemLatencySum) /
                                 double(Shared.GpuTotal.MemAccesses);
    uint64_t SharedDram = Sandy.memory().cpuDram().stats().Reads;
    double L3Hit = Sandy.memory().l3().stats().hitRate();

    Table.addRow({kernelName(Kernel),
                  formatDouble(Private.Time.totalNs() / 1e3, 1) + " / " +
                      formatDouble(Shared.Time.totalNs() / 1e3, 1),
                  formatDouble(PrivateLat, 1) + " -> " +
                      formatDouble(SharedLat, 1),
                  formatCount(PrivateDram) + " -> " + formatCount(SharedDram),
                  formatPercent(L3Hit)});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("Both systems keep disjoint address spaces and the same\n"
              "memory-controller communication; only LLC sharing differs.\n"
              "Sharing the LLC cuts the GPU's average memory latency and\n"
              "its DRAM traffic, while total time is bounded elsewhere —\n"
              "the axes are independent, as Section II-A2 argues.\n");
  return 0;
}
