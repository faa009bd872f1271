//===- bench/ablation_warps.cpp - GPU latency-hiding sweep ----------------===//
///
/// \file
/// Ablation K: sweep the GPU's resident warp count. The Fermi-like GPU
/// hides memory latency and branch stalls by issuing from other warps;
/// with one warp the in-order pipeline is exposed to every stall, and the
/// streaming/branchy kernels degrade accordingly. The knee of the curve
/// shows how much thread-level parallelism the memory system demands.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "common/Units.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Ablation K: GPU warp-count sweep (IDEAL system) ===\n\n");

  static const KernelId Kernels[] = {KernelId::Reduction,
                                     KernelId::MergeSort, KernelId::KMeans};
  static const unsigned WarpCounts[] = {1, 2, 4, 8, 16, 32};

  std::vector<SweepPoint> Points;
  for (KernelId Kernel : Kernels)
    for (unsigned Warps : WarpCounts) {
      SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
      Config.Gpu.NumWarps = Warps;
      Points.emplace_back(std::move(Config), Kernel);
    }
  SweepRunner Runner(0, Opts);
  std::vector<RunResult> Results = Runner.run(Points);

  TextTable Table({"kernel", "1 warp", "2", "4", "8", "16", "32",
                   "1-warp slowdown"});
  size_t Next = 0;
  for (KernelId Kernel : Kernels) {
    std::vector<std::string> Cells = {kernelName(Kernel)};
    double OneWarpUs = 0, ManyWarpUs = 0;
    for (unsigned Warps : WarpCounts) {
      const RunResult &R = Results[Next++];
      // Report the GPU-side time: parallel span is often CPU-bound, so
      // show the GPU segment itself.
      double GpuUs =
          cyclesToNs(PuKind::Gpu, R.GpuTotal.Cycles) / 1e3;
      Cells.push_back(formatDouble(GpuUs, 1));
      if (Warps == 1)
        OneWarpUs = GpuUs;
      ManyWarpUs = GpuUs;
    }
    Cells.push_back(formatDouble(OneWarpUs / ManyWarpUs, 2) + "x");
    Table.addRow(Cells);
  }
  std::printf("%s\n", Table.render().c_str());
  std::fprintf(stderr, "%s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("ablation_warps", Runner.telemetry(), Opts);
  std::printf("GPU-side microseconds per kernel round. The branchy merge\n"
              "sort (a stall per compare) and the streaming reduction gain\n"
              "the most from added warps; beyond the knee the cores sit on\n"
              "the 1-IPC issue floor.\n");
  return 0;
}
