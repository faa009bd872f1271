//===- bench/ablation_prefetch.cpp - L2 stream-prefetch ablation ----------===//
///
/// \file
/// Ablation E: the Table II baseline has no prefetcher; this ablation
/// adds an L2 stream prefetcher and sweeps its degree. Streaming kernels
/// (reduction, convolution) gain; the hot-table kernel (k-means) barely
/// moves; the win is orthogonal to the memory-model choice, supporting
/// the paper's separation of concerns.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Ablation E: L2 stream prefetching (IDEAL system) "
              "===\n\n");

  static const KernelId Kernels[] = {KernelId::Reduction,
                                     KernelId::Convolution,
                                     KernelId::MergeSort, KernelId::KMeans};

  // Grid: per kernel, no-prefetch baseline then degrees 1/2/4.
  std::vector<SweepPoint> Points;
  SystemConfig Baseline = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  std::vector<SystemConfig> Prefetchers;
  for (unsigned Degree : {1u, 2u, 4u}) {
    ConfigStore Overrides;
    Overrides.setBool("mem.l2_prefetch", true);
    Overrides.setInt("mem.prefetch_degree", Degree);
    Prefetchers.push_back(
        SystemConfig::forCaseStudy(CaseStudy::IdealHetero, Overrides));
  }
  for (KernelId Kernel : Kernels) {
    Points.emplace_back(Baseline, Kernel);
    for (const SystemConfig &Config : Prefetchers)
      Points.emplace_back(Config, Kernel);
  }
  SweepRunner Runner(0, Opts);
  std::vector<RunResult> Results = Runner.run(Points);

  TextTable Table({"kernel", "no prefetch us", "degree=1", "degree=2",
                   "degree=4", "best gain"});
  size_t Next = 0;
  for (KernelId Kernel : Kernels) {
    std::vector<double> Totals;
    for (unsigned I = 0; I != 4; ++I)
      Totals.push_back(Results[Next++].Time.totalNs() / 1e3);
    double Best = *std::min_element(Totals.begin() + 1, Totals.end());
    Table.addRow({kernelName(Kernel), formatDouble(Totals[0], 1),
                  formatDouble(Totals[1], 1), formatDouble(Totals[2], 1),
                  formatDouble(Totals[3], 1),
                  formatPercent(1.0 - Best / Totals[0])});
  }
  std::printf("%s\n", Table.render().c_str());
  std::fprintf(stderr, "%s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("ablation_prefetch", Runner.telemetry(), Opts);
  std::printf("Prefetching shortens parallel/sequential compute only; it\n"
              "does not change communication costs, so the case-study\n"
              "orderings of Figures 5/6 are unaffected.\n");
  return 0;
}
