//===- bench/fig5_case_studies.cpp - Regenerates Figure 5 -----------------===//
///
/// \file
/// Figure 5: execution-time breakdown (sequential / parallel /
/// communication) of the five heterogeneous architecture configurations
/// over the six kernels. Expected shape (Section V-A): parallel compute
/// dominates everywhere; CPU+GPU, LRB, and GMAC run longer than
/// IDEAL-HETERO and Fusion; merge sort and k-means show the largest
/// communication fractions.
///
//===----------------------------------------------------------------------===//

#include "common/AsciiChart.h"
#include "core/Experiments.h"

#include <cstdio>
#include <map>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Figure 5: case-study time breakdown ===\n\n");
  SweepTelemetry Telemetry;
  std::vector<ExperimentRow> Rows = runCaseStudies({}, Opts, &Telemetry);
  TextTable Table = renderFigure5(Rows);
  maybeExportCsv("fig5", Table, Opts);
  std::printf("%s\n", Table.render().c_str());

  // The figure itself: stacked seq/par/comm bars, normalized per kernel
  // to the IDEAL-HETERO total (as the paper plots them).
  std::map<KernelId, double> Ideal;
  for (const ExperimentRow &Row : Rows)
    if (Row.System == "IDEAL-HETERO")
      Ideal[Row.Kernel] = Row.Result.Time.totalNs();
  for (KernelId Kernel : allKernels()) {
    std::printf("%s (normalized to IDEAL-HETERO = 1.0):\n",
                kernelName(Kernel));
    std::vector<StackedBar> Bars;
    for (const ExperimentRow &Row : Rows) {
      if (Row.Kernel != Kernel)
        continue;
      double Ref = Ideal[Kernel];
      StackedBar Bar;
      Bar.Label = Row.System;
      Bar.Components = {Row.Result.Time.SequentialNs / Ref,
                        Row.Result.Time.ParallelNs / Ref,
                        Row.Result.Time.CommunicationNs / Ref};
      Bars.push_back(std::move(Bar));
    }
    std::printf("%s\n",
                renderStackedBarChart(Bars, {"seq", "par", "comm"}, "#=.",
                                      48, "x")
                    .c_str());
  }

  // Per-kernel communication fraction averaged over the five systems, the
  // quantity the paper quotes (merge sort 12%, k-mean 7.6%).
  std::printf("Average communication fraction per kernel (over the five "
              "systems):\n");
  std::map<KernelId, std::pair<double, unsigned>> Acc;
  for (const ExperimentRow &Row : Rows) {
    Acc[Row.Kernel].first += Row.Result.Time.commFraction();
    Acc[Row.Kernel].second += 1;
  }
  for (KernelId Kernel : allKernels())
    std::printf("  %-12s %5.1f%%\n", kernelName(Kernel),
                100.0 * Acc[Kernel].first / Acc[Kernel].second);

  // Wall-clock telemetry goes to stderr so stdout stays byte-identical
  // across job counts (determinism checks diff it).
  std::fprintf(stderr, "%s\n", Telemetry.summary().c_str());
  appendBenchTiming("fig5_case_studies", Telemetry, Opts);
  return 0;
}
