//===- bench/fig6_comm_overhead.cpp - Regenerates Figure 6 ----------------===//
///
/// \file
/// Figure 6: communication overhead alone for the evaluated systems.
/// Expected shape: CPU+GPU pays full synchronous PCI-E costs; LRB pays
/// aperture transfers + ownership + first-touch page faults; GMAC hides
/// most copy time behind computation; Fusion's memory-controller path is
/// small; IDEAL-HETERO is zero.
///
//===----------------------------------------------------------------------===//

#include "common/AsciiChart.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Figure 6: communication overhead ===\n\n");
  SweepTelemetry Telemetry;
  std::vector<ExperimentRow> Rows = runCaseStudies({}, Opts, &Telemetry);
  TextTable Table = renderFigure6(Rows);
  maybeExportCsv("fig6", Table, Opts);
  std::printf("%s\n", Table.render().c_str());

  for (KernelId Kernel : allKernels()) {
    std::printf("%s, communication time:\n", kernelName(Kernel));
    std::vector<ChartBar> Bars;
    for (const ExperimentRow &Row : Rows)
      if (Row.Kernel == Kernel)
        Bars.push_back(
            {Row.System, Row.Result.Time.CommunicationNs / 1e3});
    std::printf("%s\n", renderBarChart(Bars, 48, "us").c_str());
  }

  std::printf("Shape checks (paper, Section V-A):\n");
  auto CommOf = [&Rows](const char *System, KernelId Kernel) {
    for (const ExperimentRow &Row : Rows)
      if (Row.System == System && Row.Kernel == Kernel)
        return Row.Result.Time.CommunicationNs;
    return -1.0;
  };
  for (KernelId Kernel : allKernels()) {
    double CpuGpu = CommOf("CPU+GPU", Kernel);
    double Gmac = CommOf("GMAC", Kernel);
    double Fusion = CommOf("Fusion", Kernel);
    double Ideal = CommOf("IDEAL-HETERO", Kernel);
    std::printf("  %-12s GMAC<CPU+GPU:%s  Fusion<CPU+GPU:%s  IDEAL==0:%s\n",
                kernelName(Kernel), Gmac < CpuGpu ? "yes" : "NO",
                Fusion < CpuGpu ? "yes" : "NO",
                Ideal == 0.0 ? "yes" : "NO");
  }

  std::fprintf(stderr, "%s\n", Telemetry.summary().c_str());
  appendBenchTiming("fig6_comm_overhead", Telemetry, Opts);
  return 0;
}
