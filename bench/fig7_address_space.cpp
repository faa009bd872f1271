//===- bench/fig7_address_space.cpp - Regenerates Figure 7 ----------------===//
///
/// \file
/// Figure 7: the four memory-address-space options (UNI, PAS, DIS, ADSM)
/// with a shared cache and ideal communication overhead. Expected shape
/// (Section V-B): essentially no performance difference — the address
/// space design itself does not affect performance; it is about
/// programmability.
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include <cstdio>
#include <map>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Figure 7: address-space options, ideal communication "
              "===\n\n");
  SweepTelemetry Telemetry;
  std::vector<ExperimentRow> Rows = runAddressSpaceStudy({}, Opts, &Telemetry);
  TextTable Table = renderFigure7(Rows);
  maybeExportCsv("fig7", Table, Opts);
  std::printf("%s\n", Table.render().c_str());

  std::printf("Max spread across address spaces per kernel (paper: almost "
              "none):\n");
  std::map<KernelId, std::pair<double, double>> Range;
  for (const ExperimentRow &Row : Rows) {
    auto &R = Range.try_emplace(Row.Kernel, 1e300, 0.0).first->second;
    R.first = std::min(R.first, Row.Result.Time.totalNs());
    R.second = std::max(R.second, Row.Result.Time.totalNs());
  }
  for (KernelId Kernel : allKernels())
    std::printf("  %-12s %+0.2f%%\n", kernelName(Kernel),
                100.0 * (Range[Kernel].second / Range[Kernel].first - 1.0));

  std::fprintf(stderr, "%s\n", Telemetry.summary().c_str());
  appendBenchTiming("fig7_address_space", Telemetry, Opts);
  return 0;
}
