//===- bench/table5_programmability.cpp - Regenerates Table V -------------===//
///
/// \file
/// Table V: source lines needed to handle data communication under each
/// address space (Section V-C). The counts are produced by emitting the
/// actual host statements each model requires; the emitted code for the
/// reduction kernel is shown below the table.
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  std::printf("=== Table V: communication source lines ===\n");
  std::printf("(paper: matrix mul 0/2/9/6, merge sort 0/2/6/4, dct 0/2/6/4,"
              "\n reduction 0/2/9/6, convolution 0/4/9/6, k-mean 0/6/6/4)\n\n");
  TextTable Table = renderTable5();
  maybeExportCsv("table5", Table, Opts);
  std::printf("%s\n", Table.render().c_str());

  std::printf("Ordering check (Section V-C): unified < partially shared "
              "<= ADSM < disjoint\n\n");

  std::printf("Emitted host statements, reduction kernel:\n");
  for (AddressSpaceKind Kind :
       {AddressSpaceKind::PartiallyShared, AddressSpaceKind::Adsm,
        AddressSpaceKind::Disjoint}) {
    HostSource Source = emitCommunicationSource(KernelId::Reduction, Kind);
    std::printf("\n  [%s] %u lines\n", addressSpaceName(Kind),
                Source.lineCount());
    for (const std::string &Statement : Source.Statements)
      std::printf("    %s\n", Statement.c_str());
  }
  return 0;
}
