//===- examples/design_sweep.cpp - Walking the design space ---------------===//
///
/// \file
/// Uses the experiment harness to walk the memory-model design space the
/// way the paper does: the five case-study systems, then the four address
/// spaces under ideal communication, then a sweep of the PCI-E API cost —
/// ending with the paper's conclusion computed from the measurements.
///
/// Build & run:  ./build/examples/design_sweep
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include <cstdio>
#include <map>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  // 1. Case studies on one representative kernel (merge sort: the
  //    paper's highest communication fraction).
  std::printf("1. Case-study systems on merge sort\n\n");
  for (CaseStudy Study : allCaseStudies()) {
    HeteroSimulator Sim(SystemConfig::forCaseStudy(Study), Opts);
    RunResult R = Sim.run(KernelId::MergeSort);
    std::printf("   %-14s total %7.1f us, comm %6.1f us (%4.1f%%)\n",
                caseStudyName(Study), R.Time.totalNs() / 1e3,
                R.Time.CommunicationNs / 1e3,
                100.0 * R.Time.commFraction());
  }

  // 2. Address spaces with ideal communication: the space itself does
  //    not matter for performance.
  std::printf("\n2. Address spaces, ideal communication (merge sort)\n\n");
  double MinTotal = 1e300, MaxTotal = 0;
  for (AddressSpaceKind Kind :
       {AddressSpaceKind::Unified, AddressSpaceKind::PartiallyShared,
        AddressSpaceKind::Disjoint, AddressSpaceKind::Adsm}) {
    HeteroSimulator Sim(SystemConfig::forAddressSpaceStudy(Kind), Opts);
    RunResult R = Sim.run(KernelId::MergeSort);
    MinTotal = std::min(MinTotal, R.Time.totalNs());
    MaxTotal = std::max(MaxTotal, R.Time.totalNs());
    std::printf("   %-5s total %7.1f us, comm source lines: %u\n",
                addressSpaceShortName(Kind), R.Time.totalNs() / 1e3,
                R.CommSourceLines);
  }
  std::printf("   -> spread %.2f%%: the address space alone does not "
              "affect performance.\n",
              100.0 * (MaxTotal / MinTotal - 1.0));

  // 3. Sweep one hardware knob to show spaces and mechanisms decouple.
  std::printf("\n3. PCI-E api cost sweep on the disjoint system "
              "(merge sort)\n\n");
  for (uint64_t Base : {0ull, 10000ull, 33250ull, 100000ull}) {
    ConfigStore Overrides;
    Overrides.setInt("comm.api_pci_base", int64_t(Base));
    HeteroSimulator Sim(
        SystemConfig::forCaseStudy(CaseStudy::CpuGpu, Overrides), Opts);
    RunResult R = Sim.run(KernelId::MergeSort);
    std::printf("   api_pci_base=%-7llu comm %6.1f us\n",
                (unsigned long long)Base, R.Time.CommunicationNs / 1e3);
  }

  // 4. The paper's conclusion, computed.
  std::printf("\n4. Conclusion\n\n");
  std::printf("   locality options:  UNI=%u  PAS=%u  DIS=%u  ADSM=%u\n",
              localityOptionCount(AddressSpaceKind::Unified),
              localityOptionCount(AddressSpaceKind::PartiallyShared),
              localityOptionCount(AddressSpaceKind::Disjoint),
              localityOptionCount(AddressSpaceKind::Adsm));
  std::printf("   comm source lines (merge sort):  UNI=%u  PAS=%u  DIS=%u "
              " ADSM=%u\n",
              communicationSourceLines(KernelId::MergeSort,
                                       AddressSpaceKind::Unified),
              communicationSourceLines(KernelId::MergeSort,
                                       AddressSpaceKind::PartiallyShared),
              communicationSourceLines(KernelId::MergeSort,
                                       AddressSpaceKind::Disjoint),
              communicationSourceLines(KernelId::MergeSort,
                                       AddressSpaceKind::Adsm));
  std::printf("\n   The partially shared space combines near-unified "
              "programmability\n   with the most locality-management and "
              "hardware design options —\n   the paper's recommendation.\n");
  return 0;
}
