//===- examples/locality_explorer.cpp - Locality-management options -------===//
///
/// \file
/// Explores Section II-B: enumerates the locality-management schemes each
/// address space admits, runs a kernel with implicit vs. explicit shared-
/// cache management (the `push` operation), and demonstrates the II-B5
/// hybrid replacement protecting pushed data from a streaming workload.
///
/// Build & run:  ./build/examples/locality_explorer
///
//===----------------------------------------------------------------------===//

#include "cache/Cache.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  // 1. Which schemes does each address space admit?
  std::printf("1. Locality-management schemes per address space "
              "(Section II-B)\n\n");
  std::printf("   canonical schemes:\n");
  for (const LocalityScheme &Scheme : canonicalLocalitySchemes())
    std::printf("     - %s\n", Scheme.render().c_str());
  std::printf("\n   admitted:  UNI=%u  PAS=%u  DIS=%u  ADSM=%u  "
              "(PAS admits all: conclusion 3)\n",
              localityOptionCount(AddressSpaceKind::Unified),
              localityOptionCount(AddressSpaceKind::PartiallyShared),
              localityOptionCount(AddressSpaceKind::Disjoint),
              localityOptionCount(AddressSpaceKind::Adsm));

  // 2. Implicit vs. explicit shared-space management on a real run. The
  //    paper: "the locality management option itself does not affect
  //    performance except for the additional push instructions".
  std::printf("\n2. Implicit vs. explicit shared-cache management "
              "(reduction, PAS)\n\n");
  for (SharedLocality Shared :
       {SharedLocality::Implicit, SharedLocality::Explicit}) {
    SystemConfig Config =
        SystemConfig::forAddressSpaceStudy(AddressSpaceKind::PartiallyShared);
    Config.Locality.Shared = Shared;
    Config.Hier.L3.Replacement = Shared == SharedLocality::Explicit
                                     ? ReplacementKind::HybridLru
                                     : ReplacementKind::Lru;
    HeteroSimulator Sim(Config, Opts);
    RunResult R = Sim.run(KernelId::Reduction);
    std::printf("   %-12s total %7.2f us (push overhead %5.2f us, "
                "%llu lines staged)\n",
                sharedLocalityName(Shared), R.Time.totalNs() / 1e3,
                R.PushNs / 1e3,
                (unsigned long long)Sim.memory().stats().counter(
                    "mem.push_lines"));
  }

  // 3. What the explicit tag buys under cache pressure (II-B5).
  std::printf("\n3. Hybrid replacement under streaming pressure "
              "(one 256KB L3 slice)\n\n");
  for (ReplacementKind Kind :
       {ReplacementKind::Lru, ReplacementKind::HybridLru}) {
    CacheConfig Config;
    Config.Name = "slice";
    Config.SizeBytes = 256 * 1024;
    Config.Ways = 8;
    Config.Replacement = Kind;
    Cache Slice(Config);

    // Pin a 64KB working set, then stream 4MB through.
    for (Addr Offset = 0; Offset < (64 << 10); Offset += CacheLineBytes)
      Slice.access(0x10000000 + Offset, false,
                   Kind == ReplacementKind::HybridLru);
    for (Addr Offset = 0; Offset < (4 << 20); Offset += CacheLineBytes)
      Slice.access(0x40000000 + Offset, false);

    unsigned Survived = 0, Total = 0;
    for (Addr Offset = 0; Offset < (64 << 10); Offset += CacheLineBytes) {
      Survived += Slice.probe(0x10000000 + Offset);
      ++Total;
    }
    std::printf("   %-10s pinned-set survival %3u%%  (bypassed fills: "
                "%llu)\n",
                Kind == ReplacementKind::Lru ? "LRU" : "HybridLRU",
                100 * Survived / Total,
                (unsigned long long)Slice.stats().BypassedFills);
  }

  std::printf("\nExplicit blocks carry one tag bit the replacement logic\n"
              "compares; implicit fills cannot evict them, and the\n"
              "explicit capacity is capped below the physical cache size\n"
              "— the two hardware requirements of Section II-B5.\n");

  // 4. Globalization / privatization (Section II-A3): moving an object
  //    between private and shared space at run time is a page-table
  //    remap + TLB shootdown, not a copy — compare its cost with
  //    actually transferring the data.
  std::printf("\n4. Globalization vs. transfer (Section II-A3)\n\n");
  {
    MemHierConfig Hier;
    MemorySystem Mem(Hier);
    const uint64_t Bytes = 320512; // Reduction's initial transfer.
    Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, Bytes);
    Cycle RemapCost = Mem.remapRange(PuKind::Cpu, region::CpuPrivateBase,
                                     region::SharedBase, Bytes);
    CommParams Params;
    std::printf("   globalize %llu bytes: remap %llu cycles  vs  PCI-E "
                "copy %llu cycles  vs  aperture %llu cycles\n",
                (unsigned long long)Bytes, (unsigned long long)RemapCost,
                (unsigned long long)Params.pciCopyCycles(Bytes),
                (unsigned long long)Params.get<CommField::ApiTransfer>());
    std::printf("   remapping beats copying when the data is large and\n"
                "   both PUs can reach the shared region — another option\n"
                "   only the partially shared space offers.\n");
  }
  return 0;
}
