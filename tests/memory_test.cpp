//===- tests/memory_test.cpp - memory/ unit tests -------------------------===//

#include "memory/AddressSpaceModel.h"
#include "memory/FirstTouchTracker.h"
#include "memory/MemorySystem.h"
#include "memory/Ownership.h"
#include "memory/PageTable.h"
#include "memory/Tlb.h"

#include <gtest/gtest.h>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// PhysicalMemory + PageTable.
//===----------------------------------------------------------------------===//

TEST(PhysicalMemory, BumpAllocatorAligns) {
  PhysicalMemory Device("test", 1 << 20);
  Addr A = Device.allocate(100, 64);
  Addr B = Device.allocate(100, 64);
  EXPECT_EQ(A % 64, 0u);
  EXPECT_EQ(B % 64, 0u);
  EXPECT_GE(B, A + 100);
}

TEST(PhysicalMemoryDeath, ExhaustionAborts) {
  PhysicalMemory Device("tiny", 128);
  Device.allocate(100, 64);
  EXPECT_DEATH(Device.allocate(100, 64), "exhausted");
}

TEST(PageTable, MapAndTranslate) {
  PhysicalMemory Device("test", 1 << 20);
  PageTable Pt(PuKind::Cpu, 4096);
  Pt.mapRange(0x10000000, 10000, Device);
  EXPECT_EQ(Pt.mappedPages(), 3u); // 10000B spans 3 pages.
  auto Pa = Pt.translate(0x10000000 + 5000);
  ASSERT_TRUE(Pa.has_value());
  // Offset within the page is preserved.
  EXPECT_EQ(*Pa % 4096, 5000u % 4096);
  EXPECT_FALSE(Pt.translate(0x20000000).has_value());
}

TEST(PageTable, RemapKeepsExistingPages) {
  PhysicalMemory Device("test", 1 << 20);
  PageTable Pt(PuKind::Cpu, 4096);
  Pt.mapRange(0x1000, 4096, Device);
  Addr First = *Pt.translate(0x1000);
  Pt.mapRange(0x1000, 8192, Device); // Overlapping remap.
  EXPECT_EQ(*Pt.translate(0x1000), First);
  EXPECT_EQ(Pt.mappedPages(), 2u); // [0x1000, 0x3000) spans pages 1 and 2.
}

TEST(PageTable, UnmapRange) {
  PhysicalMemory Device("test", 1 << 20);
  PageTable Pt(PuKind::Cpu, 4096);
  Pt.mapRange(0, 3 * 4096, Device);
  Pt.unmapRange(4096, 4096);
  EXPECT_TRUE(Pt.isMapped(0));
  EXPECT_FALSE(Pt.isMapped(4096));
  EXPECT_TRUE(Pt.isMapped(2 * 4096));
}

TEST(PageTable, LargePagesCoverMoreWithFewerEntries) {
  PhysicalMemory Device("test", 1 << 24);
  PageTable Small(PuKind::Cpu, 4096);
  PageTable Large(PuKind::Gpu, 65536);
  Small.mapRange(0, 1 << 20, Device);
  Large.mapRange(0, 1 << 20, Device);
  EXPECT_EQ(Small.mappedPages(), 256u);
  EXPECT_EQ(Large.mappedPages(), 16u);
}

//===----------------------------------------------------------------------===//
// TLB.
//===----------------------------------------------------------------------===//

TEST(Tlb, MissThenHit) {
  Tlb T(64, 4, 4096);
  EXPECT_FALSE(T.lookup(0x1000));
  EXPECT_TRUE(T.lookup(0x1000));
  EXPECT_TRUE(T.lookup(0x1FFF)); // Same page.
  EXPECT_FALSE(T.lookup(0x2000)); // Next page.
  EXPECT_EQ(T.stats().Misses, 2u);
  EXPECT_EQ(T.stats().Hits, 2u);
}

TEST(Tlb, LruWithinSet) {
  // 4 entries, 2 ways, 2 sets: pages 0,2,4 share set 0.
  Tlb T(4, 2, 4096);
  T.lookup(0 * 4096);
  T.lookup(2 * 4096);
  T.lookup(0 * 4096);      // Touch page 0.
  T.lookup(4 * 4096);      // Evicts page 2.
  EXPECT_TRUE(T.lookup(0 * 4096));
  EXPECT_FALSE(T.lookup(2 * 4096));
}

TEST(Tlb, FlushInvalidatesAll) {
  Tlb T(64, 4, 4096);
  T.lookup(0x1000);
  T.flush();
  EXPECT_FALSE(T.lookup(0x1000));
}

TEST(Tlb, LargePagesReduceMisses) {
  Tlb Small(32, 4, 4096);
  Tlb Large(32, 4, 65536);
  for (Addr A = 0; A < (1 << 20); A += 4096) {
    Small.lookup(A);
    Large.lookup(A);
  }
  EXPECT_GT(Small.stats().Misses, Large.stats().Misses);
}

//===----------------------------------------------------------------------===//
// Address-space models (Section II-A / Figure 1).
//===----------------------------------------------------------------------===//

TEST(AddressSpace, Names) {
  EXPECT_STREQ(addressSpaceShortName(AddressSpaceKind::Unified), "UNI");
  EXPECT_STREQ(addressSpaceShortName(AddressSpaceKind::PartiallyShared),
               "PAS");
  EXPECT_STREQ(addressSpaceShortName(AddressSpaceKind::Disjoint), "DIS");
  EXPECT_STREQ(addressSpaceShortName(AddressSpaceKind::Adsm), "ADSM");
}

TEST(AddressSpace, RegionClassification) {
  EXPECT_EQ(regionOf(region::CpuPrivateBase), MemRegion::CpuPrivate);
  EXPECT_EQ(regionOf(region::GpuPrivateBase + 100), MemRegion::GpuPrivate);
  EXPECT_EQ(regionOf(region::SharedBase + 4096), MemRegion::Shared);
  EXPECT_EQ(regionOf(0x0), MemRegion::Unknown);
}

TEST(AddressSpace, UnifiedLayoutsIdentical) {
  Placement P = AddressSpaceModel::forKind(AddressSpaceKind::Unified)
                    .place(KernelId::Reduction);
  ASSERT_EQ(P.CpuLayout.segments().size(), P.GpuLayout.segments().size());
  for (size_t I = 0; I != P.CpuLayout.segments().size(); ++I)
    EXPECT_EQ(P.CpuLayout.segments()[I].Base,
              P.GpuLayout.segments()[I].Base);
  EXPECT_EQ(P.SharedObjects.size(), 3u);
  EXPECT_EQ(P.DuplicatedBytes, 0u);
}

TEST(AddressSpace, DisjointDuplicatesIntoGpuSpace) {
  Placement P = AddressSpaceModel::forKind(AddressSpaceKind::Disjoint)
                    .place(KernelId::Reduction);
  for (const DataSegment &S : P.CpuLayout.segments())
    EXPECT_EQ(regionOf(S.Base), MemRegion::CpuPrivate);
  for (const DataSegment &S : P.GpuLayout.segments())
    EXPECT_EQ(regionOf(S.Base), MemRegion::GpuPrivate);
  EXPECT_TRUE(P.SharedObjects.empty());
  EXPECT_EQ(P.DuplicatedBytes, P.GpuLayout.totalBytes());
}

TEST(AddressSpace, PartiallySharedPlacesInSharedRegion) {
  Placement P =
      AddressSpaceModel::forKind(AddressSpaceKind::PartiallyShared)
          .place(KernelId::KMeans);
  for (const DataSegment &S : P.CpuLayout.segments())
    EXPECT_EQ(regionOf(S.Base), MemRegion::Shared);
  EXPECT_TRUE(P.isShared("points"));
  EXPECT_TRUE(P.isShared("centroids"));
  EXPECT_FALSE(P.isShared("nonexistent"));
}

TEST(AddressSpace, AccessRules) {
  const AddressSpaceModel &Unified =
      AddressSpaceModel::forKind(AddressSpaceKind::Unified);
  const AddressSpaceModel &Disjoint =
      AddressSpaceModel::forKind(AddressSpaceKind::Disjoint);
  const AddressSpaceModel &Adsm =
      AddressSpaceModel::forKind(AddressSpaceKind::Adsm);

  // Unified: everything accessible from both PUs.
  EXPECT_TRUE(Unified.canAccess(PuKind::Gpu, region::CpuPrivateBase));

  // Disjoint: strictly private.
  EXPECT_TRUE(Disjoint.canAccess(PuKind::Cpu, region::CpuPrivateBase));
  EXPECT_FALSE(Disjoint.canAccess(PuKind::Gpu, region::CpuPrivateBase));
  EXPECT_FALSE(Disjoint.canAccess(PuKind::Cpu, region::GpuPrivateBase));

  // ADSM: CPU sees all; GPU sees only its own and shared space
  // (Section II-A4).
  EXPECT_TRUE(Adsm.canAccess(PuKind::Cpu, region::GpuPrivateBase));
  EXPECT_TRUE(Adsm.canAccess(PuKind::Gpu, region::SharedBase));
  EXPECT_FALSE(Adsm.canAccess(PuKind::Gpu, region::CpuPrivateBase));
}

TEST(AddressSpace, ExplicitTransferAndOwnershipTraits) {
  EXPECT_TRUE(AddressSpaceModel::forKind(AddressSpaceKind::Disjoint)
                  .needsExplicitTransfer());
  EXPECT_FALSE(AddressSpaceModel::forKind(AddressSpaceKind::Unified)
                   .needsExplicitTransfer());
  EXPECT_TRUE(AddressSpaceModel::forKind(AddressSpaceKind::PartiallyShared)
                  .supportsOwnership());
  EXPECT_TRUE(
      AddressSpaceModel::forKind(AddressSpaceKind::Adsm).supportsOwnership());
  EXPECT_FALSE(AddressSpaceModel::forKind(AddressSpaceKind::Disjoint)
                   .supportsOwnership());
}

//===----------------------------------------------------------------------===//
// Ownership (Section II-A3).
//===----------------------------------------------------------------------===//

TEST(Ownership, InitialOwnerChecks) {
  OwnershipRegistry Reg;
  Reg.registerObject("a", 0x1000, 256, PuKind::Cpu);
  EXPECT_TRUE(Reg.checkAccess(PuKind::Cpu, 0x1000));
  EXPECT_FALSE(Reg.checkAccess(PuKind::Gpu, 0x1080));
  EXPECT_EQ(Reg.violationCount(), 1u);
}

TEST(Ownership, ReleaseAcquireHandoff) {
  OwnershipRegistry Reg;
  Reg.registerObject("a", 0x1000, 256, PuKind::Cpu);
  Reg.release("a", PuKind::Cpu);
  EXPECT_FALSE(Reg.ownerOf(0x1000).has_value());
  Reg.acquire("a", PuKind::Gpu);
  EXPECT_EQ(Reg.ownerOf(0x1000), PuKind::Gpu);
  EXPECT_TRUE(Reg.checkAccess(PuKind::Gpu, 0x1000));
  EXPECT_EQ(Reg.transitionCount(), 2u);
}

TEST(Ownership, AcquireWithoutReleaseIsViolation) {
  OwnershipRegistry Reg;
  Reg.registerObject("a", 0x1000, 256, PuKind::Cpu);
  Reg.acquire("a", PuKind::Gpu); // CPU still owns it.
  EXPECT_EQ(Reg.violationCount(), 1u);
  EXPECT_EQ(Reg.ownerOf(0x1000), PuKind::Gpu); // Transfer still recorded.
}

TEST(Ownership, UnregisteredAddressesAreFree) {
  OwnershipRegistry Reg;
  Reg.registerObject("a", 0x1000, 256);
  EXPECT_TRUE(Reg.checkAccess(PuKind::Gpu, 0x9000));
  EXPECT_EQ(Reg.violationCount(), 0u);
}

TEST(OwnershipDeath, UnknownObjectAborts) {
  OwnershipRegistry Reg;
  EXPECT_DEATH(Reg.release("ghost", PuKind::Cpu), "unknown object");
}

//===----------------------------------------------------------------------===//
// First-touch tracking (lib-pf).
//===----------------------------------------------------------------------===//

TEST(FirstTouch, FaultsOncePerPage) {
  FirstTouchTracker Tracker(0x10000, 1 << 20, 4096);
  EXPECT_TRUE(Tracker.touch(0x10000));
  EXPECT_FALSE(Tracker.touch(0x10004)); // Same page.
  EXPECT_TRUE(Tracker.touch(0x10000 + 4096));
  EXPECT_EQ(Tracker.faultCount(), 2u);
}

TEST(FirstTouch, OutOfRangeIgnored) {
  FirstTouchTracker Tracker(0x10000, 4096, 4096);
  EXPECT_FALSE(Tracker.touch(0x0));
  EXPECT_EQ(Tracker.faultCount(), 0u);
}

TEST(FirstTouch, PreTouchSuppressesFaults) {
  FirstTouchTracker Tracker(0x10000, 1 << 20, 4096);
  Tracker.preTouch(0x10000, 8192);
  EXPECT_FALSE(Tracker.touch(0x10000));
  EXPECT_FALSE(Tracker.touch(0x10000 + 4096));
  EXPECT_TRUE(Tracker.touch(0x10000 + 8192));
}

TEST(FirstTouch, PagesInRange) {
  FirstTouchTracker Tracker(0, 1 << 20, 65536);
  EXPECT_EQ(Tracker.pagesIn(1), 1u);
  EXPECT_EQ(Tracker.pagesIn(65536), 1u);
  EXPECT_EQ(Tracker.pagesIn(65537), 2u);
}

TEST(FirstTouch, ResetForgets) {
  FirstTouchTracker Tracker(0, 1 << 20, 4096);
  Tracker.touch(0);
  Tracker.reset();
  EXPECT_TRUE(Tracker.touch(0));
  EXPECT_EQ(Tracker.faultCount(), 1u);
}

//===----------------------------------------------------------------------===//
// MemorySystem: the assembled hierarchy.
//===----------------------------------------------------------------------===//

namespace {
MemorySystem makeIntegrated() {
  MemHierConfig Config;
  Config.GpuSharesL3 = true;
  Config.SeparateGpuDram = false;
  return MemorySystem(Config);
}
} // namespace

TEST(MemorySystem, L1HitLatency) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 16);
  // Warm up (fill TLB and caches).
  Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 100);
  EXPECT_EQ(R.Level, HitLevel::L1);
  EXPECT_EQ(R.Latency, Mem.config().CpuL1.HitLatency);
  EXPECT_FALSE(R.TlbMiss);
}

TEST(MemorySystem, ColdMissGoesToDram) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 16);
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  EXPECT_EQ(R.Level, HitLevel::Dram);
  EXPECT_TRUE(R.TlbMiss);
  EXPECT_GT(R.Latency, Mem.config().CpuL2.HitLatency +
                           Mem.config().L3.HitLatency);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  // Fill far more than L1 (32KB) but within L2 (256KB), then revisit.
  for (Addr Offset = 0; Offset < (64 << 10); Offset += 64)
    Mem.access(PuKind::Cpu, region::CpuPrivateBase + Offset, 4, false, 0);
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 1000000);
  EXPECT_EQ(R.Level, HitLevel::L2);
}

TEST(MemorySystem, GpuWithoutSharedL3UsesOwnDram) {
  MemHierConfig Config;
  Config.GpuSharesL3 = false;
  Config.SeparateGpuDram = true;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Gpu, region::GpuPrivateBase, 1 << 16);
  MemAccessResult R =
      Mem.access(PuKind::Gpu, region::GpuPrivateBase, 4, false, 0);
  EXPECT_EQ(R.Level, HitLevel::Dram);
  EXPECT_EQ(Mem.gpuDram().stats().Reads, 1u);
  EXPECT_EQ(Mem.cpuDram().stats().Reads, 0u);
  EXPECT_EQ(Mem.l3().stats().Accesses, 0u);
}

TEST(MemorySystem, GpuSharedL3Path) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 1 << 16);
  Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 0);
  EXPECT_EQ(Mem.l3().stats().Accesses, 1u);
  // Second access from a cold L1 line in the same L3 line hits L3.
  Mem.gpuL1().invalidate(*Mem.pageTable(PuKind::Gpu)
                              .translate(region::SharedBase));
  MemAccessResult R =
      Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 100000);
  EXPECT_EQ(R.Level, HitLevel::L3);
}

TEST(MemorySystem, TlbMissPenaltyCharged) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  MemAccessResult Cold =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  // Same line again: TLB now hot, line cached.
  MemAccessResult Warm =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 10000);
  EXPECT_TRUE(Cold.TlbMiss);
  EXPECT_FALSE(Warm.TlbMiss);
  EXPECT_GT(Cold.Latency, Warm.Latency + Mem.config().TlbMissPenalty - 1);
}

TEST(MemorySystem, DemandMapsUnmappedPages) {
  MemorySystem Mem = makeIntegrated();
  // No explicit mapping: the access must demand-map, not crash.
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase + 0x5000, 4, false, 0);
  EXPECT_GT(R.Latency, 0u);
  EXPECT_EQ(Mem.stats().counter("mem.demand_maps"), 1u);
}

TEST(MemorySystem, FirstTouchPolicyFaultsGpuOnly) {
  MemorySystem Mem = makeIntegrated();
  FirstTouchTracker Tracker(region::SharedBase, 1 << 20, 65536);
  SharedSpacePolicy Policy;
  Policy.FirstTouch = &Tracker;
  Policy.PageFaultLatency = 42000;
  Policy.FaultOnlyGpu = true;
  Mem.setSharedPolicy(Policy);
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 20);
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 1 << 20);

  // CPU access does not fault.
  MemAccessResult CpuR =
      Mem.access(PuKind::Cpu, region::SharedBase, 4, false, 0);
  EXPECT_FALSE(CpuR.PageFault);

  // First GPU access faults and pays lib-pf.
  MemAccessResult GpuR =
      Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 0);
  EXPECT_TRUE(GpuR.PageFault);
  EXPECT_GE(GpuR.Latency, 42000u);

  // Second GPU access to the same page does not fault.
  MemAccessResult GpuR2 =
      Mem.access(PuKind::Gpu, region::SharedBase + 64, 4, false, 100000);
  EXPECT_FALSE(GpuR2.PageFault);
  EXPECT_EQ(Mem.stats().counter("mem.pagefaults"), 1u);
}

TEST(MemorySystem, OwnershipPolicyCountsViolations) {
  MemorySystem Mem = makeIntegrated();
  OwnershipRegistry Reg;
  Reg.registerObject("obj", region::SharedBase, 4096, PuKind::Cpu);
  SharedSpacePolicy Policy;
  Policy.Ownership = &Reg;
  Mem.setSharedPolicy(Policy);
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 4096);

  MemAccessResult R =
      Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 0);
  EXPECT_TRUE(R.OwnershipViolation);
  EXPECT_EQ(Mem.stats().counter("mem.ownership_violations"), 1u);
}

TEST(MemorySystem, CoherenceInvalidatesRemoteCopy) {
  MemHierConfig Config;
  Config.HwCoherence = true;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 16);
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 1 << 16);

  // GPU reads a shared line (cached in GPU L1), then the CPU writes it:
  // the GPU copy must be invalidated.
  Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 0);
  Addr GpuPa = *Mem.pageTable(PuKind::Gpu).translate(region::SharedBase);
  // With an integrated device both PUs share physical pages only if they
  // map to the same PA; translate both to compare.
  Addr CpuPa = *Mem.pageTable(PuKind::Cpu).translate(region::SharedBase);
  // The directory keys on physical line addresses; in this setup each PU
  // maps its own pages, so emulate true sharing by checking the GPU line.
  (void)CpuPa;
  EXPECT_TRUE(Mem.gpuL1().probe(GpuPa));
}

TEST(MemorySystem, FlushPrivateWritesBackDirtyLines) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 16);
  Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, true, 0);
  Mem.access(PuKind::Cpu, region::CpuPrivateBase + 64, 4, true, 0);
  uint64_t Writebacks = Mem.flushPrivate(PuKind::Cpu);
  EXPECT_GE(Writebacks, 2u);
  // After the flush the lines are gone from L1.
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 100000);
  EXPECT_NE(R.Level, HitLevel::L1);
}

TEST(MemorySystem, PushMarksLinesExplicitInL3) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 16);
  Cycle Cost = Mem.pushToShared(PuKind::Cpu, region::SharedBase, 4096, 0);
  EXPECT_GT(Cost, 0u);
  EXPECT_EQ(Mem.l3().residentExplicitLines(), 4096u / CacheLineBytes);
  EXPECT_EQ(Mem.stats().counter("mem.push_lines"), 4096u / CacheLineBytes);
}

TEST(MemorySystem, ScratchpadAccess) {
  MemorySystem Mem = makeIntegrated();
  EXPECT_EQ(Mem.scratchpadAccess(0, 4, false),
            Mem.config().ScratchpadLatency);
  EXPECT_EQ(Mem.scratchpad().readCount(), 1u);
}

TEST(MemorySystem, SpaceModelViolationsCounted) {
  MemorySystem Mem = makeIntegrated();
  SharedSpacePolicy Policy;
  Policy.SpaceModel = &AddressSpaceModel::forKind(AddressSpaceKind::Adsm);
  Mem.setSharedPolicy(Policy);
  Mem.mapRange(PuKind::Gpu, region::CpuPrivateBase, 4096);
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 4096);

  // ADSM: the GPU may not reach CPU-private space...
  MemAccessResult Bad =
      Mem.access(PuKind::Gpu, region::CpuPrivateBase, 4, false, 0);
  EXPECT_TRUE(Bad.SpaceViolation);
  // ...but the shared space is fine.
  MemAccessResult Ok =
      Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 0);
  EXPECT_FALSE(Ok.SpaceViolation);
  EXPECT_EQ(Mem.stats().counter("mem.space_violations"), 1u);
}

//===----------------------------------------------------------------------===//
// Hybrid (Cohesion-style) coherence domains.
//===----------------------------------------------------------------------===//

TEST(HybridCoherence, DomainAssignmentAndDefault) {
  HybridCoherenceMap Map(CoherenceDomain::Hardware);
  EXPECT_EQ(Map.domainOf(0x1000), CoherenceDomain::Hardware);
  Map.assign(0x1000, 0x1000, CoherenceDomain::Software);
  EXPECT_EQ(Map.domainOf(0x1000), CoherenceDomain::Software);
  EXPECT_EQ(Map.domainOf(0x1FFF), CoherenceDomain::Software);
  EXPECT_EQ(Map.domainOf(0x2000), CoherenceDomain::Hardware);
}

TEST(HybridCoherence, LaterAssignmentsOverride) {
  HybridCoherenceMap Map;
  Map.assign(0x0, 0x10000, CoherenceDomain::Software);
  Map.assign(0x4000, 0x1000, CoherenceDomain::Hardware);
  EXPECT_EQ(Map.domainOf(0x4000), CoherenceDomain::Hardware);
  EXPECT_EQ(Map.domainOf(0x3000), CoherenceDomain::Software);
}

TEST(HybridCoherence, TransitionCostScalesWithLines) {
  HybridCoherenceMap Map;
  Cycle Small = Map.transition(0x0, 64, CoherenceDomain::Software);
  Cycle Large = Map.transition(0x10000, 64 * 100, CoherenceDomain::Software);
  EXPECT_EQ(Large, Small * 100);
  EXPECT_EQ(Map.stats().Transitions, 2u);
  EXPECT_EQ(Map.stats().LinesTransitioned, 101u);
  // Transition also reassigns the domain.
  EXPECT_EQ(Map.domainOf(0x10000), CoherenceDomain::Software);
}

TEST(HybridCoherence, RoutesDirectoryTraffic) {
  MemHierConfig Config;
  Config.HwCoherence = true;
  MemorySystem Mem(Config);
  HybridCoherenceMap Map(CoherenceDomain::Hardware);
  // First half of the shared region is software-managed.
  Map.assign(region::SharedBase, 1 << 16, CoherenceDomain::Software);
  SharedSpacePolicy Policy;
  Policy.HybridDomains = &Map;
  Mem.setSharedPolicy(Policy);
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 20);
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 1 << 20);

  // Software-domain access: the directory must stay empty.
  Mem.access(PuKind::Cpu, region::SharedBase, 4, true, 0);
  EXPECT_EQ(Mem.directory().stats().Lookups, 0u);
  EXPECT_EQ(Map.stats().SoftwareLookups, 1u);

  // Hardware-domain access: the directory tracks it.
  Mem.access(PuKind::Cpu, region::SharedBase + (1 << 16), 4, true, 0);
  EXPECT_EQ(Mem.directory().stats().Lookups, 1u);
  EXPECT_EQ(Map.stats().HardwareLookups, 1u);
}

TEST(HybridCoherence, SoftwareDomainSkipsRemoteInvalidation) {
  // A GPU write to a software-domain line does NOT invalidate the CPU's
  // cached copy — exactly the hazard the software discipline (flushes at
  // ownership transfer) must handle instead.
  MemHierConfig Config;
  Config.HwCoherence = true;
  MemorySystem Mem(Config);
  HybridCoherenceMap Map(CoherenceDomain::Software);
  SharedSpacePolicy Policy;
  Policy.HybridDomains = &Map;
  Mem.setSharedPolicy(Policy);
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 16);
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 1 << 16);

  Mem.access(PuKind::Cpu, region::SharedBase, 4, false, 0);
  Addr CpuPa = *Mem.pageTable(PuKind::Cpu).translate(region::SharedBase);
  ASSERT_TRUE(Mem.cpuL1().probe(CpuPa));
  Mem.access(PuKind::Gpu, region::SharedBase, 4, true, 0);
  EXPECT_TRUE(Mem.cpuL1().probe(CpuPa)); // Stale copy survives.
}

TEST(MemorySystem, RemapMovesRangeAndFlushesTlb) {
  // Globalization (Section II-A3): a private object moves into the
  // shared region at run time.
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 64 * 1024);
  // Warm the TLB on the old range.
  Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  EXPECT_TRUE(Mem.pageTable(PuKind::Cpu).isMapped(region::CpuPrivateBase));

  Cycle Cost = Mem.remapRange(PuKind::Cpu, region::CpuPrivateBase,
                              region::SharedBase, 64 * 1024);
  EXPECT_GT(Cost, 0u);
  EXPECT_FALSE(Mem.pageTable(PuKind::Cpu).isMapped(region::CpuPrivateBase));
  EXPECT_TRUE(Mem.pageTable(PuKind::Cpu).isMapped(region::SharedBase));
  EXPECT_EQ(Mem.stats().counter("mem.remap_pages"), 16u); // 64KB / 4KB.

  // The TLB was flushed: the next access misses translation again.
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::SharedBase, 4, false, 100000);
  EXPECT_TRUE(R.TlbMiss);
}

TEST(MemorySystem, RemapCostScalesWithPages) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  Cycle Small = Mem.remapRange(PuKind::Cpu, region::CpuPrivateBase,
                               region::SharedBase, 4096);
  Cycle Large = Mem.remapRange(PuKind::Cpu, region::CpuPrivateBase + 65536,
                               region::SharedBase + 65536, 256 * 1024);
  EXPECT_GT(Large, Small * 10);
}

TEST(MemorySystem, RemapZeroBytesIsFree) {
  MemorySystem Mem = makeIntegrated();
  EXPECT_EQ(Mem.remapRange(PuKind::Cpu, 0x1000, 0x2000, 0), 0u);
}

//===----------------------------------------------------------------------===//
// DRAM background-traffic accounting (conservation contract).
//===----------------------------------------------------------------------===//

namespace {
/// A hierarchy small enough that modest strides evict at every level.
MemHierConfig makeTinyHierarchy() {
  MemHierConfig Config;
  Config.CpuL1.SizeBytes = 4 * 1024;
  Config.CpuL2.SizeBytes = 8 * 1024;
  Config.L3.SizeBytes = 16 * 1024;
  Config.GpuSharesL3 = true;
  Config.SeparateGpuDram = false;
  return Config;
}
} // namespace

TEST(MemorySystem, VictimWritebacksDrainAtAccessBoundary) {
  // Regression: L2 victim writebacks are posted into the CPU DRAM
  // FR-FCFS queue. They must be drained (and charged to the writeback
  // category) at the access boundary, not stranded until some transfer
  // fabric happens to drain the queue.
  MemorySystem Mem(makeTinyHierarchy());
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  Cycle Now = 0;
  for (Addr Offset = 0; Offset < (64 << 10); Offset += 64) {
    MemAccessResult R =
        Mem.access(PuKind::Cpu, region::CpuPrivateBase + Offset, 4,
                   /*IsWrite=*/true, Now);
    Now += R.Latency;
    // Quiescent after every single access.
    ASSERT_EQ(Mem.cpuDram().queuedRequests(), 0u);
  }
  EXPECT_GT(Mem.stats().counter("dram.cpu.writebacks"), 0u);
  EXPECT_GT(Mem.stats().counter("dram.cpu.bg_drains"), 0u);
  EXPECT_EQ(Mem.stats().counter("dram.cpu.bg_reqs"),
            Mem.cpuDram().stats().BatchedRequests);
  // Served requests reconcile with the charged categories.
  EXPECT_EQ(Mem.cpuDram().stats().Reads + Mem.cpuDram().stats().Writes,
            Mem.stats().counter("dram.cpu.demand") +
                Mem.stats().counter("dram.cpu.writebacks"));
}

TEST(MemorySystem, PrefetchTrafficDrainsEvenOnL2Hits) {
  // Prefetch fills post background traffic before the L2-hit early
  // return; that path must drain too.
  MemHierConfig Config = makeTinyHierarchy();
  Config.EnableL2Prefetch = true;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  Cycle Now = 0;
  for (Addr Offset = 0; Offset < (32 << 10); Offset += 64) {
    MemAccessResult R = Mem.access(PuKind::Cpu,
                                   region::CpuPrivateBase + Offset, 4,
                                   /*IsWrite=*/false, Now);
    Now += R.Latency;
    ASSERT_EQ(Mem.cpuDram().queuedRequests(), 0u);
  }
  EXPECT_GT(Mem.stats().counter("dram.cpu.prefetch_reads"), 0u);
  EXPECT_EQ(Mem.cpuDram().stats().Reads + Mem.cpuDram().stats().Writes,
            Mem.stats().counter("dram.cpu.demand") +
                Mem.stats().counter("dram.cpu.writebacks") +
                Mem.stats().counter("dram.cpu.prefetch_reads"));
}

TEST(MemorySystem, PushToSharedChargesVictimWritebacks) {
  // Regression: pushToShared used to ignore CacheAccessResult.WroteBack
  // on its L3 fills, silently dropping victim writeback traffic.
  MemorySystem Mem(makeTinyHierarchy());
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 20);
  // Dirty the whole (16KB) L3 with write misses.
  Cycle Now = 0;
  for (Addr Offset = 0; Offset < (16 << 10); Offset += 64) {
    MemAccessResult R = Mem.access(PuKind::Cpu, region::SharedBase + Offset,
                                   4, /*IsWrite=*/true, Now);
    Now += R.Latency;
  }
  uint64_t WritebacksBefore = Mem.stats().counter("dram.cpu.writebacks");
  uint64_t DramWritesBefore = Mem.cpuDram().stats().Writes;
  // Push a fresh range through the L3: fills evict the dirty lines.
  Mem.pushToShared(PuKind::Cpu, region::SharedBase + (512 << 10),
                   16 << 10, Now);
  EXPECT_GT(Mem.stats().counter("dram.cpu.writebacks"), WritebacksBefore);
  // The victims were actually serviced by the device, not just counted.
  EXPECT_GT(Mem.cpuDram().stats().Writes, DramWritesBefore);
  EXPECT_EQ(Mem.cpuDram().queuedRequests(), 0u);
}

TEST(MemorySystem, MergedMissKeepsAccruedFaultLatency) {
  // Regression: a miss that merges onto an in-flight fill used to adopt
  // the earlier entry's ReadyCycle wholesale, letting a cheap fill erase
  // the merging access's own accrued page-fault latency.
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 16);
  // First access: plain cold miss; its fill stays in flight for a while.
  Mem.access(PuKind::Cpu, region::SharedBase, 4, false, 0);

  // Second access faults (fresh tracker, CPU faults too) and merges.
  FirstTouchTracker Tracker(region::SharedBase, 1 << 16, 4096);
  SharedSpacePolicy Policy;
  Policy.FirstTouch = &Tracker;
  Policy.PageFaultLatency = 50000;
  Policy.FaultOnlyGpu = false;
  Mem.setSharedPolicy(Policy);
  Addr Pa = *Mem.pageTable(PuKind::Cpu).translate(region::SharedBase);
  Mem.cpuL1().invalidate(Pa);
  Mem.cpuL2().invalidate(Pa);
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::SharedBase, 4, false, 1);
  EXPECT_TRUE(R.PageFault);
  EXPECT_EQ(Mem.stats().counter("mem.mshr_merges"), 1u);
  // The merge may not undercut the fault cost already paid.
  EXPECT_GE(R.Latency, 50000u);
}

TEST(MemorySystem, MshrMergesConcurrentMisses) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 16);
  // Two accesses to the same cold line at the same cycle: the second is
  // an L1 miss that merges onto the first fill.
  Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  Mem.cpuL1().invalidate(
      *Mem.pageTable(PuKind::Cpu).translate(region::CpuPrivateBase));
  Mem.cpuL2().invalidate(
      *Mem.pageTable(PuKind::Cpu).translate(region::CpuPrivateBase));
  // Re-trigger a miss while the prior fill is still in flight.
  Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 1);
  EXPECT_EQ(Mem.stats().counter("mem.mshr_merges"), 1u);
}
