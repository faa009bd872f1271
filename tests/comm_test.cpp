//===- tests/comm_test.cpp - comm/ unit tests -----------------------------===//

#include "comm/CommParams.h"
#include "comm/DmaEngine.h"
#include "comm/MemControllerLink.h"
#include "comm/PciAperture.h"
#include "comm/PciExpressLink.h"
#include "common/Stats.h"
#include "common/Units.h"
#include "dram/Dram.h"

#include <gtest/gtest.h>

#include <memory>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// CommParams (Table IV).
//===----------------------------------------------------------------------===//

TEST(CommParams, TableFourDefaults) {
  CommParams P;
  EXPECT_EQ(P.get<CommField::ApiPciBase>(), 33250u);
  EXPECT_EQ(P.get<CommField::ApiAcquire>(), 1000u);
  EXPECT_EQ(P.get<CommField::ApiTransfer>(), 7000u);
  EXPECT_EQ(P.get<CommField::LibPageFault>(), 42000u);
  EXPECT_DOUBLE_EQ(P.get<CommField::PciBytesPerSec>(), 16e9);
}

TEST(CommParams, PciCopyFormula) {
  CommParams P;
  // api-pci = 33250 + bytes at 16GB/s in 3.5GHz cycles.
  EXPECT_EQ(P.pciCopyCycles(0), 33250u);
  Cycle C = P.pciCopyCycles(1 << 20);
  Cycle Expected = 33250 + transferCycles(PuKind::Cpu, 1 << 20, 16e9);
  EXPECT_EQ(C, Expected);
  // 1MB at 16GB/s = 65.5us = ~229k cycles.
  EXPECT_NEAR(double(C - 33250), 229376.0, 2.0);
}

TEST(CommParams, ConfigRoundTrip) {
  CommParams P;
  P.set<CommField::ApiPciBase>(1234);
  P.set<CommField::LibPageFault>(99);
  ConfigStore Config;
  P.toConfig(Config);
  CommParams Q = CommParams::fromConfig(Config);
  EXPECT_EQ(Q.get<CommField::ApiPciBase>(), 1234u);
  EXPECT_EQ(Q.get<CommField::LibPageFault>(), 99u);
  EXPECT_EQ(Q, P);
}

TEST(CommParams, OverridesFromConfig) {
  ConfigStore Config;
  Config.setInt("comm.api_pci_base", 1000);
  CommParams P = CommParams::fromConfig(Config);
  EXPECT_EQ(P.get<CommField::ApiPciBase>(), 1000u);
  EXPECT_EQ(P.get<CommField::ApiTransfer>(), 7000u); // Untouched default.
}

TEST(CommParams, PageableHostMemoryCostsMore) {
  CommParams Pinned;
  CommParams Pageable;
  Pageable.set<CommField::PinnedHostMemory>(false);
  uint64_t Bytes = 1 << 20;
  Cycle PinnedCost = Pinned.pciCopyCycles(Bytes);
  Cycle PageableCost = Pageable.pciCopyCycles(Bytes);
  EXPECT_GT(PageableCost, PinnedCost);
  // The bandwidth term scales by the rate factor plus staging.
  Cycle Expected = Pinned.get<CommField::ApiPciBase>() +
                   Pageable.get<CommField::PageableStagingOverhead>() +
                   transferCycles(PuKind::Cpu, Bytes, 16e9 * 0.55);
  EXPECT_EQ(PageableCost, Expected);
}

TEST(CommParams, PageableConfigKeys) {
  ConfigStore Config;
  Config.setBool("comm.pinned_host", false);
  Config.setDouble("comm.pageable_rate_factor", 0.25);
  CommParams P = CommParams::fromConfig(Config);
  EXPECT_FALSE(P.get<CommField::PinnedHostMemory>());
  EXPECT_DOUBLE_EQ(P.get<CommField::PageableRateFactor>(), 0.25);
}

TEST(CommParams, ReadsAreRecordedPerField) {
  CommParams P;
  EXPECT_EQ(P.readMask(), 0u);
  (void)P.get<CommField::ApiTransfer>();
  EXPECT_EQ(P.readMask(), CommParams::bit(CommField::ApiTransfer));
  (void)P.pciCopyCycles(4096);
  EXPECT_TRUE(P.readMask() & CommParams::bit(CommField::ApiPciBase));
  EXPECT_TRUE(P.readMask() & CommParams::bit(CommField::PinnedHostMemory));
  // Pinned copies never consult the pageable knobs.
  EXPECT_FALSE(P.readMask() &
               CommParams::bit(CommField::PageableStagingOverhead));
  P.clearReads();
  EXPECT_EQ(P.readMask(), 0u);
  // A fabric reads through the caller's instance, not a copy.
  PciAperture Aperture{P};
  Aperture.transfer(4096, TransferDir::HostToDevice, 0);
  EXPECT_EQ(P.readMask(), CommParams::bit(CommField::ApiTransfer));
}

TEST(CommParams, IdentityIgnoresTheReadMask) {
  CommParams A, B;
  (void)A.get<CommField::LibPageFault>();
  EXPECT_EQ(A, B);
  B.set<CommField::ApiPciBase>(0);
  EXPECT_NE(A, B);
  // Agreement is checked on the masked fields only, and records nothing.
  CommReadMask Unrelated = CommParams::bit(CommField::ApiTransfer) |
                           CommParams::bit(CommField::LibPageFault);
  A.clearReads();
  EXPECT_TRUE(A.agreesOn(B, Unrelated));
  EXPECT_FALSE(A.agreesOn(B, Unrelated |
                                 CommParams::bit(CommField::ApiPciBase)));
  EXPECT_EQ(A.readMask(), 0u);
}

//===----------------------------------------------------------------------===//
// PCI-E link.
//===----------------------------------------------------------------------===//

TEST(PciExpress, SynchronousCost) {
  CommParams P;
  PciExpressLink Link{P};
  TransferTiming T = Link.transfer(320512, TransferDir::HostToDevice, 100);
  EXPECT_FALSE(T.Asynchronous);
  EXPECT_EQ(T.CpuBusyCycles, CommParams().pciCopyCycles(320512));
  EXPECT_EQ(T.CompleteCycle, 100 + T.CpuBusyCycles);
  EXPECT_EQ(Link.bytesMoved(), 320512u);
  EXPECT_EQ(Link.transferCount(), 1u);
  EXPECT_EQ(Link.waitAll(1000), 0u); // Synchronous: nothing pending.
}

//===----------------------------------------------------------------------===//
// PCI aperture (LRB).
//===----------------------------------------------------------------------===//

TEST(PciAperture, OneWindowOneApiTr) {
  CommParams P;
  PciAperture Aperture{P};
  TransferTiming T = Aperture.transfer(320512, TransferDir::HostToDevice, 0);
  EXPECT_EQ(T.CpuBusyCycles, CommParams().get<CommField::ApiTransfer>());
}

TEST(PciAperture, LargeTransfersPayPerWindow) {
  CommParams P;
  PciAperture Aperture(P, /*WindowBytes=*/64 * 1024);
  TransferTiming T =
      Aperture.transfer(320512, TransferDir::HostToDevice, 0);
  EXPECT_EQ(T.CpuBusyCycles, ceilDiv(320512, 64 * 1024) * 7000u);
}

TEST(PciAperture, MuchCheaperThanPciMemcpy) {
  CommParams P;
  PciAperture Aperture{P};
  PciExpressLink Link{P};
  uint64_t Bytes = 524288;
  EXPECT_LT(Aperture.transfer(Bytes, TransferDir::HostToDevice, 0)
                .CpuBusyCycles,
            Link.transfer(Bytes, TransferDir::HostToDevice, 0)
                    .CpuBusyCycles /
                10);
}

//===----------------------------------------------------------------------===//
// DMA engine (GMAC async copies).
//===----------------------------------------------------------------------===//

TEST(DmaEngine, IssueIsCheapCompletionIsLater) {
  CommParams P;
  DmaEngine Dma(P, std::make_unique<PciExpressLink>(P));
  TransferTiming T = Dma.transfer(1 << 20, TransferDir::HostToDevice, 0);
  EXPECT_TRUE(T.Asynchronous);
  EXPECT_EQ(T.CpuBusyCycles, P.get<CommField::AsyncIssueOverhead>());
  EXPECT_GT(T.CompleteCycle, P.pciCopyCycles(1 << 20));
}

TEST(DmaEngine, WaitChargesOnlyUnhiddenTime) {
  CommParams P;
  DmaEngine Dma(P, std::make_unique<PciExpressLink>(P));
  TransferTiming T = Dma.transfer(1 << 20, TransferDir::HostToDevice, 0);
  // Waiting immediately pays nearly the whole copy.
  Cycle Issue = P.get<CommField::AsyncIssueOverhead>();
  Cycle FullStall = Dma.waitAll(Issue);
  EXPECT_NEAR(double(FullStall), double(T.CompleteCycle - Issue), 1.0);
  // Waiting after the copy finished costs nothing.
  EXPECT_EQ(Dma.waitAll(T.CompleteCycle + 10), 0u);
}

TEST(DmaEngine, FullyHiddenCopyIsFree) {
  CommParams P;
  DmaEngine Dma(P, std::make_unique<PciExpressLink>(P));
  Dma.transfer(4096, TransferDir::HostToDevice, 0);
  Cycle Busy = Dma.busyUntil();
  EXPECT_GT(Busy, 0u);
  EXPECT_EQ(Dma.waitAll(Busy + 1000), 0u); // Compute outlasted the copy.
  EXPECT_GT(Dma.hiddenCycles(), 0u);
}

TEST(DmaEngine, BackToBackCopiesSerializeOnEngine) {
  CommParams P;
  DmaEngine Dma(P, std::make_unique<PciExpressLink>(P));
  TransferTiming A = Dma.transfer(1 << 20, TransferDir::HostToDevice, 0);
  TransferTiming B = Dma.transfer(1 << 20, TransferDir::HostToDevice, 10);
  EXPECT_GE(B.CompleteCycle, A.CompleteCycle + P.pciCopyCycles(1 << 20));
}

//===----------------------------------------------------------------------===//
// Memory-controller link (Fusion).
//===----------------------------------------------------------------------===//

TEST(MemControllerLink, GeneratesDramTraffic) {
  DramSystem Dram;
  MemControllerLink Link(Dram);
  Link.transfer(64 * 100, TransferDir::HostToDevice, 0);
  // One read + one write per line.
  EXPECT_EQ(Dram.stats().Reads, 100u);
  EXPECT_EQ(Dram.stats().Writes, 100u);
}

TEST(MemControllerLink, StreamingTransfersRowHit) {
  DramSystem Dram;
  MemControllerLink Link(Dram);
  Link.transfer(1 << 20, TransferDir::HostToDevice, 0);
  EXPECT_GT(Dram.stats().rowHitRate(), 0.8);
}

TEST(MemControllerLink, CheaperThanPciE) {
  // Large transfers: bandwidth-bound on both sides, and DRAM (41.6GB/s,
  // read+write per line) still beats PCI-E 2.0 (16GB/s + api-pci base).
  DramSystem Dram;
  MemControllerLink Link(Dram);
  CommParams P;
  PciExpressLink Pci{P};
  uint64_t Bytes = 320512;
  Cycle McCost =
      Link.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;
  Cycle PciCost =
      Pci.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;
  EXPECT_LT(McCost, PciCost);
}

TEST(MemControllerLink, MuchCheaperForSmallTransfers) {
  // Small transfers: PCI-E pays its 33250-cycle API cost; the on-chip
  // path is an order of magnitude cheaper (the Fusion advantage).
  DramSystem Dram;
  MemControllerLink Link(Dram);
  CommParams P;
  PciExpressLink Pci{P};
  uint64_t Bytes = 4096;
  Cycle McCost =
      Link.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;
  Cycle PciCost =
      Pci.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;
  EXPECT_LT(McCost * 10, PciCost);
}

TEST(MemControllerLink, ZeroBytesOnlyApiOverhead) {
  DramSystem Dram;
  MemControllerLink Link(Dram, /*ApiOverhead=*/500);
  TransferTiming T = Link.transfer(0, TransferDir::HostToDevice, 100);
  EXPECT_EQ(T.CpuBusyCycles, 500u);
}

TEST(MemControllerLink, StaleBacklogNotBilledToTransfer) {
  // Regression: background traffic (victim writebacks, prefetch fills)
  // left in the FR-FCFS queue by earlier cache activity must not inflate
  // the next transfer's cost. The link drains the backlog first, so the
  // transfer is billed the same as with a clean queue.
  uint64_t Bytes = 64 * 32;
  DramSystem CleanDram;
  MemControllerLink Clean(CleanDram);
  Cycle CleanCost =
      Clean.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;

  // The backlog is small enough to drain inside the 1000-cycle API
  // overhead, so only genuinely-stale-request billing (the old bug)
  // could make the costs differ; residual bank/bus state cannot.
  DramSystem StaleDram;
  StatRegistry Stats;
  MemControllerLink Stale(StaleDram, 1000, &Stats);
  for (unsigned I = 0; I != 32; ++I)
    StaleDram.enqueue(0x900000000ull + I * 64, /*IsWrite=*/true);
  Cycle StaleCost =
      Stale.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;

  EXPECT_EQ(StaleCost, CleanCost);
  EXPECT_EQ(Stats.counter("dram.cpu.stale_drained"), 32u);
  EXPECT_EQ(StaleDram.queuedRequests(), 0u);
}

TEST(MemControllerLink, ChargesTransferRequestsForConservation) {
  DramSystem Dram;
  StatRegistry Stats;
  MemControllerLink Link(Dram, 1000, &Stats);
  Link.transfer(64 * 100, TransferDir::HostToDevice, 0);
  // One read + one write per line, all charged to the transfer category.
  EXPECT_EQ(Stats.counter("dram.cpu.transfer_reqs"), 200u);
  EXPECT_EQ(Dram.stats().Reads + Dram.stats().Writes,
            Stats.counter("dram.cpu.transfer_reqs"));
  // Zero-byte transfers charge nothing.
  Link.transfer(0, TransferDir::HostToDevice, 0);
  EXPECT_EQ(Stats.counter("dram.cpu.transfer_reqs"), 200u);
}
