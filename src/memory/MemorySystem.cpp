//===- memory/MemorySystem.cpp --------------------------------------------===//

#include "memory/MemorySystem.h"

#include "common/Error.h"
#include "common/Units.h"
#include "memory/AddressSpaceModel.h"

#include <algorithm>
#include <cassert>

using namespace hetsim;

MemorySystem::MemorySystem(const MemHierConfig &Cfg)
    : Config(Cfg), CpuMshr(Cfg.CpuMshrs), GpuMshr(Cfg.GpuMshrs),
      CpuTlb(Cfg.CpuTlbEntries, Cfg.TlbWays, Cfg.CpuPageBytes),
      GpuTlb(Cfg.GpuTlbEntries, Cfg.TlbWays, Cfg.GpuPageBytes),
      CpuPhys("cpu.dram", Cfg.DeviceBytes),
      GpuPhys("gpu.dram", Cfg.DeviceBytes),
      CpuPt(PuKind::Cpu, Cfg.CpuPageBytes),
      GpuPt(PuKind::Gpu, Cfg.GpuPageBytes),
      Smem(Cfg.ScratchpadBytes, Cfg.ScratchpadLatency),
      Prefetcher(Cfg.Prefetch) {
  if (Cfg.UseMeshNoc)
    Noc = std::make_unique<MeshNoc>(Cfg.Mesh);
  else
    Noc = std::make_unique<RingBus>(Cfg.Ring);
  CpuL1 = std::make_unique<Cache>(Cfg.CpuL1, /*RngSeed=*/11);
  CpuL2 = std::make_unique<Cache>(Cfg.CpuL2, /*RngSeed=*/13);
  GpuL1 = std::make_unique<Cache>(Cfg.GpuL1, /*RngSeed=*/17);
  L3 = std::make_unique<Cache>(Cfg.L3, /*RngSeed=*/19);
  CpuDram = std::make_unique<DramSystem>(Cfg.Dram);
  if (Cfg.SeparateGpuDram)
    GpuDramDevice = std::make_unique<DramSystem>(Cfg.Dram);

  // Register the DRAM conservation counters once; references stay valid
  // until Stats.reset(), which this class never calls.
  DramCpuDemand = &Stats.counterRef("dram.cpu.demand");
  DramCpuWritebacks = &Stats.counterRef("dram.cpu.writebacks");
  DramCpuPrefetchReads = &Stats.counterRef("dram.cpu.prefetch_reads");
  DramGpuDemand = &Stats.counterRef("dram.gpu.demand");
  BgDrains = &Stats.counterRef("dram.cpu.bg_drains");
  BgRequests = &Stats.counterRef("dram.cpu.bg_reqs");
  BgDrainCycles = &Stats.histogramRef("dram.cpu.bg_drain_cycles");

  // Per-access counters, likewise bound once so access() never hashes a
  // counter name.
  MemCpuAccesses = &Stats.counterRef("mem.cpu_accesses");
  MemGpuAccesses = &Stats.counterRef("mem.gpu_accesses");
  MemDemandMaps = &Stats.counterRef("mem.demand_maps");
  MemCohRemote = &Stats.counterRef("mem.coh_remote");
  MemCohWritebacks = &Stats.counterRef("mem.coh_writebacks");
  MemSpaceViolations = &Stats.counterRef("mem.space_violations");
  MemOwnershipViolations = &Stats.counterRef("mem.ownership_violations");
  MemPagefaults = &Stats.counterRef("mem.pagefaults");
  MemGpuL1Writebacks = &Stats.counterRef("mem.gpu_l1_writebacks");
  MemPrefetchFills = &Stats.counterRef("mem.prefetch_fills");
  MemMshrMerges = &Stats.counterRef("mem.mshr_merges");

  // There is one (exact) fidelity, so memfast.mode is always 1. It stays
  // in the metrics because consumers such as perfbench reject any point
  // whose memfast.mode is not 1.
  Stats.setCounter("memfast.mode", 1);
}

void MemorySystem::drainBackground(Cycle NowCpu) {
  uint64_t Pending = CpuDram->queuedRequests();
  if (Pending == 0)
    return;
  Cycle Done = CpuDram->drainFrFcfs(NowCpu);
  Cycle Duration = Done > NowCpu ? Done - NowCpu : 0;
  ++*BgDrains;
  *BgRequests += Pending;
  BgDrainCycles->addSample(Duration);
  if (DrainHook)
    DrainHook({NowCpu, Duration, Pending});
}

DramSystem &MemorySystem::gpuDram() {
  return GpuDramDevice ? *GpuDramDevice : *CpuDram;
}

void MemorySystem::mapRange(PuKind Pu, Addr VBase, uint64_t Bytes) {
  // A discrete GPU memory backs GPU-private and (ADSM) shared ranges;
  // everything else lives in the CPU/unified device.
  if (Pu == PuKind::Cpu) {
    CpuPt.mapRange(VBase, Bytes, CpuPhys);
    return;
  }
  PhysicalMemory &Device = Config.SeparateGpuDram ? GpuPhys : CpuPhys;
  GpuPt.mapRange(VBase, Bytes, Device);
}

bool MemorySystem::applyCoherence(PuKind Requestor, Addr PAddr, bool IsWrite,
                                  Cycle &ExtraCpuCycles) {
  CoherenceAction Action = Dir.onAccess(Requestor, PAddr, IsWrite);
  if (!Action.InvalidateRemote && !Action.FetchFromRemote)
    return false;

  ++*MemCohRemote;
  // Remote operations touch the other PU's private caches.
  if (Requestor == PuKind::Cpu) {
    if (Action.FetchFromRemote) {
      if (IsWrite ? GpuL1->invalidate(PAddr) : GpuL1->downgradeToShared(PAddr))
        ++*MemCohWritebacks;
    } else if (Action.InvalidateRemote) {
      GpuL1->invalidate(PAddr);
    }
  } else {
    if (Action.FetchFromRemote) {
      bool Dirty1 =
          IsWrite ? CpuL1->invalidate(PAddr) : CpuL1->downgradeToShared(PAddr);
      bool Dirty2 =
          IsWrite ? CpuL2->invalidate(PAddr) : CpuL2->downgradeToShared(PAddr);
      if (Dirty1 || Dirty2)
        ++*MemCohWritebacks;
    } else if (Action.InvalidateRemote) {
      CpuL1->invalidate(PAddr);
      CpuL2->invalidate(PAddr);
    }
  }
  // Each protocol message crosses the NoC between the requestor and the
  // directory's home.
  ExtraCpuCycles += Cycle(Action.Messages) *
                    Noc->uncontendedLatency(ring::CpuStop,
                                            ring::MemCtrlStop);
  return true;
}

Cycle MemorySystem::uncoreAccess(PuKind Pu, Addr PAddr, bool IsWrite,
                                 Cycle NowCpu, bool ExplicitHint,
                                 HitLevel &Level) {
  unsigned SourceStop = Pu == PuKind::Cpu ? ring::CpuStop : ring::GpuStop;

  // GPU with its own memory and no LLC sharing skips the ring/L3 entirely.
  if (Pu == PuKind::Gpu && !Config.GpuSharesL3) {
    Level = HitLevel::Dram;
    ++*(GpuDramDevice ? DramGpuDemand : DramCpuDemand);
    return gpuDram().access(PAddr, NowCpu, IsWrite);
  }

  if (!Config.EnableL3) {
    Level = HitLevel::Dram;
    Cycle AtCtrl = Noc->traverse(SourceStop, ring::MemCtrlStop, NowCpu);
    ++*DramCpuDemand;
    Cycle Done = CpuDram->access(PAddr, AtCtrl, IsWrite);
    return Done + Noc->uncontendedLatency(ring::MemCtrlStop, SourceStop);
  }

  unsigned TileStop = Noc->tileStopFor(PAddr);
  Cycle AtTile = Noc->traverse(SourceStop, TileStop, NowCpu);
  CacheAccessResult L3Result = L3->access(PAddr, IsWrite, ExplicitHint);
  Cycle ReturnHops = Noc->uncontendedLatency(TileStop, SourceStop);

  if (L3Result.Hit) {
    Level = HitLevel::L3;
    return AtTile + L3->config().HitLatency + ReturnHops;
  }

  if (L3Result.WroteBack) {
    CpuDram->enqueue(L3Result.VictimAddr, /*IsWrite=*/true);
    ++*DramCpuWritebacks;
  }

  Level = HitLevel::Dram;
  Cycle AtCtrl =
      Noc->traverse(TileStop, ring::MemCtrlStop,
                    AtTile + L3->config().HitLatency /*tag check*/);
  ++*DramCpuDemand;
  Cycle Done = CpuDram->access(PAddr, AtCtrl, IsWrite);
  Cycle BackToTile =
      Done + Noc->uncontendedLatency(ring::MemCtrlStop, TileStop);
  return BackToTile + ReturnHops;
}

MemAccessResult MemorySystem::access(PuKind Pu, Addr VAddr,
                                     [[maybe_unused]] uint32_t Bytes,
                                     bool IsWrite, Cycle NowPu,
                                     bool ExplicitHint) {
  assert(Bytes > 0 && Bytes <= CacheLineBytes &&
         "per-access footprint is at most one line");
  MemAccessResult Result;
  const bool IsCpu = Pu == PuKind::Cpu;
  ++*(IsCpu ? MemCpuAccesses : MemGpuAccesses);

  Cycle Latency = 0;

  // 1. Translation.
  Tlb &MyTlb = IsCpu ? CpuTlb : GpuTlb;
  if (!MyTlb.lookup(VAddr)) {
    Result.TlbMiss = true;
    Latency += Config.TlbMissPenalty;
  }
  PageTable &Pt = IsCpu ? CpuPt : GpuPt;
  std::optional<Addr> Translated = Pt.translate(VAddr);
  if (!Translated) {
    // Demand-map: experiment setup maps ranges up front; stray addresses
    // (e.g. wrapped cursors just past an object) are mapped on demand.
    ++*MemDemandMaps;
    mapRange(Pu, alignDown(VAddr, Pt.pageBytes()), Pt.pageBytes());
    Translated = Pt.translate(VAddr);
    assert(Translated && "demand map failed");
  }
  Addr PAddr = *Translated;

  // 2. Address-space visibility (Section II-A): a PU referencing space
  // the model does not give it is a program error under that model.
  if (Policy.SpaceModel && !Policy.SpaceModel->canAccess(Pu, VAddr)) {
    Result.SpaceViolation = true;
    ++*MemSpaceViolations;
  }

  // 3. Shared-space policies (ownership, first touch).
  if (regionOf(VAddr) == MemRegion::Shared) {
    if (Policy.Ownership && !Policy.Ownership->checkAccess(Pu, VAddr)) {
      Result.OwnershipViolation = true;
      ++*MemOwnershipViolations;
    }
    if (Policy.FirstTouch && (!Policy.FaultOnlyGpu || !IsCpu)) {
      if (Policy.FirstTouch->touch(VAddr)) {
        Result.PageFault = true;
        ++*MemPagefaults;
        Latency += Policy.PageFaultLatency;
      }
    }
  }

  // 4. Private hierarchy.
  Cache &L1 = IsCpu ? *CpuL1 : *GpuL1;
  Addr Line = alignDown(PAddr, CacheLineBytes);

  // Coherence check happens before the private lookup so a stale local
  // copy is refreshed/invalidated correctly.
  if (Config.HwCoherence && regionOf(VAddr) == MemRegion::Shared &&
      (!Policy.HybridDomains || Policy.HybridDomains->consult(VAddr))) {
    Cycle Extra = 0;
    Result.CoherenceRemote = applyCoherence(Pu, Line, IsWrite, Extra);
    Latency += IsCpu ? Extra : convertCycles(PuKind::Cpu, PuKind::Gpu, Extra);
  }

  CacheAccessResult L1Result = L1.access(Line, IsWrite);
  Latency += L1.config().HitLatency;
  if (L1Result.Hit) {
    Result.Level = HitLevel::L1;
    Result.Latency = Latency;
    return Result;
  }
  if (L1Result.WroteBack) {
    if (IsCpu)
      CpuL2->access(L1Result.VictimAddr, /*IsWrite=*/true);
    else
      ++*MemGpuL1Writebacks;
  }

  if (IsCpu) {
    CacheAccessResult L2Result = CpuL2->access(Line, IsWrite);
    Latency += CpuL2->config().HitLatency;

    // The L2 stream prefetcher trains on the L2 access stream and fills
    // future lines directly into the L2 (fill time is hidden; the win is
    // the later hit, the cost shows up as DRAM traffic).
    if (Config.EnableL2Prefetch) {
      for (Addr PrefetchLine : Prefetcher.onAccess(Line)) {
        if (CpuL2->probe(PrefetchLine))
          continue;
        ++*MemPrefetchFills;
        CacheAccessResult Fill = CpuL2->access(PrefetchLine, false);
        if (Fill.WroteBack) {
          CpuDram->enqueue(Fill.VictimAddr, /*IsWrite=*/true);
          ++*DramCpuWritebacks;
        }
        CpuDram->enqueue(PrefetchLine, /*IsWrite=*/false);
        ++*DramCpuPrefetchReads;
      }
    }

    if (L2Result.Hit) {
      // Prefetch fills above may have posted background traffic even on
      // an L2 hit; drain it here so it is neither left to accumulate nor
      // mischarged to a later transfer. CPU accesses run in the uncore
      // clock already.
      drainBackground(NowPu + Latency);
      Result.Level = HitLevel::L2;
      Result.Latency = Latency;
      return Result;
    }
    if (L2Result.WroteBack) {
      CpuDram->enqueue(L2Result.VictimAddr, /*IsWrite=*/true);
      ++*DramCpuWritebacks;
    }
  }

  // 5. Uncore (CPU clock domain).
  Cycle NowCpu = IsCpu ? NowPu + Latency
                       : convertCycles(PuKind::Gpu, PuKind::Cpu,
                                       NowPu + Latency);
  Cycle DoneCpu =
      uncoreAccess(Pu, Line, IsWrite, NowCpu, ExplicitHint, Result.Level);
  Cycle UncoreCpuCycles = DoneCpu > NowCpu ? DoneCpu - NowCpu : 0;
  Cycle UncorePu = IsCpu ? UncoreCpuCycles
                         : convertCycles(PuKind::Cpu, PuKind::Gpu,
                                         UncoreCpuCycles);
  // Posted victim writebacks (L2/L3 evictions above) drain behind the
  // demand access on the uncore timeline.
  drainBackground(DoneCpu);

  // 6. MSHR merge/backpressure at the private-miss boundary. A merge may
  // not undercut this access's own accrued latency (TLB walk, fault).
  MshrFile &Mshr = IsCpu ? CpuMshr : GpuMshr;
  MshrDecision Decision = Mshr.onMiss(Line, NowPu, NowPu + Latency + UncorePu,
                                      /*MinReady=*/NowPu + Latency);
  Cycle Ready = Decision.ReadyCycle;
  Result.Latency = Ready > NowPu ? Ready - NowPu : Latency + UncorePu;
  if (Decision.Merged)
    ++*MemMshrMerges;
  return Result;
}

Cycle MemorySystem::scratchpadAccess(Addr Offset, uint32_t Bytes,
                                     bool IsWrite) {
  return Smem.access(Offset, Bytes, IsWrite);
}

Cycle MemorySystem::scratchpadWarpAccess(Addr Offset, uint32_t BytesPerLane,
                                         unsigned Lanes,
                                         uint32_t StrideBytes,
                                         bool IsWrite) {
  return Smem.warpAccess(Offset, BytesPerLane, Lanes, StrideBytes, IsWrite);
}

Cycle MemorySystem::pushToShared(PuKind Pu, Addr VBase, uint64_t Bytes,
                                 Cycle NowPu) {
  if (Bytes == 0)
    return 0;
  PageTable &Pt = Pu == PuKind::Cpu ? CpuPt : GpuPt;
  unsigned SourceStop = Pu == PuKind::Cpu ? ring::CpuStop : ring::GpuStop;
  uint64_t Lines = ceilDiv(Bytes, CacheLineBytes);
  Stats.increment("mem.push_ops");
  Stats.increment("mem.push_lines", Lines);

  // One NoC transit to start the stream, then pipelined per-line fills.
  Cycle CpuCost = Noc->uncontendedLatency(SourceStop, ring::L3Tile0);
  for (uint64_t I = 0; I != Lines; ++I) {
    Addr VAddr = VBase + I * CacheLineBytes;
    std::optional<Addr> PAddr = Pt.translate(VAddr);
    if (!PAddr) {
      mapRange(Pu, alignDown(VAddr, Pt.pageBytes()), Pt.pageBytes());
      PAddr = Pt.translate(VAddr);
    }
    CacheAccessResult Fill =
        L3->access(alignDown(*PAddr, CacheLineBytes), /*IsWrite=*/false,
                   /*MarkExplicit=*/true);
    if (Fill.WroteBack) {
      // The staged fill evicted a dirty line: that victim writeback is
      // real DRAM traffic, same as every other L3-fill path.
      CpuDram->enqueue(Fill.VictimAddr, /*IsWrite=*/true);
      ++*DramCpuWritebacks;
    }
    CpuCost += 2; // Pipelined fill occupancy per line.
  }
  Cycle NowCpu = Pu == PuKind::Cpu
                     ? NowPu
                     : convertCycles(PuKind::Gpu, PuKind::Cpu, NowPu);
  drainBackground(NowCpu + CpuCost);
  return Pu == PuKind::Cpu
             ? CpuCost
             : convertCycles(PuKind::Cpu, PuKind::Gpu, CpuCost);
}

Cycle MemorySystem::remapRange(PuKind Pu, Addr OldBase, Addr NewBase,
                               uint64_t Bytes, Cycle RemapCyclesPerPage) {
  if (Bytes == 0)
    return 0;
  PageTable &Pt = Pu == PuKind::Cpu ? CpuPt : GpuPt;
  Pt.unmapRange(OldBase, Bytes);
  mapRange(Pu, NewBase, Bytes);
  tlb(Pu).flush();
  uint64_t Pages = ceilDiv(Bytes, Pt.pageBytes());
  Stats.increment("mem.remap_pages", Pages);
  // Per-page table update plus a fixed TLB-shootdown cost.
  return Pages * RemapCyclesPerPage + Config.TlbMissPenalty;
}

uint64_t MemorySystem::flushPrivate(PuKind Pu) {
  uint64_t Writebacks = 0;
  auto Count = [&Writebacks](Addr) { ++Writebacks; };
  if (Pu == PuKind::Cpu) {
    CpuL1->flushAll(Count);
    CpuL2->flushAll(Count);
  } else {
    GpuL1->flushAll(Count);
  }
  Stats.increment("mem.flush_writebacks", Writebacks);
  return Writebacks;
}
