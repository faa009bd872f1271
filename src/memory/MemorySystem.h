//===- memory/MemorySystem.h - The assembled memory hierarchy ---*- C++ -*-===//
///
/// \file
/// The full Table II memory system: per-PU TLBs and page tables, CPU
/// L1D+L2, GPU L1D + 16KB scratchpad, a shared 4-tile L3 over the ring
/// bus, and DDR3 DRAM — plus the design-space hooks the paper varies:
/// optional hardware coherence (MESI directory), an optional discrete GPU
/// memory, shared-space ownership checking, and first-touch page faults.
///
/// Timing model: latency walk. An access descends the hierarchy, updating
/// cache/bank/ring state as it goes, and returns its total latency in the
/// requesting PU's clock domain. Uncore state (L3, ring, DRAM) is kept in
/// CPU cycles and converted at the boundary.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_MEMORYSYSTEM_H
#define HETSIM_MEMORY_MEMORYSYSTEM_H

#include "cache/Cache.h"
#include "cache/Directory.h"
#include "cache/Mshr.h"
#include "cache/Scratchpad.h"
#include "cache/StreamPrefetcher.h"
#include "common/Stats.h"
#include "dram/Dram.h"
#include "interconnect/MeshNoc.h"
#include "interconnect/RingBus.h"
#include "memory/FirstTouchTracker.h"
#include "memory/HybridCoherence.h"
#include "memory/Ownership.h"
#include "memory/PageTable.h"
#include "memory/Tlb.h"

#include <functional>
#include <memory>
#include <vector>

namespace hetsim {

/// Configuration of the assembled hierarchy.
struct MemHierConfig {
  CacheConfig CpuL1 = CacheConfig::cpuL1D();
  CacheConfig CpuL2 = CacheConfig::cpuL2();
  CacheConfig GpuL1 = CacheConfig::gpuL1D();
  CacheConfig L3 = CacheConfig::sharedL3();
  DramConfig Dram;
  RingConfig Ring;
  /// Use a 2D mesh instead of the Table II ring (NoC design option).
  bool UseMeshNoc = false;
  MeshConfig Mesh;

  /// False removes the L3 (both PUs go straight to DRAM after L2/L1).
  bool EnableL3 = true;
  /// True routes GPU L1 misses through the shared L3 (integrated LLC,
  /// Sandy-Bridge style); false sends them to the GPU's own memory.
  bool GpuSharesL3 = true;
  /// True gives the GPU a discrete memory device (CPU+GPU/GMAC configs).
  bool SeparateGpuDram = false;
  /// True maintains MESI coherence between the PU private hierarchies.
  bool HwCoherence = false;

  Cycle TlbMissPenalty = 30; ///< Page-walk cycles (requester clock).
  unsigned CpuTlbEntries = 64;
  unsigned GpuTlbEntries = 32;
  unsigned TlbWays = 4;
  uint64_t CpuPageBytes = SmallPageBytes;
  uint64_t GpuPageBytes = LargePageBytes;
  unsigned CpuMshrs = 16;
  unsigned GpuMshrs = 32;
  uint64_t ScratchpadBytes = 16 * 1024;
  Cycle ScratchpadLatency = 2;
  uint64_t DeviceBytes = 1ull << 32; ///< Size of each physical device.

  /// Stream prefetching into the CPU L2 (off in the Table II baseline).
  bool EnableL2Prefetch = false;
  PrefetcherConfig Prefetch;

  bool operator==(const MemHierConfig &) const = default;
};

/// Which level served an access.
enum class HitLevel : uint8_t { L1, L2, L3, Dram, Scratchpad };

/// Result of one access.
struct MemAccessResult {
  Cycle Latency = 0; ///< In the requesting PU's clock.
  HitLevel Level = HitLevel::L1;
  bool TlbMiss = false;
  bool PageFault = false;          ///< First touch of a shared page.
  bool OwnershipViolation = false; ///< Non-owner touched a shared object.
  bool SpaceViolation = false;     ///< PU touched space it cannot see.
  bool CoherenceRemote = false;    ///< Data/invalidate involved the other PU.
};

class AddressSpaceModel;

/// Policies layered over the shared space (wired by system configs).
struct SharedSpacePolicy {
  OwnershipRegistry *Ownership = nullptr;
  FirstTouchTracker *FirstTouch = nullptr;
  /// When set, accesses are checked against the address-space model's
  /// visibility rules (Section II-A: e.g. the GPU cannot reach CPU
  /// private space under disjoint or ADSM). Violations are counted in
  /// "mem.space_violations" and flagged on the result.
  const AddressSpaceModel *SpaceModel = nullptr;
  /// When set (and HwCoherence is on), only addresses the map assigns to
  /// the hardware domain consult the MESI directory — the Cohesion-style
  /// hybrid memory model of Section VI-B.
  HybridCoherenceMap *HybridDomains = nullptr;
  /// lib-pf (Table IV): handling cost of one page fault, requester cycles.
  Cycle PageFaultLatency = 42000;
  /// Model faults only on GPU accesses (the LRB case study: the GPU
  /// faults shared pages in on first use).
  bool FaultOnlyGpu = true;
};

/// The assembled hierarchy.
class MemorySystem {
public:
  /// A hierarchy of \p Config.
  explicit MemorySystem(const MemHierConfig &Config = MemHierConfig());

  const MemHierConfig &config() const { return Config; }

  /// Maps [VBase, VBase+Bytes) into \p Pu's page table, backed by that
  /// PU's memory device (or the unified device).
  void mapRange(PuKind Pu, Addr VBase, uint64_t Bytes);

  /// Performs one demand access of at most one cache line. \p NowPu is the
  /// current cycle in \p Pu's clock; the returned latency is in the same
  /// clock. \p ExplicitHint tags the line explicitly at the L3 (hybrid
  /// locality, Section II-B5).
  MemAccessResult access(PuKind Pu, Addr VAddr, uint32_t Bytes, bool IsWrite,
                         Cycle NowPu, bool ExplicitHint = false);

  /// GPU software-managed-cache access (offset-addressed).
  Cycle scratchpadAccess(Addr Offset, uint32_t Bytes, bool IsWrite);

  /// Warp-wide scratchpad access with bank-conflict serialization.
  Cycle scratchpadWarpAccess(Addr Offset, uint32_t BytesPerLane,
                             unsigned Lanes, uint32_t StrideBytes,
                             bool IsWrite);

  /// Explicit locality `push` (Section II-B): stages [Base, Base+Bytes)
  /// into the L3 with the explicit tag set. Returns the cost in \p Pu
  /// cycles.
  Cycle pushToShared(PuKind Pu, Addr VBase, uint64_t Bytes, Cycle NowPu);

  /// Writes back and invalidates \p Pu's private dirty lines (release
  /// semantics at ownership/kernel boundaries). Returns lines written
  /// back.
  uint64_t flushPrivate(PuKind Pu);

  /// Drains background (posted) traffic — victim writebacks and prefetch
  /// fills — pending in the CPU DRAM FR-FCFS queue, starting at \p NowCpu
  /// (CPU cycles). Drain time is recorded in "dram.cpu.bg_*" stats but
  /// billed to no requester: posted writes complete in the background,
  /// and the bank/bus busy-until state they leave behind is the physical
  /// contention later accesses observe. Called internally at every
  /// boundary that can enqueue, so the queue is empty whenever the system
  /// is quiescent; exposed for fabrics and tests that force quiescence.
  void drainBackground(Cycle NowCpu);

  /// One background-queue drain, reported to the observability hook.
  struct BgDrainEvent {
    Cycle StartCpu = 0;    ///< Drain start, CPU cycles.
    Cycle DurationCpu = 0; ///< Cycles until the last request completed.
    uint64_t Requests = 0; ///< Requests drained.
  };

  /// Installs a callback fired on every non-empty background drain (the
  /// trace-event timeline). Keeps this library free of an obs dependency;
  /// pass nullptr-constructed function to clear.
  void setBgDrainHook(std::function<void(const BgDrainEvent &)> Hook) {
    DrainHook = std::move(Hook);
  }

  /// Globalization / privatization (Section II-A3): moves the virtual
  /// range [OldBase, OldBase+Bytes) of \p Pu's space to NewBase (e.g.
  /// from a private region into the shared region). Remaps the page
  /// table and flushes the PU's TLB; the cost is per-page remap work
  /// plus the flush. Returns cycles in \p Pu's clock.
  Cycle remapRange(PuKind Pu, Addr OldBase, Addr NewBase, uint64_t Bytes,
                   Cycle RemapCyclesPerPage = 300);

  /// Attaches shared-space policies (non-owning).
  void setSharedPolicy(const SharedSpacePolicy &P) { Policy = P; }

  /// Component access for tests, benches, and the comm fabrics.
  Cache &cpuL1() { return *CpuL1; }
  Cache &cpuL2() { return *CpuL2; }
  Cache &gpuL1() { return *GpuL1; }
  Cache &l3() { return *L3; }
  DramSystem &cpuDram() { return *CpuDram; }
  DramSystem &gpuDram();
  Interconnect &noc() { return *Noc; }
  Interconnect &ring() { return *Noc; } ///< Historical accessor name.
  Directory &directory() { return Dir; }
  MshrFile &mshr(PuKind Pu) { return Pu == PuKind::Cpu ? CpuMshr : GpuMshr; }
  bool hasSeparateGpuDram() const { return GpuDramDevice != nullptr; }
  Tlb &tlb(PuKind Pu) { return Pu == PuKind::Cpu ? CpuTlb : GpuTlb; }
  StreamPrefetcher &prefetcher() { return Prefetcher; }
  PageTable &pageTable(PuKind Pu) {
    return Pu == PuKind::Cpu ? CpuPt : GpuPt;
  }
  Scratchpad &scratchpad() { return Smem; }

  /// Aggregate counters ("mem.pagefaults", "mem.coh_remote", ...).
  const StatRegistry &stats() const { return Stats; }
  StatRegistry &stats() { return Stats; }

private:
  /// Uncore walk beyond the private hierarchy; \p NowCpu in CPU cycles,
  /// returns completion cycle in CPU cycles.
  Cycle uncoreAccess(PuKind Pu, Addr PAddr, bool IsWrite, Cycle NowCpu,
                     bool ExplicitHint, HitLevel &Level);

  /// Applies coherence actions against the other PU's private caches.
  bool applyCoherence(PuKind Requestor, Addr PAddr, bool IsWrite,
                      Cycle &ExtraCpuCycles);

  MemHierConfig Config;
  std::unique_ptr<Cache> CpuL1;
  std::unique_ptr<Cache> CpuL2;
  std::unique_ptr<Cache> GpuL1;
  std::unique_ptr<Cache> L3;
  std::unique_ptr<DramSystem> CpuDram;
  std::unique_ptr<DramSystem> GpuDramDevice; // Only if SeparateGpuDram.
  std::unique_ptr<Interconnect> Noc;
  Directory Dir;
  MshrFile CpuMshr;
  MshrFile GpuMshr;
  Tlb CpuTlb;
  Tlb GpuTlb;
  PhysicalMemory CpuPhys;
  PhysicalMemory GpuPhys;
  PageTable CpuPt;
  PageTable GpuPt;
  Scratchpad Smem;
  StreamPrefetcher Prefetcher;
  SharedSpacePolicy Policy;
  StatRegistry Stats;

  // Conservation counters (see obs/Metrics.h for the contract), bound to
  // registry entries once at construction so the per-access charging
  // sites never hash a counter name.
  uint64_t *DramCpuDemand = nullptr;
  uint64_t *DramCpuWritebacks = nullptr;
  uint64_t *DramCpuPrefetchReads = nullptr;
  uint64_t *DramGpuDemand = nullptr;
  uint64_t *BgDrains = nullptr;
  uint64_t *BgRequests = nullptr;
  StatHistogram *BgDrainCycles = nullptr;
  // Per-access counters, same registration-time binding.
  uint64_t *MemCpuAccesses = nullptr;
  uint64_t *MemGpuAccesses = nullptr;
  uint64_t *MemDemandMaps = nullptr;
  uint64_t *MemCohRemote = nullptr;
  uint64_t *MemCohWritebacks = nullptr;
  uint64_t *MemSpaceViolations = nullptr;
  uint64_t *MemOwnershipViolations = nullptr;
  uint64_t *MemPagefaults = nullptr;
  uint64_t *MemGpuL1Writebacks = nullptr;
  uint64_t *MemPrefetchFills = nullptr;
  uint64_t *MemMshrMerges = nullptr;
  std::function<void(const BgDrainEvent &)> DrainHook;
};

} // namespace hetsim

#endif // HETSIM_MEMORY_MEMORYSYSTEM_H
