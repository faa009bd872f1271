//===- cpu/CpuCore.h - Out-of-order CPU timing model ------------*- C++ -*-===//
///
/// \file
/// The 3.5GHz out-of-order CPU core of Table II. A one-pass timing model:
/// each trace instruction's dispatch is limited by fetch bandwidth, ROB
/// occupancy, and branch-misprediction refetch; its issue waits for source
/// operands and an issue slot; loads and stores walk the memory hierarchy.
/// Retirement is in order. This captures ILP, memory-level parallelism,
/// and branch behaviour in O(1) work per instruction.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CPU_CPUCORE_H
#define HETSIM_CPU_CPUCORE_H

#include "cache/Cache.h"
#include "cpu/BranchPredictor.h"
#include "trace/TraceBuffer.h"

#include <vector>

namespace hetsim {

class MemorySystem;

/// CPU core parameters (Sandy-Bridge-like defaults).
struct CpuConfig {
  unsigned FetchWidth = 4;
  unsigned IssueWidth = 4;
  unsigned RetireWidth = 4;
  unsigned RobEntries = 168;
  Cycle MispredictPenalty = 15;
  unsigned GshareTableBits = 12;

  /// Model instruction fetch through the L1I (Table II: 32KB 8-way,
  /// 2-cycle). Loop kernels fit easily, so this mostly matters for
  /// large-footprint code; misses stall fetch for L1IMissPenalty.
  bool ModelInstructionFetch = true;
  Cycle L1IMissPenalty = 10;

  /// Store-to-load forwarding: a load whose address matches a recent
  /// store gets its data from the store buffer (1 cycle after the store
  /// issued) instead of waiting on the hierarchy.
  bool EnableStoreForwarding = true;

  bool operator==(const CpuConfig &) const = default;
};

/// Results of running one trace segment on a core.
struct SegmentResult {
  Cycle Cycles = 0; ///< Core cycles from segment start to last retire.
  uint64_t Insts = 0;
  uint64_t MemAccesses = 0;
  uint64_t MemLatencySum = 0; ///< Total memory-hierarchy cycles observed.
  Cycle MemLatencyMax = 0;    ///< Worst single access (tail latency).
  uint64_t BranchMispredicts = 0;
  uint64_t ICacheMisses = 0;
  uint64_t StoreForwards = 0;
  uint64_t PageFaults = 0;
  Cycle PageFaultCycles = 0;

  bool operator==(const SegmentResult &) const = default;

  double ipc() const {
    return Cycles == 0 ? 0.0 : double(Insts) / double(Cycles);
  }
};

/// A coarse CPI stack for a segment: where did the cycles beyond the
/// ideal-width baseline go? Branch and fetch components are exact
/// (penalties are charged per event); the remainder is attributed to
/// memory/dependence stalls.
struct CpiStack {
  double BaseCpi = 0;   ///< Insts / IssueWidth.
  double BranchCpi = 0; ///< Mispredict bubbles.
  double FetchCpi = 0;  ///< I-cache miss stalls.
  double MemDepCpi = 0; ///< Everything else: memory + dependence chains.

  double totalCpi() const {
    return BaseCpi + BranchCpi + FetchCpi + MemDepCpi;
  }
};

/// Decomposes \p Result into a CPI stack for a core of \p Config.
CpiStack computeCpiStack(const SegmentResult &Result,
                         const CpuConfig &Config);

/// The out-of-order core.
class CpuCore {
public:
  CpuCore(const CpuConfig &Config, MemorySystem &Mem);

  /// Runs \p Trace to completion starting at core cycle \p StartCycle and
  /// returns its timing. Core state (predictor, I-cache) persists across
  /// segments; register readiness is reset per segment (segments are
  /// separated by synchronization anyway).
  SegmentResult run(const TraceBuffer &Trace, Cycle StartCycle);

  /// Same, over a raw record span (used by the interleaved-contention
  /// driver to run a trace in slices).
  SegmentResult run(const TraceRecord *Records, size_t Count,
                    Cycle StartCycle);

  /// Runs a shared trace handle through the block driver
  /// (cpu/BlockDriver.h): block-backed handles expand window by window
  /// (DESIGN.md §8), with results identical to running the materialized
  /// trace through the reference loop.
  SegmentResult run(const SharedTrace &Trace, Cycle StartCycle);

  const CpuConfig &config() const { return Config; }
  GsharePredictor &predictor() { return Predictor; }
  Cache &instructionCache() { return ICache; }

private:
  CpuConfig Config;
  MemorySystem &Mem;
  GsharePredictor Predictor;
  Cache ICache; ///< L1 instruction cache (Table II).
};

} // namespace hetsim

#endif // HETSIM_CPU_CPUCORE_H
