//===- gpu/GpuCore.cpp ----------------------------------------------------===//

#include "gpu/GpuCore.h"

#include "common/Error.h"
#include "cpu/BlockDriver.h"
#include "gpu/Coalescer.h"
#include "memory/MemorySystem.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace hetsim;

GpuCore::GpuCore(const GpuConfig &Cfg, MemorySystem &Memory)
    : Config(Cfg), Mem(Memory) {
  if (Cfg.NumWarps == 0 || Cfg.IssueWidth == 0)
    fatalError("GPU needs at least one warp context and issue slot");
}

namespace {

/// In-order execution state of one warp context.
struct WarpState {
  std::vector<Cycle> RegReady;
  Cycle NextIssue;
  std::vector<Cycle> Pending; // Outstanding memory completions.
  Cycle LastComplete;

  explicit WarpState(Cycle Start)
      : RegReady(NumTraceRegs, Start), NextIssue(Start), LastComplete(Start) {}

  void retirePendingBefore(Cycle Now) {
    Pending.erase(std::remove_if(Pending.begin(), Pending.end(),
                                 [Now](Cycle C) { return C <= Now; }),
                  Pending.end());
  }
};

/// The throughput model's full state with the reference per-record update
/// in step(). The trace is striped across NumWarps contexts in chunks of
/// WarpChunkRecords (so whole loop iterations stay inside one register
/// file); each context executes strictly in order with scoreboarded
/// operands and stall-on-branch; contexts are independent, which models a
/// zero-overhead warp scheduler hiding one warp's memory latency under the
/// others. Every path drives this one update function through the block
/// driver (cpu/BlockDriver.h).
struct GpuPipeline {
  const GpuConfig &Config;
  MemorySystem &Mem;
  SegmentResult &Result;

  const unsigned W;
  const unsigned Chunk;
  const unsigned PendingPerWarp;

  std::vector<WarpState> Warps;
  Cycle LastComplete;
  uint64_t Index = 0; ///< Global record index (drives warp striping).
  std::vector<Addr> Lines; // Reused across records: no per-record allocation.

  GpuPipeline(const GpuConfig &Cfg, MemorySystem &Memory, SegmentResult &Res,
              Cycle StartCycle)
      : Config(Cfg), Mem(Memory), Result(Res), W(Cfg.NumWarps),
        Chunk(std::max(1u, Cfg.WarpChunkRecords)),
        PendingPerWarp(std::max(1u, Cfg.MaxPendingLoads / W + 1)),
        Warps(W, WarpState(StartCycle)), LastComplete(StartCycle) {}

  void step(const TraceRecord &R) {
    WarpState &Warp = Warps[(Index / Chunk) % W];
    ++Index;

    Cycle IssueCycle = Warp.NextIssue;
    if (R.SrcRegA != NoReg)
      IssueCycle = std::max(IssueCycle, Warp.RegReady[R.SrcRegA]);
    if (R.SrcRegB != NoReg)
      IssueCycle = std::max(IssueCycle, Warp.RegReady[R.SrcRegB]);

    Cycle Complete = IssueCycle + executeLatency(PuKind::Gpu, R.Op);

    if (isGlobalMemoryOp(R.Op)) {
      Warp.retirePendingBefore(IssueCycle);
      if (Warp.Pending.size() >= PendingPerWarp) {
        Cycle Oldest =
            *std::min_element(Warp.Pending.begin(), Warp.Pending.end());
        IssueCycle = std::max(IssueCycle, Oldest);
        Warp.retirePendingBefore(IssueCycle);
      }
      Cycle WarpDone = IssueCycle;
      coalesceWarpAccess(R, Lines);
      for (Addr Line : Lines) {
        MemAccessResult MemResult = Mem.access(
            PuKind::Gpu, Line, CacheLineBytes, isStoreOp(R.Op), IssueCycle);
        ++Result.MemAccesses;
        Result.MemLatencySum += MemResult.Latency;
        Result.MemLatencyMax = std::max(Result.MemLatencyMax,
                                        MemResult.Latency);
        if (MemResult.PageFault) {
          ++Result.PageFaults;
          Result.PageFaultCycles += MemResult.Latency;
        }
        WarpDone = std::max(WarpDone, IssueCycle + MemResult.Latency);
      }
      if (!isStoreOp(R.Op)) {
        Complete = WarpDone;
        Warp.Pending.push_back(WarpDone);
      }
    } else if (R.Op == Opcode::SmemLoad || R.Op == Opcode::SmemStore) {
      Complete = IssueCycle +
                 Mem.scratchpadWarpAccess(R.MemAddr, R.MemBytes, R.SimdLanes,
                                          R.LaneStrideBytes, isStoreOp(R.Op));
    }

    if (R.DstReg != NoReg)
      Warp.RegReady[R.DstReg] = Complete;

    Warp.NextIssue = IssueCycle + 1;
    if (isBranchOp(R.Op)) {
      // No predictor: this warp's pipeline drains on every branch
      // (Table II); the other warps keep the core busy. Data-dependent
      // branches additionally diverge the warp (both paths execute).
      Cycle Stall = Config.BranchStall;
      if (R.SrcRegA != NoReg && R.SrcRegA != 0)
        Stall *= std::max(1u, Config.DivergentBranchFactor);
      Warp.NextIssue = Complete + Stall;
      ++Result.BranchMispredicts; // Every branch pays the stall.
    }

    Warp.LastComplete = std::max(Warp.LastComplete, Complete);
    LastComplete = std::max(LastComplete, Complete);
  }

  void runSpan(const TraceRecord *Records, size_t Count) {
    for (size_t I = 0; I != Count; ++I)
      step(Records[I]);
  }

  /// The critical path, floored by issue bandwidth.
  Cycle finish(Cycle StartCycle) const {
    assert(LastComplete >= StartCycle && "time went backwards");
    return std::max(LastComplete - StartCycle,
                    ceilDiv(Result.Insts, Config.IssueWidth));
  }
};

} // namespace

SegmentResult GpuCore::run(const TraceBuffer &Trace, Cycle StartCycle) {
  return run(Trace.records().data(), Trace.size(), StartCycle);
}

SegmentResult GpuCore::run(const TraceRecord *Records, size_t Count,
                           Cycle StartCycle) {
  SegmentResult Result;
  Result.Insts = Count;
  if (Count == 0)
    return Result;

  GpuPipeline Pipe(Config, Mem, Result, StartCycle);
  Pipe.runSpan(Records, Count);
  Result.Cycles = Pipe.finish(StartCycle);
  return Result;
}

SegmentResult GpuCore::run(const SharedTrace &Trace, Cycle StartCycle) {
  SegmentResult Result;
  GpuPipeline Pipe(Config, Mem, Result, StartCycle);
  return runTrace(Pipe, Result, Trace, StartCycle);
}
