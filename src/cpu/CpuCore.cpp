//===- cpu/CpuCore.cpp ----------------------------------------------------===//

#include "cpu/CpuCore.h"

#include "common/FlatMap.h"
#include "cpu/BlockDriver.h"
#include "memory/MemorySystem.h"

#include <algorithm>
#include <cassert>

using namespace hetsim;

CpiStack hetsim::computeCpiStack(const SegmentResult &Result,
                                 const CpuConfig &Config) {
  CpiStack Stack;
  if (Result.Insts == 0)
    return Stack;
  double Insts = double(Result.Insts);
  Stack.BaseCpi = 1.0 / double(Config.IssueWidth);
  Stack.BranchCpi =
      double(Result.BranchMispredicts) * double(Config.MispredictPenalty) /
      Insts;
  Stack.FetchCpi =
      double(Result.ICacheMisses) * double(Config.L1IMissPenalty) / Insts;
  double Total = double(Result.Cycles) / Insts;
  Stack.MemDepCpi = Total - Stack.BaseCpi - Stack.BranchCpi - Stack.FetchCpi;
  if (Stack.MemDepCpi < 0)
    Stack.MemDepCpi = 0; // Overlap can hide charged penalties.
  return Stack;
}

CpuCore::CpuCore(const CpuConfig &Cfg, MemorySystem &Memory)
    : Config(Cfg), Mem(Memory), Predictor(Cfg.GshareTableBits),
      ICache(CacheConfig::cpuL1I(), /*RngSeed=*/23) {}

namespace {

/// The full per-segment pipeline state, with the reference per-record
/// update in step(). Every path drives this *same* update code through
/// the block driver (cpu/BlockDriver.h) — exactness by construction, not
/// by parallel maintenance of several loops.
struct CpuPipeline {
  const CpuConfig &Config;
  MemorySystem &Mem;
  GsharePredictor &Predictor;
  Cache &ICache;
  SegmentResult &Result;

  // Operand readiness per architectural register.
  std::vector<Cycle> RegReady;
  // Retire times of in-flight instructions, a ring buffer of ROB size:
  // instruction I cannot dispatch until instruction I - RobEntries retired.
  std::vector<Cycle> RobRetire;
  uint64_t RobHead = 0;
  // Fetch: FetchWidth per cycle, stalled by mispredicted branches.
  Cycle FetchCycle;
  unsigned FetchedThisCycle = 0;
  // Issue bandwidth: IssueWidth per cycle.
  Cycle IssueBusyCycle;
  unsigned IssuedThisCycle = 0;
  // In-order retirement.
  Cycle LastRetire;
  unsigned RetiredThisCycle = 0;
  Addr LastFetchLine = ~Addr(0);
  // Store buffer for store-to-load forwarding: exact address -> cycle at
  // which the stored data is forwardable.
  FlatU64Map<Cycle> StoreBuffer;

  CpuPipeline(const CpuConfig &Cfg, MemorySystem &Memory,
              GsharePredictor &Pred, Cache &L1I, SegmentResult &Res,
              Cycle StartCycle)
      : Config(Cfg), Mem(Memory), Predictor(Pred), ICache(L1I), Result(Res),
        RegReady(NumTraceRegs, StartCycle),
        RobRetire(Cfg.RobEntries, StartCycle), FetchCycle(StartCycle),
        IssueBusyCycle(StartCycle), LastRetire(StartCycle) {}

  void step(const TraceRecord &R) {
    // --- Fetch ---
    if (FetchedThisCycle >= Config.FetchWidth) {
      ++FetchCycle;
      FetchedThisCycle = 0;
    }
    // Instruction fetch goes through the L1I one line at a time; a miss
    // stalls the front end.
    if (Config.ModelInstructionFetch) {
      Addr FetchLine = alignDown(R.Pc, CacheLineBytes);
      if (FetchLine != LastFetchLine) {
        LastFetchLine = FetchLine;
        if (!ICache.access(FetchLine, /*IsWrite=*/false).Hit) {
          ++Result.ICacheMisses;
          FetchCycle += Config.L1IMissPenalty;
          FetchedThisCycle = 0;
        }
      }
    }
    ++FetchedThisCycle;

    // --- Dispatch: needs a ROB slot ---
    Cycle RobFree = RobRetire[RobHead % Config.RobEntries];
    Cycle DispatchCycle = std::max(FetchCycle, RobFree);

    // --- Issue: operands + an issue slot ---
    Cycle Ready = DispatchCycle;
    if (R.SrcRegA != NoReg)
      Ready = std::max(Ready, RegReady[R.SrcRegA]);
    if (R.SrcRegB != NoReg)
      Ready = std::max(Ready, RegReady[R.SrcRegB]);
    if (Ready > IssueBusyCycle) {
      IssueBusyCycle = Ready;
      IssuedThisCycle = 0;
    } else if (IssuedThisCycle >= Config.IssueWidth) {
      ++IssueBusyCycle;
      IssuedThisCycle = 0;
      Ready = IssueBusyCycle;
    } else {
      Ready = IssueBusyCycle;
    }
    ++IssuedThisCycle;
    Cycle IssueCycle = Ready;

    // --- Execute ---
    Cycle Complete = IssueCycle + executeLatency(PuKind::Cpu, R.Op);
    if (isGlobalMemoryOp(R.Op)) {
      MemAccessResult MemResult = Mem.access(
          PuKind::Cpu, R.MemAddr, std::max<uint32_t>(R.MemBytes, 1),
          isStoreOp(R.Op), IssueCycle);
      ++Result.MemAccesses;
      Result.MemLatencySum += MemResult.Latency;
      Result.MemLatencyMax = std::max(Result.MemLatencyMax,
                                      MemResult.Latency);
      if (MemResult.PageFault) {
        ++Result.PageFaults;
        Result.PageFaultCycles += MemResult.Latency;
      }
      // Stores complete for dependence purposes after address+data issue;
      // the store buffer hides their memory time. Loads wait for data —
      // unless a recent store to the same address forwards it.
      if (isStoreOp(R.Op)) {
        if (Config.EnableStoreForwarding)
          StoreBuffer[R.MemAddr] = IssueCycle + 1;
      } else {
        Complete = IssueCycle + MemResult.Latency;
        if (Config.EnableStoreForwarding) {
          if (const Cycle *Fwd = StoreBuffer.find(R.MemAddr)) {
            ++Result.StoreForwards;
            Complete = std::max(IssueCycle + 1, *Fwd);
          }
        }
      }
    }

    if (R.DstReg != NoReg)
      RegReady[R.DstReg] = Complete;

    // --- Branch resolution ---
    if (isBranchOp(R.Op)) {
      bool Correct = Predictor.update(R.Pc, R.IsTaken);
      if (!Correct) {
        ++Result.BranchMispredicts;
        // Refetch from the resolved target.
        Cycle Refetch = Complete + Config.MispredictPenalty;
        if (Refetch > FetchCycle) {
          FetchCycle = Refetch;
          FetchedThisCycle = 0;
        }
      }
    }

    // --- In-order retirement ---
    Cycle Retire = std::max(Complete, LastRetire);
    if (Retire > LastRetire) {
      LastRetire = Retire;
      RetiredThisCycle = 0;
    } else if (RetiredThisCycle >= Config.RetireWidth) {
      ++LastRetire;
      RetiredThisCycle = 0;
      Retire = LastRetire;
    } else {
      Retire = LastRetire;
    }
    ++RetiredThisCycle;

    RobRetire[RobHead % Config.RobEntries] = Retire;
    ++RobHead;
  }

  void runSpan(const TraceRecord *Records, size_t Count) {
    for (size_t Index = 0; Index != Count; ++Index)
      step(Records[Index]);
  }

  Cycle finish(Cycle StartCycle) const {
    assert(LastRetire >= StartCycle && "time went backwards");
    return LastRetire - StartCycle;
  }
};

} // namespace

SegmentResult CpuCore::run(const TraceBuffer &Trace, Cycle StartCycle) {
  return run(Trace.records().data(), Trace.size(), StartCycle);
}

SegmentResult CpuCore::run(const TraceRecord *Records, size_t Count,
                           Cycle StartCycle) {
  SegmentResult Result;
  Result.Insts = Count;
  if (Count == 0)
    return Result;

  CpuPipeline Pipe(Config, Mem, Predictor, ICache, Result, StartCycle);
  Pipe.runSpan(Records, Count);
  Result.Cycles = Pipe.finish(StartCycle);
  return Result;
}

SegmentResult CpuCore::run(const SharedTrace &Trace, Cycle StartCycle) {
  SegmentResult Result;
  CpuPipeline Pipe(Config, Mem, Predictor, ICache, Result, StartCycle);
  return runTrace(Pipe, Result, Trace, StartCycle);
}
