//===- core/HeteroSimulator.cpp -------------------------------------------===//

#include "core/HeteroSimulator.h"

#include "comm/DmaEngine.h"
#include "comm/MemControllerLink.h"
#include "comm/PciAperture.h"
#include "comm/PciExpressLink.h"
#include "common/Error.h"
#include "common/Units.h"
#include "analysis/ProgramLinter.h"
#include "common/Log.h"
#include "core/ConsistencyValidation.h"
#include "core/LocalityValidation.h"

#include <algorithm>
#include <cassert>

using namespace hetsim;

namespace {
/// Figure 7's "ideal communication": a mechanism costs only its handful of
/// extra instructions. We charge this many CPU cycles per host statement
/// or transfer object.
constexpr Cycle IdealCommCyclesPerOp = 10;

void accumulate(SegmentResult &Total, const SegmentResult &Part) {
  Total.Cycles += Part.Cycles;
  Total.Insts += Part.Insts;
  Total.MemAccesses += Part.MemAccesses;
  Total.MemLatencySum += Part.MemLatencySum;
  Total.MemLatencyMax = std::max(Total.MemLatencyMax, Part.MemLatencyMax);
  Total.BranchMispredicts += Part.BranchMispredicts;
  Total.ICacheMisses += Part.ICacheMisses;
  Total.StoreForwards += Part.StoreForwards;
  Total.PageFaults += Part.PageFaults;
  Total.PageFaultCycles += Part.PageFaultCycles;
}
} // namespace

HeteroSimulator::HeteroSimulator(const SystemConfig &Cfg, RunOptions O)
    : Config(Cfg), Opts(std::move(O)) {
  Config.Comm.clearReads();
  buildMachine();
}

HeteroSimulator::~HeteroSimulator() = default;

MemorySystem &HeteroSimulator::memory() {
  assert(Mem && "machine not built");
  return *Mem;
}

void HeteroSimulator::buildMachine() {
  Mem = std::make_unique<MemorySystem>(Config.Hier);
  Cpu = std::make_unique<CpuCore>(Config.Cpu, *Mem);
  Gpu = std::make_unique<GpuCore>(Config.Gpu, *Mem);
  Ownership.clear();
  Fabric = buildFabric();
}

std::unique_ptr<CommFabric> HeteroSimulator::buildFabric() {
  if (Config.IdealComm || Config.Connection == ConnectionKind::None)
    return nullptr;
  switch (Config.Connection) {
  case ConnectionKind::PciExpress: {
    // The partially shared space communicates through the PCI aperture
    // (Section II-A3); other PCI-E systems use plain memcpy-style links.
    std::unique_ptr<CommFabric> Link;
    if (Config.AddrSpace == AddressSpaceKind::PartiallyShared)
      Link = std::make_unique<PciAperture>(Config.Comm);
    else
      Link = std::make_unique<PciExpressLink>(Config.Comm);
    if (Config.AsyncCopies)
      return std::make_unique<DmaEngine>(Config.Comm, std::move(Link));
    return Link;
  }
  case ConnectionKind::MemoryController:
    return std::make_unique<MemControllerLink>(Mem->cpuDram(), 1000,
                                               &Mem->stats());
  case ConnectionKind::Interconnection:
  case ConnectionKind::CacheFsb:
  case ConnectionKind::Bus:
    // Modeled as a memory-controller-class on-chip path.
    return std::make_unique<MemControllerLink>(Mem->cpuDram(), 1000,
                                               &Mem->stats());
  case ConnectionKind::None:
    return nullptr;
  }
  hetsim_unreachable("invalid connection kind");
}

RunResult HeteroSimulator::run(KernelId Kernel) {
  LoweredProgram Program = lowerKernel(Kernel, Config, Opts);
  return runLowered(Program);
}

RunResult HeteroSimulator::runLowered(const LoweredProgram &Program) {
  // Static pre-run validation: the memory-model linter proves the
  // lowering legal for this design point before any cycles are spent.
  // Errors are lowering bugs and abort the run; warnings (dead copies)
  // are left to hetsim_lint so sweeps stay quiet.
  if (Program.BuiltFromKernel) {
    LintReport Report = lintProgram(Program, Config);
    if (Report.errorCount() != 0) {
      for (const LintDiagnostic &D : Report.Diags)
        HETSIM_WARN("lint[%s/%s]: %s", Config.Name.c_str(),
                    kernelName(Program.Kernel),
                    D.render(D.StepIndex < Program.Steps.size()
                                 ? execKindName(
                                       Program.Steps[D.StepIndex].Kind)
                                 : "end")
                        .c_str());
      fatalError("pre-run lint found memory-model hazards in the lowered "
                 "program");
    }
  }

  // Lowered kernel programs must be data-race-free under the weak
  // consistency model all evaluated systems use (Table I): the lowering
  // is responsible for inserting enough synchronization. A violation
  // here is a lowering bug, not a workload property.
  assert(!Program.BuiltFromKernel ||
         validateRaceFree(Program, ConsistencyModel::Weak));

  // Under an explicit shared-locality scheme the Sequoia-style
  // discipline must hold: shared objects are pushed before every round.
  assert(!(Program.BuiltFromKernel &&
           (Config.Locality.Shared == SharedLocality::Explicit ||
            Config.Locality.Shared == SharedLocality::Hybrid)) ||
         validateExplicitLocality(Program));

  // Fresh machine per run: runs must not contaminate each other.
  buildMachine();

  // Timeline recording (cheap; capped). Background DRAM drains happen
  // deep inside the memory system, which cannot depend on obs — they
  // reach the timeline through the hook.
  Trace.clear();
  Mem->setBgDrainHook([this](const MemorySystem::BgDrainEvent &E) {
    Trace.complete(TraceTrack::Dram, "bg_drain",
                   cyclesToNs(PuKind::Cpu, E.StartCpu) / 1000.0,
                   cyclesToNs(PuKind::Cpu, E.DurationCpu) / 1000.0,
                   "requests", E.Requests);
  });

  RunResult Result;
  Result.CommSourceLines = Program.Source.lineCount();

  // Map every placed object into the owning PU's page table.
  for (const DataSegment &Segment : Program.Place.CpuLayout.segments())
    Mem->mapRange(PuKind::Cpu, Segment.Base, Segment.Bytes);
  for (const DataSegment &Segment : Program.Place.GpuLayout.segments())
    Mem->mapRange(PuKind::Gpu, Segment.Base, Segment.Bytes);

  // Enforce the address-space model's visibility rules on every access.
  {
    SharedSpacePolicy Policy;
    Policy.SpaceModel = &AddressSpaceModel::forKind(Config.AddrSpace);
    Mem->setSharedPolicy(Policy);
  }

  // Register shared objects for ownership bookkeeping.
  if (Config.UseOwnership) {
    for (const std::string &Name : Program.Place.SharedObjects) {
      const DataSegment &Segment = Program.Place.CpuLayout.segment(Name);
      Ownership.registerObject(Name, Segment.Base, Segment.Bytes,
                               PuKind::Cpu);
    }
  }

  Cycle CpuNow = 0; // Absolute time in CPU cycles.
  TimeBreakdown &Time = Result.Time;

  // Trace-event timestamps are microseconds of simulated time.
  auto CpuUs = [](Cycle C) { return cyclesToNs(PuKind::Cpu, C) / 1000.0; };

  auto ChargeComm = [&](RunPhase Phase, Cycle CpuCycles) {
    double Ns = cyclesToNs(PuKind::Cpu, CpuCycles);
    Time.CommunicationNs += Ns;
    Result.Phases.add(Phase, Ns);
    CpuNow += CpuCycles;
  };

  for (const ExecStep &Step : Program.Steps) {
    switch (Step.Kind) {
    case ExecKind::SerialCompute: {
      SegmentResult Seg = Cpu->run(Step.CpuTrace, CpuNow);
      accumulate(Result.CpuTotal, Seg);
      double SegNs = cyclesToNs(PuKind::Cpu, Seg.Cycles);
      Time.SequentialNs += SegNs;
      Result.Phases.add(RunPhase::SerialCompute, SegNs);
      Trace.complete(TraceTrack::Cpu, "serial_compute", CpuUs(CpuNow),
                     SegNs / 1000.0, "insts", Seg.Insts);
      // In-flight async copies (ADSM lazy paging) overlap the serial
      // pass; only time beyond it is exposed as communication.
      Cycle Span = Seg.Cycles;
      if (Fabric) {
        Cycle Busy = Fabric->busyUntil();
        if (Busy > CpuNow + Seg.Cycles)
          Span = Busy - CpuNow;
      }
      double ExposedNs = cyclesToNs(PuKind::Cpu, Span - Seg.Cycles);
      Time.CommunicationNs += ExposedNs;
      Result.Phases.add(RunPhase::CopyOverlapStall, ExposedNs);
      if (Span > Seg.Cycles)
        Trace.complete(TraceTrack::Fabric, "async_copy_exposed",
                       CpuUs(CpuNow + Seg.Cycles), ExposedNs / 1000.0);
      CpuNow += Span;
      break;
    }

    case ExecKind::ParallelCompute: {
      // The GPU cannot start until in-flight copies of its inputs land.
      Cycle DelayCpuCycles = 0;
      if (Fabric && Fabric->busyUntil() > CpuNow)
        DelayCpuCycles = Fabric->busyUntil() - CpuNow;
      double DelayNs = cyclesToNs(PuKind::Cpu, DelayCpuCycles);
      Cycle GpuStart = nsToCycles(
          PuKind::Gpu, cyclesToNs(PuKind::Cpu, CpuNow + DelayCpuCycles));

      SegmentResult CpuSeg, GpuSeg;
      if (!Config.InterleavedContention) {
        CpuSeg = Cpu->run(Step.CpuTrace, CpuNow);
        GpuSeg = Gpu->run(Step.GpuTrace, GpuStart);
      } else {
        // Interleave slices of the two traces by simulated time so the
        // shared uncore sees the PUs' accesses in temporal order.
        const size_t Slice = std::max(1u, Config.ContentionSliceRecords);
        const TraceRecord *CpuRecords = Step.CpuTrace.records().data();
        const TraceRecord *GpuRecords = Step.GpuTrace.records().data();
        size_t CpuLeft = Step.CpuTrace.size();
        size_t GpuLeft = Step.GpuTrace.size();
        Cycle CpuCursor = CpuNow;
        Cycle GpuCursor = GpuStart;
        while (CpuLeft != 0 || GpuLeft != 0) {
          bool PickCpu;
          if (CpuLeft == 0)
            PickCpu = false;
          else if (GpuLeft == 0)
            PickCpu = true;
          else
            PickCpu = cyclesToNs(PuKind::Cpu, CpuCursor) <=
                      cyclesToNs(PuKind::Gpu, GpuCursor);
          if (PickCpu) {
            size_t N = std::min(Slice, CpuLeft);
            SegmentResult Part = Cpu->run(CpuRecords, N, CpuCursor);
            CpuCursor += Part.Cycles;
            CpuRecords += N;
            CpuLeft -= N;
            accumulate(CpuSeg, Part);
          } else {
            size_t N = std::min(Slice, GpuLeft);
            SegmentResult Part = Gpu->run(GpuRecords, N, GpuCursor);
            GpuCursor += Part.Cycles;
            GpuRecords += N;
            GpuLeft -= N;
            accumulate(GpuSeg, Part);
          }
        }
        CpuSeg.Cycles = CpuCursor - CpuNow;
        GpuSeg.Cycles = GpuCursor - GpuStart;
        CpuSeg.Insts = Step.CpuTrace.size();
        GpuSeg.Insts = Step.GpuTrace.size();
      }
      accumulate(Result.CpuTotal, CpuSeg);
      accumulate(Result.GpuTotal, GpuSeg);
      double CpuNs = cyclesToNs(PuKind::Cpu, CpuSeg.Cycles);
      double GpuNs = cyclesToNs(PuKind::Gpu, GpuSeg.Cycles);

      // Batched first-touch page faults stall the GPU round (LRB).
      double FaultNs = 0;
      if (Step.PageFaultPages != 0) {
        Result.PageFaults += Step.PageFaultPages;
        FaultNs = cyclesToNs(
            PuKind::Cpu, Step.PageFaultPages *
                             Config.Comm.get<CommField::LibPageFault>());
      }

      double SpanNs = std::max(CpuNs, DelayNs + GpuNs + FaultNs);
      double ComputeSpanNs = std::max(CpuNs, GpuNs);
      Time.ParallelNs += ComputeSpanNs;
      Time.CommunicationNs += SpanNs - ComputeSpanNs;
      Result.Phases.add(RunPhase::ParallelCompute, ComputeSpanNs);
      // The exposed (non-compute) slice of the round is page-fault
      // handling first, residual copy/queueing stall after.
      double ExtraNs = SpanNs - ComputeSpanNs;
      double FaultAttrNs = std::min(FaultNs, ExtraNs);
      Result.Phases.add(RunPhase::PageFault, FaultAttrNs);
      Result.Phases.add(RunPhase::CopyOverlapStall, ExtraNs - FaultAttrNs);

      double StartNs = cyclesToNs(PuKind::Cpu, CpuNow);
      if (CpuSeg.Cycles != 0)
        Trace.complete(TraceTrack::Cpu, "parallel_compute", StartNs / 1000.0,
                       CpuNs / 1000.0, "insts", CpuSeg.Insts);
      if (GpuSeg.Cycles != 0)
        Trace.complete(TraceTrack::Gpu, "parallel_compute",
                       (StartNs + DelayNs) / 1000.0, GpuNs / 1000.0, "insts",
                       GpuSeg.Insts);
      if (FaultAttrNs > 0)
        Trace.complete(TraceTrack::Driver, "page_faults",
                       (StartNs + DelayNs + GpuNs) / 1000.0,
                       FaultAttrNs / 1000.0, "pages", Step.PageFaultPages);
      CpuNow += nsToCycles(PuKind::Cpu, SpanNs);
      break;
    }

    case ExecKind::Transfer: {
      ++Result.TransferCount;
      Result.TransferredBytes += Step.Bytes;
      Cycle TransferStart = CpuNow;
      if (!Fabric) {
        // Ideal communication: only the data-handling instructions.
        Cycle Ops = std::max<Cycle>(1, Step.Objects.size());
        ChargeComm(RunPhase::Transfer, Ops * IdealCommCyclesPerOp);
      } else {
        TransferTiming Timing =
            Fabric->transfer(Step.Bytes, Step.Dir, CpuNow);
        ChargeComm(RunPhase::Transfer, Timing.CpuBusyCycles);
      }
      Trace.complete(TraceTrack::Fabric, "transfer", CpuUs(TransferStart),
                     CpuUs(CpuNow - TransferStart), "bytes", Step.Bytes);
      break;
    }

    case ExecKind::DmaWait: {
      if (Fabric) {
        Cycle WaitStart = CpuNow;
        ChargeComm(RunPhase::DmaWait, Fabric->waitAll(CpuNow));
        if (CpuNow > WaitStart)
          Trace.complete(TraceTrack::Fabric, "dma_wait", CpuUs(WaitStart),
                         CpuUs(CpuNow - WaitStart));
      }
      break;
    }

    case ExecKind::OwnershipToGpu: {
      // Host releases what it owns; the GPU round acquires (Figure 2(b)).
      // Objects the GPU kept from a previous round need no transition.
      for (const std::string &Name : Step.Objects) {
        if (Ownership.ownerOfObject(Name) == PuKind::Gpu)
          continue;
        Ownership.release(Name, PuKind::Cpu);
        Ownership.acquire(Name, PuKind::Gpu);
      }
      Result.OwnershipActions += Step.Objects.empty() ? 0 : 2;
      Cycle OwnStart = CpuNow;
      ChargeComm(RunPhase::Ownership,
                 Config.IdealComm ? IdealCommCyclesPerOp
                                  : Config.Comm.get<CommField::ApiAcquire>());
      Trace.complete(TraceTrack::Driver, "ownership_to_gpu", CpuUs(OwnStart),
                     CpuUs(CpuNow - OwnStart), "objects",
                     Step.Objects.size());
      break;
    }

    case ExecKind::OwnershipToCpu: {
      for (const std::string &Name : Step.Objects) {
        if (Ownership.ownerOfObject(Name) == PuKind::Cpu)
          continue;
        Ownership.release(Name, PuKind::Gpu);
        Ownership.acquire(Name, PuKind::Cpu);
      }
      Result.OwnershipActions += Step.Objects.empty() ? 0 : 2;
      // Release semantics: the GPU's dirty shared lines become visible.
      Mem->flushPrivate(PuKind::Gpu);
      Cycle OwnStart = CpuNow;
      ChargeComm(RunPhase::Ownership,
                 Config.IdealComm ? IdealCommCyclesPerOp
                                  : Config.Comm.get<CommField::ApiAcquire>());
      Trace.complete(TraceTrack::Driver, "ownership_to_cpu", CpuUs(OwnStart),
                     CpuUs(CpuNow - OwnStart), "objects",
                     Step.Objects.size());
      break;
    }

    case ExecKind::PushLocality: {
      Cycle Cost = 0;
      for (const std::string &Name : Step.Objects) {
        const DataSegment &Segment = Program.Place.CpuLayout.segment(Name);
        Cost += Mem->pushToShared(PuKind::Cpu, Segment.Base, Segment.Bytes,
                                  CpuNow + Cost);
      }
      Result.PushNs += cyclesToNs(PuKind::Cpu, Cost);
      Cycle PushStart = CpuNow;
      ChargeComm(RunPhase::Push, Cost);
      Trace.complete(TraceTrack::Driver, "push_locality", CpuUs(PushStart),
                     CpuUs(Cost), "objects", Step.Objects.size());
      break;
    }
    }
  }

  if (Fabric) {
    Cycle WaitStart = CpuNow;
    ChargeComm(RunPhase::DmaWait, Fabric->waitAll(CpuNow));
    if (CpuNow > WaitStart)
      Trace.complete(TraceTrack::Fabric, "dma_wait", CpuUs(WaitStart),
                     CpuUs(CpuNow - WaitStart));
  }

  if (Fabric) {
    // Fabric counters supersede the step-level tally when present.
    Result.TransferredBytes = Fabric->bytesMoved();
    Result.TransferCount = Fabric->transferCount();
  }

  // Coherence traffic is too frequent to trace per message; summarize the
  // run's protocol activity as one span on its own track.
  if (uint64_t Remote = Mem->stats().counter("mem.coh_remote"))
    Trace.complete(TraceTrack::Coherence, "coh_remote_total", 0.0,
                   CpuUs(CpuNow), "events", Remote);

  if (!Opts.TraceEventsDir.empty()) {
    std::string RunName =
        Config.Name + "_" +
        (Program.BuiltFromKernel ? kernelName(Program.Kernel) : "custom");
    std::string Path = traceEventPath(Opts.TraceEventsDir, RunName);
    if (!Trace.writeFile(Path, RunName))
      HETSIM_WARN("cannot write trace events to %s", Path.c_str());
  }
  return Result;
}

MetricsSnapshot HeteroSimulator::collectMetrics(const RunResult &Result) {
  assert(Mem && "machine not built");
  MetricsSnapshot M;
  captureMetrics(*Mem, M);

  M.add("run.total_ns", Result.Time.totalNs());
  M.add("run.sequential_ns", Result.Time.SequentialNs);
  M.add("run.parallel_ns", Result.Time.ParallelNs);
  M.add("run.communication_ns", Result.Time.CommunicationNs);
  for (unsigned P = 0; P != NumRunPhases; ++P)
    M.add(std::string("run.phase.") + runPhaseName(RunPhase(P)) + "_ns",
          Result.Phases.Ns[P]);

  M.add("run.transfer_bytes", double(Result.TransferredBytes));
  M.add("run.transfers", double(Result.TransferCount));
  M.add("run.page_faults", double(Result.PageFaults));
  M.add("run.ownership_actions", double(Result.OwnershipActions));
  M.add("run.push_ns", Result.PushNs);
  M.add("run.comm_source_lines", double(Result.CommSourceLines));

  M.add("run.cpu.cycles", double(Result.CpuTotal.Cycles));
  M.add("run.cpu.insts", double(Result.CpuTotal.Insts));
  M.add("run.cpu.mem_accesses", double(Result.CpuTotal.MemAccesses));
  M.add("run.cpu.mem_latency_max", double(Result.CpuTotal.MemLatencyMax));
  M.add("run.gpu.cycles", double(Result.GpuTotal.Cycles));
  M.add("run.gpu.insts", double(Result.GpuTotal.Insts));
  M.add("run.gpu.mem_accesses", double(Result.GpuTotal.MemAccesses));
  M.add("run.gpu.mem_latency_max", double(Result.GpuTotal.MemLatencyMax));

  M.add("run.trace_events", double(Trace.size()));
  M.add("run.trace_events_dropped", double(Trace.dropped()));

  ConservationReport Report = checkConservation(*Mem);
  M.add("run.conservation_ok", Report.Ok ? 1.0 : 0.0);
  return M;
}
