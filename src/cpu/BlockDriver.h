//===- cpu/BlockDriver.h - The one trace driver of both cores ---*- C++ -*-===//
///
/// \file
/// Runs a SharedTrace through a core pipeline. Both cores use this one
/// driver; they differ only in their pipeline type, which provides:
///
///   void runSpan(const TraceRecord *Records, size_t Count);
///       the per-record timing update over a contiguous span
///   Cycle clock() const;
///       the completion frontier the segment's time is measured to
///   void translate(Cycle Adv, uint64_t SkippedRecords);
///       shifts every pending timestamp by Adv and advances the record
///       position past SkippedRecords records that were not simulated
///   Cycle finish(Cycle StartCycle) const;
///       the segment's cycle total
///
/// and whose counters accumulate into the SegmentResult it was built on.
///
/// A materialized trace runs in one span: the per-record reference path.
/// A block-backed trace expands window by window (DESIGN.md §8); the
/// concatenated windows are the materialized stream, so the result is
/// identical. On the sampled tier (DESIGN.md §11) long steady-stride
/// blocks are instead time-sampled: a few warm-up windows run in full,
/// then one re-warm window, one measured window and a burst of
/// SampleSkipWindows skipped windows alternate. Skipped records never
/// touch the memory system; the pipeline is translated by the measured
/// per-record rate and the counters are extrapolated from the measured
/// window. The reported error bound is the skipped records' spread
/// between the best and worst measured rates.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CPU_BLOCKDRIVER_H
#define HETSIM_CPU_BLOCKDRIVER_H

#include "cpu/CpuCore.h"
#include "memory/MemorySystem.h"
#include "trace/ComputeBlock.h"

#include <algorithm>

namespace hetsim {

/// Windows skipped per measured window on the sampled tier.
constexpr unsigned SampleSkipWindows = 30;

template <typename Pipeline>
void sampleBlock(Pipeline &Pipe, SegmentResult &Result,
                 BlockExpander &Expander, TraceBuffer &Window,
                 MemorySystem &Mem) {
  MemorySystem::MemFastCounters &MFC = Mem.memfastCounters();
  double RateMin = 0, RateMax = 0;
  bool HaveRate = false;
  unsigned WarmLeft = 4;
  while (!Expander.done()) {
    if (WarmLeft != 0) {
      BlockExpander::Span Span = Expander.nextWindow(Window);
      Pipe.runSpan(Span.Data, size_t(Span.Count));
      --WarmLeft;
      continue;
    }

    // Measure one window.
    const Cycle C0 = Pipe.clock();
    const SegmentResult R0 = Result;
    BlockExpander::Span Span = Expander.nextWindow(Window);
    Pipe.runSpan(Span.Data, size_t(Span.Count));
    const uint64_t Nm = Span.Count;
    if (Nm == 0)
      break;
    const Cycle Dm = Pipe.clock() - C0;
    const double Rate = double(Dm) / double(Nm);
    RateMin = HaveRate ? std::min(RateMin, Rate) : Rate;
    RateMax = HaveRate ? std::max(RateMax, Rate) : Rate;
    HaveRate = true;

    // Skip a burst, extrapolating the measured rates.
    uint64_t Skipped = 0;
    for (unsigned I = 0; I != SampleSkipWindows && !Expander.done(); ++I)
      Skipped += Expander.skip(Window);
    if (Skipped == 0)
      continue;
    Pipe.translate(Dm * Skipped / Nm, Skipped);
    auto Extrapolate = [&](uint64_t &Counter, uint64_t Before) {
      Counter += (Counter - Before) * Skipped / Nm;
    };
    Extrapolate(Result.MemAccesses, R0.MemAccesses);
    Extrapolate(Result.MemLatencySum, R0.MemLatencySum);
    Extrapolate(Result.BranchMispredicts, R0.BranchMispredicts);
    Extrapolate(Result.ICacheMisses, R0.ICacheMisses);
    Extrapolate(Result.StoreForwards, R0.StoreForwards);
    Result.SampledRecords += Skipped;
    Result.SampledErrorCycles += double(Skipped) * (RateMax - RateMin);
    ++*MFC.SampledWindows;
    *MFC.SampledRecords += Skipped;
    WarmLeft = 1; // Re-warm before the next measurement.
  }
}

/// Runs \p Trace through \p Pipe, which accumulates into \p Result, and
/// returns the finished segment.
template <typename Pipeline>
SegmentResult runTrace(Pipeline &Pipe, SegmentResult &Result,
                       const SharedTrace &Trace, Cycle StartCycle,
                       MemorySystem &Mem) {
  if (const BlockTrace *Block = Trace.blocks()) {
    Result.Insts = Block->totalRecords();
    BlockExpander Expander(*Block);
    TraceBuffer Window;
    if (Mem.tier() == MemFastMode::Sampled &&
        Block->generator().streamStructure().SteadyStride &&
        Result.Insts >= 8 * ComputeWindowRecords) {
      sampleBlock(Pipe, Result, Expander, Window, Mem);
    } else {
      while (!Expander.done()) {
        BlockExpander::Span Span = Expander.nextSpan(Window);
        Pipe.runSpan(Span.Data, size_t(Span.Count));
      }
    }
  } else {
    const TraceBuffer &Buffer = Trace.buffer();
    Result.Insts = Buffer.size();
    Pipe.runSpan(Buffer.records().data(), Buffer.size());
  }
  Result.Cycles = Pipe.finish(StartCycle);
  return Result;
}

} // namespace hetsim

#endif // HETSIM_CPU_BLOCKDRIVER_H
