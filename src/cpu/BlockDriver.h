//===- cpu/BlockDriver.h - The one trace driver of both cores ---*- C++ -*-===//
///
/// \file
/// Runs a SharedTrace through a core pipeline. Both cores use this one
/// driver; they differ only in their pipeline type, which provides:
///
///   void runSpan(const TraceRecord *Records, size_t Count);
///       the per-record timing update over a contiguous span
///   Cycle finish(Cycle StartCycle) const;
///       the segment's cycle total
///
/// and whose counters accumulate into the SegmentResult it was built on.
///
/// A materialized trace runs in one span: the per-record reference path.
/// A block-backed trace expands window by window (DESIGN.md §8); the
/// concatenated windows are the materialized stream, so the result is
/// identical.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CPU_BLOCKDRIVER_H
#define HETSIM_CPU_BLOCKDRIVER_H

#include "cpu/CpuCore.h"
#include "trace/ComputeBlock.h"

namespace hetsim {

/// Runs \p Trace through \p Pipe, which accumulates into \p Result, and
/// returns the finished segment.
template <typename Pipeline>
SegmentResult runTrace(Pipeline &Pipe, SegmentResult &Result,
                       const SharedTrace &Trace, Cycle StartCycle) {
  if (const BlockTrace *Block = Trace.blocks()) {
    Result.Insts = Block->totalRecords();
    BlockExpander Expander(*Block);
    TraceBuffer Window;
    while (!Expander.done()) {
      BlockExpander::Span Span = Expander.nextSpan(Window);
      Pipe.runSpan(Span.Data, size_t(Span.Count));
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
