//===- trace/ComputeBlock.h - Run-length compute trace blocks ---*- C++ -*-===//
///
/// \file
/// Compact (run-length) representations of compute traces. A BlockTrace
/// describes a record stream by its *recipe* — a (generator, request)
/// pair — instead of a materialized vector of millions of TraceRecords.
/// Cores expand blocks a window at a time (a few thousand records that
/// stay L1-resident).
///
/// Expansion is exact: BlockExpander replays the same generator code over
/// the same GenState, so the concatenation of all windows is byte-identical
/// to the single-shot buffer generateCompute/generateSerial would produce.
/// RunOptions::MaterializedReference lowers to fully materialized traces
/// instead: the reference path the differential tests compare against.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_COMPUTEBLOCK_H
#define HETSIM_TRACE_COMPUTEBLOCK_H

#include "trace/KernelTraceGenerator.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace hetsim {

/// Number of records an expansion window aims for. Small enough that the
/// reusable window buffer (~96KB) stays cache-resident while a core
/// consumes it, large enough to amortize per-window bookkeeping.
constexpr size_t ComputeWindowRecords = 4096;

/// Process-wide CPU nanoseconds spent producing trace records (single-shot
/// generation and window expansion alike), summed across threads. The
/// sweep telemetry diffs this around a sweep to split wall time into
/// trace-gen vs simulate phases.
uint64_t traceGenNanos();
void addTraceGenNanos(uint64_t Nanos);

/// The calling thread's share of traceGenNanos(). Per-worker sweep
/// attribution diffs this instead of the global sum: on an oversubscribed
/// host N workers' wall-clock scopes overlap, and summing them makes
/// trace-gen appear to balloon with the job count.
uint64_t threadTraceGenNanos();

/// Byte budget for expansion-reuse buffers (see BlockTrace::
/// enableExpansionReuse): 512 MB.
constexpr uint64_t ExpandReuseBudgetBytes = uint64_t(512) * 1024 * 1024;

/// Bytes currently reserved against ExpandReuseBudgetBytes.
uint64_t expandReuseBytesInUse();

/// RAII accumulator for traceGenNanos().
class TraceGenScope {
public:
  TraceGenScope() : Start(std::chrono::steady_clock::now()) {}
  ~TraceGenScope() {
    addTraceGenNanos(uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - Start)
                                  .count()));
  }
  TraceGenScope(const TraceGenScope &) = delete;
  TraceGenScope &operator=(const TraceGenScope &) = delete;

private:
  std::chrono::steady_clock::time_point Start;
};

/// A run-length trace handle: the recipe for a record stream plus a lazy
/// fully-materialized form for consumers that need random access (the
/// interleaved-contention path, tests, trace dumps).
class BlockTrace {
public:
  enum class Kind : uint8_t {
    ComputeGen, ///< generateCompute(Req, Layout) of one kernel.
    SerialGen,  ///< generateSerial(InstCount, Layout, Seed).
  };

  /// A compute segment: the stream generateCompute(\p Req, \p Layout)
  /// would produce for \p Kernel.
  BlockTrace(KernelId Kernel, const GenRequest &Req,
             const KernelDataLayout &Layout);

  /// A serial segment: generateSerial(\p InstCount, \p Layout, \p Seed).
  BlockTrace(KernelId Kernel, uint64_t InstCount, uint64_t Seed,
             const KernelDataLayout &Layout);

  Kind kind() const { return K; }
  uint64_t totalRecords() const { return Total; }

  const KernelTraceGenerator &generator() const {
    return KernelTraceGenerator::forKernel(Kernel);
  }
  const GenRequest &request() const { return Req; }
  const KernelDataLayout &layout() const { return Layout; }
  uint64_t serialSeed() const { return Req.Seed; }

  /// The full record stream, materialized once on first use (thread-safe)
  /// and cached for the lifetime of the block.
  const TraceBuffer &materialized() const;

  ~BlockTrace();

  /// Opts this block into expansion reuse: the *first* window expansion
  /// tees its output into a full buffer (budget permitting), and every
  /// later expander serves zero-copy spans from that buffer instead of
  /// re-running the generator. The trace cache enables this on the blocks
  /// it shares across sweep points; per-run throwaway blocks (cache
  /// bypassed) stay windowed, since they are never expanded twice.
  void enableExpansionReuse() const;

  /// True when a full buffer exists that expanders can serve spans from.
  bool expansionReuseReady() const {
    return MatReady.load(std::memory_order_acquire);
  }

private:
  friend class BlockExpander;

  /// Claims the right to tee this block's first expansion. Reserves
  /// Total*sizeof(TraceRecord) bytes against the process-wide budget;
  /// returns false (and never retries the reservation) if the budget is
  /// exhausted or another expander already claimed it.
  bool claimTee() const;

  /// Installs a teed buffer as the materialized stream and marks it ready.
  void finishTee(std::unique_ptr<TraceBuffer> Teed) const;

  /// Abandons an in-flight tee (expander destroyed before draining):
  /// releases the reservation and reopens the claim for a later expander.
  void abortTee() const;

  Kind K;
  KernelId Kernel = KernelId::Reduction;
  GenRequest Req;           ///< SerialGen reuses InstCount/Seed fields.
  KernelDataLayout Layout;
  uint64_t Total = 0;

  mutable std::once_flag MatOnce;
  mutable std::unique_ptr<TraceBuffer> Mat;
  mutable std::atomic<bool> ReuseEnabled{false};
  mutable std::atomic<bool> MatReady{false};
  mutable std::atomic<int> TeeState{0}; ///< 0 open, 1 in flight, 2 done, 3 denied.
  mutable std::atomic<uint64_t> ReservedBytes{0};
};

/// Streams a BlockTrace into caller-owned windows. The window boundary
/// falls between generator iterations (except when the total budget ends
/// mid-iteration, exactly as single-shot generation would), so the
/// concatenation of windows equals the materialized stream record for
/// record.
class BlockExpander {
public:
  explicit BlockExpander(const BlockTrace &Block);
  ~BlockExpander();

  bool done() const { return Remaining == 0; }
  uint64_t remaining() const { return Remaining; }

  /// Clears \p Window and fills it with the next ~\p Target records.
  /// Returns the number of records produced (0 only when done()).
  uint64_t next(TraceBuffer &Window, size_t Target = ComputeWindowRecords);

  /// A run of expanded records. Points either into \p Window (generated
  /// this call) or into the block's shared materialized buffer (reuse);
  /// valid until the next call on this expander.
  struct Span {
    const TraceRecord *Data = nullptr;
    uint64_t Count = 0;
  };

  /// Like next(), but zero-copy when the block's materialized stream is
  /// available: serves the entire remainder as one span into the shared
  /// buffer without touching \p Window or the generator.
  Span nextSpan(TraceBuffer &Window, size_t Target = ComputeWindowRecords);

  /// Sampled-mode stepping (DESIGN.md §11): like nextSpan, but bounded to
  /// ~\p Target records even on the zero-copy reuse path, so the caller
  /// can window-sample the stream.
  Span nextWindow(TraceBuffer &Window, size_t Target = ComputeWindowRecords);

  /// Advances the stream by ~\p Target records without handing them to a
  /// core. Free on the reuse path (a cursor bump); otherwise the records
  /// are generated into \p Scratch — keeping generator state and any
  /// in-flight tee exact — and discarded. Returns the records skipped.
  uint64_t skip(TraceBuffer &Scratch, size_t Target = ComputeWindowRecords);

private:
  /// Appends a generated window to the in-flight tee buffer and installs
  /// it on the block once the stream is drained.
  void tee(const TraceBuffer &Window);

  const BlockTrace &Block;
  GenState S;
  uint64_t Remaining = 0;
  bool FromMat = false;  ///< Serving from the shared materialized buffer.
  uint64_t MatPos = 0;   ///< Cursor into that buffer.
  std::unique_ptr<TraceBuffer> Tee; ///< Non-null while teeing this expansion.
};

} // namespace hetsim

#endif // HETSIM_TRACE_COMPUTEBLOCK_H
