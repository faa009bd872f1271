//===- trace/KernelTraceGenerator.h - Synthetic kernel traces ---*- C++ -*-===//
///
/// \file
/// Synthetic trace generators for the six evaluated kernels. The paper used
/// real CPU/GPU traces fed to MacSim; we substitute deterministic synthetic
/// generators whose instruction counts match Table III exactly and whose
/// access patterns follow each kernel's compute pattern (streaming for
/// reduction, strided reuse for matrix multiply, overlapping windows for
/// convolution, blocked ALU-heavy work for dct, data-dependent branches for
/// merge sort, and repeated passes with a hot centroid table for k-means).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_KERNELTRACEGENERATOR_H
#define HETSIM_TRACE_KERNELTRACEGENERATOR_H

#include "common/Random.h"
#include "trace/DataLayout.h"
#include "trace/TraceBuffer.h"

#include <array>

namespace hetsim {

/// How a PU's compute segment divides a kernel's data range. The paper
/// divides the computational work evenly between CPU and GPU (Section
/// IV-B); the CPU processes the first half of each object and the GPU the
/// second half.
enum class WorkSplit : uint8_t {
  FullRange,
  FirstHalf,
  SecondHalf,
};

/// Parameters of one generated compute segment.
struct GenRequest {
  PuKind Pu = PuKind::Cpu;
  uint64_t InstCount = 0;   ///< Exact number of records to produce.
  uint64_t Seed = 1;        ///< RNG seed (data-dependent branch outcomes).
  WorkSplit Split = WorkSplit::FullRange;
};

/// Budget-limited emission wrapper. Emitters become no-ops once the exact
/// instruction budget is reached, so generator loop bodies never overshoot.
class TraceEmitter {
public:
  TraceEmitter(TraceBuffer &Out, uint64_t Budget)
      : TraceEmitter(Out, Budget, size_t(Budget)) {}

  /// \p ReserveHint caps the up-front reservation: windowed expansion
  /// passes the window size so a small reusable buffer is never grown to
  /// the full remaining budget.
  TraceEmitter(TraceBuffer &Out, uint64_t Budget, size_t ReserveHint)
      : Buffer(Out), Remaining(Budget) {
    Out.reserve(Out.size() +
                size_t(Budget < ReserveHint ? Budget : ReserveHint));
  }

  bool done() const { return Remaining == 0; }
  uint64_t remaining() const { return Remaining; }

  void alu(Opcode Op, uint32_t Pc, uint8_t Dst, uint8_t SrcA,
           uint8_t SrcB = NoReg) {
    if (!take())
      return;
    Buffer.emitAlu(Op, Pc, Dst, SrcA, SrcB);
  }

  void load(uint32_t Pc, uint8_t Dst, Addr Address, uint16_t Bytes) {
    if (!take())
      return;
    Buffer.emitLoad(Pc, Dst, Address, Bytes);
  }

  void store(uint32_t Pc, uint8_t Src, Addr Address, uint16_t Bytes) {
    if (!take())
      return;
    Buffer.emitStore(Pc, Src, Address, Bytes);
  }

  void branch(uint32_t Pc, bool Taken, uint8_t CondReg = NoReg) {
    if (!take())
      return;
    Buffer.emitBranch(Pc, Taken, CondReg);
  }

  void simdLoad(uint32_t Pc, uint8_t Dst, Addr Address, uint16_t BytesPerLane,
                uint8_t Lanes, uint16_t StrideBytes) {
    if (!take())
      return;
    Buffer.emitSimdLoad(Pc, Dst, Address, BytesPerLane, Lanes, StrideBytes);
  }

  void simdStore(uint32_t Pc, uint8_t Src, Addr Address,
                 uint16_t BytesPerLane, uint8_t Lanes,
                 uint16_t StrideBytes) {
    if (!take())
      return;
    Buffer.emitSimdStore(Pc, Src, Address, BytesPerLane, Lanes, StrideBytes);
  }

  void smem(bool IsStore, uint32_t Pc, uint8_t Reg, Addr Offset,
            uint16_t Bytes, uint8_t Lanes = 8, uint16_t StrideBytes = 4) {
    if (!take())
      return;
    Buffer.emitSmem(IsStore, Pc, Reg, Offset, Bytes, Lanes, StrideBytes);
  }

private:
  bool take() {
    if (Remaining == 0)
      return false;
    --Remaining;
    return true;
  }

  TraceBuffer &Buffer;
  uint64_t Remaining;
};

/// A circular cursor over (part of) a data segment.
struct StreamCursor {
  Addr Base = 0;
  uint64_t Bytes = 0;
  uint64_t Pos = 0;

  /// Returns the current address and advances by \p Step, wrapping.
  Addr advance(uint64_t Step) {
    Addr Current = Base + Pos;
    Pos += Step;
    if (Pos >= Bytes)
      Pos %= Bytes;
    return Current;
  }

  /// Current address without advancing.
  Addr current() const { return Base + Pos; }
};

/// Explicit expansion state for one trace generation: the data cursors,
/// the RNG, and the iteration counter. Generators themselves are
/// stateless; every mutation lands in a caller-owned GenState, so an
/// expansion can be suspended at any window boundary and resumed
/// bit-exactly, and two threads can expand the same kernel concurrently.
struct GenState {
  std::array<StreamCursor, 3> Cur; ///< Kernel-defined cursor slots.
  XorShiftRng Rng{1};
  uint64_t Iter = 0;
};

/// Base class for the six kernel generators.
class KernelTraceGenerator {
public:
  virtual ~KernelTraceGenerator();

  /// The kernel this generator models.
  virtual KernelId kernel() const = 0;

  /// Produces exactly Req.InstCount records of compute for Req.Pu.
  TraceBuffer generateCompute(const GenRequest &Req,
                              const KernelDataLayout &Layout) const;

  /// Produces exactly \p InstCount records for the sequential (CPU-only)
  /// portion: a merge/finalize pass over the kernel's output object.
  TraceBuffer generateSerial(uint64_t InstCount,
                             const KernelDataLayout &Layout,
                             uint64_t Seed = 1) const;

  /// Seeds \p S for an incremental compute expansion of \p Req. Combined
  /// with emitCompute this produces the same record stream as
  /// generateCompute, one window at a time.
  void beginCompute(GenState &S, const GenRequest &Req,
                    const KernelDataLayout &Layout) const;

  /// Emits the next window of an expansion started by beginCompute: whole
  /// iterations until \p Window grew by at least \p WindowTarget records
  /// or \p Budget (the remaining total) is exhausted. The final iteration
  /// may stop mid-body when the budget runs out — exactly like single-
  /// shot generation. Returns the number of records emitted.
  uint64_t emitCompute(GenState &S, const GenRequest &Req,
                       TraceBuffer &Window, uint64_t Budget,
                       size_t WindowTarget) const;

  /// Incremental equivalents of generateSerial.
  void beginSerial(GenState &S, const KernelDataLayout &Layout,
                   uint64_t Seed) const;
  uint64_t emitSerial(GenState &S, TraceBuffer &Window, uint64_t Budget,
                      size_t WindowTarget) const;

  /// Returns the generator for \p Id (static lifetime).
  static const KernelTraceGenerator &forKernel(KernelId Id);

  /// Restricts \p Segment to the half selected by \p Split, 64B-aligned;
  /// tiny objects (constant tables) are never split. Exposed so the
  /// lowering can reason about exactly the byte ranges each PU touches
  /// (e.g. which shared pages the GPU faults in first).
  static StreamCursor cursorFor(const DataSegment &Segment, WorkSplit Split);

protected:
  /// Emits one CPU loop iteration reading/advancing \p S. Implementations
  /// must emit at least one record per call while budget remains; the
  /// caller bumps S.Iter after each iteration.
  virtual void cpuIteration(TraceEmitter &E, GenState &S) const = 0;

  /// Emits one GPU (warp-granularity) loop iteration.
  virtual void gpuIteration(TraceEmitter &E, GenState &S) const = 0;

  /// Called before iteration loops so subclasses can set up cursors over
  /// the placed data objects in S.Cur.
  virtual void setUpCursors(GenState &S, const KernelDataLayout &Layout,
                            WorkSplit Split) const = 0;

  /// The PC region for this kernel's code (distinct per kernel so branch
  /// predictor state does not alias across kernels).
  uint32_t pcBase() const {
    return (static_cast<uint32_t>(kernel()) + 1u) * 0x100000u;
  }
};

/// Declarations of the six concrete generators. Cursor-slot conventions
/// are private to each kernel's setUpCursors/iteration pair.
class ReductionGenerator final : public KernelTraceGenerator {
public:
  KernelId kernel() const override { return KernelId::Reduction; }

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
};

class MatrixMulGenerator final : public KernelTraceGenerator {
public:
  KernelId kernel() const override { return KernelId::MatrixMul; }

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
};

class ConvolutionGenerator final : public KernelTraceGenerator {
public:
  KernelId kernel() const override { return KernelId::Convolution; }

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
};

class DctGenerator final : public KernelTraceGenerator {
public:
  KernelId kernel() const override { return KernelId::Dct; }

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
};

class MergeSortGenerator final : public KernelTraceGenerator {
public:
  KernelId kernel() const override { return KernelId::MergeSort; }

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
};

class KMeansGenerator final : public KernelTraceGenerator {
public:
  KernelId kernel() const override { return KernelId::KMeans; }

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
};

} // namespace hetsim

#endif // HETSIM_TRACE_KERNELTRACEGENERATOR_H
