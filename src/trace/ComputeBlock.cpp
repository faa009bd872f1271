//===- trace/ComputeBlock.cpp ---------------------------------------------===//

#include "trace/ComputeBlock.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace hetsim;

static std::atomic<uint64_t> GenNanos{0};
static thread_local uint64_t TlGenNanos = 0;
static std::atomic<uint64_t> ReuseBytesUsed{0};

uint64_t hetsim::traceGenNanos() {
  return GenNanos.load(std::memory_order_relaxed);
}

void hetsim::addTraceGenNanos(uint64_t Nanos) {
  GenNanos.fetch_add(Nanos, std::memory_order_relaxed);
  TlGenNanos += Nanos;
}

uint64_t hetsim::threadTraceGenNanos() { return TlGenNanos; }

uint64_t hetsim::expandReuseBytesInUse() {
  return ReuseBytesUsed.load(std::memory_order_relaxed);
}

static bool reserveReuseBytes(uint64_t Bytes) {
  uint64_t Current = ReuseBytesUsed.load(std::memory_order_relaxed);
  do {
    if (Current + Bytes > ExpandReuseBudgetBytes)
      return false;
  } while (!ReuseBytesUsed.compare_exchange_weak(Current, Current + Bytes,
                                                 std::memory_order_relaxed));
  return true;
}

static void releaseReuseBytes(uint64_t Bytes) {
  if (Bytes)
    ReuseBytesUsed.fetch_sub(Bytes, std::memory_order_relaxed);
}

BlockTrace::BlockTrace(KernelId Kernel, const GenRequest &Req,
                       const KernelDataLayout &Layout)
    : K(Kind::ComputeGen), Kernel(Kernel), Req(Req), Layout(Layout),
      Total(Req.InstCount) {}

BlockTrace::BlockTrace(KernelId Kernel, uint64_t InstCount, uint64_t Seed,
                       const KernelDataLayout &Layout)
    : K(Kind::SerialGen), Kernel(Kernel), Layout(Layout), Total(InstCount) {
  Req.Pu = PuKind::Cpu;
  Req.InstCount = InstCount;
  Req.Seed = Seed;
}

const TraceBuffer &BlockTrace::materialized() const {
  std::call_once(MatOnce, [this] {
    auto Buffer = std::make_unique<TraceBuffer>();
    switch (K) {
    case Kind::ComputeGen:
      *Buffer = generator().generateCompute(Req, Layout);
      break;
    case Kind::SerialGen:
      *Buffer = generator().generateSerial(Req.InstCount, Layout, Req.Seed);
      break;
    }
    assert(Buffer->size() == Total && "materialization missed the total");
    Mat = std::move(Buffer);
  });
  MatReady.store(true, std::memory_order_release);
  return *Mat;
}

BlockTrace::~BlockTrace() {
  releaseReuseBytes(ReservedBytes.load(std::memory_order_relaxed));
}

void BlockTrace::enableExpansionReuse() const {
  ReuseEnabled.store(true, std::memory_order_relaxed);
}

bool BlockTrace::claimTee() const {
  if (!ReuseEnabled.load(std::memory_order_relaxed) || Total == 0 ||
      expansionReuseReady())
    return false;
  int Expected = 0;
  if (!TeeState.compare_exchange_strong(Expected, 1,
                                        std::memory_order_acq_rel))
    return false;
  uint64_t Bytes = Total * sizeof(TraceRecord);
  if (!reserveReuseBytes(Bytes)) {
    // Denied is sticky: the budget only shrinks when blocks die, so
    // retrying the reservation on every expansion would just add an
    // atomic RMW to the hot path for a claim that keeps failing.
    TeeState.store(3, std::memory_order_release);
    return false;
  }
  ReservedBytes.store(Bytes, std::memory_order_relaxed);
  return true;
}

void BlockTrace::finishTee(std::unique_ptr<TraceBuffer> Teed) const {
  assert(Teed->size() == Total && "tee missed the total");
  bool Installed = false;
  std::call_once(MatOnce, [&] {
    Mat = std::move(Teed);
    Installed = true;
  });
  if (!Installed)
    // materialized() ran concurrently and built its own buffer (which is
    // not budget-tracked); drop our reservation with the duplicate.
    releaseReuseBytes(ReservedBytes.exchange(0, std::memory_order_relaxed));
  MatReady.store(true, std::memory_order_release);
  TeeState.store(2, std::memory_order_release);
}

void BlockTrace::abortTee() const {
  releaseReuseBytes(ReservedBytes.exchange(0, std::memory_order_relaxed));
  TeeState.store(0, std::memory_order_release);
}

BlockExpander::BlockExpander(const BlockTrace &Block)
    : Block(Block), Remaining(Block.totalRecords()) {
  // A ready materialized stream beats regeneration: serve spans out of it
  // and skip the generator entirely.
  if (Block.expansionReuseReady()) {
    FromMat = true;
    return;
  }
  if (Block.kind() == BlockTrace::Kind::ComputeGen)
    Block.generator().beginCompute(S, Block.request(), Block.layout());
  else
    Block.generator().beginSerial(S, Block.layout(), Block.serialSeed());
  // First expansion of a shared block: tee the windows into a full buffer
  // so later expanders of this block get zero-copy spans.
  if (Block.claimTee()) {
    Tee = std::make_unique<TraceBuffer>();
    Tee->reserve(size_t(Remaining));
  }
}

BlockExpander::~BlockExpander() {
  if (Tee)
    Block.abortTee();
}

uint64_t BlockExpander::next(TraceBuffer &Window, size_t Target) {
  Window.clear();
  if (Remaining == 0)
    return 0;

  if (FromMat) {
    // Reuse path: copy the next run out of the shared buffer. nextSpan()
    // avoids even this copy; next() keeps the windowed contract for
    // callers that hold on to the window.
    const TraceBuffer &M = Block.materialized();
    uint64_t Run = std::min<uint64_t>(Remaining, Target);
    Window.reserve(size_t(Run));
    for (uint64_t I = 0; I != Run; ++I)
      Window.append(M[size_t(MatPos + I)]);
    MatPos += Run;
    Remaining -= Run;
    return Run;
  }

  TraceGenScope Timer;

  switch (Block.kind()) {
  case BlockTrace::Kind::ComputeGen: {
    uint64_t Emitted = Block.generator().emitCompute(
        S, Block.request(), Window, Remaining, Target);
    Remaining -= Emitted;
    tee(Window);
    return Emitted;
  }
  case BlockTrace::Kind::SerialGen: {
    uint64_t Emitted =
        Block.generator().emitSerial(S, Window, Remaining, Target);
    Remaining -= Emitted;
    tee(Window);
    return Emitted;
  }
  }
  return 0;
}

void BlockExpander::tee(const TraceBuffer &Window) {
  if (!Tee)
    return;
  for (const TraceRecord &R : Window)
    Tee->append(R);
  if (Remaining == 0)
    Block.finishTee(std::move(Tee));
}

BlockExpander::Span BlockExpander::nextSpan(TraceBuffer &Window,
                                            size_t Target) {
  if (Remaining == 0)
    return {};
  if (FromMat) {
    // The shared buffer is contiguous and immutable: hand the pipeline
    // the whole remainder as one span, exactly like the reference
    // (fully materialized) path does.
    const TraceBuffer &M = Block.materialized();
    Span Out{M.records().data() + MatPos, Remaining};
    MatPos += Remaining;
    Remaining = 0;
    return Out;
  }
  if (Tee) {
    // Zero-copy tee: generate straight into the tee buffer's tail and
    // hand out a span over the appended records. The buffer was reserved
    // to the block's full size up front and TraceEmitter never reserves
    // past the remaining budget, so appends cannot reallocate out from
    // under the span.
    TraceGenScope Timer;
    const size_t Start = Tee->size();
    uint64_t Emitted = 0;
    switch (Block.kind()) {
    case BlockTrace::Kind::ComputeGen:
      Emitted = Block.generator().emitCompute(S, Block.request(), *Tee,
                                              Remaining, Target);
      break;
    case BlockTrace::Kind::SerialGen:
      Emitted = Block.generator().emitSerial(S, *Tee, Remaining, Target);
      break;
    }
    Remaining -= Emitted;
    Span Out{Tee->records().data() + Start, Emitted};
    if (Remaining == 0)
      // Moving the unique_ptr does not move the heap array, so the span
      // stays valid while this (final) window is consumed.
      Block.finishTee(std::move(Tee));
    return Out;
  }
  uint64_t Emitted = next(Window, Target);
  return {Window.records().data(), Emitted};
}

BlockExpander::Span BlockExpander::nextWindow(TraceBuffer &Window,
                                              size_t Target) {
  if (Remaining == 0)
    return {};
  if (FromMat) {
    const TraceBuffer &M = Block.materialized();
    uint64_t Run = std::min<uint64_t>(Remaining, Target);
    Span Out{M.records().data() + MatPos, Run};
    MatPos += Run;
    Remaining -= Run;
    return Out;
  }
  uint64_t Emitted = next(Window, Target);
  return {Window.records().data(), Emitted};
}

uint64_t BlockExpander::skip(TraceBuffer &Scratch, size_t Target) {
  if (Remaining == 0)
    return 0;
  if (FromMat) {
    uint64_t Run = std::min<uint64_t>(Remaining, Target);
    MatPos += Run;
    Remaining -= Run;
    return Run;
  }
  // No reuse buffer: the records must still be produced so the generator
  // state (cursors, RNG) and any in-flight tee advance exactly; only the
  // core simulation is skipped.
  return next(Scratch, Target);
}
