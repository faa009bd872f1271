//===- tests/fastpath_test.cpp - Fast-path differential equivalence -------===//
///
/// \file
/// The fast path's contract is *exact* equivalence: block-backed traces
/// and windowed expansion must produce results byte-identical to the fully
/// materialized per-record reference path. These tests run both paths
/// (toggled through the setFastPathForTesting hook) and assert identical
/// RunResults and metrics documents. The sampled memory tier, which is
/// approximate by design, is checked against the exact tier for exact
/// instruction counts and a loose cycle bound.
///
//===----------------------------------------------------------------------===//

#include "core/HeteroSimulator.h"
#include "memory/MemFast.h"
#include "obs/Metrics.h"
#include "trace/ComputeBlock.h"
#include "trace/TraceCache.h"

#include <gtest/gtest.h>

using namespace hetsim;

namespace {

/// Restores the environment-driven fast-path and memory-fidelity
/// settings (and a cold trace cache) no matter how a test exits.
struct FastPathGuard {
  ~FastPathGuard() {
    setFastPathForTesting(-1);
    setMemFastForTesting(-1);
    TraceCache::global().clear();
  }
};

void expectSegmentEq(const SegmentResult &A, const SegmentResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Cycles, B.Cycles) << What;
  EXPECT_EQ(A.Insts, B.Insts) << What;
  EXPECT_EQ(A.MemAccesses, B.MemAccesses) << What;
  EXPECT_EQ(A.MemLatencySum, B.MemLatencySum) << What;
  EXPECT_EQ(A.MemLatencyMax, B.MemLatencyMax) << What;
  EXPECT_EQ(A.BranchMispredicts, B.BranchMispredicts) << What;
  EXPECT_EQ(A.ICacheMisses, B.ICacheMisses) << What;
  EXPECT_EQ(A.StoreForwards, B.StoreForwards) << What;
  EXPECT_EQ(A.PageFaults, B.PageFaults) << What;
  EXPECT_EQ(A.PageFaultCycles, B.PageFaultCycles) << What;
  EXPECT_EQ(A.SampledRecords, B.SampledRecords) << What;
  EXPECT_EQ(A.SampledErrorCycles, B.SampledErrorCycles) << What;
}

void expectRunResultEq(const RunResult &A, const RunResult &B,
                       const std::string &What) {
  EXPECT_EQ(A.Time.SequentialNs, B.Time.SequentialNs) << What;
  EXPECT_EQ(A.Time.ParallelNs, B.Time.ParallelNs) << What;
  EXPECT_EQ(A.Time.CommunicationNs, B.Time.CommunicationNs) << What;
  for (unsigned P = 0; P != NumRunPhases; ++P)
    EXPECT_EQ(A.Phases.Ns[P], B.Phases.Ns[P]) << What << " phase " << P;
  expectSegmentEq(A.CpuTotal, B.CpuTotal, What + " cpu");
  expectSegmentEq(A.GpuTotal, B.GpuTotal, What + " gpu");
  EXPECT_EQ(A.TransferredBytes, B.TransferredBytes) << What;
  EXPECT_EQ(A.TransferCount, B.TransferCount) << What;
  EXPECT_EQ(A.PageFaults, B.PageFaults) << What;
  EXPECT_EQ(A.OwnershipActions, B.OwnershipActions) << What;
  EXPECT_EQ(A.PushNs, B.PushNs) << What;
  EXPECT_EQ(A.CommSourceLines, B.CommSourceLines) << What;
}

/// Runs (Study, Kernel) with the fast path forced to \p Mode from a cold
/// trace cache and returns the result plus the metrics snapshot.
std::pair<RunResult, MetricsSnapshot> runOne(CaseStudy Study, KernelId Kernel,
                                             int Mode) {
  setFastPathForTesting(Mode);
  TraceCache::global().clear();
  HeteroSimulator Sim(SystemConfig::forCaseStudy(Study));
  RunResult Result = Sim.run(Kernel);
  MetricsSnapshot Metrics = Sim.collectMetrics(Result);
  return {Result, Metrics};
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-simulation differential: every kernel on every memory model.
//===----------------------------------------------------------------------===//

TEST(FastPathDifferential, AllKernelsAllModelsIdentical) {
  FastPathGuard Guard;
  for (CaseStudy Study : allCaseStudies()) {
    for (KernelId Kernel : allKernels()) {
      std::string What = std::string(caseStudyName(Study)) + "/" +
                         kernelName(Kernel);
      auto [RefResult, RefMetrics] = runOne(Study, Kernel, /*Mode=*/0);
      auto [FastResult, FastMetrics] = runOne(Study, Kernel, /*Mode=*/1);
      expectRunResultEq(RefResult, FastResult, What);
      // The metrics documents must match verbatim: same keys, same values.
      EXPECT_EQ(renderMetricsJson(RefMetrics), renderMetricsJson(FastMetrics))
          << What;
      // Every default run reports the exact tier.
      EXPECT_EQ(FastMetrics.get("memfast.mode"), 1.0) << What;
    }
  }
}

//===----------------------------------------------------------------------===//
// Windowed expansion equivalence at the trace layer.
//===----------------------------------------------------------------------===//

TEST(FastPathExpansion, WindowsConcatenateToMaterializedStream) {
  FastPathGuard Guard;
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::KMeans, region::CpuPrivateBase);
  GenRequest Req;
  Req.Pu = PuKind::Cpu;
  Req.InstCount = 50000;
  Req.Seed = 7;
  BlockTrace Block(KernelId::KMeans, Req, Layout);

  const TraceBuffer &Reference = Block.materialized();
  BlockExpander Expander(Block);
  TraceBuffer Window;
  size_t Pos = 0;
  while (!Expander.done()) {
    uint64_t Got = Expander.next(Window);
    ASSERT_GT(Got, 0u);
    for (size_t I = 0; I != Got; ++I, ++Pos) {
      ASSERT_LT(Pos, Reference.size());
      const TraceRecord &A = Window[I], &B = Reference[Pos];
      ASSERT_TRUE(A.MemAddr == B.MemAddr && A.Pc == B.Pc &&
                  A.MemBytes == B.MemBytes &&
                  A.LaneStrideBytes == B.LaneStrideBytes && A.Op == B.Op &&
                  A.DstReg == B.DstReg && A.SrcRegA == B.SrcRegA &&
                  A.SrcRegB == B.SrcRegB && A.SimdLanes == B.SimdLanes &&
                  A.IsTaken == B.IsTaken)
          << "record " << Pos;
    }
  }
  EXPECT_EQ(Pos, Reference.size());
}

//===----------------------------------------------------------------------===//
// Sampled memory tier (DESIGN.md §11).
//===----------------------------------------------------------------------===//

namespace {

/// Runs (Study, Kernel) on the block fast path with the memory fidelity
/// tier forced to \p MemFast, from a cold trace cache.
std::pair<RunResult, MetricsSnapshot>
runOneMemFast(CaseStudy Study, KernelId Kernel, int MemFast) {
  setMemFastForTesting(MemFast);
  setFastPathForTesting(1);
  TraceCache::global().clear();
  HeteroSimulator Sim(SystemConfig::forCaseStudy(Study));
  RunResult Result = Sim.run(Kernel);
  MetricsSnapshot Metrics = Sim.collectMetrics(Result);
  return {Result, Metrics};
}

} // namespace

TEST(MemFastModes, SampledModeExtrapolatesWithBoundedError) {
  FastPathGuard Guard;
  auto [Ref, RefMetrics] = runOneMemFast(CaseStudy::CpuGpu,
                                         KernelId::Reduction, 1);
  auto [Samp, SampMetrics] = runOneMemFast(CaseStudy::CpuGpu,
                                           KernelId::Reduction, 3);
  // Sampling skips simulation, not records: instruction totals are exact.
  EXPECT_EQ(Ref.CpuTotal.Insts, Samp.CpuTotal.Insts);
  EXPECT_EQ(Ref.GpuTotal.Insts, Samp.GpuTotal.Insts);
  EXPECT_GT(SampMetrics.get("run.sampled_records"), 0.0);
  // Loose sanity bound on the estimate; goldens never use this tier.
  double RefC = double(Ref.CpuTotal.Cycles + Ref.GpuTotal.Cycles);
  double SampC = double(Samp.CpuTotal.Cycles + Samp.GpuTotal.Cycles);
  EXPECT_GT(SampC, 0.5 * RefC);
  EXPECT_LT(SampC, 2.0 * RefC);
}
