//===- tests/fastpath_test.cpp - Fast-path differential equivalence -------===//
///
/// \file
/// The fast path's contract is *exact* equivalence: block-backed traces
/// and windowed expansion must produce results byte-identical to the fully
/// materialized per-record reference path. These tests run both paths
/// (RunOptions::MaterializedReference selects the reference) and assert
/// identical RunResults and metrics documents. The sampled memory tier,
/// which is approximate by design, is checked against the exact tier for
/// exact instruction counts and a loose cycle bound, and pinned
/// bit-for-bit to recorded results.
///
//===----------------------------------------------------------------------===//

#include "core/HeteroSimulator.h"
#include "obs/Metrics.h"
#include "trace/ComputeBlock.h"
#include "trace/TraceCache.h"

#include <gtest/gtest.h>

using namespace hetsim;

namespace {

/// Leaves a cold trace cache behind no matter how a test exits.
struct FastPathGuard {
  ~FastPathGuard() { TraceCache::global().clear(); }
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

/// Runs (Study, Kernel) under \p Opts from a cold trace cache and returns
/// the result plus the metrics snapshot.
std::pair<RunResult, MetricsSnapshot> runOne(CaseStudy Study, KernelId Kernel,
                                             const RunOptions &Opts) {
  TraceCache::global().clear();
  HeteroSimulator Sim(SystemConfig::forCaseStudy(Study), Opts);
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
  RunOptions Reference;
  Reference.MaterializedReference = true;
  for (CaseStudy Study : allCaseStudies()) {
    for (KernelId Kernel : allKernels()) {
      std::string What = std::string(caseStudyName(Study)) + "/" +
                         kernelName(Kernel);
      auto [RefResult, RefMetrics] = runOne(Study, Kernel, Reference);
      auto [FastResult, FastMetrics] = runOne(Study, Kernel, RunOptions());
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

/// Runs (Study, Kernel) on the block fast path on tier \p Tier, from a
/// cold trace cache.
std::pair<RunResult, MetricsSnapshot>
runOneMemFast(CaseStudy Study, KernelId Kernel, MemFastMode Tier) {
  RunOptions Opts;
  Opts.Tier = Tier;
  return runOne(Study, Kernel, Opts);
}

} // namespace

TEST(MemFastModes, SampledModeExtrapolatesWithBoundedError) {
  FastPathGuard Guard;
  auto [Ref, RefMetrics] = runOneMemFast(CaseStudy::CpuGpu,
                                         KernelId::Reduction,
                                         MemFastMode::Exact);
  auto [Samp, SampMetrics] = runOneMemFast(CaseStudy::CpuGpu,
                                           KernelId::Reduction,
                                           MemFastMode::Sampled);
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

namespace {

SegmentResult segment(Cycle Cycles, uint64_t Insts, uint64_t MemAccesses,
                      uint64_t MemLatencySum, Cycle MemLatencyMax,
                      uint64_t BranchMispredicts, uint64_t ICacheMisses,
                      uint64_t StoreForwards, uint64_t SampledRecords,
                      double SampledErrorCycles) {
  SegmentResult S;
  S.Cycles = Cycles;
  S.Insts = Insts;
  S.MemAccesses = MemAccesses;
  S.MemLatencySum = MemLatencySum;
  S.MemLatencyMax = MemLatencyMax;
  S.BranchMispredicts = BranchMispredicts;
  S.ICacheMisses = ICacheMisses;
  S.StoreForwards = StoreForwards;
  S.SampledRecords = SampledRecords;
  S.SampledErrorCycles = SampledErrorCycles;
  return S; // No page faults on CPU+GPU.
}

} // namespace

// The sampled tier's whole schedule (warm-up, re-warm, measure, skip,
// translate, extrapolate) pinned bit-for-bit: both cores' aggregated
// SegmentResults on CPU+GPU, recorded from the per-core sampled loops
// this driver replaced. Includes the reduction point whose error bound
// reads 0 because only one window rate was ever measured.
TEST(MemFastModes, SampledTierPinnedToRecordedResults) {
  FastPathGuard Guard;
  struct Pin {
    KernelId Kernel;
    SegmentResult Cpu, Gpu;
    double SampledWindows;
    double TotalNs;
  };
  const Pin Pins[] = {
      {KernelId::Reduction,
       segment(377238, 170002, 50627, 580055, 281, 0, 2, 0, 129032, 0x0p+0),
       segment(70001, 70001, 35000, 1833272, 244, 11666, 0, 0, 49511,
               0x0p+0),
       3, 0x1.324f249249249p+17},
      {KernelId::Convolution,
       segment(739567, 513796, 234370, 871162, 281, 0, 2, 0, 435972, 0x0p+0),
       segment(448259, 448259, 252145, 5315293, 236, 56032, 0, 0, 390915,
               0x1.6261ap+7),
       9, 0x1.62070c30c30c4p+18},
      {KernelId::Dct,
       segment(5635647, 2621442, 684404, 6114363, 331, 0, 2, 0, 2432753,
               0x1.72dd96941f326p+23),
       segment(2359298, 2359298, 562969, 30409297, 244, 235929, 0, 0,
               2199398, 0x1.d777166a6566ap+18),
       38, 0x1.a4a42c30c30c3p+20},
  };
  for (const Pin &P : Pins) {
    auto [R, M] =
        runOneMemFast(CaseStudy::CpuGpu, P.Kernel, MemFastMode::Sampled);
    std::string What = kernelName(P.Kernel);
    expectSegmentEq(R.CpuTotal, P.Cpu, What + " cpu");
    expectSegmentEq(R.GpuTotal, P.Gpu, What + " gpu");
    EXPECT_EQ(M.get("memfast.sampled_windows"), P.SampledWindows) << What;
    EXPECT_EQ(M.get("memfast.mode"), 3.0) << What;
    EXPECT_EQ(R.Time.totalNs(), P.TotalNs) << What;
  }
}
