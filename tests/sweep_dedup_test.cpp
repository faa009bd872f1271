//===- tests/sweep_dedup_test.cpp - SweepRunner read-set dedup ------------===//
///
/// \file
/// SweepRunner copies a finished point's result to any later point that
/// runs the same kernel on a config equal outside CommParams and agrees on
/// every comm field the finished run read. These tests hold that rule to
/// its promise on the 84-point comm sweep (3 kernels x 4 systems x 7
/// comm.api_pci_base values, built as the benchmark builds it): every
/// result and metrics value is bit-identical to a fresh simulation per
/// point, at jobs=1 and jobs=4.
///
//===----------------------------------------------------------------------===//

#include "core/ResultStore.h"
#include "core/SweepRunner.h"

#include "gtest/gtest.h"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

using namespace hetsim;

namespace {

constexpr int64_t PciBases[] = {0, 1000, 5000, 10000, 33250, 66500, 133000};

/// The comm sweep, comm overrides baked in through forCaseStudy.
std::vector<SweepPoint> commSweep(std::vector<CaseStudy> Studies) {
  std::vector<SweepPoint> Points;
  for (CaseStudy Study : Studies)
    for (int64_t Base : PciBases) {
      ConfigStore Overrides;
      Overrides.setInt("comm.api_pci_base", Base);
      SystemConfig Config = SystemConfig::forCaseStudy(Study, Overrides);
      for (KernelId Kernel : {KernelId::Reduction, KernelId::Convolution,
                              KernelId::MergeSort})
        Points.emplace_back(Config, Kernel);
    }
  return Points;
}

std::vector<SweepPoint> fullCommSweep() {
  return commSweep({CaseStudy::CpuGpu, CaseStudy::Lrb, CaseStudy::Gmac,
                    CaseStudy::Fusion});
}

struct Fresh {
  std::vector<RunResult> Results;
  std::vector<MetricsSnapshot> Metrics;
};

/// One fresh HeteroSimulator per point of the full sweep (computed once).
const Fresh &freshCommSweep() {
  static const Fresh F = [] {
    Fresh Out;
    for (const SweepPoint &Point : fullCommSweep()) {
      HeteroSimulator Simulator(Point.Config);
      Out.Results.push_back(Simulator.run(Point.Kernel));
      Out.Metrics.push_back(Simulator.collectMetrics(Out.Results.back()));
    }
    return Out;
  }();
  return F;
}

std::string label(const SweepPoint &Point) {
  return Point.Config.Name + "/" + kernelName(Point.Kernel) + "/base=" +
         std::to_string(
             Point.Config.Comm.get<CommField::ApiPciBase>());
}

/// Same names, and the same bits in every value.
void expectBitIdentical(const MetricsSnapshot &A, const MetricsSnapshot &B,
                        const std::string &Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  auto It = B.values().begin();
  for (const auto &[Name, Value] : A.values()) {
    EXPECT_EQ(Name, It->first) << Label;
    EXPECT_EQ(std::bit_cast<uint64_t>(Value),
              std::bit_cast<uint64_t>(It->second))
        << Label << " " << Name << ": " << Value << " vs " << It->second;
    ++It;
  }
}

void expectMatchesFresh(unsigned Jobs) {
  std::vector<SweepPoint> Points = fullCommSweep();
  const Fresh &Reference = freshCommSweep();
  SweepRunner Runner(Jobs);
  std::vector<RunResult> Results = Runner.run(Points);
  ASSERT_EQ(Results.size(), Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    EXPECT_TRUE(Results[I] == Reference.Results[I]) << label(Points[I]);
    expectBitIdentical(Runner.metrics()[I], Reference.Metrics[I],
                       label(Points[I]));
  }
}

TEST(SweepRunnerDedup, CommSweepBitIdenticalToFreshSimulationSerial) {
  expectMatchesFresh(1);
}

TEST(SweepRunnerDedup, CommSweepBitIdenticalToFreshSimulationParallel) {
  // Which twin is simulated first is racy at jobs>1; the results are not.
  expectMatchesFresh(4);
}

TEST(SweepRunnerDedup, SerialCommSweepSimulatesOnlyDistinctReadSets) {
  // LRB and Fusion never read comm.api_pci_base: per (system, kernel),
  // the first base simulates and the other six copy it. 2 x 3 x 6 = 36.
  SweepRunner Runner(1);
  Runner.run(fullCommSweep());
  EXPECT_EQ(Runner.telemetry().DedupHits, 36u);
  EXPECT_EQ(Runner.telemetry().Points, 84u);
}

TEST(SweepRunnerDedup, PciCopySystemsNeverMergeAcrossBases) {
  // CPU+GPU and GMAC charge api-pci on every copy, so no two of their
  // points agree on what they read.
  SweepRunner Runner(1);
  Runner.run(commSweep({CaseStudy::CpuGpu, CaseStudy::Gmac}));
  EXPECT_EQ(Runner.telemetry().DedupHits, 0u);

  // Nor could their compute be shared across bases: a shifted start
  // cycle moves GPU memory timing through clock-domain rounding. CPU+GPU
  // convolution's worst GPU memory latency is 223 cycles at every base
  // but 5000, where it is 222.
  std::vector<SweepPoint> Points = fullCommSweep();
  const Fresh &Reference = freshCommSweep();
  for (size_t I = 0; I != Points.size(); ++I) {
    if (Points[I].Config.Name != "CPU+GPU" ||
        Points[I].Kernel != KernelId::Convolution)
      continue;
    bool At5000 =
        Points[I].Config.Comm.get<CommField::ApiPciBase>() == 5000;
    EXPECT_EQ(Reference.Metrics[I].get("run.gpu.mem_latency_max"),
              At5000 ? 222.0 : 223.0)
        << label(Points[I]);
  }
}

TEST(SweepRunnerDedup, ReadMaskHasApiPciBaseOnlyOnPciCopySystems) {
  const CommReadMask Base = CommParams::bit(CommField::ApiPciBase);
  for (CaseStudy Study : {CaseStudy::CpuGpu, CaseStudy::Lrb,
                          CaseStudy::Gmac, CaseStudy::Fusion})
    for (KernelId Kernel : {KernelId::Reduction, KernelId::Convolution,
                            KernelId::MergeSort}) {
      HeteroSimulator Simulator(SystemConfig::forCaseStudy(Study));
      EXPECT_EQ(Simulator.commReads(), 0u);
      Simulator.run(Kernel);
      bool ReadsBase = (Simulator.commReads() & Base) != 0;
      bool PciCopies = Study == CaseStudy::CpuGpu || Study == CaseStudy::Gmac;
      EXPECT_EQ(ReadsBase, PciCopies)
          << caseStudyName(Study) << "/" << kernelName(Kernel);
    }
}

TEST(SweepRunnerDedup, NonCommFieldsAlwaysSeparatePoints) {
  // Two LRB points that differ in one non-comm field, and two that differ
  // in a comm field LRB reads (api-tr): none may be merged.
  SystemConfig Lrb = SystemConfig::forCaseStudy(CaseStudy::Lrb);
  SystemConfig Deeper = Lrb;
  Deeper.Cpu.RobEntries += 1;
  SystemConfig SlowerAperture = Lrb;
  SlowerAperture.Comm.set<CommField::ApiTransfer>(9000);
  SweepRunner Runner(1);
  std::vector<RunResult> R =
      Runner.run({SweepPoint(Lrb, KernelId::Reduction),
                  SweepPoint(Deeper, KernelId::Reduction),
                  SweepPoint(SlowerAperture, KernelId::Reduction),
                  SweepPoint(Lrb, KernelId::MergeSort)});
  EXPECT_EQ(Runner.telemetry().DedupHits, 0u);
  EXPECT_GT(R[2].Time.CommunicationNs, R[0].Time.CommunicationNs);
}

TEST(SweepRunnerDedup, TelemetryAndRegistryReportHits) {
  uint64_t Before = processStats().counter("sweep.dedup_hits");
  SweepRunner Runner(1);
  Runner.run(commSweep({CaseStudy::Fusion}));
  const SweepTelemetry &T = Runner.telemetry();
  EXPECT_EQ(T.DedupHits, 18u);
  EXPECT_NE(T.summary().find("18 dedup hits"), std::string::npos)
      << T.summary();
  EXPECT_EQ(processStats().counter("sweep.dedup_hits"), Before + 18);
  SweepTelemetry Sum = T;
  Sum.merge(T);
  EXPECT_EQ(Sum.DedupHits, 36u);
}

TEST(SweepRunnerDedup, CopiedPointsAreStoredForResume) {
  std::string Dir = ::testing::TempDir() + "hetsim-dedup-store";
  std::filesystem::remove_all(Dir);
  RunOptions Opts;
  Opts.ResultStoreDir = Dir;
  std::vector<SweepPoint> Points = commSweep({CaseStudy::Lrb});
  SweepRunner Cold(1, Opts);
  std::vector<RunResult> A = Cold.run(Points);
  EXPECT_EQ(Cold.telemetry().DedupHits, 18u);
  EXPECT_EQ(Cold.telemetry().StoreHits, 0u);

  SweepRunner Warm(1, Opts);
  std::vector<RunResult> B = Warm.run(Points);
  EXPECT_EQ(Warm.telemetry().StoreHits, Points.size());
  EXPECT_EQ(Warm.telemetry().DedupHits, 0u);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_TRUE(A[I] == B[I]) << label(Points[I]);
  std::filesystem::remove_all(Dir);
}

} // namespace
