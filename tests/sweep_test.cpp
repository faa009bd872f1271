//===- tests/sweep_test.cpp - SweepRunner + determinism tests -------------===//
///
/// \file
/// The parallel sweep engine must be a drop-in replacement for the serial
/// experiment loops: same results, in submission order, at any job count.
/// The figure-level determinism tests assert byte-identical rendered
/// tables between jobs=1 and jobs=8.
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "core/HeteroSimulator.h"
#include "trace/TraceCache.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace hetsim;

namespace {

RunOptions withJobs(unsigned Jobs) {
  RunOptions Opts;
  Opts.Jobs = Jobs;
  return Opts;
}

std::vector<SweepPoint> smallGrid() {
  std::vector<SweepPoint> Points;
  for (CaseStudy Study : {CaseStudy::IdealHetero, CaseStudy::CpuGpu})
    for (KernelId Kernel : {KernelId::Reduction, KernelId::MergeSort})
      Points.emplace_back(SystemConfig::forCaseStudy(Study), Kernel);
  return Points;
}

TEST(SweepRunner, MatchesSerialSimulation) {
  std::vector<SweepPoint> Points = smallGrid();
  SweepRunner Runner(2);
  std::vector<RunResult> Parallel = Runner.run(Points);
  ASSERT_EQ(Parallel.size(), Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    SystemConfig Config = Points[I].Config;
    Config.applyOverrides(Points[I].Overrides);
    HeteroSimulator Simulator(Config);
    RunResult Serial = Simulator.run(Points[I].Kernel);
    EXPECT_DOUBLE_EQ(Parallel[I].Time.totalNs(), Serial.Time.totalNs())
        << "point " << I;
    EXPECT_EQ(Parallel[I].TransferredBytes, Serial.TransferredBytes);
    EXPECT_EQ(Parallel[I].PageFaults, Serial.PageFaults);
  }
}

TEST(SweepRunner, ResultsInSubmissionOrderAcrossJobCounts) {
  std::vector<SweepPoint> Points = smallGrid();
  SweepRunner Serial(1);
  SweepRunner Wide(8);
  std::vector<RunResult> A = Serial.run(Points);
  std::vector<RunResult> B = Wide.run(Points);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_DOUBLE_EQ(A[I].Time.totalNs(), B[I].Time.totalNs());
    EXPECT_EQ(A[I].TransferredBytes, B[I].TransferredBytes);
    EXPECT_EQ(A[I].OwnershipActions, B[I].OwnershipActions);
  }
}

TEST(SweepRunner, CommOverridesBakedIntoConfigSurvive) {
  // Regression: SweepRunner must not reset comm.* params that were baked
  // into the config via forCaseStudy(Study, Overrides) — applyOverrides
  // with an empty store would rebuild CommParams at Table IV defaults.
  ConfigStore Overrides;
  Overrides.setInt("comm.lib_pf", 0);
  std::vector<SweepPoint> Points;
  Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Lrb),
                      KernelId::Reduction);
  Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Lrb, Overrides),
                      KernelId::Reduction);
  SweepRunner Runner(1);
  std::vector<RunResult> Results = Runner.run(Points);
  EXPECT_LT(Results[1].Time.CommunicationNs, Results[0].Time.CommunicationNs);
}

TEST(SweepRunner, PointOverridesApply) {
  // Overrides carried in the SweepPoint itself must also take effect.
  ConfigStore Overrides;
  Overrides.setInt("comm.lib_pf", 168000);
  std::vector<SweepPoint> Points;
  Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Lrb),
                      KernelId::Reduction);
  Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Lrb),
                      KernelId::Reduction, Overrides);
  SweepRunner Runner(1);
  std::vector<RunResult> Results = Runner.run(Points);
  EXPECT_GT(Results[1].Time.CommunicationNs, Results[0].Time.CommunicationNs);
}

TEST(SweepRunner, TelemetryCountsPoints) {
  std::vector<SweepPoint> Points = smallGrid();
  SweepRunner Runner(2);
  Runner.run(Points);
  const SweepTelemetry &T = Runner.telemetry();
  EXPECT_EQ(T.Points, Points.size());
  EXPECT_EQ(T.Jobs, 2u);
  EXPECT_GT(T.WallSeconds, 0.0);
  EXPECT_GT(T.SimNsTotal, 0.0);
  EXPECT_GT(T.pointsPerSecond(), 0.0);
}

TEST(SweepRunner, TelemetryMergeAccumulates) {
  SweepTelemetry A, B;
  A.Jobs = 2;
  A.Points = 3;
  A.WallSeconds = 1.5;
  A.CacheHits = 4;
  A.BusySeconds = 1.25;
  A.LockWaitSeconds = 0.25;
  A.StoreHits = 2;
  B.Jobs = 4;
  B.Points = 7;
  B.WallSeconds = 0.5;
  B.CacheMisses = 6;
  B.BusySeconds = 0.75;
  B.LockWaitSeconds = 0.05;
  B.StoreMisses = 5;
  A.merge(B);
  EXPECT_EQ(A.Jobs, 4u);
  EXPECT_EQ(A.Points, 10u);
  EXPECT_DOUBLE_EQ(A.WallSeconds, 2.0);
  EXPECT_EQ(A.CacheHits, 4u);
  EXPECT_EQ(A.CacheMisses, 6u);
  EXPECT_DOUBLE_EQ(A.BusySeconds, 2.0);
  EXPECT_DOUBLE_EQ(A.LockWaitSeconds, 0.3);
  EXPECT_EQ(A.StoreHits, 2u);
  EXPECT_EQ(A.StoreMisses, 5u);
}

TEST(SweepRunner, PhaseSecondsNormalizePerWorker) {
  // The old formula (wall - gen, clamped at 0) reported simulate=0 the
  // moment summed per-thread gen time exceeded the wall clock — exactly
  // what happens on an oversubscribed host. The normalized form scales
  // phase shares of busy time into wall seconds instead.
  SweepTelemetry T;
  T.WallSeconds = 1.0;
  T.BusySeconds = 4.0; // 4 workers, fully busy.
  T.TraceGenSeconds = 3.0;
  T.LockWaitSeconds = 0.5;
  EXPECT_DOUBLE_EQ(T.traceGenWallSeconds(), 0.75);
  EXPECT_DOUBLE_EQ(T.lockWaitWallSeconds(), 0.125);
  EXPECT_DOUBLE_EQ(T.simulateSeconds(), 0.125);
  // Serial reduction: busy == wall, so the phases are plain seconds.
  SweepTelemetry S;
  S.WallSeconds = 2.0;
  S.BusySeconds = 2.0;
  S.TraceGenSeconds = 0.5;
  EXPECT_DOUBLE_EQ(S.traceGenWallSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(S.simulateSeconds(), 1.5);
  // A phase share can never exceed the wall clock.
  SweepTelemetry O;
  O.WallSeconds = 1.0;
  O.BusySeconds = 2.0;
  O.TraceGenSeconds = 3.0; // inconsistent input: clamp to wall, not 0.
  EXPECT_DOUBLE_EQ(O.traceGenWallSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(O.simulateSeconds(), 0.0);
}

TEST(SweepRunner, TelemetryAttributesBusyAndSimulateTime) {
  std::vector<SweepPoint> Points = smallGrid();
  SweepRunner Runner(2);
  Runner.run(Points);
  const SweepTelemetry &T = Runner.telemetry();
  EXPECT_GT(T.BusySeconds, 0.0);
  // The simulate share must survive parallel gen attribution (the
  // clamp-to-0 regression), and the three phases partition the wall.
  EXPECT_GT(T.simulateSeconds(), 0.0);
  EXPECT_LE(T.traceGenWallSeconds() + T.lockWaitWallSeconds() +
                T.simulateSeconds(),
            T.WallSeconds * 1.0001);
  EXPECT_GE(T.TraceGenSeconds, 0.0);
  EXPECT_GE(T.LockWaitSeconds, 0.0);
  // No result store configured: counters stay zero.
  EXPECT_EQ(T.StoreHits, 0u);
  EXPECT_EQ(T.StoreMisses, 0u);
}

TEST(SweepRunner, AppendBenchTimingWritesJsonLine) {
  RunOptions Opts;
  Opts.TimingJsonPath = ::testing::TempDir() + "hetsim_timing_test.json";
  const std::string &Path = Opts.TimingJsonPath;
  std::remove(Path.c_str());
  SweepTelemetry T;
  T.Jobs = 2;
  T.Points = 4;
  T.WallSeconds = 0.25;
  T.SimNsTotal = 1000.0;
  T.CacheHits = 3;
  T.CacheMisses = 1;
  ASSERT_TRUE(appendBenchTiming("unit", T, Opts));
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Line = Buffer.str();
  EXPECT_NE(Line.find("\"bench\":\"unit\""), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"points\":4"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"jobs\":2"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"wall_s\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"points_per_s\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"cache_hit_rate\":"), std::string::npos) << Line;
  // Schema evolution: the new keys append after "simulate_s" so existing
  // line parsers keep matching the prefix.
  EXPECT_NE(Line.find("\"lock_wait_s\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"store_hits\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"store_misses\":"), std::string::npos) << Line;
  EXPECT_LT(Line.find("\"simulate_s\":"), Line.find("\"lock_wait_s\":"))
      << Line;
  std::remove(Path.c_str());
}

TEST(TraceCache, RepeatedSweepHitsCache) {
  // Three configs that differ only in core timing (ROB size), so each
  // point simulates (identical points would be copied by the sweep's
  // dedup and never reach the cache) on the same traces.
  std::vector<SweepPoint> Points;
  for (unsigned Rob : {168u, 128u, 96u}) {
    SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
    Config.Cpu.RobEntries = Rob;
    Points.emplace_back(Config, KernelId::Reduction);
  }
  SweepRunner Runner(1);
  Runner.run(Points);
  EXPECT_EQ(Runner.telemetry().DedupHits, 0u);
  // Identical (kernel, layout, split) points share generated traces, so at
  // most the first point misses.
  EXPECT_GE(Runner.telemetry().CacheHits, 2u * Points.size() - 2);
}

// Figure-level determinism: the rendered tables feeding the paper's
// Figures 5-7 must be byte-identical between the serial and the widest
// parallel harness.
TEST(Determinism, Figures5And6AreJobCountInvariant) {
  std::vector<ExperimentRow> Serial = runCaseStudies({}, withJobs(1));
  std::vector<ExperimentRow> Wide = runCaseStudies({}, withJobs(8));
  EXPECT_EQ(renderFigure5(Serial).render(), renderFigure5(Wide).render());
  EXPECT_EQ(renderFigure6(Serial).render(), renderFigure6(Wide).render());
}

TEST(Determinism, Figure7IsJobCountInvariant) {
  std::vector<ExperimentRow> Serial = runAddressSpaceStudy({}, withJobs(1));
  std::vector<ExperimentRow> Wide = runAddressSpaceStudy({}, withJobs(8));
  EXPECT_EQ(renderFigure7(Serial).render(), renderFigure7(Wide).render());
}

TEST(Determinism, PartitionSweepIsJobCountInvariant) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  std::vector<PartitionPoint> Serial =
      sweepPartition(Config, KernelId::Reduction, 10, withJobs(1));
  std::vector<PartitionPoint> Wide =
      sweepPartition(Config, KernelId::Reduction, 10, withJobs(8));
  ASSERT_EQ(Serial.size(), Wide.size());
  for (size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_DOUBLE_EQ(Serial[I].CpuFraction, Wide[I].CpuFraction);
    EXPECT_DOUBLE_EQ(Serial[I].TotalNs, Wide[I].TotalNs);
    EXPECT_DOUBLE_EQ(Serial[I].ParallelNs, Wide[I].ParallelNs);
  }
}

} // namespace
