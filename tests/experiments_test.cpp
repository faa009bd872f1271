//===- tests/experiments_test.cpp - Experiment-harness tests --------------===//

#include "core/Experiments.h"
#include "core/ExtraWorkloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// Render helpers.
//===----------------------------------------------------------------------===//

namespace {
std::vector<ExperimentRow> smallStudy() {
  // Two cheap kernels on two systems: enough structure for the renderers.
  std::vector<ExperimentRow> Rows;
  for (CaseStudy Study : {CaseStudy::CpuGpu, CaseStudy::IdealHetero}) {
    SystemConfig Config = SystemConfig::forCaseStudy(Study);
    HeteroSimulator Sim(Config);
    for (KernelId Kernel : {KernelId::Reduction, KernelId::MergeSort}) {
      ExperimentRow Row;
      Row.System = Config.Name;
      Row.Kernel = Kernel;
      Row.Result = Sim.run(Kernel);
      Rows.push_back(std::move(Row));
    }
  }
  return Rows;
}
} // namespace

TEST(ExperimentRender, Figure5NormalizesToIdeal) {
  std::vector<ExperimentRow> Rows = smallStudy();
  std::string Csv = renderFigure5(Rows).renderCsv();
  // The IDEAL rows normalize to exactly 1.000.
  EXPECT_NE(Csv.find("IDEAL-HETERO"), std::string::npos);
  EXPECT_NE(Csv.find(",1.000,"), std::string::npos);
}

TEST(ExperimentRender, Figure6ReportsBytes) {
  std::vector<ExperimentRow> Rows = smallStudy();
  std::string Csv = renderFigure6(Rows).renderCsv();
  EXPECT_NE(Csv.find("480,768"), std::string::npos); // Reduction traffic.
}

TEST(ExperimentRender, RowCountsMatchInputs) {
  std::vector<ExperimentRow> Rows = smallStudy();
  EXPECT_EQ(renderFigure5(Rows).rowCount(), Rows.size());
  EXPECT_EQ(renderFigure6(Rows).rowCount(), Rows.size());
}

//===----------------------------------------------------------------------===//
// CSV export.
//===----------------------------------------------------------------------===//

TEST(CsvExport, DisabledWithoutEnvVar) {
  TextTable Table({"a"});
  EXPECT_FALSE(maybeExportCsv("unused", Table, RunOptions()));
}

TEST(CsvExport, WritesFileWhenEnabled) {
  setenv("HETSIM_CSV_DIR", "/tmp", 1);
  RunOptions Opts = RunOptions::fromEnvironment();
  unsetenv("HETSIM_CSV_DIR");
  TextTable Table({"col1", "col2"});
  Table.addRow({"x", "y"});
  EXPECT_TRUE(maybeExportCsv("hetsim_csv_export_test", Table, Opts));

  std::FILE *File = std::fopen("/tmp/hetsim_csv_export_test.csv", "r");
  ASSERT_NE(File, nullptr);
  char Buffer[64] = {};
  ASSERT_NE(std::fgets(Buffer, sizeof(Buffer), File), nullptr);
  std::fclose(File);
  EXPECT_STREQ(Buffer, "col1,col2\n");
  std::remove("/tmp/hetsim_csv_export_test.csv");
}

TEST(CsvExport, UnwritableDirectoryFailsGracefully) {
  RunOptions Opts;
  Opts.CsvDir = "/nonexistent_hetsim_dir";
  TextTable Table({"a"});
  EXPECT_FALSE(maybeExportCsv("x", Table, Opts));
}

//===----------------------------------------------------------------------===//
// Sandy-Bridge-style preset (Section II-A2).
//===----------------------------------------------------------------------===//

TEST(SandyBridge, DisjointButSharedLlc) {
  SystemConfig Config = SystemConfig::sandyBridgeStyle();
  EXPECT_EQ(Config.AddrSpace, AddressSpaceKind::Disjoint);
  EXPECT_TRUE(Config.Hier.GpuSharesL3);
  EXPECT_EQ(Config.Connection, ConnectionKind::MemoryController);
}

TEST(SandyBridge, GpuTrafficReachesSharedL3) {
  HeteroSimulator Sim(SystemConfig::sandyBridgeStyle());
  Sim.run(KernelId::Reduction);
  EXPECT_GT(Sim.memory().l3().stats().Accesses, 0u);

  HeteroSimulator Fusion(SystemConfig::forCaseStudy(CaseStudy::Fusion));
  Fusion.run(KernelId::Reduction);
  // Fusion's GPU bypasses the L3; only CPU L2 misses reach it.
  EXPECT_LT(Fusion.memory().l3().stats().Accesses,
            Sim.memory().l3().stats().Accesses);
}

//===----------------------------------------------------------------------===//
// Workload-characteristic sanity: the extra workloads behave like what
// they model.
//===----------------------------------------------------------------------===//

TEST(WorkloadCharacter, BfsBranchesAreHardToPredict) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  HeteroSimulator Sim(Config);
  RunResult Triad = Sim.runLowered(
      buildExtraWorkload(ExtraWorkloadId::StreamTriad, Config, 32768));
  RunResult Bfs = Sim.runLowered(
      buildExtraWorkload(ExtraWorkloadId::Bfs, Config, 32768));
  double TriadRate = double(Triad.CpuTotal.BranchMispredicts) /
                     double(Triad.CpuTotal.Insts);
  double BfsRate =
      double(Bfs.CpuTotal.BranchMispredicts) / double(Bfs.CpuTotal.Insts);
  EXPECT_GT(BfsRate, TriadRate * 5);
}

TEST(WorkloadCharacter, SpmvGathersHitLessThanTriadStreams) {
  // Large enough that SpMV's x[] (Elements bytes) exceeds the L1: its
  // random gathers must lower the L1 hit rate versus pure streaming.
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  HeteroSimulator TriadSim(Config);
  TriadSim.runLowered(
      buildExtraWorkload(ExtraWorkloadId::StreamTriad, Config, 262144));
  double TriadHit = TriadSim.memory().cpuL1().stats().hitRate();
  HeteroSimulator SpmvSim(Config);
  SpmvSim.runLowered(
      buildExtraWorkload(ExtraWorkloadId::Spmv, Config, 262144));
  double SpmvHit = SpmvSim.memory().cpuL1().stats().hitRate();
  EXPECT_LT(SpmvHit, TriadHit);
}

TEST(WorkloadCharacter, HistogramBinsStayHot) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  HeteroSimulator Sim(Config);
  Sim.runLowered(
      buildExtraWorkload(ExtraWorkloadId::Histogram, Config, 65536));
  // The 1KB bin table is L1-resident: overall CPU L1 hit rate stays high.
  EXPECT_GT(Sim.memory().cpuL1().stats().hitRate(), 0.5);
}

//===----------------------------------------------------------------------===//
// Push accounting.
//===----------------------------------------------------------------------===//

TEST(PushAccounting, ExplicitSharedLocalityChargesPushTime) {
  SystemConfig Config =
      SystemConfig::forAddressSpaceStudy(AddressSpaceKind::PartiallyShared);
  Config.Locality.Shared = SharedLocality::Explicit;
  HeteroSimulator Sim(Config);
  RunResult R = Sim.run(KernelId::Reduction);
  EXPECT_GT(R.PushNs, 0.0);
  // Push time is part of the 3-way breakdown (attributed to comm).
  EXPECT_GE(R.Time.CommunicationNs, R.PushNs - 1e-6);
}