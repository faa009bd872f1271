//===- tests/lowering_matrix_property.h - Matrix properties -*- C++ -*-===//
///
/// \file
/// Lowering and run properties over the (kernel, case study) matrix:
/// instruction budgets conserved, runs deterministic, time components
/// non-negative. Included by properties_test (the four small kernels,
/// unit label) and lowering_large_test (matrix mul and dct, sweep label),
/// each instantiating the suite over its own kernels.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TESTS_LOWERING_MATRIX_PROPERTY_H
#define HETSIM_TESTS_LOWERING_MATRIX_PROPERTY_H

#include "core/Experiments.h"

#include <gtest/gtest.h>

#include <tuple>

namespace hetsim {

class LoweringMatrixProperty
    : public ::testing::TestWithParam<std::tuple<KernelId, CaseStudy>> {};

TEST_P(LoweringMatrixProperty, InstructionBudgetsConserved) {
  auto [Kernel, Study] = GetParam();
  SystemConfig Config = SystemConfig::forCaseStudy(Study);
  LoweredProgram Program = lowerKernel(Kernel, Config);
  const KernelCharacteristics &K = kernelCharacteristics(Kernel);
  uint64_t Cpu = 0, Gpu = 0, Serial = 0;
  for (const ExecStep &Step : Program.Steps) {
    if (Step.Kind == ExecKind::ParallelCompute) {
      Cpu += Step.CpuTrace.size();
      Gpu += Step.GpuTrace.size();
    } else if (Step.Kind == ExecKind::SerialCompute) {
      Serial += Step.CpuTrace.size();
    }
  }
  EXPECT_EQ(Cpu, K.CpuInsts);
  EXPECT_EQ(Gpu, K.GpuInsts);
  EXPECT_EQ(Serial, K.SerialInsts);
}

TEST_P(LoweringMatrixProperty, RunsAreDeterministic) {
  auto [Kernel, Study] = GetParam();
  SystemConfig Config = SystemConfig::forCaseStudy(Study);
  HeteroSimulator Sim(Config);
  RunResult A = Sim.run(Kernel);
  RunResult B = Sim.run(Kernel);
  EXPECT_DOUBLE_EQ(A.Time.totalNs(), B.Time.totalNs());
  EXPECT_EQ(A.TransferredBytes, B.TransferredBytes);
  EXPECT_EQ(A.PageFaults, B.PageFaults);
}

TEST_P(LoweringMatrixProperty, BreakdownComponentsNonNegative) {
  auto [Kernel, Study] = GetParam();
  SystemConfig Config = SystemConfig::forCaseStudy(Study);
  HeteroSimulator Sim(Config);
  RunResult R = Sim.run(Kernel);
  EXPECT_GE(R.Time.SequentialNs, 0.0);
  EXPECT_GE(R.Time.ParallelNs, 0.0);
  EXPECT_GE(R.Time.CommunicationNs, -1e-9);
  EXPECT_GT(R.Time.totalNs(), 0.0);
}

/// The five case studies every kernel is checked on.
inline auto allCaseStudyValues() {
  return ::testing::Values(CaseStudy::CpuGpu, CaseStudy::Lrb, CaseStudy::Gmac,
                           CaseStudy::Fusion, CaseStudy::IdealHetero);
}

} // namespace hetsim

#endif // HETSIM_TESTS_LOWERING_MATRIX_PROPERTY_H
