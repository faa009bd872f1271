//===- tests/lowering_large_test.cpp - Large-kernel matrix properties -----===//
///
/// \file
/// The LoweringMatrixProperty suite (lowering_matrix_property.h) on the
/// two large kernels, matrix mul and dct: about 40 s serial, so it
/// carries the sweep label instead of running with the unit suites.
///
//===----------------------------------------------------------------------===//

#include "lowering_matrix_property.h"

using namespace hetsim;

INSTANTIATE_TEST_SUITE_P(
    Matrix, LoweringMatrixProperty,
    ::testing::Combine(::testing::Values(KernelId::MatrixMul, KernelId::Dct),
                       allCaseStudyValues()));
