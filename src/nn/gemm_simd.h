// AVX2 variants of the three row-major GEMM forms under Conv2d and Linear.
//
// Compiled in the dedicated -mavx2 -O3 translation unit gemm_avx2.cpp
// (without -mfma, and qugeo_nn builds with -ffp-contract=off); layers.cpp
// calls them on every GEMM that starts with simd::active_level() at kAvx2
// (common/cpu_features.h). Calling one on a build without the AVX2 TUs is
// a logic error (the stubs throw).
//
// Numerical contract: bitwise equal to the plain loops in layers.cpp.
// Every C element adds the same products in the same order, each product
// rounded before its add (no FMA), so CNN and Q-D-CNN outputs do not
// depend on QUGEO_SIMD (pinned by test_nn_gemm_conformance, enforced by
// qugeo-lint rule 6).
#pragma once

#include <cstddef>

#include "common/types.h"

namespace qugeo::nn {

/// C[m x n] += A[m x k] * B[k x n] in 4-row x 12-column register tiles;
/// each C element adds its products in ascending p.
void gemm_nn_avx2(std::size_t m, std::size_t n, std::size_t k, const Real* a,
                  const Real* b, Real* c);

/// C[m x n] += A^T * B with A stored [k x m], B [k x n], in the same tiles
/// as gemm_nn_avx2; each C element adds its products in ascending p.
void gemm_tn_avx2(std::size_t m, std::size_t n, std::size_t k, const Real* a,
                  const Real* b, Real* c);

/// C[m x n] += A * B^T with A stored [m x k], B [n x k]. Each dot product
/// keeps the scalar loop's 8 interleaved partial sums (lane = p mod 8) in
/// two ymm registers, four dot products per load of A, and folds them
/// pairwise as the scalar loop does.
void gemm_nt_avx2(std::size_t m, std::size_t n, std::size_t k, const Real* a,
                  const Real* b, Real* c);

}  // namespace qugeo::nn
