// AVX2/FMA variants of the statevector hot kernels.
//
// These are the intrinsic twins of the scalar loops in statevector.cpp,
// compiled in the dedicated -mavx2 -mfma translation unit kernels_avx2.cpp
// so the rest of the binary stays runnable on any x86-64. StateVector's
// public methods dispatch here when simd::active_level() is kAvx2
// (common/cpu_features.h) — a state that can only be reached when the TU
// was compiled in AND the CPU reports avx2+fma, so calling one of these on
// an unsupported build is a logic error (the stub definitions throw).
//
// Numerical contract: each variant evaluates the same per-amplitude
// formulas as its scalar twin; the only difference is FMA contraction (and,
// for the adjoint sweep's contraction, summation order), so results match
// scalar to <= 1e-12 per amplitude (pinned by the *_avx2 equivalence cases
// in test_qsim_kernels and test_qsim_gradient_conformance, enforced by
// qugeo-lint rule 6).
#pragma once

#include <cstddef>

#include "common/types.h"
#include "qsim/gate.h"

namespace qugeo::qsim {

/// AVX2 twin of StateVector::apply_1q: two interleaved complexes per
/// __m256d for stride >= 2, lane-broadcast pair math for q == 0.
void apply_1q_avx2(Complex* amps, Index n, const Mat2& u, Index q);

/// AVX2 twin of StateVector::apply_controlled_1q. The control==0&&target>0
/// case (odd, stride-2 pairs — no contiguous runs to vectorize) runs the
/// scalar formulas inside this TU.
void apply_controlled_1q_avx2(Complex* amps, Index n, const Mat2& u,
                              Index control, Index target);

/// AVX2 twin of StateVector::apply_matrix2q (the dense 4x4 kernel — the
/// largest-headroom hot kernel, per BENCH_micro.json).
void apply_matrix2q_avx2(Complex* amps, Index n, const Mat4& u, Index q0,
                         Index q1);

/// AVX2 twin of StateVector::apply_block_diag_2q — the kFusedCtl2Q
/// executor. Without it the fused path would bottleneck on a scalar
/// kernel while the unfused 1q/controlled stream runs vectorized, and
/// fusion would LOSE under AVX2 dispatch (the bench_micro_fusion guard).
/// Identity blocks are skipped exactly like the scalar twin; the
/// control==0 half-spaces (stride-2 singles) run the scalar formulas
/// inside this TU.
void apply_block_diag_2q_avx2(Complex* amps, Index n, const Mat2& u0,
                              const Mat2& u1, Index control, Index target);

/// AVX2 twin of the adjoint sweep's per-gate pair pass (executor.cpp).
/// Over every index pair (i0, i0 | 1 << q) it rewinds `psi` and `lambda`
/// in place by `ud` (= U^dagger) and returns
/// G(a, b) = sum conj(lambda_a) psi'_b, with lambda read before its rewind
/// and psi' after. Contiguous pairs (q >= 1) move two per __m256d load;
/// q == 0 gathers two adjacent pairs per vector from 128-bit halves.
Mat2 adjoint_sweep_1q_avx2(Complex* psi, Complex* lambda, Index n,
                           const Mat2& ud, Index q);

/// As adjoint_sweep_1q_avx2 over the control=|1> pairs of a controlled
/// gate (control == 0 and target == 0 use the 128-bit gather).
Mat2 adjoint_sweep_controlled_1q_avx2(Complex* psi, Complex* lambda, Index n,
                                      const Mat2& ud, Index control,
                                      Index target);

/// Lane-vectorized 1q kernel over BatchedStateVector's SoA storage
/// (amplitude-major, lane-minor): four batch lanes per __m256d, pure
/// mul/fma with no shuffles. `re`/`im` are the deinterleaved amplitude
/// planes, each dim * lanes long.
void batched_apply_1q_avx2(Real* re, Real* im, Index dim, std::size_t lanes,
                           const Mat2& u, Index q);

}  // namespace qugeo::qsim
