// AVX2/FMA variant of the FDTD stencil row sweep.
//
// Compiled in the dedicated -mavx2 -mfma translation unit fdtd_avx2.cpp;
// fdtd.cpp's propagate_impl calls it for every row of a shot that starts
// with simd::active_level() at kAvx2 (common/cpu_features.h). The level is
// read once per shot, on the thread that runs it; the pool carries the
// submitter's ScopedSimdMode to that thread. The caller damps the row's
// sponge cells after the kernel returns, so the kernel stays a pure
// stencil update. Calling it on a build without the AVX2 TUs is a logic
// error (the stub throws).
//
// Numerical contract: per cell, the same laplacian/update formulas as the
// scalar sweep, differing only by FMA contraction — matches scalar to
// <= 1e-12 relative per cell (pinned by test_seismic_fdtd's fdtd_row_avx2
// equivalence case, enforced by qugeo-lint rule 6).
#pragma once

#include <cstddef>

#include "common/types.h"

namespace qugeo::seismic {

/// One row of the order-2/4/8 acoustic update (halo = 1, 2, or 4; other
/// values throw std::logic_error):
///   pn[ix] = 2 p[ix] - pp[ix] + cc[ix] dt^2 lap(p)[ix]
/// over nx cells, four per __m256d. `stc` points at the halo+1 stencil
/// coefficients; `pc_row`/`pp_row`/`pn_row` point at the row's first
/// interior cell of the current / previous / next wavefield (the halo
/// padding makes +-k and +-k*stride reads safe); `cc_row` is the row's
/// squared-velocity slice.
void fdtd_row_avx2(std::size_t halo, const Real* stc, const Real* pc_row,
                   const Real* pp_row, Real* pn_row, const Real* cc_row,
                   std::size_t nx, std::size_t stride, Real inv_dz2,
                   Real inv_dx2, Real dt2);

}  // namespace qugeo::seismic
