// AVX2 GEMM tiles for Conv2d and Linear (see gemm_simd.h for the contract).
//
// This translation unit is the only nn source compiled with -mavx2
// (src/nn/CMakeLists.txt gates it on QUGEO_AVX2_KERNELS). It gets no
// -mfma, and qugeo_nn builds with -ffp-contract=off, because GCC otherwise
// fuses even an intrinsic _mm256_add_pd(_mm256_mul_pd(...)) into an FMA
// under -mfma or -march=native, which would move the bits. Without the
// option the entry points become throwing stubs and simd::active_level()
// can never select them.
#include "nn/gemm_simd.h"

#include <stdexcept>

#ifdef QUGEO_WITH_AVX2_KERNELS

#include <immintrin.h>

namespace qugeo::nn {
namespace {

// A 4 x 12 tile holds 12 accumulators, 3 vectors of B and 1 broadcast of
// A: all 16 ymm registers, none spilled.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileVecs = 3;  // ymm vectors per tile row

/// All-ones in lanes [0, count) of four, count <= 4.
inline __m256i lane_mask(std::size_t count) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(count)),
                            _mm256_set_epi64x(3, 2, 1, 0));
}

/// One R x 4V tile of C += A B with A(i, p) at a[i * rs + p * ps]. The
/// tile's C elements stay in registers over the whole p loop and each
/// takes c + a * b per p, as the scalar loop does. kMasked tiles are one
/// vector wide and read and write only the `mask` lanes (the n % 4 tail).
///
/// The constant-trip loops carry `GCC unroll` so GCC unrolls them before
/// scalar replacement: left to its later unroller, GCC 12 keeps the
/// accumulators in registers but also stores all 12 to a stack copy on
/// every p.
template <std::size_t R, std::size_t V, bool kMasked>
inline void tile(std::size_t k, const Real* a, std::size_t rs, std::size_t ps,
                 const Real* b, std::size_t n, Real* c, __m256i mask) {
  static_assert(!kMasked || V == 1);
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      if constexpr (kMasked)
        acc[r][v] = _mm256_maskload_pd(c + r * n, mask);
      else
        acc[r][v] = _mm256_loadu_pd(c + r * n + 4 * v);
    }
  for (std::size_t p = 0; p < k; ++p) {
    const Real* bp = b + p * n;
    __m256d bv[V];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      if constexpr (kMasked)
        bv[v] = _mm256_maskload_pd(bp, mask);
      else
        bv[v] = _mm256_loadu_pd(bp + 4 * v);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d ar = _mm256_broadcast_sd(a + r * rs + p * ps);
#pragma GCC unroll 4
      for (std::size_t v = 0; v < V; ++v)
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(ar, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      if constexpr (kMasked)
        _mm256_maskstore_pd(c + r * n, mask, acc[r][v]);
      else
        _mm256_storeu_pd(c + r * n + 4 * v, acc[r][v]);
    }
}

/// R rows of C += A B across all n columns: 12-column tiles, then 4-column
/// tiles, then one masked tile for the last n % 4 columns.
template <std::size_t R>
void row_block(std::size_t n, std::size_t k, const Real* a, std::size_t rs,
               std::size_t ps, const Real* b, Real* c) {
  const __m256i all = _mm256_set1_epi64x(-1);
  std::size_t j = 0;
  for (; j + 4 * kTileVecs <= n; j += 4 * kTileVecs)
    tile<R, kTileVecs, false>(k, a, rs, ps, b + j, n, c + j, all);
  for (; j + 4 <= n; j += 4)
    tile<R, 1, false>(k, a, rs, ps, b + j, n, c + j, all);
  if (j < n)
    tile<R, 1, true>(k, a, rs, ps, b + j, n, c + j, lane_mask(n - j));
}

/// C[m x n] += A B with k == 1 (Linear's weight gradient at batch 1), one
/// row at a time: c[i][j] += a(i) * b[j] four columns at a time. With no
/// products to accumulate in registers, a sequential sweep over C beats
/// tiles that read and write four rows at once.
void rank_one(std::size_t m, std::size_t n, const Real* a, std::size_t rs,
              const Real* b, Real* c) {
  const std::size_t n4 = n - n % 4;
  const __m256i tail = lane_mask(n % 4);
  for (std::size_t i = 0; i < m; ++i, c += n) {
    const __m256d ai = _mm256_broadcast_sd(a + i * rs);
    for (std::size_t j = 0; j < n4; j += 4)
      _mm256_storeu_pd(
          c + j, _mm256_add_pd(_mm256_loadu_pd(c + j),
                               _mm256_mul_pd(ai, _mm256_loadu_pd(b + j))));
    if (n4 < n)
      _mm256_maskstore_pd(
          c + n4, tail,
          _mm256_add_pd(_mm256_maskload_pd(c + n4, tail),
                        _mm256_mul_pd(ai, _mm256_maskload_pd(b + n4, tail))));
  }
}

/// C[m x n] += A B over 4-row blocks, then one block of the m % 4 rows.
void gemm_tiles(std::size_t m, std::size_t n, std::size_t k, const Real* a,
                std::size_t rs, std::size_t ps, const Real* b, Real* c) {
  if (k == 1) {
    rank_one(m, n, a, rs, b, c);
    return;
  }
  std::size_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows)
    row_block<kTileRows>(n, k, a + i * rs, rs, ps, b, c + i * n);
  switch (m - i) {
    case 3: row_block<3>(n, k, a + i * rs, rs, ps, b, c + i * n); break;
    case 2: row_block<2>(n, k, a + i * rs, rs, ps, b, c + i * n); break;
    case 1: row_block<1>(n, k, a + i * rs, rs, ps, b, c + i * n); break;
    default: break;
  }
}

/// J dot products of A's row `ai` with B's rows b, b + k, ..., added into
/// ci[0, J). Lanes 0-3 of lo[j] and hi[j] hold the scalar loop's partial
/// sums s[0-3] and s[4-7] (lane = p mod 8), and the fold adds them in its
/// pairwise order.
template <std::size_t J>
inline void dots(std::size_t k, const Real* ai, const Real* b, Real* ci) {
  __m256d lo[J], hi[J];
  for (std::size_t j = 0; j < J; ++j) lo[j] = hi[j] = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m256d a_lo = _mm256_loadu_pd(ai + p);
    const __m256d a_hi = _mm256_loadu_pd(ai + p + 4);
    for (std::size_t j = 0; j < J; ++j) {
      const Real* bj = b + j * k + p;
      lo[j] = _mm256_add_pd(lo[j], _mm256_mul_pd(a_lo, _mm256_loadu_pd(bj)));
      hi[j] =
          _mm256_add_pd(hi[j], _mm256_mul_pd(a_hi, _mm256_loadu_pd(bj + 4)));
    }
  }
  if (p < k) {
    // The scalar tail adds to lanes [0, k - p) only. The masked loads give
    // every other lane 0 * 0 = +0, and adding +0 leaves those sums bitwise
    // unchanged: a sum that starts at +0 is never -0 under round-to-nearest.
    const std::size_t rest = k - p;
    const __m256i m_lo = lane_mask(rest < 4 ? rest : 4);
    const __m256d a_lo = _mm256_maskload_pd(ai + p, m_lo);
    for (std::size_t j = 0; j < J; ++j)
      lo[j] = _mm256_add_pd(
          lo[j], _mm256_mul_pd(a_lo, _mm256_maskload_pd(b + j * k + p, m_lo)));
    if (rest > 4) {
      const __m256i m_hi = lane_mask(rest - 4);
      const __m256d a_hi = _mm256_maskload_pd(ai + p + 4, m_hi);
      for (std::size_t j = 0; j < J; ++j)
        hi[j] = _mm256_add_pd(
            hi[j],
            _mm256_mul_pd(a_hi, _mm256_maskload_pd(b + j * k + p + 4, m_hi)));
    }
  }
  for (std::size_t j = 0; j < J; ++j) {
    // s[l] += s[l + 4], then s[l] += s[l + 2], then s[0] += s[1].
    const __m256d s4 = _mm256_add_pd(lo[j], hi[j]);
    const __m128d s2 = _mm_add_pd(_mm256_castpd256_pd128(s4),
                                  _mm256_extractf128_pd(s4, 1));
    const __m128d s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
    ci[j] += _mm_cvtsd_f64(s1);
  }
}

}  // namespace

void gemm_nn_avx2(std::size_t m, std::size_t n, std::size_t k, const Real* a,
                  const Real* b, Real* c) {
  gemm_tiles(m, n, k, a, k, 1, b, c);
}

void gemm_tn_avx2(std::size_t m, std::size_t n, std::size_t k, const Real* a,
                  const Real* b, Real* c) {
  gemm_tiles(m, n, k, a, 1, m, b, c);
}

void gemm_nt_avx2(std::size_t m, std::size_t n, std::size_t k, const Real* a,
                  const Real* b, Real* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const Real* ai = a + i * k;
    Real* ci = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) dots<4>(k, ai, b + j * k, ci + j);
    switch (n - j) {
      case 3: dots<3>(k, ai, b + j * k, ci + j); break;
      case 2: dots<2>(k, ai, b + j * k, ci + j); break;
      case 1: dots<1>(k, ai, b + j * k, ci + j); break;
      default: break;
    }
  }
}

}  // namespace qugeo::nn

#else  // !QUGEO_WITH_AVX2_KERNELS

namespace qugeo::nn {

// Dispatch (common/cpu_features.h) never selects kAvx2 in a build without
// the AVX2 TUs, so reaching a stub is a programming error.
void gemm_nn_avx2(std::size_t, std::size_t, std::size_t, const Real*,
                  const Real*, Real*) {
  throw std::logic_error("AVX2 kernels not compiled into this binary");
}

void gemm_tn_avx2(std::size_t, std::size_t, std::size_t, const Real*,
                  const Real*, Real*) {
  throw std::logic_error("AVX2 kernels not compiled into this binary");
}

void gemm_nt_avx2(std::size_t, std::size_t, std::size_t, const Real*,
                  const Real*, Real*) {
  throw std::logic_error("AVX2 kernels not compiled into this binary");
}

}  // namespace qugeo::nn

#endif  // QUGEO_WITH_AVX2_KERNELS
