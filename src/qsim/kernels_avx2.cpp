// AVX2/FMA statevector kernels (see simd_kernels.h for the contract).
//
// This translation unit is the only qsim source compiled with -mavx2 -mfma
// (CMakeLists gates it on QUGEO_AVX2_KERNELS); without that option the
// entry points become throwing stubs and simd::active_level() can never
// select them.
//
// Layout notes: std::complex<double> is storage-compatible with double[2]
// (array-oriented access, [complex.numbers.general]), so one __m256d holds
// two interleaved amplitudes [re0 im0 re1 im1]. A constant-times-vector
// complex multiply is then
//   fmaddsub(c.re, v, c.im * swap_pairs(v))
// (even lanes a*b - c, odd lanes a*b + c), which is exactly cmul() with the
// two products of each component contracted into one FMA.
#include "qsim/simd_kernels.h"

#include <stdexcept>

#ifdef QUGEO_WITH_AVX2_KERNELS

#include <immintrin.h>

#include "common/math_utils.h"

namespace qugeo::qsim {
namespace {

/// Broadcast complex constant: c.re in every lane of `re`, c.im in `im`.
struct CVec {
  __m256d re, im;
};

CVec broadcast_c(const Complex& c) {
  return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

/// Lane-pair constant for adjacent-pair kernels: complex lanes {0} of the
/// vector multiply by c0, lanes {1} by c1.
CVec pair_c(const Complex& c0, const Complex& c1) {
  return {_mm256_set_pd(c1.real(), c1.real(), c0.real(), c0.real()),
          _mm256_set_pd(c1.imag(), c1.imag(), c0.imag(), c0.imag())};
}

/// c * v over two interleaved complexes.
inline __m256d cmul_vec(const CVec& c, __m256d v) {
  const __m256d sw = _mm256_permute_pd(v, 0b0101);  // [im0 re0 im1 re1]
  return _mm256_fmaddsub_pd(c.re, v, _mm256_mul_pd(c.im, sw));
}

/// Duplicate the low complex lane: [a b] -> [a a].
inline __m256d dup_lo(__m256d v) { return _mm256_permute4x64_pd(v, 0x44); }
/// Duplicate the high complex lane: [a b] -> [b b].
inline __m256d dup_hi(__m256d v) { return _mm256_permute4x64_pd(v, 0xEE); }

/// The (i0, i1) pair update new0 = u00 a0 + u01 a1, new1 = u10 a0 + u11 a1
/// over two pairs at once (p0/p1 point at runs of two complexes).
inline void pair_update(double* p0, double* p1, const CVec& u00,
                        const CVec& u01, const CVec& u10, const CVec& u11) {
  const __m256d a0 = _mm256_loadu_pd(p0);
  const __m256d a1 = _mm256_loadu_pd(p1);
  _mm256_storeu_pd(p0, _mm256_add_pd(cmul_vec(u00, a0), cmul_vec(u01, a1)));
  _mm256_storeu_pd(p1, _mm256_add_pd(cmul_vec(u10, a0), cmul_vec(u11, a1)));
}

/// conj(a) * b over two interleaved complexes (cmul_conj per lane).
inline __m256d cmul_conj_vec(__m256d a, __m256d b) {
  const __m256d a_re = _mm256_movedup_pd(a);          // [ar0 ar0 ar1 ar1]
  const __m256d a_im = _mm256_permute_pd(a, 0b1111);  // [ai0 ai0 ai1 ai1]
  const __m256d b_sw = _mm256_permute_pd(b, 0b0101);  // [bi0 br0 bi1 br1]
  return _mm256_fmsubadd_pd(a_re, b, _mm256_mul_pd(a_im, b_sw));
}

/// Complex at `i` and complex at `j` as the two lanes of one vector.
inline __m256d load_two(const double* a, Index i, Index j) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(a + 2 * i)),
                              _mm_loadu_pd(a + 2 * j), 1);
}

inline void store_two(double* a, Index i, Index j, __m256d v) {
  _mm_storeu_pd(a + 2 * i, _mm256_castpd256_pd128(v));
  _mm_storeu_pd(a + 2 * j, _mm256_extractf128_pd(v, 1));
}

/// Complex at `i` in the low lane, zero in the high lane.
inline __m256d load_one(const double* a, Index i) {
  return _mm256_insertf128_pd(_mm256_setzero_pd(), _mm_loadu_pd(a + 2 * i), 0);
}

inline void store_one(double* a, Index i, __m256d v) {
  _mm_storeu_pd(a + 2 * i, _mm256_castpd256_pd128(v));
}

Complex lane_sum(__m256d v) {
  alignas(16) double s[2];
  _mm_store_pd(s, _mm_add_pd(_mm256_castpd256_pd128(v),
                             _mm256_extractf128_pd(v, 1)));
  return {s[0], s[1]};
}

/// One adjoint pair sweep: U^dagger broadcast once, G accumulated per
/// complex lane and folded in result(). step() takes two pairs lane-wise —
/// p0/p1 hold psi at (i0, i1), l0/l1 lambda — and rewinds them in place.
/// A zero lane contributes nothing to G, which is how a lone pair runs.
class AdjointSweep {
 public:
  explicit AdjointSweep(const Mat2& ud)
      : u00_(broadcast_c(ud(0, 0))),
        u01_(broadcast_c(ud(0, 1))),
        u10_(broadcast_c(ud(1, 0))),
        u11_(broadcast_c(ud(1, 1))) {}

  void step(__m256d& p0, __m256d& p1, __m256d& l0, __m256d& l1) {
    const __m256d n0 = _mm256_add_pd(cmul_vec(u00_, p0), cmul_vec(u01_, p1));
    const __m256d n1 = _mm256_add_pd(cmul_vec(u10_, p0), cmul_vec(u11_, p1));
    g00_ = _mm256_add_pd(g00_, cmul_conj_vec(l0, n0));
    g01_ = _mm256_add_pd(g01_, cmul_conj_vec(l0, n1));
    g10_ = _mm256_add_pd(g10_, cmul_conj_vec(l1, n0));
    g11_ = _mm256_add_pd(g11_, cmul_conj_vec(l1, n1));
    p0 = n0;
    p1 = n1;
    const __m256d m0 = _mm256_add_pd(cmul_vec(u00_, l0), cmul_vec(u01_, l1));
    l1 = _mm256_add_pd(cmul_vec(u10_, l0), cmul_vec(u11_, l1));
    l0 = m0;
  }

  /// Pairs (i0, i0 + d) and (i0 + 1, i0 + 1 + d): contiguous runs.
  void run_contiguous(double* psi, double* lambda, Index i0, Index d) {
    double* p0 = psi + 2 * i0;
    double* p1 = psi + 2 * (i0 + d);
    double* l0 = lambda + 2 * i0;
    double* l1 = lambda + 2 * (i0 + d);
    __m256d vp0 = _mm256_loadu_pd(p0), vp1 = _mm256_loadu_pd(p1);
    __m256d vl0 = _mm256_loadu_pd(l0), vl1 = _mm256_loadu_pd(l1);
    step(vp0, vp1, vl0, vl1);
    _mm256_storeu_pd(p0, vp0);
    _mm256_storeu_pd(p1, vp1);
    _mm256_storeu_pd(l0, vl0);
    _mm256_storeu_pd(l1, vl1);
  }

  /// The `count` pairs (first(j), first(j) | tmask), two per step from
  /// 128-bit halves; an odd last pair runs alone in the low lane.
  template <typename First>
  void run_gathered(double* psi, double* lambda, Index count, Index tmask,
                    First first) {
    Index j = 0;
    for (; j + 2 <= count; j += 2) {
      const Index a0 = first(j), b0 = first(j + 1);
      const Index a1 = a0 | tmask, b1 = b0 | tmask;
      __m256d vp0 = load_two(psi, a0, b0), vp1 = load_two(psi, a1, b1);
      __m256d vl0 = load_two(lambda, a0, b0), vl1 = load_two(lambda, a1, b1);
      step(vp0, vp1, vl0, vl1);
      store_two(psi, a0, b0, vp0);
      store_two(psi, a1, b1, vp1);
      store_two(lambda, a0, b0, vl0);
      store_two(lambda, a1, b1, vl1);
    }
    if (j < count) {
      const Index a0 = first(j), a1 = a0 | tmask;
      __m256d vp0 = load_one(psi, a0), vp1 = load_one(psi, a1);
      __m256d vl0 = load_one(lambda, a0), vl1 = load_one(lambda, a1);
      step(vp0, vp1, vl0, vl1);
      store_one(psi, a0, vp0);
      store_one(psi, a1, vp1);
      store_one(lambda, a0, vl0);
      store_one(lambda, a1, vl1);
    }
  }

  [[nodiscard]] Mat2 result() const {
    Mat2 g;
    g(0, 0) = lane_sum(g00_);
    g(0, 1) = lane_sum(g01_);
    g(1, 0) = lane_sum(g10_);
    g(1, 1) = lane_sum(g11_);
    return g;
  }

 private:
  CVec u00_, u01_, u10_, u11_;
  __m256d g00_ = _mm256_setzero_pd(), g01_ = _mm256_setzero_pd();
  __m256d g10_ = _mm256_setzero_pd(), g11_ = _mm256_setzero_pd();
};

}  // namespace

void apply_1q_avx2(Complex* amps, Index n, const Mat2& u, Index q) {
  double* a = reinterpret_cast<double*>(amps);
  const Index stride = Index{1} << q;
  if (stride >= 2) {
    const CVec u00 = broadcast_c(u(0, 0)), u01 = broadcast_c(u(0, 1));
    const CVec u10 = broadcast_c(u(1, 0)), u11 = broadcast_c(u(1, 1));
    for (Index base = 0; base < n; base += stride * 2)
      for (Index off = 0; off < stride; off += 2)
        pair_update(a + 2 * (base + off), a + 2 * (base + off + stride), u00,
                    u01, u10, u11);
    return;
  }
  // q == 0: each vector holds one full (a0, a1) pair; lane-broadcast the
  // two amplitudes and pack the matrix per output lane.
  const CVec ca = pair_c(u(0, 0), u(1, 0));
  const CVec cb = pair_c(u(0, 1), u(1, 1));
  for (Index i = 0; i < n; i += 2) {
    double* p = a + 2 * i;
    const __m256d v = _mm256_loadu_pd(p);
    _mm256_storeu_pd(
        p, _mm256_add_pd(cmul_vec(ca, dup_lo(v)), cmul_vec(cb, dup_hi(v))));
  }
}

void apply_controlled_1q_avx2(Complex* amps, Index n, const Mat2& u,
                              Index control, Index target) {
  double* a = reinterpret_cast<double*>(amps);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index mlo = Index{1} << lo;
  const Index mhi = Index{1} << hi;
  if (lo >= 1) {
    // Free low bits give contiguous runs of mlo >= 2 base indices with
    // bits lo/hi clear; OR-ing the (clear) control bit keeps them runs.
    const CVec u00 = broadcast_c(u(0, 0)), u01 = broadcast_c(u(0, 1));
    const CVec u10 = broadcast_c(u(1, 0)), u11 = broadcast_c(u(1, 1));
    for (Index base = 0; base < n; base += 2 * mhi)
      for (Index mid = base; mid < base + mhi; mid += 2 * mlo)
        for (Index i = mid; i < mid + mlo; i += 2) {
          const Index i0 = i | cmask;
          pair_update(a + 2 * i0, a + 2 * (i0 | tmask), u00, u01, u10, u11);
        }
    return;
  }
  if (target == 0) {
    // Pairs are adjacent inside the control=|1> half of each block.
    const CVec ca = pair_c(u(0, 0), u(1, 0));
    const CVec cb = pair_c(u(0, 1), u(1, 1));
    for (Index base = 0; base < n; base += 2 * mhi)
      for (Index i = base + mhi; i < base + 2 * mhi; i += 2) {
        double* p = a + 2 * i;
        const __m256d v = _mm256_loadu_pd(p);
        _mm256_storeu_pd(p, _mm256_add_pd(cmul_vec(ca, dup_lo(v)),
                                          cmul_vec(cb, dup_hi(v))));
      }
    return;
  }
  // control == 0: the touched pairs are the odd elements, stride-2 apart —
  // no contiguous runs to vectorize. Scalar formulas (FMA-contracted by
  // this TU's flags, still within the 1e-12 envelope).
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  Complex* c = amps;
  for (Index base = 0; base < n; base += 2 * mhi)
    for (Index i = base; i < base + mhi; i += 2) {
      const Index i0 = i | cmask;
      const Index i1 = i0 | tmask;
      const Complex a0 = c[i0];
      const Complex a1 = c[i1];
      c[i0] = Complex{u00.real() * a0.real() - u00.imag() * a0.imag() +
                          (u01.real() * a1.real() - u01.imag() * a1.imag()),
                      u00.real() * a0.imag() + u00.imag() * a0.real() +
                          (u01.real() * a1.imag() + u01.imag() * a1.real())};
      c[i1] = Complex{u10.real() * a0.real() - u10.imag() * a0.imag() +
                          (u11.real() * a1.real() - u11.imag() * a1.imag()),
                      u10.real() * a0.imag() + u10.imag() * a0.real() +
                          (u11.real() * a1.imag() + u11.imag() * a1.real())};
    }
}

Mat2 adjoint_sweep_1q_avx2(Complex* psi, Complex* lambda, Index n,
                           const Mat2& ud, Index q) {
  double* p = reinterpret_cast<double*>(psi);
  double* l = reinterpret_cast<double*>(lambda);
  const Index stride = Index{1} << q;
  AdjointSweep sweep(ud);
  if (stride >= 2) {
    for (Index base = 0; base < n; base += 2 * stride)
      for (Index i0 = base; i0 < base + stride; i0 += 2)
        sweep.run_contiguous(p, l, i0, stride);
  } else {
    sweep.run_gathered(p, l, n / 2, 1, [](Index j) { return 2 * j; });
  }
  return sweep.result();
}

Mat2 adjoint_sweep_controlled_1q_avx2(Complex* psi, Complex* lambda, Index n,
                                      const Mat2& ud, Index control,
                                      Index target) {
  double* p = reinterpret_cast<double*>(psi);
  double* l = reinterpret_cast<double*>(lambda);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index mlo = Index{1} << lo;
  const Index mhi = Index{1} << hi;
  AdjointSweep sweep(ud);
  if (lo >= 1) {
    // Runs of mlo >= 2 base indices, as in apply_controlled_1q_avx2.
    for (Index base = 0; base < n; base += 2 * mhi)
      for (Index mid = base; mid < base + mhi; mid += 2 * mlo)
        for (Index i = mid; i < mid + mlo; i += 2)
          sweep.run_contiguous(p, l, i | cmask, tmask);
  } else {
    // control == 0 (odd, stride-2 pairs) or target == 0 (adjacent pairs).
    sweep.run_gathered(p, l, n / 4, tmask, [=](Index j) {
      return insert_two_zero_bits(j, lo, hi) | cmask;
    });
  }
  return sweep.result();
}

}  // namespace qugeo::qsim

#else  // !QUGEO_WITH_AVX2_KERNELS

namespace qugeo::qsim {

namespace {
[[noreturn]] void no_avx2() {
  // Unreachable through normal dispatch: simd::active_level() can only
  // report kAvx2 when this TU was compiled with the real kernels.
  throw std::logic_error("AVX2 kernels not compiled into this binary");
}
}  // namespace

void apply_1q_avx2(Complex*, Index, const Mat2&, Index) { no_avx2(); }
void apply_controlled_1q_avx2(Complex*, Index, const Mat2&, Index, Index) {
  no_avx2();
}
Mat2 adjoint_sweep_1q_avx2(Complex*, Complex*, Index, const Mat2&, Index) {
  no_avx2();
}
Mat2 adjoint_sweep_controlled_1q_avx2(Complex*, Complex*, Index, const Mat2&,
                                      Index, Index) {
  no_avx2();
}

}  // namespace qugeo::qsim

#endif  // QUGEO_WITH_AVX2_KERNELS
