#include "qsim/statevector.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/cpu_features.h"
#include "common/math_utils.h"
#include "qsim/simd_kernels.h"

namespace qugeo::qsim {

namespace {
constexpr Complex kOne{1, 0};

/// One relaxed load per kernel call decides scalar vs AVX2 dispatch; the
/// scalar bodies below are byte-for-byte the pre-SIMD kernels, so
/// QUGEO_SIMD=scalar reproduces historical results bit-exactly.
bool use_avx2() noexcept {
  return simd::active_level() == simd::SimdLevel::kAvx2;
}
}  // namespace

StateVector::StateVector(Index num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits > 28)
    throw std::invalid_argument("StateVector: too many qubits for dense sim");
  amps_.assign(Index{1} << num_qubits, Complex{0, 0});
  amps_[0] = Complex{1, 0};
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), Complex{0, 0});
  amps_[0] = Complex{1, 0};
}

void StateVector::set_amplitudes(std::span<const Complex> amps) {
  if (amps.size() != amps_.size())
    throw std::invalid_argument("set_amplitudes: dimension mismatch");
  std::copy(amps.begin(), amps.end(), amps_.begin());
}

void StateVector::set_amplitudes_real(std::span<const Real> amps) {
  if (amps.size() != amps_.size())
    throw std::invalid_argument("set_amplitudes_real: dimension mismatch");
  for (Index k = 0; k < amps_.size(); ++k) amps_[k] = Complex{amps[k], 0};
}

Real StateVector::norm_sq() const noexcept {
  Real s = 0;
  for (const Complex& a : amps_) s += std::norm(a);
  return s;
}

void StateVector::apply_1q(const Mat2& u, Index q) {
  assert(q < num_qubits_);
  if (use_avx2()) {
    apply_1q_avx2(amps_.data(), amps_.size(), u, q);
    return;
  }
  const Index stride = Index{1} << q;
  const Index n = amps_.size();
  // Hoist the matrix into locals: amps_ and u are both Complex storage, so
  // without this the compiler must reload u after every amplitude store.
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  Complex* a = amps_.data();
  for (Index base = 0; base < n; base += stride * 2) {
    for (Index off = 0; off < stride; ++off) {
      const Index i0 = base + off;
      const Index i1 = i0 + stride;
      const Complex a0 = a[i0];
      const Complex a1 = a[i1];
      a[i0] = cmul(u00, a0) + cmul(u01, a1);
      a[i1] = cmul(u10, a0) + cmul(u11, a1);
    }
  }
}

void StateVector::apply_diag_1q(Complex d0, Complex d1, Index q) {
  assert(q < num_qubits_);
  const Index stride = Index{1} << q;
  const Index half = amps_.size() / 2;
  Complex* a = amps_.data();
  if (d0 == kOne && d1 == kOne) return;  // identity
  if (d0 == kOne) {
    // Z/S/T/Phase (and RZ up to global phase do not hit this): only the
    // q=|1> half-space picks up a phase.
    for (Index j = 0; j < half; ++j) {
      const Index i1 = insert_zero_bit(j, q) | stride;
      a[i1] = cmul(a[i1], d1);
    }
    return;
  }
  for (Index j = 0; j < half; ++j) {
    const Index i0 = insert_zero_bit(j, q);
    const Index i1 = i0 | stride;
    a[i0] = cmul(a[i0], d0);
    a[i1] = cmul(a[i1], d1);
  }
}

void StateVector::apply_antidiag_1q(Complex a01, Complex a10, Index q) {
  assert(q < num_qubits_);
  const Index stride = Index{1} << q;
  const Index half = amps_.size() / 2;
  Complex* a = amps_.data();
  if (a01 == kOne && a10 == kOne) {  // X: pure swap
    for (Index j = 0; j < half; ++j) {
      const Index i0 = insert_zero_bit(j, q);
      std::swap(a[i0], a[i0 | stride]);
    }
    return;
  }
  for (Index j = 0; j < half; ++j) {
    const Index i0 = insert_zero_bit(j, q);
    const Index i1 = i0 | stride;
    const Complex a0 = a[i0];
    a[i0] = cmul(a01, a[i1]);
    a[i1] = cmul(a10, a0);
  }
}

void StateVector::apply_controlled_1q(const Mat2& u, Index control, Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  if (use_avx2()) {
    apply_controlled_1q_avx2(amps_.data(), amps_.size(), u, control, target);
    return;
  }
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = amps_.size() / 4;
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  Complex* a = amps_.data();
  // Iterate the control=|1> half-space directly: j enumerates the free
  // bits, the control/target bits are re-inserted, so there is no skipped
  // half and no branch in the loop body.
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    const Complex a0 = a[i0];
    const Complex a1 = a[i1];
    a[i0] = cmul(u00, a0) + cmul(u01, a1);
    a[i1] = cmul(u10, a0) + cmul(u11, a1);
  }
}

void StateVector::apply_controlled_diag_1q(Complex d0, Complex d1,
                                           Index control, Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = amps_.size() / 4;
  Complex* a = amps_.data();
  if (d0 == kOne && d1 == kOne) return;
  if (d0 == kOne) {
    // CZ/CS/CT: only the control=target=|1> quarter-space is touched.
    for (Index j = 0; j < quarter; ++j) {
      const Index i1 = insert_two_zero_bits(j, lo, hi) | cmask | tmask;
      a[i1] = cmul(a[i1], d1);
    }
    return;
  }
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    a[i0] = cmul(a[i0], d0);
    a[i1] = cmul(a[i1], d1);
  }
}

void StateVector::apply_controlled_antidiag_1q(Complex a01, Complex a10,
                                               Index control, Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = amps_.size() / 4;
  Complex* a = amps_.data();
  if (a01 == kOne && a10 == kOne) {  // CX: swap inside the control half
    for (Index j = 0; j < quarter; ++j) {
      const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
      std::swap(a[i0], a[i0 | tmask]);
    }
    return;
  }
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    const Complex a0 = a[i0];
    a[i0] = cmul(a01, a[i1]);
    a[i1] = cmul(a10, a0);
  }
}

void StateVector::apply_swap(Index a, Index b) {
  assert(a < num_qubits_ && b < num_qubits_);
  if (a == b) return;
  const Index ma = Index{1} << a;
  const Index mb = Index{1} << b;
  const Index lo = a < b ? a : b;
  const Index hi = a < b ? b : a;
  const Index quarter = amps_.size() / 4;
  Complex* amp = amps_.data();
  // Standard two-mask half-space iteration: enumerate the free bits and
  // exchange the |01> / |10> pair of each quadruple directly.
  for (Index j = 0; j < quarter; ++j) {
    const Index base = insert_two_zero_bits(j, lo, hi);
    std::swap(amp[base | ma], amp[base | mb]);
  }
}

std::vector<Real> StateVector::probabilities() const {
  std::vector<Real> p(amps_.size());
  for (Index k = 0; k < amps_.size(); ++k) p[k] = std::norm(amps_[k]);
  return p;
}

std::vector<Real> StateVector::marginal_probabilities(
    std::span<const Index> qubits) const {
  std::vector<Real> p(Index{1} << qubits.size(), Real(0));
  for (Index k = 0; k < amps_.size(); ++k) {
    Index out = 0;
    for (Index i = 0; i < qubits.size(); ++i)
      if (k & (Index{1} << qubits[i])) out |= Index{1} << i;
    p[out] += std::norm(amps_[k]);
  }
  return p;
}

Real StateVector::expect_z(Index q) const {
  assert(q < num_qubits_);
  const Index mask = Index{1} << q;
  Real e = 0;
  for (Index k = 0; k < amps_.size(); ++k)
    e += ((k & mask) ? Real(-1) : Real(1)) * std::norm(amps_[k]);
  return e;
}

std::vector<Real> StateVector::cumulative_probabilities() const {
  std::vector<Real> cdf(amps_.size());
  Real acc = 0;
  for (Index k = 0; k < amps_.size(); ++k) {
    acc += std::norm(amps_[k]);
    cdf[k] = acc;
  }
  return cdf;
}

std::vector<Index> StateVector::sample(Rng& rng, std::size_t shots) const {
  return sample_from_cdf(cumulative_probabilities(), rng, shots);
}

std::vector<Index> StateVector::sample_from_cdf(std::span<const Real> cdf,
                                                Rng& rng, std::size_t shots) {
  // Inverse-CDF sampling; the O(2^n) prefix sums are built once by the
  // caller, so repeated shot-readout calls cost O(shots log dim) each.
  if (cdf.empty())
    throw std::invalid_argument("sample_from_cdf: empty distribution");
  const Real total = cdf.back();
  std::vector<Index> out(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const Real r = rng.uniform() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
    out[s] = static_cast<Index>(std::distance(cdf.begin(), it));
  }
  return out;
}

Real StateVector::fidelity(const StateVector& other) const {
  if (other.dim() != dim())
    throw std::invalid_argument("fidelity: dimension mismatch");
  Complex ip{0, 0};
  for (Index k = 0; k < amps_.size(); ++k)
    ip += std::conj(amps_[k]) * other.amps_[k];
  return std::norm(ip);
}

}  // namespace qugeo::qsim
