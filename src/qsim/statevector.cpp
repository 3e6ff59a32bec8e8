#include "qsim/statevector.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/cpu_features.h"
#include "common/math_utils.h"
#include "qsim/simd_kernels.h"

namespace qugeo::qsim {

namespace {
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

Real StateVector::fidelity(const StateVector& other) const {
  if (other.dim() != dim())
    throw std::invalid_argument("fidelity: dimension mismatch");
  Complex ip{0, 0};
  for (Index k = 0; k < amps_.size(); ++k)
    ip += std::conj(amps_[k]) * other.amps_[k];
  return std::norm(ip);
}

}  // namespace qugeo::qsim
