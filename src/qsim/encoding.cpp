#include "qsim/encoding.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/math_utils.h"

namespace qugeo::qsim {

Real encode_amplitudes(std::span<const Real> data, StateVector& psi) {
  if (data.size() != psi.dim())
    throw std::invalid_argument("encode_amplitudes: dimension mismatch");
  std::vector<Real> normalized(data.begin(), data.end());
  const Real norm = normalize_l2(normalized);
  psi.set_amplitudes_real(normalized);
  return norm;
}

void encode_grouped_amplitudes(std::span<const std::vector<Real>> group_data,
                               StateVector& psi) {
  // Build the product state iteratively: amps of the joint register are the
  // outer product of per-group normalized vectors (group 0 = low qubits).
  std::vector<Real> joint{Real(1)};
  std::size_t total_qubits = 0;
  for (const auto& g : group_data) {
    if (!is_pow2(g.size()))
      throw std::invalid_argument("encode_grouped_amplitudes: group size not 2^k");
    std::vector<Real> gn(g.begin(), g.end());
    normalize_l2(gn);
    std::vector<Real> next(joint.size() * gn.size());
    // next[high * |joint| + low] = gn[high] * joint[low]
    for (std::size_t hi = 0; hi < gn.size(); ++hi)
      for (std::size_t lo = 0; lo < joint.size(); ++lo)
        next[hi * joint.size() + lo] = gn[hi] * joint[lo];
    joint = std::move(next);
    total_qubits += log2_exact(g.size());
  }
  if (psi.num_qubits() != total_qubits)
    throw std::invalid_argument("encode_grouped_amplitudes: qubit count mismatch");
  psi.set_amplitudes_real(joint);
}

void append_ucry(Circuit& c, std::span<const Real> angles,
                 std::span<const Index> controls, Index target) {
  const std::size_t k = controls.size();
  if (angles.size() != (std::size_t{1} << k))
    throw std::invalid_argument("append_ucry: need 2^k angles");
  if (k == 0) {
    c.ry(target, angles[0]);
    return;
  }
  // Transform angles into the Gray-code basis: t_i = 2^-k sum_j a_j *
  // (-1)^{popcount(j & gray(i))}.
  const std::size_t n = angles.size();
  std::vector<Real> t(n, Real(0));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t gi = i ^ (i >> 1);
    Real acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const int sign = (std::popcount(j & gi) & 1) ? -1 : 1;
      acc += static_cast<Real>(sign) * angles[j];
    }
    t[i] = acc / static_cast<Real>(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    c.ry(target, t[i]);
    // The CX control is the bit that flips between gray(i) and gray(i+1);
    // the final iteration closes the cycle on the most significant control.
    const std::size_t flip =
        (i + 1 == n) ? k - 1
                     : static_cast<std::size_t>(std::countr_zero(i + 1));
    c.cx(controls[flip], target);
  }
}

Circuit state_prep_circuit(std::span<const Real> data) {
  if (!is_pow2(data.size()))
    throw std::invalid_argument("state_prep_circuit: length not a power of two");
  const std::size_t num_qubits = log2_exact(data.size());
  Circuit c(num_qubits == 0 ? 1 : num_qubits);
  if (num_qubits == 0) return c;

  std::vector<Real> v(data.begin(), data.end());
  normalize_l2(v);

  // Disentangling sweep: zero qubit q (LSB first) with a multiplexed
  // RY(-theta); record the angles, then emit the reverse as the prep.
  struct Level {
    std::size_t qubit;
    std::vector<Real> angles;
  };
  std::vector<Level> levels;
  levels.reserve(num_qubits);
  std::vector<Real> cur = std::move(v);
  for (std::size_t q = 0; q < num_qubits; ++q) {
    const std::size_t half = cur.size() / 2;
    std::vector<Real> angles(half), next(half);
    for (std::size_t j = 0; j < half; ++j) {
      const Real x = cur[2 * j];
      const Real y = cur[2 * j + 1];
      angles[j] = 2 * std::atan2(y, x);
      next[j] = std::sqrt(x * x + y * y);
    }
    levels.push_back({q, std::move(angles)});
    cur = std::move(next);
  }

  // Prep = reverse order of disentangling, with the forward angles.
  for (std::size_t l = levels.size(); l-- > 0;) {
    const auto& lev = levels[l];
    std::vector<Index> controls;
    controls.reserve(num_qubits - lev.qubit - 1);
    for (std::size_t b = lev.qubit + 1; b < num_qubits; ++b)
      controls.push_back(b);
    append_ucry(c, lev.angles, controls, lev.qubit);
  }
  return c;
}

}  // namespace qugeo::qsim
