// Small numeric helpers used across modules.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.h"

namespace qugeo {

/// True iff @p x is a power of two (0 is not).
[[nodiscard]] constexpr bool is_pow2(std::size_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)); requires x > 0.
[[nodiscard]] constexpr std::size_t log2_floor(std::size_t x) noexcept {
  std::size_t r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// Exact log2 of a power of two; throws otherwise.
[[nodiscard]] inline std::size_t log2_exact(std::size_t x) {
  if (!is_pow2(x)) throw std::invalid_argument("log2_exact: not a power of two");
  return log2_floor(x);
}

/// Euclidean (L2) norm of a real span.
[[nodiscard]] inline Real l2_norm(std::span<const Real> v) noexcept {
  Real s = 0;
  for (Real x : v) s += x * x;
  return std::sqrt(s);
}

/// In-place L2 normalization; returns the original norm. A zero vector is
/// mapped to the |0...0> basis direction (first element 1).
inline Real normalize_l2(std::span<Real> v) noexcept {
  const Real n = l2_norm(v);
  if (n <= std::numeric_limits<Real>::min()) {
    if (!v.empty()) v[0] = Real(1);
    for (std::size_t i = 1; i < v.size(); ++i) v[i] = 0;
    return Real(0);
  }
  for (Real& x : v) x /= n;
  return n;
}

/// Complex product spelled out over real/imag parts. Bit-identical to the
/// finite-value path of operator*, but never calls the libm __muldc3 helper
/// (which GCC emits for std::complex to handle inf/nan edge cases) — this is
/// the difference between a libcall and four fused multiplies in the gate
/// kernels.
[[nodiscard]] inline Complex cmul(const Complex& a, const Complex& b) noexcept {
  return Complex{a.real() * b.real() - a.imag() * b.imag(),
                 a.real() * b.imag() + a.imag() * b.real()};
}

/// conj(a) * b, spelled out like cmul.
[[nodiscard]] inline Complex cmul_conj(const Complex& a, const Complex& b) noexcept {
  return Complex{a.real() * b.real() + a.imag() * b.imag(),
                 a.real() * b.imag() - a.imag() * b.real()};
}

/// Spread `j` so a zero bit appears at position `bit`: bits [0, bit) stay,
/// bits [bit, ...) shift up by one. The workhorse of branch-free half-space
/// iteration over a state vector.
[[nodiscard]] constexpr std::size_t insert_zero_bit(std::size_t j,
                                                    std::size_t bit) noexcept {
  const std::size_t lo = j & ((std::size_t{1} << bit) - 1);
  return ((j ^ lo) << 1) | lo;
}

/// Spread `j` so zero bits appear at positions `lo_bit` < `hi_bit` (quarter-
/// space iteration for two-qubit kernels).
[[nodiscard]] constexpr std::size_t insert_two_zero_bits(
    std::size_t j, std::size_t lo_bit, std::size_t hi_bit) noexcept {
  return insert_zero_bit(insert_zero_bit(j, lo_bit), hi_bit);
}

}  // namespace qugeo
