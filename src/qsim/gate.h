// Gate library: kinds, parameter arities, unitary matrices, and analytic
// parameter derivatives. The set mirrors what TorchQuantum's `U3+CU3`
// ansatz and the ST-Encoder synthesis need, plus the standard Cliffords.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/types.h"

namespace qugeo::qsim {

/// Supported gate kinds. Single-qubit gates act on qubits[0]; controlled
/// gates use qubits[0] as control and qubits[1] as target; SWAP is
/// symmetric in its two operands.
///
/// kFused2Q and kFusedCtl2Q are execution-internal kinds produced by the
/// optimizer's two-qubit run fusion: a 4x4 unitary on
/// (qubits[0], qubits[1]) whose matrix lives in the owning Circuit's side
/// table (Op::matrix_id). kFusedCtl2Q is the block-diagonal special case —
/// the matrix applies one 2x2 block to the target (qubits[1]) per value of
/// the control (qubits[0]), executed by the fast dual half-space kernel;
/// kFused2Q is the dense general case. Neither has parameters, a QASM
/// mnemonic, or a 2x2 block form; both are executed by run_circuit /
/// run_circuit_density via the Mat4 kernels.
enum class GateKind : std::uint8_t {
  kI,
  kX,
  kY,
  kZ,
  kH,
  kS,
  kSdg,
  kT,
  kTdg,
  kRX,
  kRY,
  kRZ,
  kPhase,
  kU3,
  kCX,
  kCZ,
  kCRY,
  kCU3,
  kSWAP,
  kFused2Q,
  kFusedCtl2Q,
};

/// Structural class of a gate's 2x2 block (for controlled gates, of the
/// target block). Drives kernel dispatch in the executor: diagonal blocks
/// need no cross terms, anti-diagonal blocks are pure amplitude swaps.
enum class GateClass : std::uint8_t {
  kGeneric,       ///< dense 2x2: H, RX, RY, U3, CRY, CU3
  kDiagonal,      ///< phase-only: I, Z, S, Sdg, T, Tdg, RZ, Phase, CZ
  kAntiDiagonal,  ///< off-diagonal-only: X, Y, CX
};

/// Kernel class of the gate's 2x2 block (SWAP reports kGeneric; it is
/// dispatched before class-based selection).
[[nodiscard]] GateClass gate_class(GateKind kind) noexcept;

/// 2x2 complex matrix in row-major order.
struct Mat2 {
  std::array<Complex, 4> m{};  // [row*2 + col]
  [[nodiscard]] Complex operator()(int r, int c) const { return m[static_cast<std::size_t>(r * 2 + c)]; }
  Complex& operator()(int r, int c) { return m[static_cast<std::size_t>(r * 2 + c)]; }
};

/// 4x4 complex matrix in row-major order over a two-qubit sub-basis. The
/// sub-index convention is fixed by the op that carries the matrix: bit 0
/// of the 2-bit sub-index is the first operand qubit (qubits[0]), bit 1 is
/// the second (qubits[1]).
struct Mat4 {
  std::array<Complex, 16> m{};  // [row*4 + col]
  [[nodiscard]] Complex operator()(int r, int c) const { return m[static_cast<std::size_t>(r * 4 + c)]; }
  Complex& operator()(int r, int c) { return m[static_cast<std::size_t>(r * 4 + c)]; }
};

/// Number of classical parameters the gate kind consumes (0, 1, or 3).
[[nodiscard]] int gate_param_count(GateKind kind) noexcept;

/// Number of qubit operands (1 or 2).
[[nodiscard]] int gate_qubit_count(GateKind kind) noexcept;

/// True for two-qubit gates whose action is "apply a 1-qubit matrix on the
/// target when the control is |1>" (CX, CZ, CRY, CU3).
[[nodiscard]] bool gate_is_controlled_1q(GateKind kind) noexcept;

/// Lowercase OpenQASM-compatible mnemonic ("u3", "cx", ...).
[[nodiscard]] std::string_view gate_name(GateKind kind) noexcept;

/// Build the 2x2 matrix for a single-qubit kind (or the target-block matrix
/// of a controlled kind). `params` must hold gate_param_count(kind) values
/// (for controlled kinds, the inner gate's parameters).
[[nodiscard]] Mat2 gate_matrix(GateKind kind, std::span<const Real> params);

/// A parameterized gate's 2x2 block together with its analytic derivative
/// with respect to every parameter slot.
struct GateDerivs {
  Mat2 u;                  ///< bit-identical to gate_matrix(kind, params)
  std::array<Mat2, 3> du;  ///< du[s] = dU/d(params[s]), s < gate_param_count
};

/// gate_matrix and all of its slot derivatives from one evaluation of the
/// trig terms. Throws std::invalid_argument for kinds without parameters.
[[nodiscard]] GateDerivs gate_matrix_derivs(GateKind kind,
                                            std::span<const Real> params);

/// Hermitian conjugate.
[[nodiscard]] Mat2 dagger(const Mat2& u) noexcept;

/// Hermitian conjugate of a two-qubit matrix.
[[nodiscard]] Mat4 dagger(const Mat4& u) noexcept;

/// Row-major 4x4 product a * b.
[[nodiscard]] Mat4 matmul(const Mat4& a, const Mat4& b) noexcept;

/// General U3(theta, phi, lambda) rotation (OpenQASM u3 convention).
[[nodiscard]] Mat2 u3_matrix(Real theta, Real phi, Real lambda) noexcept;

}  // namespace qugeo::qsim
