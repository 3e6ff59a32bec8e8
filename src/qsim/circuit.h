// Circuit intermediate representation: an ordered list of gate operations
// whose rotation angles are either literal constants or references into an
// external trainable-parameter table.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "qsim/gate.h"

namespace qugeo::qsim {

/// Sentinel marking an op angle as a literal (not trainable).
inline constexpr std::uint32_t kLiteralParam = 0xffffffffu;

/// Sentinel marking an op as carrying no dense-matrix reference.
inline constexpr std::uint32_t kNoMatrix = 0xffffffffu;

/// One gate application. For controlled gates qubits[0] is the control.
struct Op {
  GateKind kind = GateKind::kI;
  std::array<Index, 2> qubits{0, 0};
  /// Per-angle parameter table indices (kLiteralParam => use literals[i]).
  std::array<std::uint32_t, 3> param_ids{kLiteralParam, kLiteralParam, kLiteralParam};
  std::array<Real, 3> literals{0, 0, 0};
  /// For kFused2Q: index into the owning Circuit's Mat4 side table
  /// (Circuit::matrix resolves it). kNoMatrix for every other kind.
  std::uint32_t matrix_id = kNoMatrix;
};

/// Reference to a trainable parameter slot in a Circuit's table.
struct ParamRef {
  std::uint32_t id = kLiteralParam;
};

class Circuit {
 public:
  explicit Circuit(Index num_qubits) : num_qubits_(num_qubits) {}

  [[nodiscard]] Index num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t num_ops() const noexcept { return ops_.size(); }
  [[nodiscard]] std::size_t num_params() const noexcept { return num_params_; }
  [[nodiscard]] std::span<const Op> ops() const noexcept { return ops_; }

  /// Allocate a fresh trainable parameter slot.
  [[nodiscard]] ParamRef new_param() { return ParamRef{num_params_++}; }

  /// Allocate `n` consecutive trainable parameter slots; returns the first.
  [[nodiscard]] ParamRef new_params(std::uint32_t n) {
    const ParamRef first{num_params_};
    num_params_ += n;
    return first;
  }

  // ---- fixed gates -------------------------------------------------------
  void x(Index q) { push1(GateKind::kX, q); }
  void y(Index q) { push1(GateKind::kY, q); }
  void z(Index q) { push1(GateKind::kZ, q); }
  void h(Index q) { push1(GateKind::kH, q); }
  void s(Index q) { push1(GateKind::kS, q); }
  void sdg(Index q) { push1(GateKind::kSdg, q); }
  void t(Index q) { push1(GateKind::kT, q); }
  void tdg(Index q) { push1(GateKind::kTdg, q); }
  void cx(Index control, Index target) { push2(GateKind::kCX, control, target); }
  void cz(Index control, Index target) { push2(GateKind::kCZ, control, target); }
  void swap(Index a, Index b) { push2(GateKind::kSWAP, a, b); }

  /// Append a dense two-qubit unitary on (a, b). The 2-bit sub-index of
  /// `u` uses bit 0 = qubit a, bit 1 = qubit b. Produced by the optimizer's
  /// two-qubit run fusion; execution-internal (no QASM form, not noisy-path
  /// legal — see optimizer.h fusion legality rules).
  void fused2q(Index a, Index b, const Mat4& u);

  /// Append a block-diagonal two-qubit unitary: `u` (same sub-index
  /// convention, bit 0 = control) must have zero control-mixing entries —
  /// it applies one 2x2 block to `target` per control value, which the
  /// statevector executes with the fast dual half-space kernel. Throws if
  /// `u` is not exactly block-diagonal in the control bit.
  void fused_ctl2q(Index control, Index target, const Mat4& u);

  // ---- rotations with literal angles -------------------------------------
  void rx(Index q, Real angle) { push_rot(GateKind::kRX, q, angle); }
  void ry(Index q, Real angle) { push_rot(GateKind::kRY, q, angle); }
  void rz(Index q, Real angle) { push_rot(GateKind::kRZ, q, angle); }
  void phase(Index q, Real angle) { push_rot(GateKind::kPhase, q, angle); }
  void u3(Index q, Real theta, Real phi, Real lambda);
  void cry(Index control, Index target, Real angle);
  void cu3(Index control, Index target, Real theta, Real phi, Real lambda);

  // ---- rotations bound to trainable parameters ---------------------------
  void rx(Index q, ParamRef p) { push_rot(GateKind::kRX, q, p); }
  void ry(Index q, ParamRef p) { push_rot(GateKind::kRY, q, p); }
  void rz(Index q, ParamRef p) { push_rot(GateKind::kRZ, q, p); }
  void phase(Index q, ParamRef p) { push_rot(GateKind::kPhase, q, p); }
  /// U3 consuming three consecutive parameter slots starting at p.
  void u3(Index q, ParamRef p);
  /// U3 with each angle chosen on its own: slots[i] names a trainable
  /// parameter, or is ParamRef{} (kLiteralParam) to use literals[i].
  void u3(Index q, const std::array<ParamRef, 3>& slots,
          const std::array<Real, 3>& literals);
  void cry(Index control, Index target, ParamRef p);
  /// CU3 consuming three consecutive parameter slots starting at p.
  void cu3(Index control, Index target, ParamRef p);

  /// Append all ops of another circuit (parameter ids are shifted so the
  /// two tables concatenate). Returns the id offset applied.
  std::uint32_t append(const Circuit& other);

  /// Longest chain of qubit-overlapping ops (simple ASAP depth metric).
  [[nodiscard]] std::size_t depth() const;

  /// Count ops acting on >= 2 qubits.
  [[nodiscard]] std::size_t two_qubit_op_count() const;

  /// Resolve the three angle values of an op against a parameter table.
  [[nodiscard]] static std::array<Real, 3> resolve_params(
      const Op& op, std::span<const Real> table);

  /// Dense-matrix side table (one entry per kFused2Q op).
  [[nodiscard]] std::span<const Mat4> matrices() const noexcept { return mats_; }

  /// The 4x4 matrix a kFused2Q / kFusedCtl2Q op references; throws for
  /// other kinds or a dangling matrix_id (an op detached from its owning
  /// circuit).
  [[nodiscard]] const Mat4& matrix(const Op& op) const;

 private:
  void push1(GateKind kind, Index q);
  void push2(GateKind kind, Index a, Index b);
  void push_rot(GateKind kind, Index q, Real angle);
  void push_rot(GateKind kind, Index q, ParamRef p);
  void check_qubit(Index q) const;

  Index num_qubits_;
  std::vector<Op> ops_;
  std::vector<Mat4> mats_;
  std::uint32_t num_params_ = 0;
};

}  // namespace qugeo::qsim
