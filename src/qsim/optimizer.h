// Circuit rewriting: peephole optimization, gate-run fusion, and the
// backend canonicalization pipeline.
//
// Three pass families live here:
//  1. Peephole passes (optimize_circuit): cancel adjacent self-inverse
//     pairs, fuse literal rotations, drop identity rotations. Safe before
//     QASM export or depth accounting.
//  2. Single-qubit run fusion (fuse_gate_runs): collapse maximal runs of
//     literal 1q gates into one U3 (or one Phase when diagonal).
//  3. Two-qubit run fusion (fuse_two_qubit_runs): collapse maximal runs of
//     literal gates on one qubit pair — interleaved with literal 1q gates
//     on those qubits — into a single dense 4x4 unitary (GateKind::kFused2Q,
//     executed by StateVector::apply_matrix2q / DensityMatrix::apply_2q).
//
// Backends run 2 then 3 via canonicalize_for_backend on their NOISELESS
// paths only; see the fusion legality rules below.
#pragma once

#include <span>

#include "qsim/circuit.h"

namespace qugeo::qsim {

struct OptimizeOptions {
  bool cancel_self_inverse = true;  ///< X X, H H, Z Z, CX CX, CZ CZ, SWAP SWAP
  bool fuse_rotations = true;       ///< RX(a) RX(b) -> RX(a+b) (literals only)
  bool drop_identity_rotations = true;  ///< RX(0), RZ(2*k*2pi), P(0), ...
  Real angle_epsilon = 1e-12;           ///< |angle mod 4pi| below this is identity
};

struct OptimizeStats {
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t cancelled_pairs = 0;
  std::size_t fused_rotations = 0;
  std::size_t dropped_identities = 0;
};

/// Run the peephole passes to a fixed point and return the optimized
/// circuit. The result references the same trainable parameter table (ids
/// are preserved verbatim; num_params is unchanged).
[[nodiscard]] Circuit optimize_circuit(const Circuit& circuit,
                                       const OptimizeOptions& options = {},
                                       OptimizeStats* stats = nullptr);

struct FuseStats {
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t fused_runs = 0;           ///< runs collapsed into one U3
  std::size_t merged_diagonal_runs = 0; ///< runs collapsed into one Phase
};

/// \brief Collapse every maximal run of >= 2 literal (non-trainable)
/// single-qubit gates on one qubit into a single gate.
///
/// The replacement is a Phase op when the product is exactly diagonal (so
/// the fast diagonal kernel executes it), otherwise a literal U3. Ops on
/// other qubits may sit inside a run (they commute with it); trainable
/// gates, SWAPs, and controlled gates touching the qubit end the run.
///
/// \par Fusion legality rules (shared by every fusion pass here)
///  - Only LITERAL gates fuse: a trainable angle is unknown at fusion
///    time, so any trainable op ends the runs on every qubit it touches.
///  - The fused circuit equals the original up to an unobservable global
///    phase per fused run; probabilities, expectations, and fidelities are
///    preserved exactly (pinned to 1e-10 by the test suites).
///  - Fusion does NOT preserve the gate COUNT, so it must never run before
///    noisy execution: k fused gates would contribute one per-gate noise
///    insertion point instead of k. Backends therefore canonicalize only
///    their noiseless (or readout-only, whose single insertion point is
///    the end of the circuit) paths; run_circuit_noisy rejects fused ops.
///
/// Circuits with no fusable runs are returned with an op-for-op identical
/// stream (bit-identical execution).
[[nodiscard]] Circuit fuse_gate_runs(const Circuit& circuit,
                                     FuseStats* stats = nullptr);

struct Fuse2QStats {
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t fused_runs = 0;      ///< pair runs rewritten (all forms below)
  std::size_t ctl_runs = 0;        ///< emitted as block-diagonal kFusedCtl2Q
  std::size_t dense_runs = 0;      ///< emitted as dense kFused2Q
  std::size_t collapsed_runs = 0;  ///< product was (scalar) identity / 1q-only
  std::size_t absorbed_ops = 0;    ///< total ops folded into rewritten runs
};

/// \brief Collapse every maximal run of literal gates on one qubit PAIR
/// into at most two ops, structure-aware.
///
/// A pair run opens at a literal two-qubit gate (CX, CZ, SWAP, literal
/// CRY/CU3, or an existing fused op) on qubits {a, b} and greedily absorbs,
/// in program order:
///  - further literal two-qubit gates on the same unordered pair {a, b}
///    (either operand orientation), and
///  - literal single-qubit gates on a or b that sit between them (they are
///    buffered, then folded in when the next same-pair gate arrives —
///    trailing 1q gates with no two-qubit successor are left untouched).
///
/// Any other op touching a or b — a trainable gate, or a literal two-qubit
/// gate on an overlapping but different pair — ends the run. A run that
/// absorbed >= 2 ops is rewritten at the position of its opening gate
/// (exact: everything between its constituents acts on other qubits, or is
/// itself absorbed); a run of one op re-emits the original.
///
/// \par Emission forms (cheapest exact representation wins)
/// Alongside the dense 4x4 product, the pass tracks the factorization
/// P = D * (C (x) I) per candidate control qubit, where C is a 2x2 on the
/// control and D is block-diagonal in it (one target block per control
/// value) — the closed form of CU3/CX/CZ/CRY runs with target-side 1q
/// gates. At flush:
///  - product == identity (up to global phase): the run vanishes;
///  - D == I (x) U: plain 1q gate(s) — C on control, U on target;
///  - factorization holds: optional 1q C-gate + one kFusedCtl2Q, executed
///    by the dual half-space kernel (apply_block_diag_2q, ~2x the dense
///    kernel's throughput);
///  - otherwise: one dense kFused2Q (apply_matrix2q).
/// The legality rules documented on fuse_gate_runs apply unchanged.
[[nodiscard]] Circuit fuse_two_qubit_runs(const Circuit& circuit,
                                          Fuse2QStats* stats = nullptr);

/// O(ops) probe with no allocations beyond a per-qubit flag: would
/// fuse_gate_runs change this circuit at all? False for the all-trainable
/// QuGeoVQC ansatz, letting backends run the original circuit by reference
/// instead of copying a canonical form per execution.
[[nodiscard]] bool has_fusable_runs(const Circuit& circuit);

/// O(ops) probe mirroring fuse_two_qubit_runs' run tracking: would the
/// two-qubit pass change this circuit at all?
[[nodiscard]] bool has_fusable_two_qubit_runs(const Circuit& circuit);

/// \brief Resolve every trainable angle of `circuit` against `params` and
/// return an equivalent all-literal circuit (num_params == 0).
///
/// The frozen form is what a deployed (inference-only) model executes: once
/// angles are literals, BOTH fusion passes can collapse the U3+CU3 ansatz
/// structure, which the trainable original forbids. `params` must hold at
/// least circuit.num_params() values.
[[nodiscard]] Circuit bind_parameters(const Circuit& circuit,
                                      std::span<const Real> params);

/// \brief The canonicalization every Backend applies before executing a
/// circuit on a noiseless path: fuse_gate_runs, then fuse_two_qubit_runs.
///
/// Kept as a named entry point so backend-neutral rewrites hook in one
/// place. Pure and deterministic: the same input circuit always yields the
/// same canonical form, which is what makes CompiledCircuitCache
/// (compile_cache.h) sound — it memoizes this function keyed by circuit
/// structure + backend kind. Callers gate it on the has_fusable_* probes.
[[nodiscard]] Circuit canonicalize_for_backend(const Circuit& circuit);

}  // namespace qugeo::qsim
