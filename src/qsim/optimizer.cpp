#include "qsim/optimizer.h"

#include <cmath>
#include <optional>

namespace qugeo::qsim {
namespace {

bool is_self_inverse(GateKind kind) {
  switch (kind) {
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kSWAP:
      return true;
    case GateKind::kI:  // identity pairs are dropped earlier, not here
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
    case GateKind::kU3:
    case GateKind::kCRY:
    case GateKind::kCU3:
      return false;
  }
  return false;
}

bool is_literal_rotation(const Op& op) {
  switch (op.kind) {
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
      return op.param_ids[0] == kLiteralParam;
    case GateKind::kI:
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kU3:  // 3-parameter: no single identity-angle test
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kCRY:
    case GateKind::kCU3:
    case GateKind::kSWAP:
      return false;
  }
  return false;
}

bool same_operands(const Op& a, const Op& b) {
  const int nq = gate_qubit_count(a.kind);
  if (a.kind == GateKind::kSWAP && b.kind == GateKind::kSWAP) {
    return (a.qubits[0] == b.qubits[0] && a.qubits[1] == b.qubits[1]) ||
           (a.qubits[0] == b.qubits[1] && a.qubits[1] == b.qubits[0]);
  }
  if (a.qubits[0] != b.qubits[0]) return false;
  return nq == 1 || a.qubits[1] == b.qubits[1];
}

bool touches_qubit(const Op& op, Index q) {
  if (op.qubits[0] == q) return true;
  return gate_qubit_count(op.kind) == 2 && op.qubits[1] == q;
}

bool ops_commute_trivially(const Op& a, const Op& b) {
  // Conservative: ops on disjoint qubit sets commute.
  if (touches_qubit(b, a.qubits[0])) return false;
  if (gate_qubit_count(a.kind) == 2 && touches_qubit(b, a.qubits[1]))
    return false;
  return true;
}

/// Angle normalized to (-2pi, 2pi]; rotations have period 4pi in SU(2) but
/// global phase is irrelevant for RX/RY, and we only drop exact multiples
/// of 4pi (plus exact 0) to stay safe for RZ/Phase.
bool is_identity_angle(GateKind kind, Real angle, Real eps) {
  const Real period = kind == GateKind::kPhase ? 2 * kPi : 4 * kPi;
  const Real r = std::remainder(angle, period);
  return std::abs(r) <= eps;
}

/// Re-emit one surviving op into `result` through the public builder API.
void emit_op(Circuit& result, const Op& op) {
  const bool trainable = op.param_ids[0] != kLiteralParam;
  switch (op.kind) {
    case GateKind::kI: break;
    case GateKind::kX: result.x(op.qubits[0]); break;
    case GateKind::kY: result.y(op.qubits[0]); break;
    case GateKind::kZ: result.z(op.qubits[0]); break;
    case GateKind::kH: result.h(op.qubits[0]); break;
    case GateKind::kS: result.s(op.qubits[0]); break;
    case GateKind::kSdg: result.sdg(op.qubits[0]); break;
    case GateKind::kT: result.t(op.qubits[0]); break;
    case GateKind::kTdg: result.tdg(op.qubits[0]); break;
    case GateKind::kRX:
      trainable ? result.rx(op.qubits[0], ParamRef{op.param_ids[0]})
                : result.rx(op.qubits[0], op.literals[0]);
      break;
    case GateKind::kRY:
      trainable ? result.ry(op.qubits[0], ParamRef{op.param_ids[0]})
                : result.ry(op.qubits[0], op.literals[0]);
      break;
    case GateKind::kRZ:
      trainable ? result.rz(op.qubits[0], ParamRef{op.param_ids[0]})
                : result.rz(op.qubits[0], op.literals[0]);
      break;
    case GateKind::kPhase:
      trainable ? result.phase(op.qubits[0], ParamRef{op.param_ids[0]})
                : result.phase(op.qubits[0], op.literals[0]);
      break;
    case GateKind::kU3:
      result.u3(op.qubits[0],
                {ParamRef{op.param_ids[0]}, ParamRef{op.param_ids[1]},
                 ParamRef{op.param_ids[2]}},
                op.literals);
      break;
    case GateKind::kCX: result.cx(op.qubits[0], op.qubits[1]); break;
    case GateKind::kCZ: result.cz(op.qubits[0], op.qubits[1]); break;
    case GateKind::kCRY:
      trainable ? result.cry(op.qubits[0], op.qubits[1], ParamRef{op.param_ids[0]})
                : result.cry(op.qubits[0], op.qubits[1], op.literals[0]);
      break;
    case GateKind::kCU3:
      trainable ? result.cu3(op.qubits[0], op.qubits[1], ParamRef{op.param_ids[0]})
                : result.cu3(op.qubits[0], op.qubits[1], op.literals[0],
                             op.literals[1], op.literals[2]);
      break;
    case GateKind::kSWAP: result.swap(op.qubits[0], op.qubits[1]); break;
  }
}

/// One pass; returns true if anything changed.
bool pass(std::vector<std::optional<Op>>& ops, const OptimizeOptions& opt,
          OptimizeStats& stats) {
  bool changed = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i]) continue;
    Op& a = *ops[i];

    if (opt.drop_identity_rotations && is_literal_rotation(a) &&
        is_identity_angle(a.kind, a.literals[0], opt.angle_epsilon)) {
      ops[i].reset();
      ++stats.dropped_identities;
      changed = true;
      continue;
    }

    // Find the next op that shares a qubit with `a`, skipping commuting ops.
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      if (!ops[j]) continue;
      const Op& b = *ops[j];
      if (ops_commute_trivially(a, b)) continue;

      if (opt.cancel_self_inverse && is_self_inverse(a.kind) &&
          a.kind == b.kind && same_operands(a, b)) {
        ops[i].reset();
        ops[j].reset();
        ++stats.cancelled_pairs;
        changed = true;
      } else if (opt.fuse_rotations && is_literal_rotation(a) &&
                 a.kind == b.kind && is_literal_rotation(b) &&
                 same_operands(a, b)) {
        Op fused = a;
        fused.literals[0] = a.literals[0] + b.literals[0];
        ops[i] = fused;
        ops[j].reset();
        ++stats.fused_rotations;
        changed = true;
      }
      break;  // b blocks further lookahead whether or not we rewrote
    }
  }
  return changed;
}

}  // namespace

Circuit optimize_circuit(const Circuit& circuit, const OptimizeOptions& options,
                         OptimizeStats* stats_out) {
  OptimizeStats stats;
  stats.ops_before = circuit.num_ops();

  std::vector<std::optional<Op>> ops(circuit.ops().begin(), circuit.ops().end());
  while (pass(ops, options, stats)) {
  }

  // Rebuild through the public API: preallocate the identical parameter
  // table (ids are preserved verbatim), then re-emit surviving ops.
  Circuit result(circuit.num_qubits());
  if (circuit.num_params() > 0)
    (void)result.new_params(static_cast<std::uint32_t>(circuit.num_params()));
  for (const auto& maybe_op : ops)
    if (maybe_op) emit_op(result, *maybe_op);

  stats.ops_after = result.num_ops();
  if (stats_out) *stats_out = stats;
  return result;
}

}  // namespace qugeo::qsim
