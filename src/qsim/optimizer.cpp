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
    case GateKind::kFused2Q:     // payload-dependent: never assume
    case GateKind::kFusedCtl2Q:
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
    case GateKind::kFused2Q:
    case GateKind::kFusedCtl2Q:
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
/// `source` resolves dense-matrix references (kFused2Q side table).
void emit_op(Circuit& result, const Op& op, const Circuit& source) {
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
    case GateKind::kFused2Q:
      result.fused2q(op.qubits[0], op.qubits[1], source.matrix(op));
      break;
    case GateKind::kFusedCtl2Q:
      result.fused_ctl2q(op.qubits[0], op.qubits[1], source.matrix(op));
      break;
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
    if (maybe_op) emit_op(result, *maybe_op, circuit);

  stats.ops_after = result.num_ops();
  if (stats_out) *stats_out = stats;
  return result;
}

namespace {

Mat2 matmul(const Mat2& a, const Mat2& b) {
  Mat2 r;
  r(0, 0) = a(0, 0) * b(0, 0) + a(0, 1) * b(1, 0);
  r(0, 1) = a(0, 0) * b(0, 1) + a(0, 1) * b(1, 1);
  r(1, 0) = a(1, 0) * b(0, 0) + a(1, 1) * b(1, 0);
  r(1, 1) = a(1, 0) * b(0, 1) + a(1, 1) * b(1, 1);
  return r;
}

/// True for a literal (non-trainable) single-qubit op that participates in
/// run fusion. SWAP and controlled gates are two-qubit; trainable angles
/// are unknown at fusion time.
bool is_fusable_1q(const Op& op) {
  if (gate_qubit_count(op.kind) != 1) return false;
  return op.param_ids[0] == kLiteralParam && op.param_ids[1] == kLiteralParam &&
         op.param_ids[2] == kLiteralParam;
}

/// A run being accumulated on one qubit.
struct PendingRun {
  Mat2 product{};          ///< U_k ... U_1 (later gates multiply on the left)
  std::size_t count = 0;
  std::size_t first_pos = 0;  ///< index of the run's first op in the stream
};

/// The cheapest single-gate representation of a 2x2 unitary `m` on qubit
/// `q`: a Phase op when exactly diagonal (the executor routes it to the
/// phase-only kernel), otherwise a literal U3. The representative drops a
/// global phase, which cannot affect probabilities or expectations.
Op one_qubit_op_from(const Mat2& m, Index q) {
  Op op;
  op.qubits = {q, q};
  if (m(0, 1) == Complex{0, 0} && m(1, 0) == Complex{0, 0}) {
    // Diagonal product: diag(d0, d1) = d0 * diag(1, d1/d0) -> Phase gate.
    op.kind = GateKind::kPhase;
    op.literals[0] = std::arg(m(1, 1) / m(0, 0));
    return op;
  }
  op.kind = GateKind::kU3;
  if (m(0, 0) == Complex{0, 0} && m(1, 1) == Complex{0, 0}) {
    // Anti-diagonal product: u3(pi, phi, lambda) = [[0, -e^il], [e^ip, 0]].
    op.literals[0] = kPi;
    op.literals[1] = std::arg(m(1, 0));
    op.literals[2] = std::arg(-m(0, 1));
    return op;
  }
  // General unitary: m = e^{i alpha} u3(theta, phi, lambda) with
  // alpha = arg(m00); theta from the column norms, phi/lambda from the
  // off-diagonal arguments relative to alpha.
  const Real alpha = std::arg(m(0, 0));
  op.literals[0] = 2 * std::atan2(std::abs(m(1, 0)), std::abs(m(0, 0)));
  op.literals[1] = std::arg(m(1, 0)) - alpha;
  op.literals[2] = std::arg(-m(0, 1)) - alpha;
  return op;
}

/// one_qubit_op_from plus the 1q pass's run accounting.
Op fused_op(const Mat2& m, Index q, FuseStats& stats) {
  const Op op = one_qubit_op_from(m, q);
  if (op.kind == GateKind::kPhase)
    ++stats.merged_diagonal_runs;
  else
    ++stats.fused_runs;
  return op;
}

}  // namespace

bool has_fusable_runs(const Circuit& circuit) {
  // Mirrors fuse_gate_runs' run tracking: a run survives ops on other
  // qubits and ends at any non-fusable op touching its qubit.
  std::vector<unsigned char> open(circuit.num_qubits(), 0);
  for (const Op& op : circuit.ops()) {
    if (is_fusable_1q(op)) {
      if (open[op.qubits[0]]) return true;
      open[op.qubits[0]] = 1;
    } else {
      open[op.qubits[0]] = 0;
      if (gate_qubit_count(op.kind) == 2) open[op.qubits[1]] = 0;
    }
  }
  return false;
}

Circuit fuse_gate_runs(const Circuit& circuit, FuseStats* stats_out) {
  FuseStats stats;
  stats.ops_before = circuit.num_ops();

  // Nothing to fuse (e.g. the all-trainable ansatz): hand back a verbatim
  // copy without staging the op stream.
  if (!has_fusable_runs(circuit)) {
    stats.ops_after = circuit.num_ops();
    if (stats_out) *stats_out = stats;
    return circuit;
  }

  const auto ops = circuit.ops();
  // Slot i holds what the rewritten stream emits at position i. A fused run
  // lands at its first op's position; ops between run members act on other
  // qubits, so they commute with the run and the placement is exact.
  std::vector<std::optional<Op>> out(ops.size());
  std::vector<PendingRun> pending(circuit.num_qubits());

  auto flush = [&](Index q) {
    PendingRun& run = pending[q];
    if (run.count == 0) return;
    if (run.count == 1) {
      out[run.first_pos] = ops[run.first_pos];  // untouched single op
    } else {
      out[run.first_pos] = fused_op(run.product, q, stats);
    }
    run.count = 0;
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (is_fusable_1q(op)) {
      const Index q = op.qubits[0];
      PendingRun& run = pending[q];
      const Mat2 u = gate_matrix(op.kind, Circuit::resolve_params(op, {}));
      if (run.count == 0) {
        run.product = u;
        run.first_pos = i;
        run.count = 1;
      } else {
        run.product = matmul(u, run.product);
        ++run.count;
      }
      continue;
    }
    // Any other op ends the run on every qubit it touches.
    flush(op.qubits[0]);
    if (gate_qubit_count(op.kind) == 2) flush(op.qubits[1]);
    out[i] = op;
  }
  for (Index q = 0; q < circuit.num_qubits(); ++q) flush(q);

  Circuit result(circuit.num_qubits());
  if (circuit.num_params() > 0)
    (void)result.new_params(static_cast<std::uint32_t>(circuit.num_params()));
  for (const auto& maybe_op : out)
    if (maybe_op) emit_op(result, *maybe_op, circuit);

  stats.ops_after = result.num_ops();
  if (stats_out) *stats_out = stats;
  return result;
}

// ------------------------------------------------------- two-qubit fusion --

namespace {

/// Literal (non-trainable) two-qubit op eligible for pair-run fusion.
bool is_fusable_2q(const Op& op) {
  if (gate_qubit_count(op.kind) != 2) return false;
  return op.param_ids[0] == kLiteralParam && op.param_ids[1] == kLiteralParam &&
         op.param_ids[2] == kLiteralParam;
}

Mat4 identity4() {
  Mat4 m;
  for (int i = 0; i < 4; ++i) m(i, i) = Complex{1, 0};
  return m;
}

/// Embed a 1-qubit matrix on one bit of the 2-bit sub-basis:
/// bit == 0 -> I (x) u (sub-index bit 0 transforms), bit == 1 -> u (x) I.
Mat4 expand_1q(const Mat2& u, int bit) {
  Mat4 m;
  for (int s = 0; s < 4; ++s) {
    const int other = (s >> (1 - bit)) & 1;
    const int b = (s >> bit) & 1;
    for (int bp = 0; bp < 2; ++bp) {
      const int sp = bit == 0 ? (other << 1) | bp : (bp << 1) | other;
      m(sp, s) = u(bp, b);
    }
  }
  return m;
}

/// The 4x4 matrix of a literal two-qubit op in the sub-basis where bit 0 is
/// qubit `qa` and bit 1 is qubit `qb` ({op.qubits} must equal {qa, qb} as
/// an unordered pair). `source` resolves kFused2Q matrix references.
Mat4 two_qubit_matrix(const Op& op, Index qa, Index qb, const Circuit& source) {
  (void)qb;
  if (op.kind == GateKind::kSWAP) {
    Mat4 m;
    m(0, 0) = m(3, 3) = Complex{1, 0};
    m(1, 2) = m(2, 1) = Complex{1, 0};
    return m;
  }
  if (op.kind == GateKind::kFused2Q || op.kind == GateKind::kFusedCtl2Q) {
    const Mat4& stored = source.matrix(op);
    if (op.qubits[0] == qa) return stored;
    // Stored with the operands swapped: conjugate by the bit-swap
    // permutation P (P = P^-1), i.e. m'(s', s) = m(swap(s'), swap(s)).
    auto bitswap = [](int s) { return ((s & 1) << 1) | ((s >> 1) & 1); };
    Mat4 m;
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) m(r, c) = stored(bitswap(r), bitswap(c));
    return m;
  }
  // Controlled 1q block: identity on the control=|0> half, the 2x2 block
  // on the target bit of the control=|1> half.
  const Mat2 u = gate_matrix(op.kind, op.literals);
  const int cbit = op.qubits[0] == qa ? 0 : 1;
  const int tbit = 1 - cbit;
  Mat4 m;
  for (int s = 0; s < 4; ++s) {
    if (((s >> cbit) & 1) == 0) {
      m(s, s) = Complex{1, 0};
      continue;
    }
    const int t = (s >> tbit) & 1;
    for (int tp = 0; tp < 2; ++tp) {
      const int sp = (s & ~(1 << tbit)) | (tp << tbit);
      m(sp, s) = u(tp, t);
    }
  }
  return m;
}

constexpr Index kNoPair = static_cast<Index>(-1);

}  // namespace

bool has_fusable_two_qubit_runs(const Circuit& circuit) {
  // Mirrors fuse_two_qubit_runs' run tracking: partner[q] is the other
  // qubit of q's open pair run; open1q[q] marks a buffered literal 1q gate
  // that the next same-pair two-qubit gate would absorb.
  std::vector<Index> partner(circuit.num_qubits(), kNoPair);
  std::vector<unsigned char> open1q(circuit.num_qubits(), 0);
  auto close_pair = [&](Index q) {
    if (partner[q] == kNoPair) return;
    partner[partner[q]] = kNoPair;
    partner[q] = kNoPair;
  };
  for (const Op& op : circuit.ops()) {
    if (is_fusable_1q(op)) {
      open1q[op.qubits[0]] = 1;
      continue;
    }
    if (is_fusable_2q(op)) {
      const Index a = op.qubits[0], b = op.qubits[1];
      if (partner[a] == b) return true;          // same-pair second gate
      if (open1q[a] || open1q[b]) return true;   // pending 1q would absorb
      close_pair(a);
      close_pair(b);
      partner[a] = b;
      partner[b] = a;
      continue;
    }
    open1q[op.qubits[0]] = 0;
    close_pair(op.qubits[0]);
    if (gate_qubit_count(op.kind) == 2) {
      open1q[op.qubits[1]] = 0;
      close_pair(op.qubits[1]);
    }
  }
  return false;
}

namespace {

const Mat2 kIdentity2{{Complex{1, 0}, Complex{0, 0}, Complex{0, 0}, Complex{1, 0}}};

/// One candidate factorization of a pair run's product: P = D * (C (x) I)
/// with C a 2x2 on `control` and D block-diagonal in it (u0 on the target
/// when control=|0>, u1 when control=|1>). Maintained EXACTLY alongside
/// the dense product — no numeric structure sniffing — by absorbing each
/// op into whichever factor it belongs to; ops that cannot keep the form
/// (SWAP, a reversed-control gate, a control-side 1q after D started) kill
/// the candidate and the run falls back to the dense kFused2Q.
struct CtlCandidate {
  Index control = 0;
  Mat2 c = kIdentity2;
  Mat2 u0 = kIdentity2;
  Mat2 u1 = kIdentity2;
  bool d_touched = false;  ///< D != I: control-side 1q gates can no longer commute in
  bool alive = true;

  void absorb_1q(const Mat2& u, Index q) {
    if (!alive) return;
    if (q == control) {
      if (d_touched)
        alive = false;
      else
        c = matmul(u, c);
      return;
    }
    u0 = matmul(u, u0);
    u1 = matmul(u, u1);
    d_touched = true;
  }

  void absorb_2q(const Op& op, const Circuit& source) {
    if (!alive) return;
    switch (op.kind) {
      case GateKind::kCZ:
        // Symmetric: block-diagonal with respect to EITHER qubit.
        u1 = matmul(gate_matrix(GateKind::kZ, {}), u1);
        d_touched = true;
        return;
      case GateKind::kCX:
      case GateKind::kCRY:
      case GateKind::kCU3:
        if (op.qubits[0] != control) {
          alive = false;  // controlled on the target side: mixes our control
          return;
        }
        u1 = matmul(gate_matrix(op.kind, op.literals), u1);
        d_touched = true;
        return;
      case GateKind::kFusedCtl2Q: {
        if (op.qubits[0] != control) {
          alive = false;
          return;
        }
        const Mat4& m = source.matrix(op);
        Mat2 b0, b1;
        for (int tp = 0; tp < 2; ++tp)
          for (int t = 0; t < 2; ++t) {
            b0(tp, t) = m(tp * 2, t * 2);
            b1(tp, t) = m(tp * 2 + 1, t * 2 + 1);
          }
        u0 = matmul(b0, u0);
        u1 = matmul(b1, u1);
        d_touched = true;
        return;
      }
      case GateKind::kSWAP:     // permutes the pair: no block-diagonal form
      case GateKind::kFused2Q:  // dense payload: not control-factorizable
      case GateKind::kI:        // 1q kinds: absorb_1q territory, never here
      case GateKind::kX:
      case GateKind::kY:
      case GateKind::kZ:
      case GateKind::kH:
      case GateKind::kS:
      case GateKind::kSdg:
      case GateKind::kT:
      case GateKind::kTdg:
      case GateKind::kRX:
      case GateKind::kRY:
      case GateKind::kRZ:
      case GateKind::kPhase:
      case GateKind::kU3:
        alive = false;
        return;
    }
  }
};

bool is_identity2(const Mat2& m) { return m.m == kIdentity2.m; }

/// product == e^{i theta} * I exactly (products of exact zeros stay zero in
/// floating point, so self-inverse runs like CX CX or SWAP SWAP hit this).
bool is_scalar_identity4(const Mat4& m) {
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      if (r != c && m(r, c) != Complex{0, 0}) return false;
  return m(1, 1) == m(0, 0) && m(2, 2) == m(0, 0) && m(3, 3) == m(0, 0);
}

/// Assemble the block-diagonal Mat4 of a kFusedCtl2Q op (bit 0 = control).
Mat4 ctl_matrix(const Mat2& u0, const Mat2& u1) {
  Mat4 m;
  for (int tp = 0; tp < 2; ++tp)
    for (int t = 0; t < 2; ++t) {
      m(tp * 2, t * 2) = u0(tp, t);
      m(tp * 2 + 1, t * 2 + 1) = u1(tp, t);
    }
  return m;
}

}  // namespace

Circuit fuse_two_qubit_runs(const Circuit& circuit, Fuse2QStats* stats_out) {
  Fuse2QStats stats;
  stats.ops_before = circuit.num_ops();

  if (!has_fusable_two_qubit_runs(circuit)) {
    // Nothing to fuse (e.g. the all-trainable ansatz, or a stream the 1q
    // pass already exhausted): hand back a verbatim copy.
    stats.ops_after = circuit.num_ops();
    if (stats_out) *stats_out = stats;
    return circuit;
  }

  const auto ops = circuit.ops();

  // Staged output: slot i holds what the rewritten stream emits at position
  // i — the original op, or a run's replacement (placed at the run's
  // opening gate; every op between a run's constituents either acts on
  // other qubits or is itself absorbed, so the placement is exact).
  struct Slot {
    enum class Tag : std::uint8_t { kEmpty, kOriginal, kRewrite };
    Tag tag = Tag::kEmpty;
    // kRewrite payload: optional control-factor 1q gate, then one of
    // {nothing, a 1q target gate, a kFusedCtl2Q, a dense kFused2Q}.
    enum class Body : std::uint8_t { kNone, kOneQ, kCtl, kDense };
    Body body = Body::kNone;
    bool has_c = false;
    Mat2 c_mat{};
    Index c_qubit = 0;
    Mat2 t_mat{};   // kOneQ
    Index qa = 0, qb = 0;  // kCtl: (control, target); kDense: bit0 = qa
    Mat4 m{};
  };
  std::vector<Slot> out(ops.size());

  struct PairRun {
    Index qa = 0, qb = 0;  ///< dense sub-basis: bit 0 = qa, bit 1 = qb
    Mat4 product{};
    CtlCandidate cand_a, cand_b;  ///< control = qa resp. qb
    std::size_t ops_absorbed = 0;
    std::size_t first_pos = 0;
  };
  std::vector<PairRun> runs;  // grows monotonically; closed entries stay
  std::vector<std::size_t> run_of(circuit.num_qubits(), SIZE_MAX);
  // Literal 1q gates buffered per qubit, by position; absorbed into a pair
  // run when a same-pair two-qubit gate follows, re-emitted verbatim
  // otherwise (this pass never fuses 1q runs — fuse_gate_runs owns that).
  std::vector<std::vector<std::size_t>> pending1q(circuit.num_qubits());

  auto absorb_pendings = [&](PairRun& run) {
    // The two per-qubit pending lists act on disjoint qubits, so they
    // commute: the dense product takes them in either order, and each
    // candidate absorbs its CONTROL-side list first so target-side gates
    // cannot spuriously block a control factor that commutes past them.
    auto mats_of = [&](Index q) {
      std::vector<Mat2> v;
      v.reserve(pending1q[q].size());
      for (const std::size_t pos : pending1q[q])
        v.push_back(gate_matrix(ops[pos].kind, ops[pos].literals));
      return v;
    };
    const std::vector<Mat2> ua = mats_of(run.qa);
    const std::vector<Mat2> ub = mats_of(run.qb);
    for (const Mat2& u : ua) run.product = matmul(expand_1q(u, 0), run.product);
    for (const Mat2& u : ub) run.product = matmul(expand_1q(u, 1), run.product);
    for (const Mat2& u : ua) run.cand_a.absorb_1q(u, run.qa);
    for (const Mat2& u : ub) run.cand_a.absorb_1q(u, run.qb);
    for (const Mat2& u : ub) run.cand_b.absorb_1q(u, run.qb);
    for (const Mat2& u : ua) run.cand_b.absorb_1q(u, run.qa);
    run.ops_absorbed += ua.size() + ub.size();
    pending1q[run.qa].clear();
    pending1q[run.qb].clear();
  };
  auto absorb_gate = [&](PairRun& run, const Op& op) {
    run.product =
        matmul(two_qubit_matrix(op, run.qa, run.qb, circuit), run.product);
    run.cand_a.absorb_2q(op, circuit);
    run.cand_b.absorb_2q(op, circuit);
    ++run.ops_absorbed;
  };
  auto flush_pending = [&](Index q) {
    for (const std::size_t pos : pending1q[q])
      out[pos].tag = Slot::Tag::kOriginal;
    pending1q[q].clear();
  };
  auto flush_run = [&](Index q) {
    const std::size_t r = run_of[q];
    if (r == SIZE_MAX) return;
    PairRun& run = runs[r];
    run_of[run.qa] = SIZE_MAX;
    run_of[run.qb] = SIZE_MAX;
    Slot& slot = out[run.first_pos];
    if (run.ops_absorbed == 1) {
      slot.tag = Slot::Tag::kOriginal;
      return;
    }
    slot.tag = Slot::Tag::kRewrite;
    ++stats.fused_runs;
    stats.absorbed_ops += run.ops_absorbed;
    // Prefer an alive candidate without a control factor (one op instead
    // of two), then cand_a.
    const CtlCandidate* cand = nullptr;
    for (const CtlCandidate* c2 : {&run.cand_a, &run.cand_b}) {
      if (!c2->alive) continue;
      if (cand == nullptr ||
          (is_identity2(c2->c) && !is_identity2(cand->c)))
        cand = c2;
    }
    if (cand != nullptr) {
      const Index target = cand->control == run.qa ? run.qb : run.qa;
      slot.has_c = !is_identity2(cand->c);
      slot.c_mat = cand->c;
      slot.c_qubit = cand->control;
      if (cand->u0.m == cand->u1.m) {
        // D = I (x) U: control-independent, so at most two plain 1q gates.
        if (is_identity2(cand->u0)) {
          slot.body = Slot::Body::kNone;  // whole run is C (or identity)
        } else {
          slot.body = Slot::Body::kOneQ;
          slot.t_mat = cand->u0;
          slot.qa = target;
        }
      } else {
        slot.body = Slot::Body::kCtl;
        slot.qa = cand->control;
        slot.qb = target;
        slot.m = ctl_matrix(cand->u0, cand->u1);
      }
      if (slot.body == Slot::Body::kCtl)
        ++stats.ctl_runs;
      else
        ++stats.collapsed_runs;
      return;
    }
    if (is_scalar_identity4(run.product)) {
      // Self-inverse run (e.g. SWAP SWAP): vanishes up to global phase.
      slot.body = Slot::Body::kNone;
      ++stats.collapsed_runs;
      return;
    }
    slot.body = Slot::Body::kDense;
    slot.qa = run.qa;
    slot.qb = run.qb;
    slot.m = run.product;
    ++stats.dense_runs;
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (is_fusable_1q(op)) {
      pending1q[op.qubits[0]].push_back(i);
      continue;
    }
    if (is_fusable_2q(op)) {
      const Index a = op.qubits[0], b = op.qubits[1];
      const std::size_t ra = run_of[a];
      if (ra != SIZE_MAX && ra == run_of[b]) {
        // Same unordered pair: fold buffered 1q gates (they precede this
        // gate and commute with everything emitted in between), then the
        // gate itself, later factors multiplying on the left.
        PairRun& run = runs[ra];
        absorb_pendings(run);
        absorb_gate(run, op);
        continue;
      }
      // Overlapping-but-different pairs end the old runs; a fresh run
      // opens here and claims any 1q gates buffered on its qubits.
      flush_run(a);
      flush_run(b);
      PairRun run;
      run.qa = a;
      run.qb = b;
      run.product = identity4();
      run.cand_a.control = a;
      run.cand_b.control = b;
      run.first_pos = i;
      absorb_pendings(run);
      absorb_gate(run, op);
      runs.push_back(run);
      run_of[a] = run_of[b] = runs.size() - 1;
      continue;
    }
    // Trainable or otherwise non-fusable: ends buffers and runs on every
    // qubit it touches, passes through verbatim.
    flush_pending(op.qubits[0]);
    flush_run(op.qubits[0]);
    if (gate_qubit_count(op.kind) == 2) {
      flush_pending(op.qubits[1]);
      flush_run(op.qubits[1]);
    }
    out[i].tag = Slot::Tag::kOriginal;
  }
  for (Index q = 0; q < circuit.num_qubits(); ++q) {
    flush_pending(q);
    flush_run(q);
  }

  Circuit result(circuit.num_qubits());
  if (circuit.num_params() > 0)
    (void)result.new_params(static_cast<std::uint32_t>(circuit.num_params()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Slot& slot = out[i];
    switch (slot.tag) {
      case Slot::Tag::kEmpty:
        break;
      case Slot::Tag::kOriginal:
        emit_op(result, ops[i], circuit);
        break;
      case Slot::Tag::kRewrite:
        // C factor first: P = D * (C (x) I) applies C before D.
        if (slot.has_c)
          emit_op(result, one_qubit_op_from(slot.c_mat, slot.c_qubit), circuit);
        switch (slot.body) {
          case Slot::Body::kNone:
            break;
          case Slot::Body::kOneQ:
            emit_op(result, one_qubit_op_from(slot.t_mat, slot.qa), circuit);
            break;
          case Slot::Body::kCtl:
            result.fused_ctl2q(slot.qa, slot.qb, slot.m);
            break;
          case Slot::Body::kDense:
            result.fused2q(slot.qa, slot.qb, slot.m);
            break;
        }
        break;
    }
  }

  stats.ops_after = result.num_ops();
  if (stats_out) *stats_out = stats;
  return result;
}

Circuit bind_parameters(const Circuit& circuit, std::span<const Real> params) {
  if (params.size() < circuit.num_params())
    throw std::invalid_argument("bind_parameters: parameter table too small");
  Circuit result(circuit.num_qubits());
  for (Op op : circuit.ops()) {
    op.literals = Circuit::resolve_params(op, params);
    op.param_ids = {kLiteralParam, kLiteralParam, kLiteralParam};
    emit_op(result, op, circuit);
  }
  return result;
}

Circuit canonicalize_for_backend(const Circuit& circuit) {
  return fuse_two_qubit_runs(fuse_gate_runs(circuit));
}

}  // namespace qugeo::qsim
