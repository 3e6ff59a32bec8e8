#include "qsim/circuit.h"

#include <algorithm>
#include <stdexcept>

namespace qugeo::qsim {

void Circuit::check_qubit(Index q) const {
  if (q >= num_qubits_)
    throw std::out_of_range("Circuit: qubit index out of range");
}

void Circuit::push1(GateKind kind, Index q) {
  check_qubit(q);
  Op op;
  op.kind = kind;
  op.qubits = {q, 0};
  ops_.push_back(op);
}

void Circuit::push2(GateKind kind, Index a, Index b) {
  check_qubit(a);
  check_qubit(b);
  if (a == b) throw std::invalid_argument("Circuit: identical qubit operands");
  Op op;
  op.kind = kind;
  op.qubits = {a, b};
  ops_.push_back(op);
}

void Circuit::push_rot(GateKind kind, Index q, Real angle) {
  check_qubit(q);
  Op op;
  op.kind = kind;
  op.qubits = {q, 0};
  op.literals[0] = angle;
  ops_.push_back(op);
}

void Circuit::push_rot(GateKind kind, Index q, ParamRef p) {
  check_qubit(q);
  if (p.id >= num_params_)
    throw std::out_of_range("Circuit: unallocated parameter reference");
  Op op;
  op.kind = kind;
  op.qubits = {q, 0};
  op.param_ids[0] = p.id;
  ops_.push_back(op);
}

void Circuit::u3(Index q, Real theta, Real phi, Real lambda) {
  check_qubit(q);
  Op op;
  op.kind = GateKind::kU3;
  op.qubits = {q, 0};
  op.literals = {theta, phi, lambda};
  ops_.push_back(op);
}

void Circuit::u3(Index q, ParamRef p) {
  check_qubit(q);
  if (p.id + 2 >= num_params_)
    throw std::out_of_range("Circuit: u3 needs three allocated slots");
  Op op;
  op.kind = GateKind::kU3;
  op.qubits = {q, 0};
  op.param_ids = {p.id, p.id + 1, p.id + 2};
  ops_.push_back(op);
}

void Circuit::u3(Index q, const std::array<ParamRef, 3>& slots,
                 const std::array<Real, 3>& literals) {
  check_qubit(q);
  Op op;
  op.kind = GateKind::kU3;
  op.qubits = {q, 0};
  for (std::size_t i = 0; i < 3; ++i) {
    if (slots[i].id != kLiteralParam && slots[i].id >= num_params_)
      throw std::out_of_range("Circuit: unallocated parameter reference");
    op.param_ids[i] = slots[i].id;
    op.literals[i] = slots[i].id == kLiteralParam ? literals[i] : Real(0);
  }
  ops_.push_back(op);
}

void Circuit::cry(Index control, Index target, Real angle) {
  push2(GateKind::kCRY, control, target);
  ops_.back().literals[0] = angle;
}

void Circuit::cry(Index control, Index target, ParamRef p) {
  if (p.id >= num_params_)
    throw std::out_of_range("Circuit: unallocated parameter reference");
  push2(GateKind::kCRY, control, target);
  ops_.back().param_ids[0] = p.id;
}

void Circuit::cu3(Index control, Index target, Real theta, Real phi, Real lambda) {
  push2(GateKind::kCU3, control, target);
  ops_.back().literals = {theta, phi, lambda};
}

void Circuit::cu3(Index control, Index target, ParamRef p) {
  if (p.id + 2 >= num_params_)
    throw std::out_of_range("Circuit: cu3 needs three allocated slots");
  push2(GateKind::kCU3, control, target);
  ops_.back().param_ids = {p.id, p.id + 1, p.id + 2};
}

void Circuit::fused2q(Index a, Index b, const Mat4& u) {
  push2(GateKind::kFused2Q, a, b);
  ops_.back().matrix_id = static_cast<std::uint32_t>(mats_.size());
  mats_.push_back(u);
}

void Circuit::fused_ctl2q(Index control, Index target, const Mat4& u) {
  // Control-mixing entries (sub-index bit 0 = control) must be exactly
  // zero: the dual kernel never reads them.
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      if ((r & 1) != (c & 1) && u(r, c) != Complex{0, 0})
        throw std::invalid_argument(
            "Circuit::fused_ctl2q: matrix mixes control values");
  push2(GateKind::kFusedCtl2Q, control, target);
  ops_.back().matrix_id = static_cast<std::uint32_t>(mats_.size());
  mats_.push_back(u);
}

const Mat4& Circuit::matrix(const Op& op) const {
  if (op.kind != GateKind::kFused2Q && op.kind != GateKind::kFusedCtl2Q)
    throw std::invalid_argument("Circuit::matrix: op carries no dense matrix");
  if (op.matrix_id >= mats_.size())
    throw std::out_of_range("Circuit::matrix: dangling matrix_id");
  return mats_[op.matrix_id];
}

std::uint32_t Circuit::append(const Circuit& other) {
  if (other.num_qubits() > num_qubits_)
    throw std::invalid_argument("Circuit::append: operand has more qubits");
  const std::uint32_t offset = num_params_;
  const auto mat_offset = static_cast<std::uint32_t>(mats_.size());
  num_params_ += other.num_params_;
  mats_.insert(mats_.end(), other.mats_.begin(), other.mats_.end());
  for (Op op : other.ops_) {
    for (auto& id : op.param_ids)
      if (id != kLiteralParam) id += offset;
    if (op.matrix_id != kNoMatrix) op.matrix_id += mat_offset;
    ops_.push_back(op);
  }
  return offset;
}

std::size_t Circuit::depth() const {
  std::vector<std::size_t> level(num_qubits_, 0);
  std::size_t depth = 0;
  for (const Op& op : ops_) {
    const int nq = gate_qubit_count(op.kind);
    std::size_t start = level[op.qubits[0]];
    if (nq == 2) start = std::max(start, level[op.qubits[1]]);
    const std::size_t end = start + 1;
    level[op.qubits[0]] = end;
    if (nq == 2) level[op.qubits[1]] = end;
    depth = std::max(depth, end);
  }
  return depth;
}

std::size_t Circuit::two_qubit_op_count() const {
  return static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(),
                    [](const Op& op) { return gate_qubit_count(op.kind) == 2; }));
}

std::array<Real, 3> Circuit::resolve_params(const Op& op,
                                            std::span<const Real> table) {
  std::array<Real, 3> vals = op.literals;
  for (int i = 0; i < 3; ++i) {
    if (op.param_ids[static_cast<std::size_t>(i)] != kLiteralParam) {
      const std::uint32_t id = op.param_ids[static_cast<std::size_t>(i)];
      if (id >= table.size())
        throw std::out_of_range("resolve_params: table too small");
      vals[static_cast<std::size_t>(i)] = table[id];
    }
  }
  return vals;
}

}  // namespace qugeo::qsim
