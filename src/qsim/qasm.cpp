#include "qsim/qasm.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace qugeo::qsim {
namespace {

/// The spec's qelib1.inc (arXiv:1707.03429) does not define the phase gate
/// under the `p` mnemonic, nor `cry`, nor `swap`; emit self-contained
/// definitions when the circuit uses them so the output loads in any
/// OpenQASM 2.0 toolchain.
void emit_preamble_defs(std::ostringstream& os, const Circuit& circuit) {
  bool has_phase = false, has_cry = false, has_swap = false;
  for (const Op& op : circuit.ops()) {
    has_phase |= op.kind == GateKind::kPhase;
    has_cry |= op.kind == GateKind::kCRY;
    has_swap |= op.kind == GateKind::kSWAP;
  }
  if (has_phase)
    os << "gate p(lambda) q { u1(lambda) q; }\n";
  if (has_cry)
    os << "gate cry(theta) a,b { ry(theta/2) b; cx a,b; ry(-theta/2) b; cx a,b; }\n";
  if (has_swap)
    os << "gate swap a,b { cx a,b; cx b,a; cx a,b; }\n";
}

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t line = 1;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_space() {
    while (!done()) {
      const char c = text[pos];
      if (c == '\n') {
        ++line;
        ++pos;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '/' && pos + 1 < text.size() && text[pos + 1] == '/') {
        while (!done() && text[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("from_qasm: line " + std::to_string(line) +
                                ": " + what);
  }

  /// Consume one identifier ([a-z_][a-z0-9_]*).
  std::string_view ident() {
    skip_space();
    const std::size_t start = pos;
    while (!done() && (std::isalnum(static_cast<unsigned char>(text[pos])) ||
                       text[pos] == '_'))
      ++pos;
    if (pos == start) fail("expected identifier");
    return text.substr(start, pos - start);
  }

  void expect(char c) {
    skip_space();
    if (done() || text[pos] != c)
      fail(std::string("expected '") + c + "'");
    ++pos;
  }

  [[nodiscard]] bool consume(char c) {
    skip_space();
    if (done() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  Real number() {
    skip_space();
    // string_view is not null-terminated; bound strtod with a local copy.
    const std::string buf(text.substr(pos, 64));
    char* end = nullptr;
    const Real v = std::strtod(buf.c_str(), &end);
    if (end == buf.c_str()) fail("expected number");
    // strtod also accepts nan, inf and overflowing literals (1e999 -> inf);
    // none is a valid angle, register size or version.
    if (!std::isfinite(v)) fail("expected a finite number");
    pos += static_cast<std::size_t>(end - buf.c_str());
    return v;
  }

  /// A non-negative integer (register sizes, qubit indices). Guards the
  /// float-to-unsigned cast: a negative or fractional value would be UB.
  Index cardinal() {
    const Real v = number();
    // Bound before casting: float-to-unsigned conversion of a negative or
    // out-of-range value is undefined behavior.
    if (!(v >= 0 && v <= Real(1e9)) ||
        v != static_cast<Real>(static_cast<Index>(v)))
      fail("expected a non-negative integer");
    return static_cast<Index>(v);
  }

  Index index_operand(std::string_view reg) {
    const auto name = ident();
    if (name != reg) fail("unknown register '" + std::string(name) + "'");
    expect('[');
    const Index v = cardinal();
    expect(']');
    return v;
  }

  /// Skip to (and past) the next occurrence of `c`.
  void skip_past(char c) {
    while (!done()) {
      const char cur = text[pos];
      if (cur == '\n') ++line;
      ++pos;
      if (cur == c) return;
    }
    fail(std::string("unterminated statement; expected '") + c + "'");
  }
};

struct ParsedOp {
  GateKind kind;
  std::array<Real, 3> angles{0, 0, 0};
  std::array<Index, 2> qubits{0, 0};
};

GateKind kind_from_name(std::string_view name, const Cursor& at) {
  for (int k = 0; k <= static_cast<int>(GateKind::kSWAP); ++k) {
    const auto kind = static_cast<GateKind>(k);
    if (gate_name(kind) == name) return kind;
  }
  at.fail("unsupported gate '" + std::string(name) + "'");
}

void append_parsed(Circuit& c, const ParsedOp& op) {
  const Real* a = op.angles.data();
  const Index q0 = op.qubits[0], q1 = op.qubits[1];
  switch (op.kind) {
    case GateKind::kI: break;  // identity: no builder, no effect
    case GateKind::kX: c.x(q0); break;
    case GateKind::kY: c.y(q0); break;
    case GateKind::kZ: c.z(q0); break;
    case GateKind::kH: c.h(q0); break;
    case GateKind::kS: c.s(q0); break;
    case GateKind::kSdg: c.sdg(q0); break;
    case GateKind::kT: c.t(q0); break;
    case GateKind::kTdg: c.tdg(q0); break;
    case GateKind::kRX: c.rx(q0, a[0]); break;
    case GateKind::kRY: c.ry(q0, a[0]); break;
    case GateKind::kRZ: c.rz(q0, a[0]); break;
    case GateKind::kPhase: c.phase(q0, a[0]); break;
    case GateKind::kU3: c.u3(q0, a[0], a[1], a[2]); break;
    case GateKind::kCX: c.cx(q0, q1); break;
    case GateKind::kCZ: c.cz(q0, q1); break;
    case GateKind::kCRY: c.cry(q0, q1, a[0]); break;
    case GateKind::kCU3: c.cu3(q0, q1, a[0], a[1], a[2]); break;
    case GateKind::kSWAP: c.swap(q0, q1); break;
  }
}

}  // namespace

std::string to_qasm(const Circuit& circuit, std::span<const Real> params) {
  std::ostringstream os;
  os.precision(12);
  os << "OPENQASM 2.0;\n"
     << "include \"qelib1.inc\";\n";
  emit_preamble_defs(os, circuit);
  os << "qreg q[" << circuit.num_qubits() << "];\n";
  for (const Op& op : circuit.ops()) {
    const auto vals = Circuit::resolve_params(op, params);
    const auto name = gate_name(op.kind);
    const int nparams = gate_param_count(op.kind);
    const int nqubits = gate_qubit_count(op.kind);
    os << name;
    if (nparams > 0) {
      os << '(';
      for (int i = 0; i < nparams; ++i)
        os << vals[static_cast<std::size_t>(i)] << (i + 1 < nparams ? "," : "");
      os << ')';
    }
    os << " q[" << op.qubits[0] << ']';
    if (nqubits == 2) os << ",q[" << op.qubits[1] << ']';
    os << ";\n";
  }
  return os.str();
}

Circuit from_qasm(std::string_view text) {
  Cursor cur{text};

  // Header: OPENQASM 2.0;
  if (cur.ident() != "OPENQASM") cur.fail("missing OPENQASM header");
  (void)cur.number();
  cur.expect(';');

  std::string reg_name;
  Index reg_size = 0;
  std::vector<ParsedOp> ops;

  while (true) {
    cur.skip_space();
    if (cur.done()) break;
    const auto word = cur.ident();
    if (word == "include") {
      cur.skip_past(';');
    } else if (word == "gate") {
      // Preamble definitions (p, cry) describe gates the parser already
      // knows natively; skip the body.
      cur.skip_past('}');
    } else if (word == "qreg") {
      // One register: gates already parsed were range-checked against it.
      if (!reg_name.empty())
        cur.fail("second qreg declaration; one register is supported");
      reg_name = std::string(cur.ident());
      cur.expect('[');
      reg_size = cur.cardinal();
      cur.expect(']');
      cur.expect(';');
    } else if (word == "creg" || word == "barrier" || word == "measure") {
      cur.skip_past(';');
    } else {
      if (reg_name.empty()) cur.fail("gate statement before qreg");
      ParsedOp op;
      op.kind = kind_from_name(word, cur);
      const int nparams = gate_param_count(op.kind);
      if (cur.consume('(')) {
        for (int i = 0; i < nparams; ++i) {
          op.angles[static_cast<std::size_t>(i)] = cur.number();
          if (i + 1 < nparams) cur.expect(',');
        }
        cur.expect(')');
      } else if (nparams > 0) {
        cur.fail("gate '" + std::string(gate_name(op.kind)) +
                 "' requires angle arguments");
      }
      op.qubits[0] = cur.index_operand(reg_name);
      if (gate_qubit_count(op.kind) == 2) {
        cur.expect(',');
        op.qubits[1] = cur.index_operand(reg_name);
      }
      cur.expect(';');
      for (int i = 0; i < gate_qubit_count(op.kind); ++i)
        if (op.qubits[static_cast<std::size_t>(i)] >= reg_size)
          cur.fail("qubit operand out of range");
      if (gate_qubit_count(op.kind) == 2 && op.qubits[0] == op.qubits[1])
        cur.fail("identical qubit operands");
      ops.push_back(op);
    }
  }

  if (reg_name.empty()) cur.fail("no qreg declaration");
  Circuit c(reg_size);
  for (const ParsedOp& op : ops) append_parsed(c, op);
  return c;
}

}  // namespace qugeo::qsim
