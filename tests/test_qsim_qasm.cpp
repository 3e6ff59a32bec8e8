// QASM export/import: header, gate mnemonics, resolved parameters,
// preamble definitions for gates missing from qelib1.inc, and round trips
// through from_qasm for every GateKind.
#include <gtest/gtest.h>

#include <algorithm>

#include "qsim/executor.h"
#include "qsim/qasm.h"

namespace qugeo::qsim {
namespace {

TEST(Qasm, EmitsHeaderAndRegister) {
  Circuit c(3);
  const std::string q = to_qasm(c, {});
  EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(q.find("qreg q[3];"), std::string::npos);
}

TEST(Qasm, EmitsFixedGates) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.swap(0, 1);
  const std::string q = to_qasm(c, {});
  EXPECT_NE(q.find("h q[0];"), std::string::npos);
  EXPECT_NE(q.find("cx q[0],q[1];"), std::string::npos);
  EXPECT_NE(q.find("swap q[0],q[1];"), std::string::npos);
}

TEST(Qasm, ResolvesTrainableAngles) {
  Circuit c(1);
  c.ry(0, c.new_param());
  const std::vector<Real> params = {1.25};
  const std::string q = to_qasm(c, params);
  EXPECT_NE(q.find("ry(1.25) q[0];"), std::string::npos);
}

TEST(Qasm, EmitsU3WithThreeAngles) {
  Circuit c(1);
  c.u3(0, 0.5, 1.0, 1.5);
  const std::string q = to_qasm(c, {});
  EXPECT_NE(q.find("u3(0.5,1,1.5) q[0];"), std::string::npos);
}

TEST(Qasm, LineCountMatchesOps) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const std::string q = to_qasm(c, {});
  const auto lines = std::count(q.begin(), q.end(), '\n');
  EXPECT_EQ(lines, 3 + 2);  // header(2) + qreg + 2 ops
}

/// One circuit exercising every GateKind the builder can emit (kI has no
/// builder; it is covered separately by the parser's skip rule).
Circuit every_gate_circuit() {
  Circuit c(3);
  c.x(0);
  c.y(1);
  c.z(2);
  c.h(0);
  c.s(1);
  c.sdg(2);
  c.t(0);
  c.tdg(1);
  c.rx(0, 0.25);
  c.ry(1, -0.5);
  c.rz(2, 1.75);
  c.phase(0, 0.4);
  c.u3(1, 0.3, -0.2, 0.9);
  c.cx(0, 1);
  c.cz(1, 2);
  c.cry(0, 2, 1.2);
  c.cu3(2, 0, -0.7, 0.1, 0.6);
  c.swap(1, 2);
  return c;
}

TEST(Qasm, EmitsControlledRotationsAndPreambleDefs) {
  const Circuit c = every_gate_circuit();
  const std::string q = to_qasm(c, {});
  // cry, p, and swap are not in the spec's qelib1.inc; the export must
  // define them.
  EXPECT_NE(q.find("gate p(lambda) q"), std::string::npos);
  EXPECT_NE(q.find("gate cry(theta) a,b"), std::string::npos);
  EXPECT_NE(q.find("gate swap a,b"), std::string::npos);
  EXPECT_NE(q.find("cry(1.2) q[0],q[2];"), std::string::npos);
  EXPECT_NE(q.find("cu3(-0.7,0.1,0.6) q[2],q[0];"), std::string::npos);
  EXPECT_NE(q.find("swap q[1],q[2];"), std::string::npos);
}

TEST(Qasm, NoPreambleDefsWhenUnused) {
  Circuit c(1);
  c.h(0);
  const std::string q = to_qasm(c, {});
  EXPECT_EQ(q.find("gate "), std::string::npos);
}

TEST(Qasm, RoundTripReproducesExportString) {
  const Circuit c = every_gate_circuit();
  const std::string q1 = to_qasm(c, {});
  const Circuit parsed = from_qasm(q1);
  EXPECT_EQ(parsed.num_qubits(), c.num_qubits());
  EXPECT_EQ(parsed.num_ops(), c.num_ops());
  EXPECT_EQ(to_qasm(parsed, {}), q1);
}

TEST(Qasm, RoundTripPreservesSemantics) {
  const Circuit c = every_gate_circuit();
  const Circuit parsed = from_qasm(to_qasm(c, {}));
  StateVector a(3), b(3);
  run_circuit(c, {}, a);
  run_circuit(parsed, {}, b);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
}

TEST(Qasm, RoundTripResolvesTrainableAnglesToLiterals) {
  Circuit c(2);
  c.ry(0, c.new_param());
  c.cu3(0, 1, c.new_params(3));
  const std::vector<Real> params = {0.8, 0.1, -0.2, 0.3};
  const Circuit parsed = from_qasm(to_qasm(c, params));
  EXPECT_EQ(parsed.num_params(), 0u);
  StateVector a(2), b(2);
  run_circuit(c, params, a);
  run_circuit(parsed, {}, b);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
}

TEST(Qasm, ParserSkipsCommentsAndMeasure) {
  const std::string q =
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "// a comment\n"
      "qreg q[2];\n"
      "creg m[2];\n"
      "h q[0];\n"
      "cx q[0],q[1];\n"
      "measure q[0] -> m[0];\n";
  const Circuit c = from_qasm(q);
  EXPECT_EQ(c.num_ops(), 2u);
  EXPECT_EQ(c.ops()[0].kind, GateKind::kH);
  EXPECT_EQ(c.ops()[1].kind, GateKind::kCX);
}

TEST(Qasm, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)from_qasm("qreg q[2];\n"), std::invalid_argument);
  EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[3];\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nh q[0];\n"),
               std::invalid_argument);
  // Negative / fractional qubit indices and register sizes must be
  // rejected before any float-to-unsigned cast.
  EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[-1];\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0.5];\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[-2];\n"),
               std::invalid_argument);
  // strtod accepts nan, inf and overflowing literals; none is a valid
  // angle or version (a NaN angle would poison every amplitude).
  for (const char* text : {"OPENQASM 2.0;\nqreg q[1];\nrx(nan) q[0];\n",
                           "OPENQASM 2.0;\nqreg q[1];\nu3(inf,0,0) q[0];\n",
                           "OPENQASM 2.0;\nqreg q[1];\nry(1e999) q[0];\n",
                           "OPENQASM nan;\nqreg q[1];\n"})
    EXPECT_THROW((void)from_qasm(text), std::invalid_argument) << text;
}

}  // namespace
}  // namespace qugeo::qsim
