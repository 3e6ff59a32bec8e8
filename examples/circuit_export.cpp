// Circuit export: inspect the QuGeoVQC as OpenQASM 2.0 — the encoder
// state-preparation synthesis (uniformly controlled RY rotations) and the
// trained U3+CU3 ansatz — plus depth/size statistics for a hardware-budget
// discussion. The exported text is parsed back with from_qasm and checked
// for a faithful round trip.
//
// Run:  ./circuit_export [output.qasm]
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/ansatz.h"
#include "core/encoder.h"
#include "qsim/optimizer.h"
#include "qsim/qasm.h"

int main(int argc, char** argv) {
  using namespace qugeo;
  std::printf("QuGeoVQC circuit export\n\n");

  const core::QubitLayout layout({8}, 0);
  core::AnsatzConfig acfg;  // 12 blocks = the paper's 576-parameter model
  const qsim::Circuit ansatz = build_qugeo_ansatz(layout, acfg);

  Rng rng(5);
  std::vector<Real> params(ansatz.num_params());
  rng.fill_uniform(params, -kPi, kPi);

  // Encoder synthesis for one (random) waveform.
  std::vector<Real> waveform(256);
  rng.fill_uniform(waveform, -1, 1);
  const core::StEncoder encoder(layout);
  const std::vector<Real>* batch[] = {&waveform};
  const qsim::Circuit prep = encoder.prep_circuit(batch);

  std::printf("%-22s | %-7s | %-7s | %-7s | %-7s\n", "circuit", "qubits",
              "ops", "2q-ops", "depth");
  std::printf("-----------------------+---------+---------+---------+--------\n");
  std::printf("%-22s | %7zu | %7zu | %7zu | %7zu\n", "ST-Encoder (synth)",
              prep.num_qubits(), prep.num_ops(), prep.two_qubit_op_count(),
              prep.depth());
  std::printf("%-22s | %7zu | %7zu | %7zu | %7zu\n", "QuGeoVQC ansatz",
              ansatz.num_qubits(), ansatz.num_ops(),
              ansatz.two_qubit_op_count(), ansatz.depth());

  qsim::Circuit raw_full(layout.total_qubits());
  raw_full.append(prep);
  const std::uint32_t offset = raw_full.append(ansatz);
  std::vector<Real> full_params(raw_full.num_params(), 0);
  for (std::size_t i = 0; i < params.size(); ++i)
    full_params[offset + i] = params[i];
  std::printf("%-22s | %7zu | %7zu | %7zu | %7zu\n", "encoder + ansatz",
              raw_full.num_qubits(), raw_full.num_ops(),
              raw_full.two_qubit_op_count(), raw_full.depth());

  // Peephole optimization before export (cancels the synthesis artifacts —
  // identity rotations and adjacent CX pairs from the UCRY decomposition).
  qsim::OptimizeStats ostats;
  const qsim::Circuit full = qsim::optimize_circuit(raw_full, {}, &ostats);
  std::printf("%-22s | %7zu | %7zu | %7zu | %7zu   (-%zu ops: %zu pairs, %zu "
              "fused, %zu identities)\n",
              "  after peephole opt", full.num_qubits(), full.num_ops(),
              full.two_qubit_op_count(), full.depth(),
              ostats.ops_before - ostats.ops_after, ostats.cancelled_pairs,
              ostats.fused_rotations, ostats.dropped_identities);

  const std::string qasm = qsim::to_qasm(full, full_params);
  // Round trip: the export dialect must read back op-for-op.
  const qsim::Circuit reparsed = qsim::from_qasm(qasm);
  std::printf("\nround trip: re-parsed %zu ops on %zu qubits (%s)\n",
              reparsed.num_ops(), reparsed.num_qubits(),
              qsim::to_qasm(reparsed, {}) == qasm ? "faithful" : "MISMATCH");

  const char* path = argc > 1 ? argv[1] : "qugeo_vqc.qasm";
  std::ofstream(path) << qasm;
  std::printf("\nwrote %zu QASM lines to %s\n",
              static_cast<std::size_t>(
                  std::count(qasm.begin(), qasm.end(), '\n')),
              path);
  std::printf("first lines:\n");
  std::size_t shown = 0;
  for (std::size_t pos = 0; pos < qasm.size() && shown < 8; ++shown) {
    const std::size_t next = qasm.find('\n', pos);
    std::printf("  %.*s\n", static_cast<int>(next - pos), qasm.c_str() + pos);
    pos = next + 1;
  }
  return 0;
}
