// Simulation backends through run_probabilities: backend names,
// cross-backend equivalence at p = 0, trajectory convergence to the exact
// channel, deterministic trajectory streams, the oversize density
// substitution, and env plumbing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "qsim/backend.h"
#include "qsim/density_matrix.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"
#include "qsim/shots.h"

namespace qugeo::qsim {
namespace {

Circuit random_circuit(Index qubits, int gates, Rng& rng) {
  Circuit c(qubits);
  for (int g = 0; g < gates; ++g) {
    const auto q = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0: c.h(q); break;
      case 1: c.u3(q, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)); break;
      case 2: {
        const auto t = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
        if (t != q) c.cx(q, t);
        break;
      }
      default: {
        const auto t = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
        if (t != q) c.cry(q, t, rng.uniform(-2, 2));
        break;
      }
    }
  }
  return c;
}

/// Literal CX, CZ, SWAP, CRY and CU3 gates with 1q neighbours on their
/// pairs: literal two-qubit gates, which the paper's all-trainable ansatz
/// never emits.
Circuit literal_two_qubit_circuit() {
  Circuit c(3);
  c.h(0);
  c.t(1);
  c.cx(0, 1);
  c.ry(1, 0.4);
  c.cz(1, 2);
  c.swap(2, 0);
  c.rx(0, -1.1);
  c.cry(0, 2, 0.6);
  c.cx(2, 1);
  c.cu3(1, 0, 0.5, 0.2, -0.3);
  return c;
}

StateVector random_state(Index qubits, Rng& rng) {
  StateVector psi(qubits);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  return psi;
}

TEST(Backend, NamesAndParsingRoundTrip) {
  for (const BackendKind kind :
       {BackendKind::kStatevector, BackendKind::kDensityMatrix,
        BackendKind::kTrajectory}) {
    const auto parsed = parse_backend_kind(backend_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_backend_kind("qpu").has_value());
}

TEST(Backend, ParsingAcceptsOnlyThePrintedNames) {
  // Sampled readout is a shot budget on any engine (QUGEO_SHOTS), not a
  // backend, and no alias spellings are accepted.
  for (const char* name :
       {"shot", "shots", "sv", "density_matrix", "trajectories"})
    EXPECT_FALSE(parse_backend_kind(name).has_value()) << name;

  ::setenv("QUGEO_BACKEND", "shot", 1);
  try {
    (void)apply_env_overrides(ExecutionConfig{});
    ADD_FAILURE() << "QUGEO_BACKEND=shot was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("statevector | density | trajectory"),
              std::string::npos)
        << e.what();
  }
  ::unsetenv("QUGEO_BACKEND");
}

TEST(Backend, StatevectorMatchesDirectExecution) {
  // The backend executes the circuit it is given, so literal circuits
  // agree with run_circuit bit for bit.
  Rng rng(1);
  for (const Circuit& c :
       {random_circuit(4, 20, rng), literal_two_qubit_circuit()}) {
    StateVector direct = random_state(c.num_qubits(), rng);
    const StateVector psi_in = direct;
    run_circuit(c, {}, direct);

    const auto probs = run_probabilities(ExecutionConfig{}, c, {}, psi_in);
    for (Index k = 0; k < direct.dim(); ++k)
      ASSERT_EQ(probs[k], direct.probability(k));
  }
}

TEST(Backend, StatevectorBitIdenticalOnTrainableCircuits) {
  // A fully trainable circuit (the QuGeoVQC ansatz shape) must execute
  // through the backend bit-for-bit as through run_circuit.
  Circuit c(3);
  for (Index q = 0; q < 3; ++q) c.u3(q, c.new_params(3));
  for (Index q = 0; q < 3; ++q) c.cu3(q, (q + 1) % 3, c.new_params(3));
  std::vector<Real> params(c.num_params());
  Rng rng(6);
  rng.fill_uniform(params, -1, 1);

  StateVector direct = random_state(3, rng);
  const StateVector psi_in = direct;
  run_circuit(c, params, direct);

  const auto probs = run_probabilities(ExecutionConfig{}, c, params, psi_in);
  for (Index k = 0; k < direct.dim(); ++k)
    ASSERT_EQ(probs[k], direct.probability(k));
}

TEST(Backend, DensityAtZeroNoiseMatchesStatevector) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c =
        trial < 4 ? random_circuit(4, 24, rng) : literal_two_qubit_circuit();
    const StateVector psi_in = random_state(c.num_qubits(), rng);

    ExecutionConfig cfg;
    const auto p_sv = run_probabilities(cfg, c, {}, psi_in);
    cfg.backend = BackendKind::kDensityMatrix;
    const auto p_dm = run_probabilities(cfg, c, {}, psi_in);

    ASSERT_EQ(p_sv.size(), p_dm.size());
    for (std::size_t k = 0; k < p_sv.size(); ++k)
      ASSERT_NEAR(p_sv[k], p_dm[k], 1e-10) << "trial " << trial;

    std::vector<Index> qubits(c.num_qubits());
    for (Index q = 0; q < c.num_qubits(); ++q) qubits[q] = q;
    const auto z_sv = expect_z_from_probabilities(p_sv, qubits);
    const auto z_dm = expect_z_from_probabilities(p_dm, qubits);
    for (std::size_t i = 0; i < qubits.size(); ++i)
      ASSERT_NEAR(z_sv[i], z_dm[i], 1e-10);
  }
}

TEST(Backend, TrajectoryAtZeroNoiseIsExact) {
  Rng rng(3);
  for (const Circuit& c :
       {random_circuit(3, 15, rng), literal_two_qubit_circuit()}) {
    const StateVector psi_in = random_state(3, rng);

    ExecutionConfig cfg;
    const auto p_sv = run_probabilities(cfg, c, {}, psi_in);
    cfg.backend = BackendKind::kTrajectory;
    cfg.trajectories = 16;
    const auto p_tr = run_probabilities(cfg, c, {}, psi_in);
    for (std::size_t k = 0; k < p_sv.size(); ++k)
      ASSERT_NEAR(p_sv[k], p_tr[k], 1e-12);
  }
}

TEST(Backend, TrajectoryConvergesToExactDepolarizingChannel) {
  // The sampled estimator must agree with the exact channel within
  // statistical tolerance on a small circuit.
  Rng rng(4);
  Circuit c(2);
  c.h(0);
  c.ry(1, 0.8);
  c.cx(0, 1);
  c.ry(0, 0.5);

  ExecutionConfig cfg;
  cfg.noise.gate_error_prob = 0.05;
  cfg.backend = BackendKind::kDensityMatrix;
  const auto p_dm = run_probabilities(cfg, c, {}, StateVector(2));

  cfg.backend = BackendKind::kTrajectory;
  cfg.trajectories = 4000;
  cfg.seed = 99;
  const auto p_tr = run_probabilities(cfg, c, {}, StateVector(2));

  const std::vector<Index> qubits = {0, 1};
  const auto z_dm = expect_z_from_probabilities(p_dm, qubits);
  const auto z_tr = expect_z_from_probabilities(p_tr, qubits);
  for (std::size_t i = 0; i < qubits.size(); ++i)
    EXPECT_NEAR(z_tr[i], z_dm[i], 0.05);
  for (std::size_t k = 0; k < p_dm.size(); ++k)
    EXPECT_NEAR(p_tr[k], p_dm[k], 0.05);
}

TEST(Backend, NoisyRunsPreservePerGateInsertionPoints) {
  // A literal run of k gates carries k depolarizing insertion points: the
  // backend's result must match the raw channel executor on the op stream.
  Circuit run(1);
  run.h(0);
  run.t(0);
  run.h(0);
  run.t(0);  // one 4-gate run -> 4 insertion points
  const Real p = 0.1;

  for (const Circuit& c : {run, literal_two_qubit_circuit()}) {
    DensityMatrix raw(c.num_qubits());
    run_circuit_density(c, {}, raw, NoiseModel{p});
    const auto p_raw = raw.probabilities();

    ExecutionConfig cfg;
    cfg.backend = BackendKind::kDensityMatrix;
    cfg.noise.gate_error_prob = p;
    const auto p_dm =
        run_probabilities(cfg, c, {}, StateVector(c.num_qubits()));
    ASSERT_EQ(p_dm.size(), p_raw.size());
    for (std::size_t k = 0; k < p_raw.size(); ++k)
      EXPECT_EQ(p_dm[k], p_raw[k]) << "state " << k;
  }
}

TEST(Backend, TrajectoryRunsAreThreadCountInvariant) {
  Rng rng(5);
  const Circuit c = random_circuit(3, 12, rng);
  const StateVector psi_in = random_state(3, rng);

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kTrajectory;
  cfg.noise.gate_error_prob = 0.1;
  cfg.trajectories = 48;
  cfg.seed = 17;

  set_num_threads(1);
  const auto p1 = run_probabilities(cfg, c, {}, psi_in);
  set_num_threads(4);
  const auto p4 = run_probabilities(cfg, c, {}, psi_in);
  set_num_threads(0);

  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t k = 0; k < p1.size(); ++k) EXPECT_EQ(p1[k], p4[k]);
}

TEST(Backend, FactorySubstitutesStatevectorForOversizedNoiselessDensity) {
  // Above the dense cap a trivial channel runs the statevector (exact for
  // unitary evolution) and says so once; an active channel throws.
  const Index too_big = max_density_qubits() + 1;
  Circuit c(too_big);
  for (Index q = 0; q < too_big; ++q)
    c.ry(q, 0.3 + 0.1 * static_cast<Real>(q));
  for (Index q = 0; q + 1 < too_big; ++q) c.cx(q, q + 1);
  const auto p_sv =
      run_probabilities(ExecutionConfig{}, c, {}, StateVector(too_big));

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kDensityMatrix;
  fault::clear_degradation_events();
  const auto p_dm = run_probabilities(cfg, c, {}, StateVector(too_big));
  const auto events = fault::degradation_events();
  ASSERT_EQ(p_dm.size(), p_sv.size());
  for (std::size_t k = 0; k < p_sv.size(); ++k) ASSERT_EQ(p_dm[k], p_sv[k]);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "backend");

  cfg.noise.gate_error_prob = 0.01;
  EXPECT_THROW((void)run_probabilities(cfg, c, {}, StateVector(too_big)),
               std::invalid_argument);
}

/// Trajectory-backend config whose gate noise makes it run every
/// trajectory through run_circuit_noisy.
ExecutionConfig noisy_trajectories() {
  ExecutionConfig cfg;
  cfg.backend = BackendKind::kTrajectory;
  cfg.noise.gate_error_prob = 0.05;
  cfg.trajectories = 8;
  return cfg;
}

TEST(Backend, EveryEngineRejectsAStateNarrowerThanItsCircuit) {
  // A 6-qubit circuit run on a 2-qubit state must throw before any kernel
  // indexes past the state's amplitudes.
  Circuit c(6);
  for (Index q = 0; q < 6; ++q) c.u3(q, 0.3, -0.2, 0.1 * static_cast<Real>(q));
  ExecutionConfig density;
  density.backend = BackendKind::kDensityMatrix;
  density.noise.gate_error_prob = 0.05;
  for (const ExecutionConfig& cfg :
       {ExecutionConfig{}, density, noisy_trajectories()})
    EXPECT_THROW((void)run_probabilities(cfg, c, {}, StateVector(2)),
                 std::invalid_argument)
        << backend_name(cfg.backend);
  StateVector psi(2);
  Rng rng(1);
  EXPECT_THROW(run_circuit_noisy(c, {}, psi, noisy_trajectories().noise, rng),
               std::invalid_argument);
}

TEST(Backend, ShortParameterTableThrowsInvalidArgumentFromEveryEngine) {
  // One typed error, raised by bind before any state is touched, whichever
  // engine (or the adjoint) runs the circuit.
  Circuit c(2);
  c.h(0);
  c.u3(0, c.new_params(3));
  c.cu3(0, 1, c.new_params(3));
  const std::vector<Real> short_table(c.num_params() - 1, 0.2);
  ExecutionConfig density;
  density.backend = BackendKind::kDensityMatrix;
  density.noise.gate_error_prob = 0.05;
  for (const ExecutionConfig& cfg :
       {ExecutionConfig{}, density, noisy_trajectories()})
    EXPECT_THROW((void)run_probabilities(cfg, c, short_table, StateVector(2)),
                 std::invalid_argument)
        << backend_name(cfg.backend);
  const StateVector psi(2);
  EXPECT_THROW((void)adjoint_backward(c, short_table, psi,
                                      std::vector<Complex>(psi.dim())),
               std::invalid_argument);
}

TEST(Backend, EnvOverridesAreApplied) {
  ::setenv("QUGEO_BACKEND", "density", 1);
  ::setenv("QUGEO_NOISE_P", "0.015", 1);
  ::setenv("QUGEO_TRAJECTORIES", "7", 1);
  const ExecutionConfig cfg = apply_env_overrides(ExecutionConfig{});
  ::unsetenv("QUGEO_BACKEND");
  ::unsetenv("QUGEO_NOISE_P");
  ::unsetenv("QUGEO_TRAJECTORIES");
  EXPECT_EQ(cfg.backend, BackendKind::kDensityMatrix);
  EXPECT_NEAR(cfg.noise.gate_error_prob, 0.015, 1e-15);
  EXPECT_EQ(cfg.trajectories, 7u);

  ::setenv("QUGEO_BACKEND", "not-a-backend", 1);
  EXPECT_THROW((void)apply_env_overrides(ExecutionConfig{}), std::invalid_argument);
  ::unsetenv("QUGEO_BACKEND");
}

}  // namespace
}  // namespace qugeo::qsim
