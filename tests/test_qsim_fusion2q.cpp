// Two-qubit run fusion and the compiled-circuit cache.
//
// Pins: (1) the apply_matrix2q / apply_2q kernels against per-gate
// execution, (2) exhaustive GateKind-pair equivalence of fuse_two_qubit_runs
// on the statevector AND density paths (1e-10, global phase modulo), (3)
// run-boundary semantics (trainable gates, overlapping pairs, trailing 1q
// gates), (4) the noisy-path bypass — backends with gate noise execute the
// ORIGINAL op stream, keeping one noise insertion point per gate — and (5)
// CompiledCircuitCache compile/hit accounting, including cache-hit reuse
// across QuBatch chunks and repeated QuGeoModel::predict calls.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/rng.h"
#include "core/model.h"
#include "qsim/backend.h"
#include "qsim/compile_cache.h"
#include "qsim/density_matrix.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"
#include "qsim/optimizer.h"

namespace qugeo::qsim {
namespace {

StateVector random_state(Index qubits, Rng& rng) {
  StateVector psi(qubits);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  return psi;
}

/// Fused and unfused execution agree up to global phase on a random state.
void expect_equivalent(const Circuit& a, const Circuit& b,
                       std::span<const Real> params, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sa = random_state(a.num_qubits(), rng);
  StateVector sb = sa;
  run_circuit(a, params, sa);
  run_circuit(b, params, sb);
  EXPECT_NEAR(sa.fidelity(sb), 1.0, 1e-10);
}

/// As expect_equivalent, but on the exact mixed-state path.
void expect_density_equivalent(const Circuit& a, const Circuit& b,
                               std::span<const Real> params,
                               std::uint64_t seed) {
  Rng rng(seed);
  const StateVector psi = random_state(a.num_qubits(), rng);
  DensityMatrix ra = DensityMatrix::from_state(psi);
  DensityMatrix rb = DensityMatrix::from_state(psi);
  run_circuit_density(a, params, ra, NoiseModel{});
  run_circuit_density(b, params, rb, NoiseModel{});
  const auto pa = ra.probabilities();
  const auto pb = rb.probabilities();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k) EXPECT_NEAR(pa[k], pb[k], 1e-10);
}

// ---------------------------------------------------------------- kernels --

TEST(Matrix2QKernel, Cu3RunFactorsIntoControlGatePlusBlockDiagonal) {
  // H(control), RY(target), CU3, CU3 factors as P = D * (C (x) I): one U3
  // from the control factor plus one block-diagonal kFusedCtl2Q, in both
  // operand orders.
  for (const bool flip : {false, true}) {
    Circuit c(3);
    const Index a = flip ? 2 : 0;
    const Index b = flip ? 0 : 2;
    c.h(a);
    c.ry(b, 0.7);
    c.cu3(a, b, 0.3, -1.1, 0.4);
    c.cu3(a, b, -0.9, 0.2, 1.3);
    Fuse2QStats stats;
    const Circuit fused = fuse_two_qubit_runs(c, &stats);
    ASSERT_EQ(fused.num_ops(), 2u);
    EXPECT_EQ(fused.ops()[0].kind, GateKind::kU3);
    EXPECT_EQ(fused.ops()[0].qubits[0], a);
    ASSERT_EQ(fused.ops()[1].kind, GateKind::kFusedCtl2Q);
    EXPECT_EQ(fused.ops()[1].qubits[0], a);  // control operand first
    EXPECT_EQ(stats.fused_runs, 1u);
    EXPECT_EQ(stats.ctl_runs, 1u);
    EXPECT_EQ(stats.absorbed_ops, 4u);
    expect_equivalent(c, fused, {}, flip ? 11 : 10);
    expect_density_equivalent(c, fused, {}, flip ? 13 : 12);
  }
}

TEST(Matrix2QKernel, SwapRunStaysDense) {
  // A SWAP inside the run has no block-diagonal form: the product must be
  // emitted as one dense kFused2Q and still match per-gate execution.
  Circuit c(2);
  c.h(0);
  c.ry(1, 0.7);
  c.cu3(0, 1, 0.3, -1.1, 0.4);
  c.swap(0, 1);
  c.cx(0, 1);
  Fuse2QStats stats;
  const Circuit fused = fuse_two_qubit_runs(c, &stats);
  ASSERT_EQ(fused.num_ops(), 1u);
  EXPECT_EQ(fused.ops()[0].kind, GateKind::kFused2Q);
  EXPECT_EQ(stats.dense_runs, 1u);
  EXPECT_EQ(stats.absorbed_ops, 5u);
  expect_equivalent(c, fused, {}, 14);
  expect_density_equivalent(c, fused, {}, 15);
}

TEST(Matrix2QKernel, DensityPathMatchesStatevectorOnPureStates) {
  Circuit c(3);
  c.h(0);
  c.t(1);
  c.cx(0, 1);
  c.swap(1, 0);
  c.cz(0, 2);
  const Circuit fused = canonicalize_for_backend(c);
  ASSERT_LT(fused.num_ops(), c.num_ops());

  Rng rng(42);
  const StateVector psi0 = random_state(3, rng);
  StateVector sv = psi0;
  run_circuit(fused, {}, sv);
  DensityMatrix rho = DensityMatrix::from_state(psi0);
  run_circuit_density(fused, {}, rho, NoiseModel{});
  const auto pd = rho.probabilities();
  for (Index k = 0; k < sv.dim(); ++k)
    EXPECT_NEAR(pd[k], sv.probability(k), 1e-10);
}

TEST(Matrix2QKernel, AdjointBackwardRewindsFusedBlocks) {
  // Fused blocks of both kinds around one trainable RY: gradients must
  // match the unfused circuit's (fused blocks carry no parameters, only
  // state).
  Circuit c(2);
  const ParamRef p = c.new_param();
  c.h(0);
  c.cx(0, 1);
  c.t(1);
  c.cx(0, 1);   // -> U3(0) + kFusedCtl2Q
  c.ry(0, p);
  c.swap(0, 1);
  c.t(0);
  c.swap(0, 1);  // -> dense kFused2Q
  const Circuit fused = canonicalize_for_backend(c);
  ASSERT_LT(fused.num_ops(), c.num_ops());

  const std::vector<Real> params = {0.6};
  const auto grad_of = [&params](const Circuit& circ) {
    StateVector psi(2);
    run_circuit(circ, params, psi);
    const std::vector<Complex> cot(psi.dim(), Complex{0.25, -0.1});
    const AdjointResult adj = adjoint_backward(circ, params, psi, cot);
    EXPECT_EQ(adj.param_grads.size(), 1u);
    return adj.param_grads[0];
  };
  EXPECT_NEAR(grad_of(fused), grad_of(c), 1e-10);
}

// ------------------------------------------------------------ fusion pass --

/// Append one literal two-qubit gate of the given kind on (a, b).
void push_2q(Circuit& c, GateKind kind, Index a, Index b, Real angle) {
  switch (kind) {
    case GateKind::kCX: c.cx(a, b); break;
    case GateKind::kCZ: c.cz(a, b); break;
    case GateKind::kSWAP: c.swap(a, b); break;
    case GateKind::kCRY: c.cry(a, b, angle); break;
    case GateKind::kCU3: c.cu3(a, b, angle, angle * 0.5, -angle); break;
    default: FAIL() << "not a two-qubit literal kind";
  }
}

TEST(FuseTwoQubitRuns, ExhaustiveGateKindPairEquivalence) {
  // Every ordered pair of literal two-qubit kinds, on aligned and crossed
  // operand orientations, with literal 1q gates interleaved on the pair:
  // fused == unfused on the statevector and the exact density path.
  const GateKind kinds[] = {GateKind::kCX, GateKind::kCZ, GateKind::kSWAP,
                            GateKind::kCRY, GateKind::kCU3};
  std::uint64_t seed = 1000;
  for (const GateKind k1 : kinds) {
    for (const GateKind k2 : kinds) {
      for (const bool crossed : {false, true}) {
        Circuit c(3);
        c.h(0);                                    // absorbed into the run
        push_2q(c, k1, 0, 1, 0.8);
        c.t(1);                                    // interleaved, absorbed
        c.rx(0, -0.4);                             // interleaved, absorbed
        c.ry(2, 0.9);                              // spectator qubit
        push_2q(c, k2, crossed ? 1 : 0, crossed ? 0 : 1, -1.3);
        Fuse2QStats stats;
        const Circuit fused = fuse_two_qubit_runs(c, &stats);
        EXPECT_EQ(stats.fused_runs, 1u);
        EXPECT_EQ(stats.absorbed_ops, 5u);
        // The rx(0) after the first two-qubit gate breaks every
        // block-diagonal factorization, so all pairs emit one dense block
        // (+ the spectator ry).
        EXPECT_EQ(stats.dense_runs, 1u);
        EXPECT_EQ(fused.num_ops(), 2u);
        expect_equivalent(c, fused, {}, seed);
        expect_density_equivalent(c, fused, {}, seed + 1);
        seed += 2;
      }
    }
  }
}

TEST(FuseTwoQubitRuns, TrailingOneQubitGatesAreNotAbsorbed) {
  // 1q gates after the last same-pair gate have no two-qubit successor;
  // they must re-emit verbatim. The CX CX run itself multiplies to the
  // identity and vanishes outright.
  Circuit c(2);
  c.cx(0, 1);
  c.cx(0, 1);
  c.h(0);
  Fuse2QStats stats;
  const Circuit fused = fuse_two_qubit_runs(c, &stats);
  ASSERT_EQ(fused.num_ops(), 1u);
  EXPECT_EQ(fused.ops()[0].kind, GateKind::kH);
  EXPECT_EQ(stats.collapsed_runs, 1u);
  expect_equivalent(c, fused, {}, 30);
}

TEST(FuseTwoQubitRuns, OverlappingPairEndsTheRun) {
  // CX(0,1) CX(1,2) share qubit 1 but are different pairs: no fusion.
  Circuit c(3);
  c.cx(0, 1);
  c.cx(1, 2);
  Fuse2QStats stats;
  const Circuit fused = fuse_two_qubit_runs(c, &stats);
  EXPECT_EQ(stats.fused_runs, 0u);
  EXPECT_EQ(fused.num_ops(), 2u);
  expect_equivalent(c, fused, {}, 31);
}

TEST(FuseTwoQubitRuns, ChainHandsPendingGatesToTheNextPair) {
  // The 1q gate between two overlapping pairs belongs to the second run.
  // Both CX CX products vanish; the buffered H survives as the second
  // run's control factor, so the whole stream reduces to one 1q gate.
  Circuit c(3);
  c.cx(0, 1);
  c.cx(0, 1);
  c.h(1);
  c.cx(1, 2);
  c.cx(1, 2);
  Fuse2QStats stats;
  const Circuit fused = fuse_two_qubit_runs(c, &stats);
  EXPECT_EQ(stats.fused_runs, 2u);
  EXPECT_EQ(stats.collapsed_runs, 2u);
  EXPECT_EQ(stats.absorbed_ops, 5u);
  ASSERT_EQ(fused.num_ops(), 1u);
  EXPECT_EQ(fused.ops()[0].qubits[0], 1u);
  expect_equivalent(c, fused, {}, 32);
  expect_density_equivalent(c, fused, {}, 33);
}

TEST(FuseTwoQubitRuns, TrainableGatesEndRuns) {
  Circuit c(2);
  const ParamRef p = c.new_param();
  c.cx(0, 1);
  c.ry(0, p);  // trainable: splits the two CX into separate runs
  c.cx(0, 1);
  const Circuit fused = fuse_two_qubit_runs(c);
  EXPECT_EQ(fused.num_ops(), 3u);
  EXPECT_EQ(fused.num_params(), 1u);
  const std::vector<Real> params = {0.9};
  expect_equivalent(c, fused, params, 34);
}

TEST(FuseTwoQubitRuns, NoFusableRunsPassesThroughVerbatim) {
  Circuit c(3);
  c.cx(0, 1);
  c.cx(1, 2);
  c.cx(2, 0);
  const Circuit fused = fuse_two_qubit_runs(c);
  ASSERT_EQ(fused.num_ops(), c.num_ops());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    EXPECT_EQ(fused.ops()[i].kind, c.ops()[i].kind);
    EXPECT_EQ(fused.ops()[i].qubits, c.ops()[i].qubits);
  }
  EXPECT_FALSE(has_fusable_two_qubit_runs(c));
}

TEST(FuseTwoQubitRuns, CanonicalizeIsIdempotent) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.t(1);
  c.cx(0, 1);
  c.swap(1, 2);
  c.swap(2, 1);
  const Circuit once = canonicalize_for_backend(c);
  const Circuit twice = canonicalize_for_backend(once);
  EXPECT_EQ(twice.num_ops(), once.num_ops());
  expect_equivalent(once, twice, {}, 35);
  expect_equivalent(c, once, {}, 36);
}

TEST(FuseTwoQubitRuns, RandomCircuitsStayEquivalentThroughCanonicalize) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Circuit c(4);
    for (int g = 0; g < 50; ++g) {
      const auto q = static_cast<Index>(rng.uniform_int(0, 3));
      const auto r = static_cast<Index>(rng.uniform_int(0, 3));
      switch (rng.uniform_int(0, 7)) {
        case 0: c.h(q); break;
        case 1: c.rx(q, rng.uniform(-3, 3)); break;
        case 2: c.t(q); break;
        case 3: if (q != r) c.cx(q, r); break;
        case 4: if (q != r) c.cz(q, r); break;
        case 5: if (q != r) c.swap(q, r); break;
        case 6: if (q != r) c.cu3(q, r, rng.uniform(-2, 2), rng.uniform(-2, 2),
                                  rng.uniform(-2, 2)); break;
        default: c.u3(q, rng.uniform(-2, 2), rng.uniform(-2, 2),
                      rng.uniform(-2, 2)); break;
      }
    }
    const Circuit canon = canonicalize_for_backend(c);
    EXPECT_LE(canon.num_ops(), c.num_ops());
    expect_equivalent(c, canon, {}, 300 + static_cast<std::uint64_t>(trial));
  }
}

TEST(BindParameters, FreezesTrainableAnglesIntoLiterals) {
  Circuit c(2);
  const ParamRef p = c.new_params(6);
  c.u3(0, p);
  c.cu3(0, 1, ParamRef{p.id + 3});
  std::vector<Real> params = {0.1, -0.2, 0.3, 0.4, -0.5, 0.6};
  const Circuit frozen = bind_parameters(c, params);
  EXPECT_EQ(frozen.num_params(), 0u);
  EXPECT_EQ(frozen.num_ops(), c.num_ops());
  expect_equivalent(c, frozen, params, 40);
  // Frozen, the U3+CU3 structure fuses (the trainable original cannot).
  EXPECT_FALSE(has_fusable_two_qubit_runs(c));
  EXPECT_TRUE(has_fusable_two_qubit_runs(frozen));
  expect_equivalent(c, canonicalize_for_backend(frozen), params, 41);
}

// ------------------------------------------------------- noisy-path bypass --

TEST(NoisyPathBypass, DensityBackendWithGateNoiseRunsOriginalStream) {
  // A fusable circuit under a depolarizing channel: the backend must keep
  // k per-gate noise insertion points, i.e. match the ORIGINAL op stream
  // executed noisily — and differ from noisy execution of the fused form.
  Circuit c(2);
  c.rx(0, 0.7);
  c.cx(0, 1);
  c.ry(1, 0.4);
  c.cry(0, 1, 0.6);
  c.rx(0, -1.1);
  c.cu3(0, 1, 0.5, 0.2, -0.3);
  ASSERT_TRUE(has_fusable_two_qubit_runs(c));

  NoiseModel noise;
  noise.gate_error_prob = 0.05;

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kDensityMatrix;
  cfg.noise = noise;
  const auto backend = make_backend(cfg, 2);
  backend->run(c, {});
  const auto via_backend = backend->probabilities();

  DensityMatrix original(2);
  run_circuit_density(c, {}, original, noise);
  const auto expected = original.probabilities();

  DensityMatrix fused_rho(2);
  run_circuit_density(canonicalize_for_backend(c), {}, fused_rho, noise);
  const auto fused_noisy = fused_rho.probabilities();

  Real diff_fused = 0;
  for (Index k = 0; k < 4; ++k) {
    EXPECT_NEAR(via_backend[k], expected[k], 1e-12);
    diff_fused += std::abs(fused_noisy[k] - expected[k]);
  }
  // Fewer insertion points => measurably less decoherence; the bypass is
  // load-bearing, not cosmetic.
  EXPECT_GT(diff_fused, 1e-4);
}

TEST(NoisyPathBypass, ReadoutOnlyNoiseMayStillFuse) {
  // The readout channel's single insertion point (end of circuit) survives
  // fusion: fused-with-readout must equal original-with-readout exactly.
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.cx(0, 1);

  NoiseModel noise;
  noise.readout_error = 0.03;

  ASSERT_TRUE(has_fusable_two_qubit_runs(c));
  ExecutionConfig cfg;
  cfg.backend = BackendKind::kDensityMatrix;
  cfg.noise = noise;
  const auto fused_backend = make_backend(cfg, 2);
  fused_backend->run(c, {});

  DensityMatrix original(2);
  run_circuit_density(c, {}, original, noise);

  const auto pf = fused_backend->probabilities();
  const auto pv = original.probabilities();
  for (Index k = 0; k < 4; ++k) EXPECT_NEAR(pf[k], pv[k], 1e-12);
}

// --------------------------------------------------- compiled-circuit cache --

TEST(CompiledCircuitCache, CompilesOncePerStructureAndBackendKind) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.cx(0, 1);

  auto cache = std::make_shared<CompiledCircuitCache>();
  ExecutionConfig cfg;
  cfg.compile_cache = cache;

  // Eight "chunks": fresh backend per chunk, one compile, seven hits.
  std::vector<Real> first;
  for (int chunk = 0; chunk < 8; ++chunk) {
    const auto backend = make_backend(cfg, 2);
    backend->run(c, {});
    if (chunk == 0)
      first = backend->probabilities();
    else
      EXPECT_EQ(backend->probabilities(), first);
  }
  EXPECT_EQ(cache->compile_count(), 1u);
  EXPECT_EQ(cache->hit_count(), 7u);

  // A different backend kind is a different key (per the cache contract).
  cfg.backend = BackendKind::kDensityMatrix;
  const auto density = make_backend(cfg, 2);
  density->run(c, {});
  EXPECT_EQ(cache->compile_count(), 2u);

  // A structurally identical but distinct Circuit object hits.
  Circuit c2(2);
  c2.h(0);
  c2.cx(0, 1);
  c2.cx(0, 1);
  cfg.backend = BackendKind::kStatevector;
  const auto backend = make_backend(cfg, 2);
  backend->run(c2, {});
  EXPECT_EQ(cache->compile_count(), 2u);
}

TEST(CompiledCircuitCache, IdentityCircuitsAreMemoizedAsNull) {
  // An unfusable circuit gets a (null) entry: later runs skip the probes
  // and execute the original by reference.
  Circuit c(2);
  const ParamRef p = c.new_param();
  c.ry(0, p);
  c.cx(0, 1);

  auto cache = std::make_shared<CompiledCircuitCache>();
  EXPECT_EQ(cache->canonical(c, BackendKind::kStatevector), nullptr);
  EXPECT_EQ(cache->canonical(c, BackendKind::kStatevector), nullptr);
  EXPECT_EQ(cache->compile_count(), 1u);
  EXPECT_EQ(cache->hit_count(), 1u);
}

}  // namespace
}  // namespace qugeo::qsim

// --------------------------------------------- model-level cache-hit probe --

namespace qugeo::core {
namespace {

data::ScaledSample random_sample(std::size_t wave_size, std::size_t vel_size,
                                 Rng& rng) {
  data::ScaledSample s;
  s.waveform.resize(wave_size);
  s.velocity.resize(vel_size);
  rng.fill_uniform(s.waveform, -1, 1);
  rng.fill_uniform(s.velocity, 0, 1);
  return s;
}

/// Clears the QUGEO_* execution overrides for the test's lifetime (this
/// probe pins exact compile/hit counts, which the CI env-smoke legs —
/// QUGEO_BACKEND=density, QUGEO_SHOTS=4096 — would legitimately change)
/// and restores them on destruction.
class ExecEnvGuard {
 public:
  ExecEnvGuard() {
    for (const char* name : kVars) {
      const char* v = std::getenv(name);
      saved_.emplace_back(v ? std::optional<std::string>(v) : std::nullopt);
      unsetenv(name);
    }
  }
  ~ExecEnvGuard() {
    for (std::size_t i = 0; i < kVars.size(); ++i) {
      if (saved_[i])
        setenv(kVars[i], saved_[i]->c_str(), 1);
      else
        unsetenv(kVars[i]);
    }
  }

 private:
  static constexpr std::array<const char*, 7> kVars = {
      "QUGEO_BACKEND",   "QUGEO_NOISE_P", "QUGEO_NOISE_CHANNEL",
      "QUGEO_READOUT_P", "QUGEO_SHOTS",   "QUGEO_TRAJECTORIES",
      "QUGEO_SIMD"};
  std::vector<std::optional<std::string>> saved_;
};

TEST(ModelCompileCache, RepeatedPredictCallsCanonicalizeExactlyOnce) {
  const ExecEnvGuard env_guard;
  ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.ansatz.blocks = 2;
  mc.decoder = DecoderKind::kLayer;
  mc.vel_rows = 3;
  mc.vel_cols = 2;
  Rng rng(7);
  QuGeoModel model(mc, rng);

  std::vector<data::ScaledSample> samples;
  for (int i = 0; i < 6; ++i) samples.push_back(random_sample(8, 6, rng));
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  // 6 samples at batch size 1 = 6 QuBatch chunks per call; two predict
  // calls = 12 executions. The structure is canonicalized exactly once —
  // every later chunk is a cache hit, whether or not fusion changes the
  // (all-trainable, hence identity) ansatz.
  const auto first = model.predict(ptrs);
  const auto second = model.predict(ptrs);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);
  EXPECT_EQ(model.compile_cache()->compile_count(), 1u);
  EXPECT_EQ(model.compile_cache()->hit_count(), 11u);

  // predict_with through a different backend kind compiles one more entry,
  // then hits for its remaining chunks.
  qsim::ExecutionConfig exec = model.execution_config();
  exec.backend = qsim::BackendKind::kDensityMatrix;
  (void)model.predict_with(ptrs, exec);
  EXPECT_EQ(model.compile_cache()->compile_count(), 2u);
  EXPECT_EQ(model.compile_cache()->hit_count(), 16u);
}

}  // namespace
}  // namespace qugeo::core
