// Differential gradient-conformance suite for the adjoint training path.
//
// A seeded random circuit corpus — every trainable GateKind, literal runs
// interleaved between the trainable slots, both 2q orientations — is
// differentiated three independent ways and the answers are required to
// agree:
//   * the adjoint sweep (executor.h: adjoint_backward);
//   * central finite differences of the loss, to 1e-6;
//   * the parameter-shift rule, for shift-eligible corpora (RX/RY/RZ/CRY).
// The single-pass adjoint sweep is also held against a test-local copy of
// the five-pass sweep it replaced (rewind psi, one contraction per slot,
// rewind lambda) on every index-pair layout and every trainable kind, under
// both SIMD levels, and its AVX2 kernels against a textbook pair loop.
// CI re-runs this binary under QUGEO_SIMD=scalar, QUGEO_SIMD=avx2 and
// QUGEO_THREADS=4 legs.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "qsim/circuit.h"
#include "qsim/executor.h"
#include "qsim/observables.h"
#include "qsim/simd_kernels.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {
namespace {

StateVector random_state(Index num_qubits, Rng& rng) {
  StateVector psi(num_qubits);
  Real norm2 = 0;
  for (Complex& a : psi.amplitudes_mut()) {
    a = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    norm2 += std::norm(a);
  }
  const Real inv = Real(1) / std::sqrt(norm2);
  for (Complex& a : psi.amplitudes_mut()) a *= inv;
  return psi;
}

/// A literal run: two adjacent 1q literals on one qubit plus random filler
/// gates (1q and 2q, both operand orders), never touching the parameter
/// table. The adjoint sweep rewinds these with the forward kernels.
void add_literal_run(Circuit& c, Rng& rng, std::size_t len) {
  const Index nq = c.num_qubits();
  const auto q1 = [&] { return static_cast<Index>(rng.uniform_int(0, nq - 1)); };
  const Index base = q1();
  c.h(base);
  c.t(base);
  for (std::size_t i = 0; i < len; ++i) {
    const Index a = q1();
    Index b = static_cast<Index>(rng.uniform_int(0, nq - 2));
    if (b >= a) ++b;
    switch (rng.uniform_int(0, 7)) {
      case 0: c.h(a); break;
      case 1: c.rz(a, rng.uniform(-2, 2)); break;
      case 2: c.rx(a, rng.uniform(-2, 2)); break;
      case 3: c.s(a); break;
      case 4: c.cx(a, b); break;   // both orientations: (a, b) is a random
      case 5: c.cz(b, a); break;   // ordered pair, so low->high and
      case 6: c.swap(a, b); break; // high->low controls both occur
      default: c.cry(a, b, rng.uniform(-2, 2)); break;
    }
  }
}

/// Append trainable slot #i; i % 6 cycles through every trainable
/// GateKind, and the 2q gates alternate control-low / control-high.
void add_trainable(Circuit& c, std::size_t i, Rng& rng,
                   std::set<GateKind>* kinds_seen) {
  const Index nq = c.num_qubits();
  const Index q = static_cast<Index>(rng.uniform_int(0, nq - 1));
  Index q2 = static_cast<Index>(rng.uniform_int(0, nq - 2));
  if (q2 >= q) ++q2;
  const Index lo = std::min(q, q2);
  const Index hi = std::max(q, q2);
  const Index ctl = (i % 2 == 0) ? lo : hi;
  const Index tgt = (i % 2 == 0) ? hi : lo;
  switch (i % 6) {
    case 0: c.rx(q, c.new_param()); kinds_seen->insert(GateKind::kRX); break;
    case 1: c.ry(q, c.new_param()); kinds_seen->insert(GateKind::kRY); break;
    case 2: c.rz(q, c.new_param()); kinds_seen->insert(GateKind::kRZ); break;
    case 3: c.u3(q, c.new_params(3)); kinds_seen->insert(GateKind::kU3); break;
    case 4:
      c.cry(ctl, tgt, c.new_param());
      kinds_seen->insert(GateKind::kCRY);
      break;
    default:
      c.cu3(ctl, tgt, c.new_params(3));
      kinds_seen->insert(GateKind::kCU3);
      break;
  }
}

/// Corpus circuit `seed`: literal prefix, `slots` trainable gates with a
/// literal run after each, literal suffix included.
Circuit corpus_circuit(Index num_qubits, std::uint64_t seed, std::size_t slots,
                       std::set<GateKind>* kinds_seen) {
  Rng rng(seed * 7919 + 13);
  Circuit c(num_qubits);
  add_literal_run(c, rng, 3);
  for (std::size_t i = 0; i < slots; ++i) {
    add_trainable(c, i, rng, kinds_seen);
    add_literal_run(c, rng, static_cast<std::size_t>(rng.uniform_int(1, 4)));
  }
  return c;
}

/// A literal run of strictly DIAGONAL gates (they commute with every
/// computational-basis projector).
void add_diagonal_run(Circuit& c, Rng& rng, std::size_t len) {
  const Index nq = c.num_qubits();
  for (std::size_t i = 0; i < len; ++i) {
    const Index a = static_cast<Index>(rng.uniform_int(0, nq - 1));
    Index b = static_cast<Index>(rng.uniform_int(0, nq - 2));
    if (b >= a) ++b;
    switch (rng.uniform_int(0, 4)) {
      case 0: c.rz(a, rng.uniform(-2, 2)); break;
      case 1: c.z(a); break;
      case 2: c.s(a); break;
      case 3: c.t(a); break;
      default: c.cz(a, b); break;
    }
  }
}

/// Shift-rule-eligible corpus: trainable gates restricted to RX/RY/RZ/CRY
/// (generator eigenvalues +-1/2), literal runs interleaved. The two-term
/// pi/2 shift is exact for a CONTROLLED rotation only when everything
/// downstream of it is block-diagonal in its control qubit — a diagonal
/// observable (the probability-weight loss) never couples the control
/// subspaces, but an arbitrary suffix would — so the CRY slots sit at the
/// end with diagonal-only literal runs after them, in both orientations
/// (control-low targets 1 from 0; control-high targets 1 from 2, which
/// never touches the first CRY's control).
Circuit shift_corpus_circuit(Index num_qubits, std::uint64_t seed,
                             std::size_t slots) {
  Rng rng(seed * 104729 + 5);
  Circuit c(num_qubits);
  add_literal_run(c, rng, 2);
  for (std::size_t i = 0; i < slots; ++i) {
    const Index q = static_cast<Index>(rng.uniform_int(0, num_qubits - 1));
    switch (i % 3) {
      case 0: c.rx(q, c.new_param()); break;
      case 1: c.ry(q, c.new_param()); break;
      default: c.rz(q, c.new_param()); break;
    }
    add_literal_run(c, rng, 2);
  }
  c.cry(0, 1, c.new_param());
  add_diagonal_run(c, rng, 3);
  c.cry(2, 1, c.new_param());
  add_diagonal_run(c, rng, 3);
  return c;
}

std::vector<Real> random_params(std::size_t n, Rng& rng) {
  std::vector<Real> p(n);
  rng.fill_uniform(p, -1.5, 1.5);
  return p;
}

/// Linear probability loss L = sum_k g_k p_k with fixed random weights —
/// the simplest loss whose cotangent the adjoint entry point consumes
/// (lambda_k = g_k psi_k) and whose value any forward pass can evaluate.
std::vector<Real> random_weights(Index num_qubits, Rng& rng) {
  std::vector<Real> g(std::size_t{1} << num_qubits);
  rng.fill_uniform(g, -1, 1);
  return g;
}

Real linear_loss(const StateVector& psi, const std::vector<Real>& g) {
  const std::vector<Real> p = psi.probabilities();
  Real loss = 0;
  for (std::size_t k = 0; k < p.size(); ++k) loss += g[k] * p[k];
  return loss;
}

void expect_adjoint_near(const AdjointResult& got, const AdjointResult& want,
                         Real tol) {
  ASSERT_EQ(got.param_grads.size(), want.param_grads.size());
  for (std::size_t p = 0; p < want.param_grads.size(); ++p)
    EXPECT_NEAR(got.param_grads[p], want.param_grads[p], tol) << "param " << p;
  ASSERT_EQ(got.input_cotangent.size(), want.input_cotangent.size());
  for (std::size_t k = 0; k < want.input_cotangent.size(); ++k) {
    EXPECT_NEAR(got.input_cotangent[k].real(), want.input_cotangent[k].real(),
                tol)
        << "amp " << k;
    EXPECT_NEAR(got.input_cotangent[k].imag(), want.input_cotangent[k].imag(),
                tol)
        << "amp " << k;
  }
}

AdjointResult adjoint_of(const Circuit& circuit, std::span<const Real> params,
                         const StateVector& psi_in, const std::vector<Real>& g) {
  StateVector psi = psi_in;
  run_circuit(circuit, params, psi);
  const std::vector<Complex> cot = cotangent_from_probability_grads(psi, g);
  return adjoint_backward(circuit, params, std::move(psi), cot);
}

constexpr std::uint64_t kCorpusSeeds = 12;

TEST(GradientConformance, CorpusCoversEveryTrainableGateKind) {
  std::set<GateKind> kinds;
  for (std::uint64_t seed = 0; seed < kCorpusSeeds; ++seed)
    (void)corpus_circuit(3, seed, 7, &kinds);
  EXPECT_EQ(kinds, (std::set<GateKind>{GateKind::kRX, GateKind::kRY,
                                       GateKind::kRZ, GateKind::kU3,
                                       GateKind::kCRY, GateKind::kCU3}));
}

TEST(GradientConformance, AdjointMatchesCentralFiniteDifference) {
  const Real h = 1e-5;
  for (std::uint64_t seed = 0; seed < kCorpusSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::set<GateKind> kinds;
    const Circuit c = corpus_circuit(3, seed, 6, &kinds);

    Rng rng(seed + 0xfd);
    std::vector<Real> params = random_params(c.num_params(), rng);
    const StateVector psi_in = random_state(3, rng);
    const std::vector<Real> g = random_weights(3, rng);

    const AdjointResult adj = adjoint_of(c, params, psi_in, g);
    for (std::size_t p = 0; p < c.num_params(); ++p) {
      const Real saved = params[p];
      params[p] = saved + h;
      StateVector plus = psi_in;
      run_circuit(c, params, plus);
      params[p] = saved - h;
      StateVector minus = psi_in;
      run_circuit(c, params, minus);
      params[p] = saved;
      const Real fd = (linear_loss(plus, g) - linear_loss(minus, g)) / (2 * h);
      EXPECT_NEAR(adj.param_grads[p], fd, 1e-6) << "param " << p;
    }
  }
}

TEST(GradientConformance, AdjointMatchesParameterShiftOnEligibleGates) {
  for (std::uint64_t seed = 0; seed < kCorpusSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Circuit c = shift_corpus_circuit(3, seed, 6);

    Rng rng(seed + 0x51f7);
    const std::vector<Real> params = random_params(c.num_params(), rng);
    const StateVector psi_in = random_state(3, rng);
    const std::vector<Real> g = random_weights(3, rng);

    const AdjointResult adj = adjoint_of(c, params, psi_in, g);
    const std::vector<Real> shift = parameter_shift_gradient(
        c, params, psi_in,
        [&](const StateVector& psi) { return linear_loss(psi, g); });
    ASSERT_EQ(shift.size(), adj.param_grads.size());
    // Both rules are exact for these generators; the tolerance only covers
    // accumulated kernel rounding.
    for (std::size_t p = 0; p < shift.size(); ++p)
      EXPECT_NEAR(adj.param_grads[p], shift[p], 1e-9) << "param " << p;
  }
}

// ---- single-pass sweep against the five-pass sweep it replaced ----------

/// <lambda| dU |psi> over the pairs (first(j), first(j) | tmask), j < count.
Complex ref_pair_inner(std::span<const Complex> lambda,
                       std::span<const Complex> psi, const Mat2& du,
                       Index count, Index tmask,
                       const std::function<Index(Index)>& first) {
  Complex s{0, 0};
  for (Index j = 0; j < count; ++j) {
    const Index i0 = first(j);
    const Index i1 = i0 | tmask;
    s += std::conj(lambda[i0]) * (du(0, 0) * psi[i0] + du(0, 1) * psi[i1]);
    s += std::conj(lambda[i1]) * (du(1, 0) * psi[i0] + du(1, 1) * psi[i1]);
  }
  return s;
}

/// The adjoint sweep before the single-pass kernel: per op, rewind psi,
/// then one pair contraction per trainable slot, then rewind lambda.
AdjointResult five_pass_adjoint(const Circuit& circuit,
                                std::span<const Real> params, StateVector psi,
                                std::span<const Complex> cotangent) {
  AdjointResult result;
  result.param_grads.assign(circuit.num_params(), Real(0));
  StateVector lambda(circuit.num_qubits());
  lambda.set_amplitudes(cotangent);
  const auto ops = circuit.ops();
  for (std::size_t i = ops.size(); i-- > 0;) {
    const Op& op = ops[i];
    apply_op_inverse(op, params, psi);
    const auto vals = Circuit::resolve_params(op, params);
    for (std::size_t slot = 0; slot < 3; ++slot) {
      const std::uint32_t pid = op.param_ids[slot];
      if (pid == kLiteralParam) continue;
      const Mat2 du = gate_matrix_derivs(op.kind, vals).du[slot];
      Complex ip;
      if (gate_is_controlled_1q(op.kind)) {
        const Index control = op.qubits[0], target = op.qubits[1];
        const Index lo = std::min(control, target);
        const Index hi = std::max(control, target);
        ip = ref_pair_inner(lambda.amplitudes(), psi.amplitudes(), du,
                            psi.dim() / 4, Index{1} << target, [&](Index j) {
                              return insert_two_zero_bits(j, lo, hi) |
                                     (Index{1} << control);
                            });
      } else {
        const Index q = op.qubits[0];
        ip = ref_pair_inner(lambda.amplitudes(), psi.amplitudes(), du,
                            psi.dim() / 2, Index{1} << q,
                            [&](Index j) { return insert_zero_bit(j, q); });
      }
      result.param_grads[pid] += 2 * ip.real();
    }
    apply_op_inverse(op, params, lambda);
  }
  result.input_cotangent.assign(lambda.amplitudes().begin(),
                                lambda.amplitudes().end());
  return result;
}

/// The trainable gate a layout circuit repeats.
enum class Trainable { kRX, kRY, kRZ, kPhase, kU3, kU3PartlyLiteral, kCRY, kCU3 };

constexpr Trainable kAllTrainables[] = {
    Trainable::kRX,  Trainable::kRY,  Trainable::kRZ,
    Trainable::kPhase, Trainable::kU3, Trainable::kU3PartlyLiteral,
    Trainable::kCRY, Trainable::kCU3};

bool is_controlled(Trainable t) {
  return t == Trainable::kCRY || t == Trainable::kCU3;
}

const char* trainable_name(Trainable t) {
  switch (t) {
    case Trainable::kRX: return "rx";
    case Trainable::kRY: return "ry";
    case Trainable::kRZ: return "rz";
    case Trainable::kPhase: return "p";
    case Trainable::kU3: return "u3";
    case Trainable::kU3PartlyLiteral: return "u3-partly-literal";
    case Trainable::kCRY: return "cry";
    case Trainable::kCU3: return "cu3";
  }
  return "?";
}

/// `t` at every placement on `nq` qubits — a 1q kind on each qubit (qubit
/// 0 and above), a controlled kind on every ordered pair (control below and
/// above the target, control 0, target 0) — with literal gates after each
/// slot so both states stay generic.
Circuit layout_circuit(Trainable t, Index nq, Rng& rng) {
  Circuit c(nq);
  for (Index q = 0; q < nq; ++q) c.h(q);
  const auto mix = [&](Index q) {
    c.ry(q, rng.uniform(-2, 2));
    if (nq > 1) c.cx(q, (q + 1) % nq);
  };
  std::size_t placed = 0;
  const auto place_1q = [&](Index q) {
    switch (t) {
      case Trainable::kRX: c.rx(q, c.new_param()); break;
      case Trainable::kRY: c.ry(q, c.new_param()); break;
      case Trainable::kRZ: c.rz(q, c.new_param()); break;
      case Trainable::kPhase: c.phase(q, c.new_param()); break;
      case Trainable::kU3: c.u3(q, c.new_params(3)); break;
      case Trainable::kU3PartlyLiteral: {
        // The six mixes of trainable and literal slots; the offset by nq
        // makes the 1..5-qubit circuits cover all six between them.
        static constexpr bool kPattern[6][3] = {
            {true, false, false}, {false, true, false}, {false, false, true},
            {true, true, false},  {false, true, true},  {true, false, true}};
        std::array<ParamRef, 3> slots{};
        for (std::size_t s = 0; s < 3; ++s)
          if (kPattern[(placed + nq) % 6][s]) slots[s] = c.new_param();
        c.u3(q, slots,
             {rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)});
        break;
      }
      case Trainable::kCRY:
      case Trainable::kCU3:
        break;
    }
  };
  if (is_controlled(t)) {
    for (Index control = 0; control < nq; ++control)
      for (Index target = 0; target < nq; ++target) {
        if (control == target) continue;
        if (t == Trainable::kCRY)
          c.cry(control, target, c.new_param());
        else
          c.cu3(control, target, c.new_params(3));
        mix(target);
      }
  } else {
    for (Index q = 0; q < nq; ++q) {
      place_1q(q);
      ++placed;
      mix(q);
    }
  }
  return c;
}

constexpr simd::SimdMode kBothLevels[] = {simd::SimdMode::kScalar,
                                          simd::SimdMode::kAvx2};

TEST(GradientConformance, SinglePassSweepMatchesFivePassOnEveryLayout) {
  for (const Trainable t : kAllTrainables) {
    // One qubit has no pair partner for a controlled gate; five qubits give
    // every layout with free bits on both sides of the pair.
    for (Index nq = is_controlled(t) ? 2 : 1; nq <= 5; ++nq) {
      SCOPED_TRACE(std::string(trainable_name(t)) + " nq=" + std::to_string(nq));
      Rng rng(nq * 31 + static_cast<std::uint64_t>(t));
      const Circuit c = layout_circuit(t, nq, rng);
      const std::vector<Real> params = random_params(c.num_params(), rng);
      const std::vector<Real> g = random_weights(nq, rng);
      StateVector psi = random_state(nq, rng);
      std::vector<Complex> cot;
      AdjointResult want;
      {
        const simd::ScopedSimdMode scalar(simd::SimdMode::kScalar);
        run_circuit(c, params, psi);
        cot = cotangent_from_probability_grads(psi, g);
        want = five_pass_adjoint(c, params, psi, cot);
      }
      for (const simd::SimdMode mode : kBothLevels) {
        SCOPED_TRACE(std::string("simd=") +
                     std::string(simd::simd_mode_name(mode)));
        const simd::ScopedSimdMode scoped(mode);
        expect_adjoint_near(adjoint_backward(c, params, psi, cot), want, 1e-12);
      }
    }
  }
}

TEST(GradientConformance, SinglePassSweepMatchesFiniteDifferenceAndShift) {
  const Real h = 1e-5;
  for (const Trainable t : kAllTrainables) {
    SCOPED_TRACE(trainable_name(t));
    const Index nq = 3;
    Rng rng(700 + static_cast<std::uint64_t>(t));
    const Circuit c = layout_circuit(t, nq, rng);
    std::vector<Real> params = random_params(c.num_params(), rng);
    const StateVector psi_in = random_state(nq, rng);
    const std::vector<Real> g = random_weights(nq, rng);
    // Every uncontrolled kind is a product of rotations with generator
    // eigenvalues +-1/2 up to a global phase, so the pi/2 shift is exact;
    // the controlled kinds here sit before non-diagonal literals.
    const bool shift_eligible = !is_controlled(t);
    for (const simd::SimdMode mode : kBothLevels) {
      SCOPED_TRACE(std::string("simd=") + std::string(simd::simd_mode_name(mode)));
      const simd::ScopedSimdMode scoped(mode);
      const AdjointResult adj = adjoint_of(c, params, psi_in, g);
      for (std::size_t p = 0; p < c.num_params(); ++p) {
        const Real saved = params[p];
        params[p] = saved + h;
        StateVector plus = psi_in;
        run_circuit(c, params, plus);
        params[p] = saved - h;
        StateVector minus = psi_in;
        run_circuit(c, params, minus);
        params[p] = saved;
        const Real fd = (linear_loss(plus, g) - linear_loss(minus, g)) / (2 * h);
        EXPECT_NEAR(adj.param_grads[p], fd, 1e-6) << "param " << p;
      }
      if (shift_eligible) {
        const std::vector<Real> shift = parameter_shift_gradient(
            c, params, psi_in,
            [&](const StateVector& psi) { return linear_loss(psi, g); });
        for (std::size_t p = 0; p < shift.size(); ++p)
          EXPECT_NEAR(adj.param_grads[p], shift[p], 1e-9) << "param " << p;
      }
    }
  }
}

/// Textbook pair pass: every index k with the target bit clear and the
/// control mask set pairs with k | tmask (cmask = 0 for a 1q gate).
Mat2 ref_sweep(std::vector<Complex>& psi, std::vector<Complex>& lambda,
               const Mat2& ud, Index cmask, Index tmask) {
  Mat2 g{};
  for (Index k = 0; k < psi.size(); ++k) {
    if ((k & tmask) != 0 || (k & cmask) != cmask) continue;
    const Index k1 = k | tmask;
    const Complex p0 = ud(0, 0) * psi[k] + ud(0, 1) * psi[k1];
    const Complex p1 = ud(1, 0) * psi[k] + ud(1, 1) * psi[k1];
    const Complex l0 = lambda[k], l1 = lambda[k1];
    g(0, 0) += std::conj(l0) * p0;
    g(0, 1) += std::conj(l0) * p1;
    g(1, 0) += std::conj(l1) * p0;
    g(1, 1) += std::conj(l1) * p1;
    psi[k] = p0;
    psi[k1] = p1;
    lambda[k] = ud(0, 0) * l0 + ud(0, 1) * l1;
    lambda[k1] = ud(1, 0) * l0 + ud(1, 1) * l1;
  }
  return g;
}

std::vector<Complex> random_amps(Index dim, Rng& rng) {
  std::vector<Complex> a(dim);
  for (Complex& x : a) x = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return a;
}

void expect_sweep_near(const std::vector<Complex>& psi,
                       const std::vector<Complex>& want_psi,
                       const std::vector<Complex>& lambda,
                       const std::vector<Complex>& want_lambda, const Mat2& g,
                       const Mat2& want_g) {
  for (Index k = 0; k < psi.size(); ++k) {
    EXPECT_NEAR(std::abs(psi[k] - want_psi[k]), 0, 1e-12) << "psi " << k;
    EXPECT_NEAR(std::abs(lambda[k] - want_lambda[k]), 0, 1e-12)
        << "lambda " << k;
  }
  for (std::size_t e = 0; e < 4; ++e)
    EXPECT_NEAR(std::abs(g.m[e] - want_g.m[e]), 0, 1e-12) << "G entry " << e;
}

TEST(GradientConformance, AdjointSweepAvx2KernelsMatchPairLoop) {
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "AVX2+FMA not supported on this CPU";
  Rng rng(77);
  // One and two qubits leave a single pair (the lone-lane tail); six
  // qubits give long contiguous runs.
  for (Index nq : {1u, 2u, 3u, 4u, 6u}) {
    const Index n = Index{1} << nq;
    for (Index q = 0; q < nq; ++q) {
      SCOPED_TRACE("1q nq=" + std::to_string(nq) + " q=" + std::to_string(q));
      const Mat2 ud = dagger(
          u3_matrix(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)));
      std::vector<Complex> psi = random_amps(n, rng);
      std::vector<Complex> lambda = random_amps(n, rng);
      std::vector<Complex> want_psi = psi, want_lambda = lambda;
      const Mat2 want_g = ref_sweep(want_psi, want_lambda, ud, 0, Index{1} << q);
      const Mat2 g = adjoint_sweep_1q_avx2(psi.data(), lambda.data(), n, ud, q);
      expect_sweep_near(psi, want_psi, lambda, want_lambda, g, want_g);
    }
    for (Index control = 0; control < nq; ++control)
      for (Index target = 0; target < nq; ++target) {
        if (control == target) continue;
        SCOPED_TRACE("controlled nq=" + std::to_string(nq) + " control=" +
                     std::to_string(control) + " target=" +
                     std::to_string(target));
        const Mat2 ud = dagger(u3_matrix(rng.uniform(-3, 3), rng.uniform(-3, 3),
                                         rng.uniform(-3, 3)));
        std::vector<Complex> psi = random_amps(n, rng);
        std::vector<Complex> lambda = random_amps(n, rng);
        std::vector<Complex> want_psi = psi, want_lambda = lambda;
        const Mat2 want_g = ref_sweep(want_psi, want_lambda, ud,
                                      Index{1} << control, Index{1} << target);
        const Mat2 g = adjoint_sweep_controlled_1q_avx2(
            psi.data(), lambda.data(), n, ud, control, target);
        expect_sweep_near(psi, want_psi, lambda, want_lambda, g, want_g);
      }
  }
}

}  // namespace
}  // namespace qugeo::qsim
