// Kernel-equivalence suite: every specialized fast path the executor can
// dispatch to (diagonal, anti-diagonal, branch-free controlled, SWAP
// half-space) must agree with the generic dense 2x2 application on random
// states — the specialized kernels are optimizations, never semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "qsim/executor.h"
#include "qsim/observables.h"
#include "qsim/simd_kernels.h"

namespace qugeo::qsim {
namespace {

constexpr Real kTol = 1e-12;

std::vector<Complex> random_amplitudes(Index dim, Rng& rng) {
  std::vector<Complex> amps(dim);
  Real norm = 0;
  for (Complex& a : amps) {
    a = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    norm += std::norm(a);
  }
  norm = std::sqrt(norm);
  for (Complex& a : amps) a /= norm;
  return amps;
}

// Reference implementations: the textbook dense loops the seed shipped
// with, kept verbatim so the fast paths are checked against known-good
// semantics rather than against themselves.

void ref_apply_1q(std::vector<Complex>& amps, const Mat2& u, Index q) {
  const Index stride = Index{1} << q;
  for (Index base = 0; base < amps.size(); base += stride * 2) {
    for (Index off = 0; off < stride; ++off) {
      const Index i0 = base + off;
      const Index i1 = i0 + stride;
      const Complex a0 = amps[i0];
      const Complex a1 = amps[i1];
      amps[i0] = u(0, 0) * a0 + u(0, 1) * a1;
      amps[i1] = u(1, 0) * a0 + u(1, 1) * a1;
    }
  }
}

void ref_apply_controlled_1q(std::vector<Complex>& amps, const Mat2& u,
                             Index control, Index target) {
  const Index cmask = Index{1} << control;
  const Index stride = Index{1} << target;
  for (Index base = 0; base < amps.size(); base += stride * 2) {
    for (Index off = 0; off < stride; ++off) {
      const Index i0 = base + off;
      if (!(i0 & cmask)) continue;
      const Index i1 = i0 + stride;
      const Complex a0 = amps[i0];
      const Complex a1 = amps[i1];
      amps[i0] = u(0, 0) * a0 + u(0, 1) * a1;
      amps[i1] = u(1, 0) * a0 + u(1, 1) * a1;
    }
  }
}

void ref_apply_swap(std::vector<Complex>& amps, Index a, Index b) {
  const Index ma = Index{1} << a;
  const Index mb = Index{1} << b;
  for (Index k = 0; k < amps.size(); ++k)
    if ((k & ma) && !(k & mb)) std::swap(amps[k], amps[(k & ~ma) | mb]);
}

/// Apply `op` to a copy of `amps` via the reference loops.
std::vector<Complex> ref_apply_op(const Op& op, std::span<const Real> params,
                                  std::vector<Complex> amps, bool inverse) {
  if (op.kind == GateKind::kSWAP) {
    ref_apply_swap(amps, op.qubits[0], op.qubits[1]);
    return amps;
  }
  const auto vals = Circuit::resolve_params(op, params);
  Mat2 u = gate_matrix(op.kind, vals);
  if (inverse) u = dagger(u);
  if (gate_is_controlled_1q(op.kind))
    ref_apply_controlled_1q(amps, u, op.qubits[0], op.qubits[1]);
  else
    ref_apply_1q(amps, u, op.qubits[0]);
  return amps;
}

void expect_amps_near(std::span<const Complex> got, std::span<const Complex> want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (Index k = 0; k < got.size(); ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), kTol) << what << " amp " << k;
    EXPECT_NEAR(got[k].imag(), want[k].imag(), kTol) << what << " amp " << k;
  }
}

const GateKind kAllKinds[] = {
    GateKind::kI,   GateKind::kX,     GateKind::kY,   GateKind::kZ,
    GateKind::kH,   GateKind::kS,     GateKind::kSdg, GateKind::kT,
    GateKind::kTdg, GateKind::kRX,    GateKind::kRY,  GateKind::kRZ,
    GateKind::kPhase, GateKind::kU3,  GateKind::kCX,  GateKind::kCZ,
    GateKind::kCRY, GateKind::kCU3,   GateKind::kSWAP};

Op random_op(GateKind kind, Index num_qubits, Rng& rng) {
  Op op;
  op.kind = kind;
  op.qubits[0] = static_cast<Index>(
      rng.uniform_int(0, static_cast<std::int64_t>(num_qubits) - 1));
  if (gate_qubit_count(kind) == 2) {
    do {
      op.qubits[1] = static_cast<Index>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_qubits) - 1));
    } while (op.qubits[1] == op.qubits[0]);
  }
  for (int s = 0; s < gate_param_count(kind); ++s)
    op.literals[static_cast<std::size_t>(s)] = rng.uniform(-3, 3);
  return op;
}

TEST(KernelEquivalence, EveryKindMatchesDenseReference) {
  Rng rng(11);
  for (Index nq : {2u, 3u, 5u, 7u}) {
    for (GateKind kind : kAllKinds) {
      for (int trial = 0; trial < 4; ++trial) {
        const Op op = random_op(kind, nq, rng);
        const auto amps = random_amplitudes(Index{1} << nq, rng);
        StateVector psi(nq);
        psi.set_amplitudes(amps);
        apply_op(op, {}, psi);
        const auto want = ref_apply_op(op, {}, amps, /*inverse=*/false);
        expect_amps_near(psi.amplitudes(), want, gate_name(kind).data());
      }
    }
  }
}

TEST(KernelEquivalence, InverseMatchesDenseReference) {
  Rng rng(12);
  for (Index nq : {2u, 4u, 6u}) {
    for (GateKind kind : kAllKinds) {
      const Op op = random_op(kind, nq, rng);
      const auto amps = random_amplitudes(Index{1} << nq, rng);
      StateVector psi(nq);
      psi.set_amplitudes(amps);
      apply_op_inverse(op, {}, psi);
      const auto want = ref_apply_op(op, {}, amps, /*inverse=*/true);
      expect_amps_near(psi.amplitudes(), want, gate_name(kind).data());
    }
  }
}

TEST(KernelEquivalence, InverseUndoesForward) {
  Rng rng(13);
  for (GateKind kind : kAllKinds) {
    const Index nq = 5;
    const Op op = random_op(kind, nq, rng);
    const auto amps = random_amplitudes(Index{1} << nq, rng);
    StateVector psi(nq);
    psi.set_amplitudes(amps);
    apply_op(op, {}, psi);
    apply_op_inverse(op, {}, psi);
    expect_amps_near(psi.amplitudes(), amps, gate_name(kind).data());
  }
}

TEST(KernelEquivalence, DirectKernelsAgainstReference) {
  // The specialized entry points themselves (not via apply_op dispatch),
  // including the non-unit diagonal/anti-diagonal branches.
  Rng rng(14);
  const Index nq = 6;
  const auto amps = random_amplitudes(Index{1} << nq, rng);
  const Complex d0{0.6, -0.8}, d1{0.28, 0.96};
  const Complex a01{0.0, -1.0}, a10{0.0, 1.0};

  {
    Mat2 u{};
    u(0, 0) = d0;
    u(1, 1) = d1;
    StateVector psi(nq);
    psi.set_amplitudes(amps);
    psi.apply_diag_1q(d0, d1, 3);
    auto want = amps;
    ref_apply_1q(want, u, 3);
    expect_amps_near(psi.amplitudes(), want, "diag");

    StateVector cpsi(nq);
    cpsi.set_amplitudes(amps);
    cpsi.apply_controlled_diag_1q(d0, d1, 5, 1);
    auto cwant = amps;
    ref_apply_controlled_1q(cwant, u, 5, 1);
    expect_amps_near(cpsi.amplitudes(), cwant, "cdiag");
  }
  {
    Mat2 u{};
    u(0, 1) = a01;
    u(1, 0) = a10;
    StateVector psi(nq);
    psi.set_amplitudes(amps);
    psi.apply_antidiag_1q(a01, a10, 2);
    auto want = amps;
    ref_apply_1q(want, u, 2);
    expect_amps_near(psi.amplitudes(), want, "antidiag");

    StateVector cpsi(nq);
    cpsi.set_amplitudes(amps);
    cpsi.apply_controlled_antidiag_1q(a01, a10, 0, 4);
    auto cwant = amps;
    ref_apply_controlled_1q(cwant, u, 0, 4);
    expect_amps_near(cpsi.amplitudes(), cwant, "cantidiag");
  }
}

TEST(KernelEquivalence, SwapMatchesReferenceAllQubitPairs) {
  Rng rng(15);
  const Index nq = 5;
  for (Index a = 0; a < nq; ++a)
    for (Index b = 0; b < nq; ++b) {
      if (a == b) continue;
      const auto amps = random_amplitudes(Index{1} << nq, rng);
      StateVector psi(nq);
      psi.set_amplitudes(amps);
      psi.apply_swap(a, b);
      auto want = amps;
      ref_apply_swap(want, a, b);
      expect_amps_near(psi.amplitudes(), want, "swap");
    }
}

TEST(KernelEquivalence, AdjointGradientsMatchParameterShiftOnFastPathCircuit) {
  // A circuit that exercises every specialized dispatch class with
  // trainable angles where the parameter-shift rule applies.
  Rng rng(16);
  const Index nq = 4;
  Circuit c(nq);
  c.h(0);
  c.h(1);
  c.h(2);
  c.h(3);
  c.rz(0, c.new_param());
  c.z(1);
  c.s(2);
  c.t(3);
  c.cz(0, 2);
  c.x(1);
  c.cx(3, 1);
  c.ry(2, c.new_param());
  c.rx(3, c.new_param());
  c.cry(1, 3, c.new_param());
  c.swap(0, 3);
  c.rz(2, c.new_param());

  std::vector<Real> params(c.num_params());
  rng.fill_uniform(params, -2, 2);

  std::vector<Real> weights(Index{1} << nq);
  rng.fill_uniform(weights, -1, 1);
  const auto loss = [&](const StateVector& psi) {
    Real l = 0;
    for (Index k = 0; k < psi.dim(); ++k) l += weights[k] * psi.probability(k);
    return l;
  };

  StateVector psi_in(nq);
  StateVector psi_out = psi_in;
  run_circuit(c, params, psi_out);
  const auto cot = cotangent_from_probability_grads(psi_out, weights);
  const auto adj = adjoint_backward(c, params, psi_out, cot);
  const auto shift = parameter_shift_gradient(c, params, psi_in, loss);

  ASSERT_EQ(adj.param_grads.size(), shift.size());
  for (std::size_t i = 0; i < shift.size(); ++i)
    EXPECT_NEAR(adj.param_grads[i], shift[i], 1e-9) << "param " << i;
}

// --- SIMD layer: the QUGEO_SIMD=scalar escape hatch and the AVX2 kernels.
//
// The scalar dispatch path must reproduce the pre-SIMD kernels BIT-EXACTLY
// (the bodies are the unchanged cmul formulas; the baseline TU cannot emit
// FMA, so re-deriving the same formulas here yields identical doubles).
// The AVX2 kernels may contract into FMA and are pinned to <= 1e-12 per
// amplitude component against scalar.

/// The exact scalar apply_1q formula from statevector.cpp, re-derived.
void formula_apply_1q(std::vector<Complex>& amps, const Mat2& u, Index q) {
  const Index stride = Index{1} << q;
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  for (Index base = 0; base < amps.size(); base += stride * 2) {
    for (Index off = 0; off < stride; ++off) {
      const Index i0 = base + off;
      const Index i1 = i0 + stride;
      const Complex a0 = amps[i0];
      const Complex a1 = amps[i1];
      amps[i0] = cmul(u00, a0) + cmul(u01, a1);
      amps[i1] = cmul(u10, a0) + cmul(u11, a1);
    }
  }
}

/// The exact scalar apply_controlled_1q formula from statevector.cpp,
/// re-derived over the control=|1> pairs.
void formula_apply_controlled_1q(std::vector<Complex>& amps, const Mat2& u,
                                 Index control, Index target) {
  const Index cmask = Index{1} << control;
  const Index stride = Index{1} << target;
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  for (Index i0 = 0; i0 < amps.size(); ++i0) {
    if (!(i0 & cmask) || (i0 & stride)) continue;
    const Index i1 = i0 + stride;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i1];
    amps[i0] = cmul(u00, a0) + cmul(u01, a1);
    amps[i1] = cmul(u10, a0) + cmul(u11, a1);
  }
}

void expect_amps_bitwise(std::span<const Complex> got,
                         std::span<const Complex> want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (Index k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].real(), want[k].real()) << what << " amp " << k;
    EXPECT_EQ(got[k].imag(), want[k].imag()) << what << " amp " << k;
  }
}

Mat2 random_mat2(Rng& rng) {
  return u3_matrix(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3));
}

TEST(SimdEquivalence, ScalarModeIsBitExactReferenceFormula) {
  // QUGEO_SIMD=scalar must reproduce the pre-SIMD results bit-for-bit —
  // the documented reproducibility escape hatch.
  const simd::ScopedSimdMode scoped(simd::SimdMode::kScalar);
  ASSERT_EQ(simd::active_level(), simd::SimdLevel::kScalar);
  Rng rng(31);
  const Index nq = 6;
  for (int trial = 0; trial < 4; ++trial) {
    const auto amps = random_amplitudes(Index{1} << nq, rng);
    const Mat2 u = random_mat2(rng);
    const auto q = static_cast<Index>(rng.uniform_int(0, nq - 1));
    StateVector psi(nq);
    psi.set_amplitudes(amps);
    psi.apply_1q(u, q);
    auto want = amps;
    formula_apply_1q(want, u, q);
    expect_amps_bitwise(psi.amplitudes(), want, "scalar 1q");

    const Mat2 uc = random_mat2(rng);
    const auto q1 = static_cast<Index>((q + 1 + rng.uniform_int(0, nq - 2)) %
                                       static_cast<std::int64_t>(nq));
    StateVector psi2(nq);
    psi2.set_amplitudes(amps);
    psi2.apply_controlled_1q(uc, q, q1);
    auto want2 = amps;
    formula_apply_controlled_1q(want2, uc, q, q1);
    expect_amps_bitwise(psi2.amplitudes(), want2, "scalar controlled 1q");
  }
}

TEST(SimdEquivalence, Apply1QAvx2MatchesScalar) {
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "AVX2+FMA not supported on this CPU";
  Rng rng(32);
  const Index nq = 7;
  for (Index q = 0; q < nq; ++q) {
    const auto amps = random_amplitudes(Index{1} << nq, rng);
    const Mat2 u = random_mat2(rng);
    auto got = amps;
    apply_1q_avx2(got.data(), got.size(), u, q);
    auto want = amps;
    formula_apply_1q(want, u, q);
    expect_amps_near(got, want, "apply_1q_avx2");
  }
}

TEST(SimdEquivalence, ApplyControlled1QAvx2MatchesScalar) {
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "AVX2+FMA not supported on this CPU";
  Rng rng(33);
  const Index nq = 6;
  for (Index control = 0; control < nq; ++control)
    for (Index target = 0; target < nq; ++target) {
      if (control == target) continue;
      const auto amps = random_amplitudes(Index{1} << nq, rng);
      const Mat2 u = random_mat2(rng);
      auto got = amps;
      apply_controlled_1q_avx2(got.data(), got.size(), u, control, target);
      auto want = amps;
      ref_apply_controlled_1q(want, u, control, target);
      expect_amps_near(got, want, "apply_controlled_1q_avx2");
    }
}

TEST(SimdEquivalence, Avx2DispatchMatchesScalarOnFullAnsatzRun) {
  // End-to-end: the same circuit under forced AVX2 vs forced scalar
  // dispatch agrees to kTol per amplitude.
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "AVX2+FMA not supported on this CPU";
  Rng rng(36);
  const Index nq = 6;
  Circuit c(nq);
  const auto p = c.new_params(4);
  for (Index q = 0; q < nq; ++q) c.h(q);
  c.rz(0, ParamRef{p.id});
  c.ry(1, ParamRef{p.id + 1});
  c.cu3(0, 2, 0.4, -0.8, 1.1);
  c.cry(1, 3, ParamRef{p.id + 2});
  c.swap(2, 4);
  c.cx(3, 5);
  c.rx(5, ParamRef{p.id + 3});
  std::vector<Real> params(c.num_params());
  rng.fill_uniform(params, -2, 2);

  StateVector scalar_psi(nq);
  {
    const simd::ScopedSimdMode scoped(simd::SimdMode::kScalar);
    run_circuit(c, params, scalar_psi);
  }
  StateVector avx2_psi(nq);
  {
    const simd::ScopedSimdMode scoped(simd::SimdMode::kAvx2);
    run_circuit(c, params, avx2_psi);
  }
  expect_amps_near(avx2_psi.amplitudes(), scalar_psi.amplitudes(),
                   "avx2 vs scalar ansatz");
}

}  // namespace
}  // namespace qugeo::qsim
