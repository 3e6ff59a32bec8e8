#include "qsim/gate.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace qugeo::qsim {
namespace {

constexpr Complex kI1{0, 1};

Mat2 make(Complex a, Complex b, Complex c, Complex d) {
  Mat2 u;
  u.m = {a, b, c, d};
  return u;
}

}  // namespace

// The GateKind dispatch switches below enumerate every kind explicitly —
// no `default:`. A new enumerator then fails -Wswitch (and qugeo_lint)
// until each property site has decided what the kind means, instead of
// silently inheriting a catch-all answer (a new 3-parameter gate falling
// into a `default: return 0;` would corrupt parameter resolution with no
// diagnostic anywhere).

int gate_param_count(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
    case GateKind::kCRY:
      return 1;
    case GateKind::kU3:
    case GateKind::kCU3:
      return 3;
    case GateKind::kI:
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kSWAP:
      return 0;
  }
  return 0;
}

int gate_qubit_count(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kCRY:
    case GateKind::kCU3:
    case GateKind::kSWAP:
      return 2;
    case GateKind::kI:
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
      return 1;
  }
  return 1;
}

bool gate_is_controlled_1q(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kCRY:
    case GateKind::kCU3:
      return true;
    case GateKind::kI:
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
    case GateKind::kSWAP:
      return false;
  }
  return false;
}

std::string_view gate_name(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kI: return "id";
    case GateKind::kX: return "x";
    case GateKind::kY: return "y";
    case GateKind::kZ: return "z";
    case GateKind::kH: return "h";
    case GateKind::kS: return "s";
    case GateKind::kSdg: return "sdg";
    case GateKind::kT: return "t";
    case GateKind::kTdg: return "tdg";
    case GateKind::kRX: return "rx";
    case GateKind::kRY: return "ry";
    case GateKind::kRZ: return "rz";
    case GateKind::kPhase: return "p";
    case GateKind::kU3: return "u3";
    case GateKind::kCX: return "cx";
    case GateKind::kCZ: return "cz";
    case GateKind::kCRY: return "cry";
    case GateKind::kCU3: return "cu3";
    case GateKind::kSWAP: return "swap";
  }
  return "?";
}

Mat2 u3_matrix(Real theta, Real phi, Real lambda) noexcept {
  const Real c = std::cos(theta / 2);
  const Real s = std::sin(theta / 2);
  return make(Complex{c, 0}, -std::exp(kI1 * lambda) * s,
              std::exp(kI1 * phi) * s, std::exp(kI1 * (phi + lambda)) * c);
}

Mat2 gate_matrix(GateKind kind, std::span<const Real> params) {
  assert(static_cast<int>(params.size()) >= gate_param_count(kind));
  static const Real kInvSqrt2 = Real(1) / std::sqrt(Real(2));
  switch (kind) {
    case GateKind::kI:
      return make({1, 0}, {0, 0}, {0, 0}, {1, 0});
    case GateKind::kX:
    case GateKind::kCX:
      return make({0, 0}, {1, 0}, {1, 0}, {0, 0});
    case GateKind::kY:
      return make({0, 0}, {0, -1}, {0, 1}, {0, 0});
    case GateKind::kZ:
    case GateKind::kCZ:
      return make({1, 0}, {0, 0}, {0, 0}, {-1, 0});
    case GateKind::kH:
      return make({kInvSqrt2, 0}, {kInvSqrt2, 0}, {kInvSqrt2, 0}, {-kInvSqrt2, 0});
    case GateKind::kS:
      return make({1, 0}, {0, 0}, {0, 0}, {0, 1});
    case GateKind::kSdg:
      return make({1, 0}, {0, 0}, {0, 0}, {0, -1});
    case GateKind::kT:
      return make({1, 0}, {0, 0}, {0, 0}, std::exp(kI1 * (kPi / 4)));
    case GateKind::kTdg:
      return make({1, 0}, {0, 0}, {0, 0}, std::exp(-kI1 * (kPi / 4)));
    case GateKind::kRX: {
      const Real c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return make({c, 0}, {0, -s}, {0, -s}, {c, 0});
    }
    case GateKind::kRY:
    case GateKind::kCRY: {
      const Real c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return make({c, 0}, {-s, 0}, {s, 0}, {c, 0});
    }
    case GateKind::kRZ: {
      return make(std::exp(-kI1 * (params[0] / 2)), {0, 0}, {0, 0},
                  std::exp(kI1 * (params[0] / 2)));
    }
    case GateKind::kPhase:
      return make({1, 0}, {0, 0}, {0, 0}, std::exp(kI1 * params[0]));
    case GateKind::kU3:
    case GateKind::kCU3:
      return u3_matrix(params[0], params[1], params[2]);
    case GateKind::kSWAP:
      throw std::invalid_argument("gate_matrix: SWAP has no 2x2 block form");
  }
  throw std::invalid_argument("gate_matrix: unknown kind");
}

GateDerivs gate_matrix_derivs(GateKind kind, std::span<const Real> params) {
  assert(static_cast<int>(params.size()) >= gate_param_count(kind));
  // Each case spells U exactly as gate_matrix does, so the adjoint sweep's
  // rewind uses the same matrix as apply_op_inverse.
  GateDerivs d;
  switch (kind) {
    case GateKind::kRX: {
      const Real c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      d.u = make({c, 0}, {0, -s}, {0, -s}, {c, 0});
      d.du[0] = make({-s / 2, 0}, {0, -c / 2}, {0, -c / 2}, {-s / 2, 0});
      return d;
    }
    case GateKind::kRY:
    case GateKind::kCRY: {
      const Real c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      d.u = make({c, 0}, {-s, 0}, {s, 0}, {c, 0});
      d.du[0] = make({-s / 2, 0}, {-c / 2, 0}, {c / 2, 0}, {-s / 2, 0});
      return d;
    }
    case GateKind::kRZ: {
      const Complex e0 = std::exp(-kI1 * (params[0] / 2));
      const Complex e1 = std::exp(kI1 * (params[0] / 2));
      d.u = make(e0, {0, 0}, {0, 0}, e1);
      d.du[0] = make(Complex{0, -0.5} * e0, {0, 0}, {0, 0}, Complex{0, 0.5} * e1);
      return d;
    }
    case GateKind::kPhase: {
      const Complex e = std::exp(kI1 * params[0]);
      d.u = make({1, 0}, {0, 0}, {0, 0}, e);
      d.du[0] = make({0, 0}, {0, 0}, {0, 0}, kI1 * e);
      return d;
    }
    case GateKind::kU3:
    case GateKind::kCU3: {
      // u3_matrix's terms, each evaluated once. phi and lambda only rotate
      // phases, so their derivatives are i times entries of U.
      const Real c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      const Complex e_la = std::exp(kI1 * params[2]);
      const Complex e_ph = std::exp(kI1 * params[1]);
      const Complex e_sum = std::exp(kI1 * (params[1] + params[2]));
      d.u = make(Complex{c, 0}, -e_la * s, e_ph * s, e_sum * c);
      d.du[0] = make(Complex{-s / 2, 0}, -e_la * (c / 2), e_ph * (c / 2),
                     -e_sum * (s / 2));
      d.du[1] = make({0, 0}, {0, 0}, kI1 * d.u(1, 0), kI1 * d.u(1, 1));
      d.du[2] = make({0, 0}, kI1 * d.u(0, 1), {0, 0}, kI1 * d.u(1, 1));
      return d;
    }
    case GateKind::kI:
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kSWAP:
      break;
  }
  throw std::invalid_argument("gate_matrix_derivs: kind has no parameters");
}

Mat2 dagger(const Mat2& u) noexcept {
  Mat2 d;
  d(0, 0) = std::conj(u(0, 0));
  d(0, 1) = std::conj(u(1, 0));
  d(1, 0) = std::conj(u(0, 1));
  d(1, 1) = std::conj(u(1, 1));
  return d;
}

}  // namespace qugeo::qsim
