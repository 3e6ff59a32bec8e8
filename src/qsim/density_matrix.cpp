#include "qsim/density_matrix.h"

#include <stdexcept>

namespace qugeo::qsim {
namespace {

constexpr Index kMaxDensityQubits = 13;  // 4^13 complexes = 1 GiB; cap below

}  // namespace

Index max_density_qubits() noexcept { return kMaxDensityQubits; }

DensityMatrix::DensityMatrix(Index num_qubits)
    : num_qubits_(num_qubits), dim_(Index{1} << num_qubits) {
  if (num_qubits > kMaxDensityQubits)
    throw std::invalid_argument("DensityMatrix: too many qubits");
  rho_.assign(dim_ * dim_, Complex{0, 0});
  rho_[0] = Complex{1, 0};
}

DensityMatrix DensityMatrix::from_state(const StateVector& psi) {
  DensityMatrix rho(psi.num_qubits());
  rho.set_from_state(psi);
  return rho;
}

void DensityMatrix::set_from_state(const StateVector& psi) {
  if (psi.num_qubits() != num_qubits_)
    throw std::invalid_argument("DensityMatrix::set_from_state: qubit count mismatch");
  const auto amps = psi.amplitudes();
  for (Index r = 0; r < dim_; ++r)
    for (Index c = 0; c < dim_; ++c)
      rho_[r * dim_ + c] = amps[r] * std::conj(amps[c]);
}

void DensityMatrix::apply_1q(const Mat2& u, Index q) {
  const Index stride = Index{1} << q;
  // Left multiply by U over row index pairs.
  for (Index col = 0; col < dim_; ++col) {
    for (Index base = 0; base < dim_; base += 2 * stride) {
      for (Index off = 0; off < stride; ++off) {
        const Index r0 = base + off, r1 = r0 + stride;
        const Complex a = rho_[r0 * dim_ + col];
        const Complex b = rho_[r1 * dim_ + col];
        rho_[r0 * dim_ + col] = u(0, 0) * a + u(0, 1) * b;
        rho_[r1 * dim_ + col] = u(1, 0) * a + u(1, 1) * b;
      }
    }
  }
  // Right multiply by U^+ over column index pairs.
  const Mat2 ud = dagger(u);
  for (Index row = 0; row < dim_; ++row) {
    Complex* r = rho_.data() + row * dim_;
    for (Index base = 0; base < dim_; base += 2 * stride) {
      for (Index off = 0; off < stride; ++off) {
        const Index c0 = base + off, c1 = c0 + stride;
        const Complex a = r[c0];
        const Complex b = r[c1];
        // (rho U^+)_{.,c} = sum_k rho_{.,k} (U^+)_{k,c}
        r[c0] = a * ud(0, 0) + b * ud(1, 0);
        r[c1] = a * ud(0, 1) + b * ud(1, 1);
      }
    }
  }
}

void DensityMatrix::apply_controlled_1q(const Mat2& u, Index control,
                                        Index target) {
  const Index cmask = Index{1} << control;
  const Index stride = Index{1} << target;
  // Left: rows with control bit set.
  for (Index col = 0; col < dim_; ++col) {
    for (Index base = 0; base < dim_; base += 2 * stride) {
      for (Index off = 0; off < stride; ++off) {
        const Index r0 = base + off;
        if (!(r0 & cmask)) continue;
        const Index r1 = r0 + stride;
        const Complex a = rho_[r0 * dim_ + col];
        const Complex b = rho_[r1 * dim_ + col];
        rho_[r0 * dim_ + col] = u(0, 0) * a + u(0, 1) * b;
        rho_[r1 * dim_ + col] = u(1, 0) * a + u(1, 1) * b;
      }
    }
  }
  const Mat2 ud = dagger(u);
  for (Index row = 0; row < dim_; ++row) {
    Complex* r = rho_.data() + row * dim_;
    for (Index base = 0; base < dim_; base += 2 * stride) {
      for (Index off = 0; off < stride; ++off) {
        const Index c0 = base + off;
        if (!(c0 & cmask)) continue;
        const Index c1 = c0 + stride;
        const Complex a = r[c0];
        const Complex b = r[c1];
        r[c0] = a * ud(0, 0) + b * ud(1, 0);
        r[c1] = a * ud(0, 1) + b * ud(1, 1);
      }
    }
  }
}

void DensityMatrix::apply_swap(Index a, Index b) {
  if (a == b) return;
  const Index ma = Index{1} << a, mb = Index{1} << b;
  auto swapped = [&](Index k) {
    const bool ba = (k & ma) != 0, bb = (k & mb) != 0;
    if (ba == bb) return k;
    return (k ^ ma) ^ mb;
  };
  std::vector<Complex> next(rho_.size());
  for (Index r = 0; r < dim_; ++r)
    for (Index c = 0; c < dim_; ++c)
      next[swapped(r) * dim_ + swapped(c)] = rho_[r * dim_ + c];
  rho_ = std::move(next);
}

void DensityMatrix::apply_kraus(std::span<const Mat2> kraus, Index q) {
  const Index stride = Index{1} << q;
  // sum_k K_k rho K_k^+, accumulated over the 2x2 blocks the qubit couples:
  // for fixed "rest" indices, the channel acts on the block
  // B = [[rho(r0,c0), rho(r0,c1)], [rho(r1,c0), rho(r1,c1)]].
  std::vector<Complex> next(rho_.size(), Complex{0, 0});
  for (const Mat2& k : kraus) {
    const Mat2 kd = dagger(k);
    for (Index rbase = 0; rbase < dim_; rbase += 2 * stride) {
      for (Index roff = 0; roff < stride; ++roff) {
        const Index r0 = rbase + roff, r1 = r0 + stride;
        for (Index cbase = 0; cbase < dim_; cbase += 2 * stride) {
          for (Index coff = 0; coff < stride; ++coff) {
            const Index c0 = cbase + coff, c1 = c0 + stride;
            const Complex b00 = rho_[r0 * dim_ + c0];
            const Complex b01 = rho_[r0 * dim_ + c1];
            const Complex b10 = rho_[r1 * dim_ + c0];
            const Complex b11 = rho_[r1 * dim_ + c1];
            // K B
            const Complex t00 = k(0, 0) * b00 + k(0, 1) * b10;
            const Complex t01 = k(0, 0) * b01 + k(0, 1) * b11;
            const Complex t10 = k(1, 0) * b00 + k(1, 1) * b10;
            const Complex t11 = k(1, 0) * b01 + k(1, 1) * b11;
            // (K B) K^+
            next[r0 * dim_ + c0] += t00 * kd(0, 0) + t01 * kd(1, 0);
            next[r0 * dim_ + c1] += t00 * kd(0, 1) + t01 * kd(1, 1);
            next[r1 * dim_ + c0] += t10 * kd(0, 0) + t11 * kd(1, 0);
            next[r1 * dim_ + c1] += t10 * kd(0, 1) + t11 * kd(1, 1);
          }
        }
      }
    }
  }
  rho_ = std::move(next);
}

void DensityMatrix::depolarize(Index q, Real p) {
  if (p <= 0) return;
  // (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)
  //   = (1-p') rho + p' Tr_q(rho) (x) I/2,  p' = 4p/3.
  // Applied block-wise in place: off-diagonal (in q) entries scale by
  // (1-p'); the diagonal pair is mixed toward its average.
  const Real keep = 1 - 4 * p / 3;
  const Index stride = Index{1} << q;
  for (Index rbase = 0; rbase < dim_; rbase += 2 * stride) {
    for (Index roff = 0; roff < stride; ++roff) {
      const Index r0 = rbase + roff, r1 = r0 + stride;
      for (Index cbase = 0; cbase < dim_; cbase += 2 * stride) {
        for (Index coff = 0; coff < stride; ++coff) {
          const Index c0 = cbase + coff, c1 = c0 + stride;
          Complex& b00 = rho_[r0 * dim_ + c0];
          Complex& b11 = rho_[r1 * dim_ + c1];
          const Complex avg = (b00 + b11) * Real(0.5);
          b00 = keep * b00 + (1 - keep) * avg;
          b11 = keep * b11 + (1 - keep) * avg;
          rho_[r0 * dim_ + c1] *= keep;
          rho_[r1 * dim_ + c0] *= keep;
        }
      }
    }
  }
}

Real DensityMatrix::trace() const {
  Real t = 0;
  for (Index k = 0; k < dim_; ++k) t += rho_[k * dim_ + k].real();
  return t;
}

Real DensityMatrix::purity() const {
  // Tr(rho^2) = sum_{r,c} rho_{r,c} rho_{c,r} = sum |rho_{r,c}|^2 (Hermitian).
  Real p = 0;
  for (const Complex& v : rho_) p += std::norm(v);
  return p;
}

std::vector<Real> DensityMatrix::probabilities() const {
  std::vector<Real> p(dim_);
  for (Index k = 0; k < dim_; ++k) p[k] = rho_[k * dim_ + k].real();
  return p;
}

Real DensityMatrix::expect_z(Index q) const {
  const Index mask = Index{1} << q;
  Real e = 0;
  for (Index k = 0; k < dim_; ++k)
    e += ((k & mask) ? Real(-1) : Real(1)) * rho_[k * dim_ + k].real();
  return e;
}

void run_circuit_density(const Circuit& circuit, std::span<const Real> params,
                         DensityMatrix& rho, const NoiseModel& noise) {
  run_circuit_density(circuit, Binding(circuit, params), rho, noise);
}

void run_circuit_density(const Circuit& circuit, const Binding& binding,
                         DensityMatrix& rho, const NoiseModel& noise) {
  if (rho.num_qubits() != circuit.num_qubits())
    throw std::invalid_argument("run_circuit_density: qubit count mismatch");
  check_binding(circuit, binding, "run_circuit_density");
  // The depolarizing channel keeps its dedicated in-place fast path; the
  // damping channels go through the generic Kraus application.
  const bool use_kraus = noise.has_gate_noise() &&
                         noise.channel != NoiseChannel::kDepolarizing;
  std::vector<Mat2> channel_kraus;
  if (use_kraus)
    channel_kraus = kraus_ops(noise.channel, noise.gate_error_prob);
  const auto apply_gate_noise = [&](Index q) {
    if (!noise.has_gate_noise()) return;
    if (use_kraus)
      rho.apply_kraus(channel_kraus, q);
    else
      rho.depolarize(q, noise.gate_error_prob);
  };
  const auto ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case GateKind::kSWAP:
        rho.apply_swap(op.qubits[0], op.qubits[1]);
        break;
      case GateKind::kCX:
      case GateKind::kCZ:
      case GateKind::kCRY:
      case GateKind::kCU3:
        rho.apply_controlled_1q(binding.block(i), op.qubits[0], op.qubits[1]);
        break;
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
        rho.apply_1q(binding.block(i), op.qubits[0]);
        break;
    }
    apply_gate_noise(op.qubits[0]);
    if (gate_qubit_count(op.kind) == 2) apply_gate_noise(op.qubits[1]);
  }
  if (noise.has_readout_error()) {
    const std::vector<Mat2> rk = readout_kraus(noise.readout_error);
    for (Index q = 0; q < rho.num_qubits(); ++q) rho.apply_kraus(rk, q);
  }
}

}  // namespace qugeo::qsim
