#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>

namespace qugeo::nn {

namespace {

constexpr Real kBeta1 = 0.9;
constexpr Real kBeta2 = 0.999;
constexpr Real kEps = 1e-8;

}  // namespace

Adam::Adam(std::vector<Param*> params) : params_(std::move(params)) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) p->grad.zero();
}

void Adam::step(Real lr) {
  ++t_;
  const Real bc1 = Real(1) - std::pow(kBeta1, static_cast<Real>(t_));
  const Real bc2 = Real(1) - std::pow(kBeta2, static_cast<Real>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto val = params_[i]->value.data_mut();
    const auto grad = params_[i]->grad.data();
    auto m = m_[i].data_mut();
    auto v = v_[i].data_mut();
    for (std::size_t k = 0; k < val.size(); ++k) {
      m[k] = kBeta1 * m[k] + (Real(1) - kBeta1) * grad[k];
      v[k] = kBeta2 * v[k] + (Real(1) - kBeta2) * grad[k] * grad[k];
      const Real mhat = m[k] / bc1;
      const Real vhat = v[k] / bc2;
      val[k] -= lr * mhat / (std::sqrt(vhat) + kEps);
    }
  }
}

void AdamFlat::step(std::span<Real> params, std::span<const Real> grads,
                    Real lr) {
  ++t_;
  const Real bc1 = Real(1) - std::pow(Real(0.9), static_cast<Real>(t_));
  const Real bc2 = Real(1) - std::pow(Real(0.999), static_cast<Real>(t_));
  for (std::size_t k = 0; k < params.size(); ++k) {
    m_[k] = Real(0.9) * m_[k] + Real(0.1) * grads[k];
    v_[k] = Real(0.999) * v_[k] + Real(0.001) * grads[k] * grads[k];
    params[k] -= lr * (m_[k] / bc1) / (std::sqrt(v_[k] / bc2) + Real(1e-8));
  }
}

AdamFlat::State AdamFlat::state() const { return {t_, m_, v_}; }

void AdamFlat::restore(const State& state) {
  if (state.m.size() != m_.size() || state.v.size() != v_.size())
    throw std::invalid_argument(
        "AdamFlat::restore: moment size mismatch (checkpoint holds " +
        std::to_string(state.m.size()) + ", optimizer expects " +
        std::to_string(m_.size()) + ")");
  t_ = state.t;
  m_ = state.m;
  v_ = state.v;
}

}  // namespace qugeo::nn
