#include "qsim_probe.h"

#include <cmath>
#include <stdexcept>

#include "core/ansatz.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "metrics/image_metrics.h"
#include "qsim/executor.h"
#include "qsim/gradient_plan.h"
#include "qsim/observables.h"

namespace qugeo::perfbench {
namespace {

constexpr std::size_t kReps = 200;

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

}  // namespace

QsimProbe probe_qsim(Index batch_log2, const data::ScaledDataset& ds,
                     std::uint64_t seed) {
  const core::QubitLayout layout({8}, batch_log2);
  const qsim::Circuit ansatz =
      core::build_qugeo_ansatz(layout, core::AnsatzConfig{});
  // The training path's circuit form (QuGeoModel::gradient_form).
  const qsim::GradientPlan plan = qsim::GradientPlan::build(ansatz);
  const qsim::Circuit& form = plan.execution_form(ansatz);
  std::vector<Real> theta(ansatz.num_params());
  Rng rng(seed);
  rng.fill_uniform(theta, -0.1, 0.1);

  const core::StEncoder encoder(layout);
  const auto decoder = core::make_decoder(core::DecoderKind::kLayer, layout,
                                          ds.vel_rows, ds.vel_cols);
  const std::size_t bs = layout.batch_size();
  std::vector<const std::vector<Real>*> waves(bs);
  for (std::size_t b = 0; b < bs; ++b)
    waves[b] = &ds.samples[b % ds.size()].waveform;

  QsimProbe p;
  p.encode_us = median_call_us(kReps, [&] { (void)encoder.encode(waves); });
  const qsim::StateVector psi_in = encoder.encode(waves);
  qsim::StateVector psi_out = psi_in;
  qsim::run_circuit(form, theta, psi_out);

  const auto cotangent = [&] {
    const core::DecodeResult dec = decoder->decode(psi_out);
    std::vector<std::vector<Real>> grads(bs);
    for (std::size_t b = 0; b < bs; ++b) {
      const std::vector<Real>& target = ds.samples[b % ds.size()].velocity;
      for (std::size_t k = 0; k < target.size(); ++k)
        grads[b].push_back(2 * (dec.predictions[b][k] - target[k]));
    }
    const std::vector<Real> dp = decoder->probability_grads(dec, grads);
    return qsim::cotangent_from_probability_grads(psi_out, dp);
  };
  p.decode_us = median_call_us(kReps, [&] { (void)cotangent(); });
  const std::vector<Complex> cot = cotangent();

  std::vector<double> fwd, adj;
  for (std::size_t rep = 0; rep <= kReps; ++rep) {
    qsim::StateVector psi = psi_in;
    auto t0 = Clock::now();
    qsim::run_circuit(form, theta, psi);
    const double f = us_since(t0);
    qsim::StateVector out = psi_out;
    t0 = Clock::now();
    const qsim::AdjointResult res =
        qsim::adjoint_backward(form, theta, std::move(out), cot);
    const double a = us_since(t0);
    if (res.param_grads.size() != theta.size())
      throw std::runtime_error("probe_qsim: adjoint returned wrong size");
    if (rep == 0) continue;  // warm-up
    fwd.push_back(f);
    adj.push_back(a);
  }
  p.forward_us = median(fwd);
  p.adjoint_us = median(adj);
  return p;
}

double probe_ssim_us(const data::ScaledDataset& ds) {
  constexpr std::size_t kBatch = 64;
  metrics::SsimOptions opts;
  opts.data_range = 1.0;  // as core::evaluate_predictions
  const std::vector<Real>& a = ds.samples[0].velocity;
  const std::vector<Real>& b = ds.samples[ds.size() - 1].velocity;
  Real sink = 0;
  const double us = median_call_us(kReps, [&] {
    for (std::size_t i = 0; i < kBatch; ++i)
      sink += metrics::ssim(a, b, ds.vel_rows, ds.vel_cols, opts);
  });
  if (!std::isfinite(sink)) throw std::runtime_error("probe_ssim_us: NaN");
  return us / kBatch;
}

}  // namespace qugeo::perfbench
