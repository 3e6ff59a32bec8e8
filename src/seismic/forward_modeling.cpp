#include "seismic/forward_modeling.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/parallel.h"

namespace qugeo::seismic {

Acquisition openfwi_acquisition() {
  Acquisition acq;
  acq.num_sources = 5;
  acq.num_receivers = 70;
  acq.num_time_samples = 1000;
  acq.wavelet_freq_hz = 15.0;
  acq.fdtd.space_order = 4;
  acq.fdtd.sponge_width = 12;
  acq.fdtd.sponge_strength = 0.015;
  acq.fdtd.free_surface_top = false;
  return acq;
}

Acquisition quantum_acquisition() {
  Acquisition acq;
  acq.num_sources = 1;
  acq.num_receivers = 8;
  acq.num_time_samples = 32;
  acq.wavelet_freq_hz = 8.0;  // lowered 15 -> 8 Hz per Sec. 3.1.1 / Fig. 6
  acq.fdtd.space_order = 4;
  acq.fdtd.sponge_width = 12;
  acq.fdtd.sponge_strength = 0.015;
  acq.fdtd.free_surface_top = false;
  return acq;
}

namespace {

/// Solver settings and geometry of one model's shots, resolved and
/// validated before any shot runs.
struct ShotPlan {
  FdtdConfig cfg;
  ReceiverLine receivers;
  std::vector<GridPos> sources;
};

ShotPlan plan_shots(const VelocityModel& model, const Acquisition& acq) {
  // The recorded window is fixed at 1 second (OpenFWI: 1000 x 1 ms). The
  // simulation step subdivides it as needed to satisfy the CFL bound.
  constexpr Real kRecordTime = 1.0;
  // 2^32 steps: a shot would run for days, so a bound this tight comes from
  // a degenerate model (spacing or velocity off by many decades).
  constexpr Real kMaxSteps = 4294967296.0;
  if (acq.num_time_samples == 0)
    throw std::invalid_argument("model_shots: num_time_samples must be > 0");
  const auto samples = static_cast<Real>(acq.num_time_samples);
  const Real dt_limit = Real(0.9) * max_stable_dt(model, acq.fdtd.space_order);
  const Real estimate = kRecordTime / (samples * dt_limit);
  if (!(estimate <= kMaxSteps / samples))
    throw std::invalid_argument(
        "model_shots: the CFL bound needs more than 2^32 simulation steps");
  // The smallest substep count whose step fits under dt_limit. Start at the
  // closed form and settle the rounding by the same test either way.
  const auto fits = [&](std::size_t substeps) {
    return kRecordTime /
               static_cast<Real>(acq.num_time_samples * substeps) <=
           dt_limit;
  };
  std::size_t substeps =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(estimate)));
  while (substeps > 1 && fits(substeps - 1)) --substeps;
  while (!fits(substeps)) ++substeps;

  ShotPlan plan;
  plan.cfg = acq.fdtd;
  plan.cfg.nt = acq.num_time_samples * substeps;
  plan.cfg.dt = kRecordTime / static_cast<Real>(plan.cfg.nt);
  plan.cfg.record_every = substeps;
  plan.receivers = make_receiver_line(model.nx(), acq.num_receivers);
  plan.sources = make_source_line(model.nx(), acq.num_sources);
  return plan;
}

void check_source(std::size_t source, const Acquisition& acq) {
  if (source >= acq.num_sources)
    throw std::invalid_argument("model_shots: source index " +
                                std::to_string(source) + " >= num_sources " +
                                std::to_string(acq.num_sources));
}

ShotGather run_shot(const VelocityModel& model, const ShotPlan& plan,
                    const RickerWavelet& wavelet, std::size_t source) {
  return simulate_shot(model, plan.sources[source], wavelet, plan.receivers,
                       plan.cfg);
}

}  // namespace

ShotGather model_shot(const VelocityModel& model, const Acquisition& acq,
                      std::size_t source) {
  const RickerWavelet wavelet(acq.wavelet_freq_hz);
  const ShotPlan plan = plan_shots(model, acq);
  check_source(source, acq);
  return run_shot(model, plan, wavelet, source);
}

SeismicData model_shots(const VelocityModel& model, const Acquisition& acq) {
  return std::move(model_shots(std::span<const VelocityModel>(&model, 1), acq)
                       .front());
}

std::vector<SeismicData> model_shots(std::span<const VelocityModel> models,
                                     const Acquisition& acq) {
  const RickerWavelet wavelet(acq.wavelet_freq_hz);
  std::vector<ShotPlan> plans;
  plans.reserve(models.size());
  for (const VelocityModel& model : models)
    plans.push_back(plan_shots(model, acq));

  const std::size_t nsrc = acq.num_sources;
  std::vector<SeismicData> data(
      models.size(),
      SeismicData(nsrc, acq.num_time_samples, acq.num_receivers));
  // Shots are independent wave propagations writing disjoint gathers; one
  // fan-out over every (model, shot) pair keeps the pool full across
  // models instead of draining it at each model's last shot.
  parallel_for(0, models.size() * nsrc, [&](std::size_t i) {
    const std::size_t m = i / nsrc, s = i % nsrc;
    data[m].set_shot(s, run_shot(models[m], plans[m], wavelet, s));
  });
  return data;
}

SeismicData physics_guided_remodel(const VelocityModel& full_model,
                                   std::size_t target_nz, std::size_t target_nx,
                                   const Acquisition& acq,
                                   std::size_t sim_refine) {
  if (sim_refine == 0)
    throw std::invalid_argument("physics_guided_remodel: refine must be > 0");
  // Downsample the velocity map to the quantum-scale resolution, then put it
  // back on a finer simulation grid (nearest neighbour preserves the blocky
  // layers) so the FD operator stays accurate at 8 Hz.
  const VelocityModel coarse = full_model.resampled(target_nz, target_nx);
  const VelocityModel sim_model =
      coarse.resampled(target_nz * sim_refine, target_nx * sim_refine);
  return model_shots(sim_model, acq);
}

}  // namespace qugeo::seismic
