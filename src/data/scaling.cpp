#include "data/scaling.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/parallel.h"

namespace qugeo::data {

ScaledDataset make_scaled_dataset(std::string name, const ScaleTarget& target,
                                  std::size_t n) {
  ScaledDataset out;
  out.scaler_name = std::move(name);
  out.nsrc = target.nsrc;
  out.nt = target.nt;
  out.nrec = target.nrec;
  out.vel_rows = target.vel_rows;
  out.vel_cols = target.vel_cols;
  out.samples.resize(n);
  return out;
}

ScaledDataset Scaler::scale_dataset(const RawDataset& raw,
                                    const ScaleTarget& target) const {
  ScaledDataset out = make_scaled_dataset(name(), target, raw.size());
  const auto scale_one = [&](std::size_t i) {
    out.samples[i] = scale(raw.samples[i]);
  };
  if (scales_concurrently())
    parallel_for(0, raw.size(), scale_one);
  else
    for (std::size_t i = 0; i < raw.size(); ++i) scale_one(i);
  return out;
}

void apply_time_gain(std::vector<Real>& waveform, const ScaleTarget& target) {
  if (target.time_gain_power == Real(0)) return;
  if (waveform.size() != target.nsrc * target.nt * target.nrec)
    throw std::invalid_argument("apply_time_gain: waveform shape mismatch");
  for (std::size_t s = 0; s < target.nsrc; ++s)
    for (std::size_t t = 0; t < target.nt; ++t) {
      const Real gain = std::pow((static_cast<Real>(t) + 1) /
                                     static_cast<Real>(target.nt),
                                 target.time_gain_power);
      for (std::size_t r = 0; r < target.nrec; ++r)
        waveform[(s * target.nt + t) * target.nrec + r] *= gain;
    }
}

std::vector<Real> scale_velocity_map(const seismic::VelocityModel& velocity,
                                     std::size_t rows, std::size_t cols) {
  const seismic::VelocityModel small = velocity.resampled(rows, cols);
  std::vector<Real> out(rows * cols);
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = normalize_velocity(small.data()[k]);
  return out;
}

std::vector<std::size_t> picked_sources(std::size_t nsrc,
                                        std::size_t target_nsrc) {
  if (nsrc == 0)
    throw std::invalid_argument("picked_sources: the volume holds no shot");
  if (target_nsrc == 1) return {nsrc / 2};
  std::vector<std::size_t> picked(target_nsrc);
  for (std::size_t s = 0; s < target_nsrc; ++s)
    picked[s] = s * (nsrc - 1) / (target_nsrc - 1);
  return picked;
}

std::vector<Real> nearest_neighbor_waveform(const seismic::SeismicData& seismic,
                                            const ScaleTarget& target) {
  std::vector<Real> out(target.nsrc * target.nt * target.nrec);
  const std::vector<std::size_t> picked =
      picked_sources(seismic.nsrc(), target.nsrc);
  for (std::size_t s = 0; s < target.nsrc; ++s) {
    // Midpoint nearest-neighbour pick along each axis.
    const std::size_t src = picked[s];
    for (std::size_t t = 0; t < target.nt; ++t) {
      const std::size_t tt =
          t * seismic.nt() / target.nt + seismic.nt() / (2 * target.nt);
      for (std::size_t r = 0; r < target.nrec; ++r) {
        const std::size_t rr =
            r * seismic.nrec() / target.nrec + seismic.nrec() / (2 * target.nrec);
        out[(s * target.nt + t) * target.nrec + r] = seismic.at(src, tt, rr);
      }
    }
  }
  return out;
}

ScaledSample DSampleScaler::scale(const RawSample& raw) const {
  ScaledSample out;
  out.waveform = nearest_neighbor_waveform(raw.seismic, target_);
  apply_time_gain(out.waveform, target_);
  out.velocity = scale_velocity_map(raw.velocity, target_.vel_rows, target_.vel_cols);
  return out;
}

ForwardModelScaler::ForwardModelScaler(ScaleTarget target,
                                       seismic::Acquisition acq,
                                       std::size_t sim_refine)
    : target_(target), acq_(std::move(acq)), sim_refine_(sim_refine) {
  acq_.num_sources = target_.nsrc;
  acq_.num_receivers = target_.nrec;
  acq_.num_time_samples = target_.nt;
}

ScaledSample ForwardModelScaler::scale(const RawSample& raw) const {
  ScaledSample out;
  const seismic::SeismicData modeled = seismic::physics_guided_remodel(
      raw.velocity, target_.vel_rows, target_.vel_cols, acq_, sim_refine_);
  out.waveform.assign(modeled.data().begin(), modeled.data().end());
  apply_time_gain(out.waveform, target_);
  out.velocity = scale_velocity_map(raw.velocity, target_.vel_rows, target_.vel_cols);
  return out;
}

}  // namespace qugeo::data
