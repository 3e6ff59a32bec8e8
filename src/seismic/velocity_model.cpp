#include "seismic/velocity_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qugeo::seismic {

VelocityModel::VelocityModel(Grid2D grid, std::vector<Real> velocity)
    : grid_(grid), c_(std::move(velocity)) {
  if (c_.size() != grid_.nz * grid_.nx)
    throw std::invalid_argument("VelocityModel: size mismatch");
}

VelocityModel::VelocityModel(Grid2D grid, Real velocity)
    : grid_(grid), c_(grid.nz * grid.nx, velocity) {}

VelocityModel VelocityModel::resampled(std::size_t new_nz,
                                       std::size_t new_nx) const {
  Grid2D g;
  g.nz = new_nz;
  g.nx = new_nx;
  g.dz = grid_.dz * static_cast<Real>(grid_.nz) / static_cast<Real>(new_nz);
  g.dx = grid_.dx * static_cast<Real>(grid_.nx) / static_cast<Real>(new_nx);
  std::vector<Real> out(new_nz * new_nx);
  for (std::size_t iz = 0; iz < new_nz; ++iz) {
    const auto src_z = std::min(
        grid_.nz - 1, iz * grid_.nz / new_nz + grid_.nz / (2 * new_nz));
    for (std::size_t ix = 0; ix < new_nx; ++ix) {
      const auto src_x = std::min(
          grid_.nx - 1, ix * grid_.nx / new_nx + grid_.nx / (2 * new_nx));
      out[iz * new_nx + ix] = at(src_z, src_x);
    }
  }
  return VelocityModel(g, std::move(out));
}

VelocityModel generate_flatvel(const FlatVelConfig& config, Rng& rng) {
  const std::size_t nz = config.nz, nx = config.nx;
  const int n_layers = static_cast<int>(
      rng.uniform_int(config.min_layers, config.max_layers));

  // Draw distinct interface depths with a minimum thickness constraint.
  std::vector<std::size_t> interfaces;  // first row of each new layer
  std::size_t attempts = 0;
  while (interfaces.size() + 1 < static_cast<std::size_t>(n_layers) &&
         attempts++ < 1000) {
    const auto z = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(config.min_thickness),
        static_cast<std::int64_t>(nz - config.min_thickness)));
    bool ok = true;
    for (std::size_t zi : interfaces)
      if (static_cast<std::size_t>(std::llabs(static_cast<long long>(zi) -
                                              static_cast<long long>(z))) <
          config.min_thickness)
        ok = false;
    if (ok) interfaces.push_back(z);
  }
  std::sort(interfaces.begin(), interfaces.end());

  // Per-layer velocities; a fraction of samples follow the compaction trend.
  std::vector<Real> layer_v(interfaces.size() + 1);
  for (Real& v : layer_v) v = rng.uniform(config.vmin, config.vmax);
  if (rng.bernoulli(config.sorted_fraction))
    std::sort(layer_v.begin(), layer_v.end());

  Grid2D grid{nz, nx, config.dz, config.dx};
  std::vector<Real> c(nz * nx);
  std::size_t layer = 0;
  for (std::size_t iz = 0; iz < nz; ++iz) {
    while (layer < interfaces.size() && iz >= interfaces[layer]) ++layer;
    for (std::size_t ix = 0; ix < nx; ++ix) c[iz * nx + ix] = layer_v[layer];
  }
  return VelocityModel(grid, std::move(c));
}

VelocityModel generate_curvevel(const CurveVelConfig& config, Rng& rng) {
  const auto& base = config.base;
  const std::size_t nz = base.nz, nx = base.nx;
  const int n_layers =
      static_cast<int>(rng.uniform_int(base.min_layers, base.max_layers));

  // Flat reference depths, then sinusoidal perturbation per interface.
  std::vector<Real> depths;
  for (int l = 1; l < n_layers; ++l)
    depths.push_back(rng.uniform(static_cast<Real>(base.min_thickness),
                                 static_cast<Real>(nz - base.min_thickness)));
  std::sort(depths.begin(), depths.end());

  struct Curve {
    Real depth, amp, wavelength, phase;
  };
  std::vector<Curve> curves;
  for (Real d : depths) {
    curves.push_back({d, rng.uniform(0, config.max_amplitude_rows),
                      rng.uniform(config.min_wavelength_frac, Real(2)) *
                          static_cast<Real>(nx),
                      rng.uniform(0, 2 * kPi)});
  }

  std::vector<Real> layer_v(curves.size() + 1);
  for (Real& v : layer_v) v = rng.uniform(base.vmin, base.vmax);
  if (rng.bernoulli(base.sorted_fraction))
    std::sort(layer_v.begin(), layer_v.end());

  Grid2D grid{nz, nx, base.dz, base.dx};
  std::vector<Real> c(nz * nx);
  for (std::size_t ix = 0; ix < nx; ++ix) {
    for (std::size_t iz = 0; iz < nz; ++iz) {
      std::size_t layer = 0;
      for (const Curve& cv : curves) {
        const Real boundary =
            cv.depth + cv.amp * std::sin(2 * kPi * static_cast<Real>(ix) /
                                             cv.wavelength +
                                         cv.phase);
        if (static_cast<Real>(iz) >= boundary) ++layer;
      }
      c[iz * nx + ix] = layer_v[std::min(layer, layer_v.size() - 1)];
    }
  }
  return VelocityModel(grid, std::move(c));
}

}  // namespace qugeo::seismic
