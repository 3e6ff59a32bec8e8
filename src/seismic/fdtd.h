// 2-D acoustic finite-difference time-domain solver for the constant-density
// wave equation (Eq. 1 of the paper):
//
//     d2p/dt2 = c(z,x)^2 * (laplacian(p) + s)
//
// Second-order leapfrog in time; 2nd/4th/8th-order central differences in
// space (the "2-8 FD" of the paper's forward-modelling reference); Cerjan
// sponge absorbing boundaries with an optional free surface on top.
#pragma once

#include <vector>

#include "seismic/survey.h"
#include "seismic/velocity_model.h"
#include "seismic/wavelet.h"

namespace qugeo::seismic {

struct FdtdConfig {
  Real dt = 1e-3;            ///< time step (s); see max_stable_dt
  std::size_t nt = 1000;     ///< number of simulation steps
  int space_order = 4;       ///< 2, 4, or 8
  std::size_t sponge_width = 12;
  Real sponge_strength = 0.015;
  bool free_surface_top = false;
  std::size_t record_every = 1;  ///< temporal decimation of recorded traces
  Real source_amplitude = 1.0;
};

/// Largest stable time step for the model under the given stencil order
/// (conservative CFL bound). Throws std::invalid_argument for an empty
/// model, or a grid spacing or velocity that is not finite and positive.
[[nodiscard]] Real max_stable_dt(const VelocityModel& model, int space_order);

/// Propagate one shot and record pressure at the receivers. The returned
/// gather has ceil(nt / record_every) time samples. Throws
/// std::invalid_argument unless 0 < dt <= max_stable_dt (NaN included) and
/// the sponge strength and source amplitude are finite.
[[nodiscard]] ShotGather simulate_shot(const VelocityModel& model,
                                       const GridPos& source,
                                       const RickerWavelet& wavelet,
                                       const ReceiverLine& receivers,
                                       const FdtdConfig& config);

/// Propagate and return full pressure snapshots at the requested steps
/// (each snapshot is nz*nx, row-major) — used by tests to verify kinematics
/// and by the wavefield example.
[[nodiscard]] std::vector<std::vector<Real>> simulate_wavefield(
    const VelocityModel& model, const GridPos& source,
    const RickerWavelet& wavelet, const FdtdConfig& config,
    const std::vector<std::size_t>& snapshot_steps);

}  // namespace qugeo::seismic
