// Subsurface velocity models and synthetic generators.
//
// OpenFWI's FlatVel-A family is machine-generated: 70x70 maps of flat rock
// layers with per-layer velocities in [1.5, 4.5] km/s. Because the dataset
// itself is synthetic, regenerating it from the same specification (layered
// media + the acoustic wave equation) is a faithful substitute; see the
// substitution table in docs/ARCHITECTURE.md.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace qugeo::seismic {

/// Regular 2-D grid: nz depth samples x nx horizontal samples.
struct Grid2D {
  std::size_t nz = 70;
  std::size_t nx = 70;
  Real dz = 10.0;  ///< metres
  Real dx = 10.0;  ///< metres
};

/// Velocity map c(z, x) in m/s, row-major over (z, x).
class VelocityModel {
 public:
  VelocityModel() = default;
  VelocityModel(Grid2D grid, std::vector<Real> velocity);
  /// Constant-velocity model.
  VelocityModel(Grid2D grid, Real velocity);

  [[nodiscard]] const Grid2D& grid() const noexcept { return grid_; }
  [[nodiscard]] std::size_t nz() const noexcept { return grid_.nz; }
  [[nodiscard]] std::size_t nx() const noexcept { return grid_.nx; }
  [[nodiscard]] std::span<const Real> data() const noexcept { return c_; }
  [[nodiscard]] std::span<Real> data_mut() noexcept { return c_; }

  [[nodiscard]] Real at(std::size_t iz, std::size_t ix) const {
    return c_[iz * grid_.nx + ix];
  }
  Real& at(std::size_t iz, std::size_t ix) { return c_[iz * grid_.nx + ix]; }

  /// Nearest-neighbour resample to a new grid size (keeps physical extent).
  [[nodiscard]] VelocityModel resampled(std::size_t new_nz, std::size_t new_nx) const;

 private:
  Grid2D grid_;
  std::vector<Real> c_;
};

/// Generator configuration matching the FlatVel-A specification.
struct FlatVelConfig {
  std::size_t nz = 70;
  std::size_t nx = 70;
  Real dz = 10.0;
  Real dx = 10.0;
  int min_layers = 2;
  int max_layers = 5;
  Real vmin = 1500.0;  ///< m/s
  Real vmax = 4500.0;  ///< m/s
  /// Probability that layer velocities are sorted ascending with depth
  /// (geologically typical compaction trend; FlatVel-A draws freely, so a
  /// fraction of samples end up unsorted).
  Real sorted_fraction = 0.6;
  /// Minimum layer thickness in grid rows.
  std::size_t min_thickness = 6;
};

/// Draw one flat-layered velocity model.
[[nodiscard]] VelocityModel generate_flatvel(const FlatVelConfig& config, Rng& rng);

/// Extension: curved (sinusoidal-interface) layered model in the spirit of
/// OpenFWI's CurveVel family; exercised by the generalized layer-wise
/// decoder discussion in Sec. 3.2.3.
struct CurveVelConfig {
  FlatVelConfig base;
  Real max_amplitude_rows = 5.0;  ///< interface undulation amplitude
  Real min_wavelength_frac = 0.5; ///< min undulation wavelength as fraction of width
};

[[nodiscard]] VelocityModel generate_curvevel(const CurveVelConfig& config, Rng& rng);

}  // namespace qugeo::seismic
