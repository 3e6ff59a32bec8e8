// Acoustic FDTD propagation (declared in fdtd.h).
//
// Each time step is one pass over the rows of the padded grid, on the
// calling thread: a shot is the unit of parallelism (forward_modeling.cpp
// fans shots out over the pool), so the sweep itself never fans out. Per
// row it runs the stencil kernel (scalar below, or fdtd_row_avx2 when the
// shot starts at SimdLevel::kAvx2), then applies the Cerjan sponge to that
// row's sponge cells only: pad rows in full, the two side strips of
// interior rows.
//
// Lagged-damping invariant: the next level's row iz is damped as soon as
// its stencil ran, but the current level's row iz is damped only after
// the stencil of next-level row iz + halo, its last reader, so the sweep
// never reads a damped value of the level it is advancing. Every cell gets
// the same multiply as in a separate damping pass after the sweep, and the
// source cell (interior, weight 1) and the free-surface row (zeroed after
// the damping either way) do not care which came first, so gathers and
// snapshots are bitwise those of the two-pass form
// (test_seismic_fdtd_conformance).
#include "seismic/fdtd.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/cpu_features.h"
#include "seismic/fdtd_simd.h"

namespace qugeo::seismic {
namespace {

/// Central-difference second-derivative coefficients (c[0] at the center).
struct Stencil {
  std::size_t halo;
  std::array<Real, 5> c;
};

Stencil stencil_for_order(int order) {
  switch (order) {
    case 2:
      return {1, {Real(-2), Real(1), 0, 0, 0}};
    case 4:
      return {2, {Real(-5.0 / 2), Real(4.0 / 3), Real(-1.0 / 12), 0, 0}};
    case 8:
      return {4,
              {Real(-205.0 / 72), Real(8.0 / 5), Real(-1.0 / 5),
               Real(8.0 / 315), Real(-1.0 / 560)}};
    default:
      throw std::invalid_argument("fdtd: space_order must be 2, 4, or 8");
  }
}

/// Compile-time view of the stencil: the inner loop bound becomes a
/// constant the compiler fully unrolls, removing the per-cell
/// `c[k] == 0` early-out test of the runtime-generic version.
template <std::size_t Halo>
std::array<Real, Halo + 1> stencil_coeffs(const Stencil& st) {
  std::array<Real, Halo + 1> c{};
  for (std::size_t k = 0; k <= Halo; ++k) c[k] = st.c[k];
  return c;
}

/// The computational grid = user model padded by the absorbing strip on
/// every absorbing side (sources and receivers stay in the interior, so
/// surface acquisition is not attenuated), plus the stencil halo of zeros.
struct Domain {
  std::size_t nz_c, nx_c;      // computational size (model + sponge pads)
  std::size_t top_pad, side_pad;
  std::size_t halo;
  std::size_t stride;          // allocated row stride (nx_c + 2*halo)

  [[nodiscard]] std::size_t cell(std::size_t iz_c, std::size_t ix_c) const {
    return (iz_c + halo) * stride + ix_c + halo;
  }
};

/// Cerjan damping factor for a pad cell at distance d (1..W) outside the
/// interior; interior cells get 1.
Real cerjan(std::size_t d, Real strength) {
  const Real a = strength * static_cast<Real>(d);
  return std::exp(-a * a);
}

template <std::size_t Halo, typename PerStepFn>
void propagate_impl(const VelocityModel& model, const GridPos& source,
                    const RickerWavelet& wavelet, const FdtdConfig& cfg,
                    const Stencil& st, PerStepFn&& per_step) {
  const std::size_t nz = model.nz(), nx = model.nx();
  const std::array<Real, Halo + 1> stc = stencil_coeffs<Halo>(st);

  Domain dom;
  dom.side_pad = cfg.sponge_width;
  dom.top_pad = cfg.free_surface_top ? 0 : cfg.sponge_width;
  dom.nz_c = nz + dom.top_pad + cfg.sponge_width;
  dom.nx_c = nx + 2 * dom.side_pad;
  dom.halo = st.halo;
  dom.stride = dom.nx_c + 2 * st.halo;

  const std::size_t cells = (dom.nz_c + 2 * st.halo) * dom.stride;
  std::vector<Real> p(cells, 0), p_prev(cells, 0), p_next(cells, 0);

  // Edge-replicated padded velocity and per-cell damping profile.
  std::vector<Real> c2(dom.nz_c * dom.nx_c);
  std::vector<Real> damp_z(dom.nz_c, Real(1)), damp_x(dom.nx_c, Real(1));
  for (std::size_t iz_c = 0; iz_c < dom.nz_c; ++iz_c) {
    const std::size_t iz =
        iz_c < dom.top_pad
            ? 0
            : (iz_c - dom.top_pad >= nz ? nz - 1 : iz_c - dom.top_pad);
    for (std::size_t ix_c = 0; ix_c < dom.nx_c; ++ix_c) {
      const std::size_t ix =
          ix_c < dom.side_pad
              ? 0
              : (ix_c - dom.side_pad >= nx ? nx - 1 : ix_c - dom.side_pad);
      const Real c = model.at(iz, ix);
      c2[iz_c * dom.nx_c + ix_c] = c * c;
    }
    if (iz_c < dom.top_pad)
      damp_z[iz_c] = cerjan(dom.top_pad - iz_c, cfg.sponge_strength);
    else if (iz_c >= dom.top_pad + nz)
      damp_z[iz_c] = cerjan(iz_c - (dom.top_pad + nz) + 1, cfg.sponge_strength);
  }
  for (std::size_t ix_c = 0; ix_c < dom.nx_c; ++ix_c) {
    if (ix_c < dom.side_pad)
      damp_x[ix_c] = cerjan(dom.side_pad - ix_c, cfg.sponge_strength);
    else if (ix_c >= dom.side_pad + nx)
      damp_x[ix_c] = cerjan(ix_c - (dom.side_pad + nx) + 1, cfg.sponge_strength);
  }

  // Cerjan damping of one row's sponge cells: a pad row in full, the two
  // side strips of an interior row (where damp_z is 1, so the factor is
  // damp_x alone). Cells outside the sponge have weight 1 and are skipped.
  const auto damp_sponge = [&](std::vector<Real>& field, std::size_t iz_c) {
    Real* row = field.data() + dom.cell(iz_c, 0);
    if (iz_c < dom.top_pad || iz_c >= dom.top_pad + nz) {
      const Real wz = damp_z[iz_c];
      for (std::size_t ix_c = 0; ix_c < dom.nx_c; ++ix_c)
        row[ix_c] *= wz * damp_x[ix_c];
      return;
    }
    for (std::size_t ix_c = 0; ix_c < dom.side_pad; ++ix_c)
      row[ix_c] *= damp_x[ix_c];
    for (std::size_t ix_c = dom.nx_c - dom.side_pad; ix_c < dom.nx_c; ++ix_c)
      row[ix_c] *= damp_x[ix_c];
  };

  const Real inv_dz2 = Real(1) / (model.grid().dz * model.grid().dz);
  const Real inv_dx2 = Real(1) / (model.grid().dx * model.grid().dx);
  const Real dt2 = cfg.dt * cfg.dt;
  const std::size_t src_cell =
      dom.cell(source.iz + dom.top_pad, source.ix + dom.side_pad);
  const Real src_c2 = model.at(source.iz, source.ix) * model.at(source.iz, source.ix);
  const bool use_avx2 = simd::active_level() == simd::SimdLevel::kAvx2;

  for (std::size_t step = 0; step < cfg.nt; ++step) {
    // One pass over the rows: p_next row iz_c is damped once computed, p row
    // iz_c - Halo once its last reader ran (the lagged-damping invariant in
    // the file comment); the last Halo rows of p follow the loop.
    for (std::size_t iz_c = 0; iz_c < dom.nz_c; ++iz_c) {
      const Real* pr = p.data() + dom.cell(iz_c, 0);
      const Real* pp = p_prev.data() + dom.cell(iz_c, 0);
      Real* pn = p_next.data() + dom.cell(iz_c, 0);
      const Real* cc = c2.data() + iz_c * dom.nx_c;
      if (use_avx2) {
        fdtd_row_avx2(Halo, stc.data(), pr, pp, pn, cc, dom.nx_c, dom.stride,
                      inv_dz2, inv_dx2, dt2);
      } else {
        for (std::size_t ix_c = 0; ix_c < dom.nx_c; ++ix_c) {
          const Real* pc = pr + ix_c;  // halo makes +-k and +-k*stride safe
          Real lap = stc[0] * pc[0] * (inv_dz2 + inv_dx2);
          for (std::size_t k = 1; k <= Halo; ++k) {
            const auto kk = static_cast<std::ptrdiff_t>(k);
            const auto ks = static_cast<std::ptrdiff_t>(k * dom.stride);
            lap += stc[k] *
                   ((pc[kk] + pc[-kk]) * inv_dx2 + (pc[ks] + pc[-ks]) * inv_dz2);
          }
          pn[ix_c] = 2 * pc[0] - pp[ix_c] + cc[ix_c] * dt2 * lap;
        }
      }
      damp_sponge(p_next, iz_c);
      if (iz_c >= Halo) damp_sponge(p, iz_c - Halo);
    }
    for (std::size_t iz_c = dom.nz_c > Halo ? dom.nz_c - Halo : 0;
         iz_c < dom.nz_c; ++iz_c)
      damp_sponge(p, iz_c);

    p_next[src_cell] += cfg.source_amplitude *
                        wavelet(static_cast<Real>(step) * cfg.dt) * src_c2 * dt2;

    if (cfg.free_surface_top) {
      Real* top = p_next.data() + dom.cell(0, 0);
      for (std::size_t ix_c = 0; ix_c < dom.nx_c; ++ix_c) top[ix_c] = 0;
    }

    std::swap(p_prev, p);
    std::swap(p, p_next);

    per_step(step, p, dom);
  }
}

/// Validate the configuration and dispatch to the halo-templated kernel, so
/// each supported order gets a fully unrolled inner loop.
template <typename PerStepFn>
void propagate(const VelocityModel& model, const GridPos& source,
               const RickerWavelet& wavelet, const FdtdConfig& cfg,
               PerStepFn&& per_step) {
  if (source.iz >= model.nz() || source.ix >= model.nx())
    throw std::invalid_argument("fdtd: source outside grid");
  const Stencil st = stencil_for_order(cfg.space_order);
  // Written so a NaN dt fails the test too.
  if (!(cfg.dt > 0 && cfg.dt <= max_stable_dt(model, cfg.space_order)))
    throw std::invalid_argument("fdtd: dt violates the CFL stability bound");
  if (!std::isfinite(cfg.sponge_strength) || !std::isfinite(cfg.source_amplitude))
    throw std::invalid_argument(
        "fdtd: sponge strength and source amplitude must be finite");
  switch (st.halo) {
    case 1:
      propagate_impl<1>(model, source, wavelet, cfg, st,
                        std::forward<PerStepFn>(per_step));
      return;
    case 2:
      propagate_impl<2>(model, source, wavelet, cfg, st,
                        std::forward<PerStepFn>(per_step));
      return;
    case 4:
      propagate_impl<4>(model, source, wavelet, cfg, st,
                        std::forward<PerStepFn>(per_step));
      return;
    default:
      throw std::logic_error("fdtd: unsupported stencil halo");
  }
}

}  // namespace

Real max_stable_dt(const VelocityModel& model, int space_order) {
  const Stencil st = stencil_for_order(space_order);
  Real coeff_sum = std::abs(st.c[0]);
  for (std::size_t k = 1; k <= st.halo; ++k) coeff_sum += 2 * std::abs(st.c[k]);
  const auto positive = [](Real v) { return std::isfinite(v) && v > 0; };
  if (model.data().empty())
    throw std::invalid_argument("fdtd: velocity model is empty");
  if (!positive(model.grid().dz) || !positive(model.grid().dx))
    throw std::invalid_argument(
        "fdtd: grid spacing must be finite and positive");
  Real c_max = 0;
  for (Real c : model.data()) {
    if (!positive(c))
      throw std::invalid_argument(
          "fdtd: velocities must be finite and positive");
    c_max = std::max(c_max, c);
  }
  const Real h_min = std::min(model.grid().dz, model.grid().dx);
  // 2-D von Neumann bound: c dt sqrt(2 * coeff_sum) / h <= 2.
  return 2 * h_min / (c_max * std::sqrt(2 * coeff_sum));
}

ShotGather simulate_shot(const VelocityModel& model, const GridPos& source,
                         const RickerWavelet& wavelet,
                         const ReceiverLine& receivers,
                         const FdtdConfig& config) {
  for (std::size_t ix : receivers.ix)
    if (receivers.iz >= model.nz() || ix >= model.nx())
      throw std::invalid_argument("fdtd: receiver outside grid");
  const std::size_t every = config.record_every == 0 ? 1 : config.record_every;
  const std::size_t nt_rec = (config.nt + every - 1) / every;
  ShotGather gather(nt_rec, receivers.count());

  propagate(model, source, wavelet, config,
            [&](std::size_t step, const std::vector<Real>& p, const auto& dom) {
              if (step % every != 0) return;
              const std::size_t t = step / every;
              for (std::size_t r = 0; r < receivers.count(); ++r)
                gather.at(t, r) = p[dom.cell(receivers.iz + dom.top_pad,
                                             receivers.ix[r] + dom.side_pad)];
            });
  return gather;
}

std::vector<std::vector<Real>> simulate_wavefield(
    const VelocityModel& model, const GridPos& source,
    const RickerWavelet& wavelet, const FdtdConfig& config,
    const std::vector<std::size_t>& snapshot_steps) {
  std::vector<std::vector<Real>> snaps;
  propagate(model, source, wavelet, config,
            [&](std::size_t step, const std::vector<Real>& p, const auto& dom) {
              for (std::size_t want : snapshot_steps) {
                if (want != step) continue;
                std::vector<Real> frame(model.nz() * model.nx());
                for (std::size_t iz = 0; iz < model.nz(); ++iz)
                  for (std::size_t ix = 0; ix < model.nx(); ++ix)
                    frame[iz * model.nx() + ix] =
                        p[dom.cell(iz + dom.top_pad, ix + dom.side_pad)];
                snaps.push_back(std::move(frame));
              }
            });
  return snaps;
}

}  // namespace qugeo::seismic
