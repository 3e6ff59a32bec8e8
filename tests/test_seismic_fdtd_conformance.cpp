// Conformance of the one-pass FDTD sweep (sponge damping folded into the
// row sweep, seismic/fdtd.cpp) against a test-local copy of the two-pass
// sweep it replaced: stencil over every row, then a separate pass damping
// both time levels. Gathers and wavefield snapshots must agree bitwise for
// every stencil order, with and without a free surface, over sponge widths
// and grid shapes down to grids smaller than the stencil halo, at both
// SIMD levels. Also pins the corpus fan-outs: generate_raw_dataset's flat
// shot fan-out against per-model model_shots, and the pooled Q-D-FW
// dataset against serial scale(), at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "data/dataset.h"
#include "data/scaling.h"
#include "seismic/fdtd.h"
#include "seismic/fdtd_simd.h"
#include "seismic/forward_modeling.h"

namespace qugeo::seismic {
namespace {

// ---------------------------------------------------------------------
// Reference: the two-pass sweep, as it was before the damping moved into
// the row loop (rows run in order on the calling thread, which is what
// the old row fan-out did on every grid this suite uses).
// ---------------------------------------------------------------------
namespace ref {

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
      throw std::invalid_argument("ref: space_order must be 2, 4, or 8");
  }
}

template <std::size_t Halo>
std::array<Real, Halo + 1> stencil_coeffs(const Stencil& st) {
  std::array<Real, Halo + 1> c{};
  for (std::size_t k = 0; k <= Halo; ++k) c[k] = st.c[k];
  return c;
}

struct Domain {
  std::size_t nz_c, nx_c;
  std::size_t top_pad, side_pad;
  std::size_t halo;
  std::size_t stride;

  [[nodiscard]] std::size_t cell(std::size_t iz_c, std::size_t ix_c) const {
    return (iz_c + halo) * stride + ix_c + halo;
  }
};

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

  const Real inv_dz2 = Real(1) / (model.grid().dz * model.grid().dz);
  const Real inv_dx2 = Real(1) / (model.grid().dx * model.grid().dx);
  const Real dt2 = cfg.dt * cfg.dt;
  const std::size_t src_cell =
      dom.cell(source.iz + dom.top_pad, source.ix + dom.side_pad);
  const Real src_c2 = model.at(source.iz, source.ix) * model.at(source.iz, source.ix);
  const bool use_avx2 = simd::active_level() == simd::SimdLevel::kAvx2;

  for (std::size_t step = 0; step < cfg.nt; ++step) {
    for (std::size_t iz_c = 0; iz_c < dom.nz_c; ++iz_c) {
      const Real* pr = p.data() + dom.cell(iz_c, 0);
      const Real* pp = p_prev.data() + dom.cell(iz_c, 0);
      Real* pn = p_next.data() + dom.cell(iz_c, 0);
      const Real* cc = c2.data() + iz_c * dom.nx_c;
      if (use_avx2) {
        fdtd_row_avx2(Halo, stc.data(), pr, pp, pn, cc, dom.nx_c, dom.stride,
                      inv_dz2, inv_dx2, dt2);
        continue;
      }
      for (std::size_t ix_c = 0; ix_c < dom.nx_c; ++ix_c) {
        const Real* pc = pr + ix_c;
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

    p_next[src_cell] += cfg.source_amplitude *
                        wavelet(static_cast<Real>(step) * cfg.dt) * src_c2 * dt2;

    if (cfg.free_surface_top) {
      Real* top = p_next.data() + dom.cell(0, 0);
      for (std::size_t ix_c = 0; ix_c < dom.nx_c; ++ix_c) top[ix_c] = 0;
    }

    // The second pass: damp both time levels inside the sponge pads.
    for (std::size_t iz_c = 0; iz_c < dom.nz_c; ++iz_c) {
      const Real wz = damp_z[iz_c];
      Real* pn = p_next.data() + dom.cell(iz_c, 0);
      Real* pr = p.data() + dom.cell(iz_c, 0);
      for (std::size_t ix_c = 0; ix_c < dom.nx_c; ++ix_c) {
        const Real w = wz * damp_x[ix_c];
        if (w != Real(1)) {
          pn[ix_c] *= w;
          pr[ix_c] *= w;
        }
      }
    }

    std::swap(p_prev, p);
    std::swap(p, p_next);

    per_step(step, p, dom);
  }
}

template <typename PerStepFn>
void propagate(const VelocityModel& model, const GridPos& source,
               const RickerWavelet& wavelet, const FdtdConfig& cfg,
               PerStepFn&& per_step) {
  const Stencil st = stencil_for_order(cfg.space_order);
  switch (st.halo) {
    case 1:
      propagate_impl<1>(model, source, wavelet, cfg, st, per_step);
      return;
    case 2:
      propagate_impl<2>(model, source, wavelet, cfg, st, per_step);
      return;
    case 4:
      propagate_impl<4>(model, source, wavelet, cfg, st, per_step);
      return;
    default:
      throw std::logic_error("ref: unsupported stencil halo");
  }
}

ShotGather simulate_shot(const VelocityModel& model, const GridPos& source,
                         const RickerWavelet& wavelet,
                         const ReceiverLine& receivers, const FdtdConfig& config) {
  const std::size_t every = config.record_every == 0 ? 1 : config.record_every;
  ShotGather gather((config.nt + every - 1) / every, receivers.count());
  propagate(model, source, wavelet, config,
            [&](std::size_t step, const std::vector<Real>& p, const Domain& dom) {
              if (step % every != 0) return;
              for (std::size_t r = 0; r < receivers.count(); ++r)
                gather.at(step / every, r) =
                    p[dom.cell(receivers.iz + dom.top_pad,
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
            [&](std::size_t step, const std::vector<Real>& p, const Domain& dom) {
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

}  // namespace ref

// ---------------------------------------------------------------------

bool bitwise_equal(std::span<const Real> a, std::span<const Real> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0;
}

/// The SIMD levels this host can run: scalar always, AVX2 where supported.
std::vector<simd::SimdMode> host_simd_modes() {
  std::vector<simd::SimdMode> modes{simd::SimdMode::kScalar};
  if (simd::cpu_supports_avx2()) modes.push_back(simd::SimdMode::kAvx2);
  return modes;
}

/// Heterogeneous model with unequal spacings, so a swapped dz/dx or a
/// wrongly padded velocity column shows up in the bits.
VelocityModel random_model(std::size_t nz, std::size_t nx, Rng& rng) {
  std::vector<Real> c(nz * nx);
  rng.fill_uniform(c, 1500, 4500);
  return VelocityModel(Grid2D{nz, nx, 5.0, 7.0}, std::move(c));
}

TEST(FdtdConformance, OnePassSweepMatchesTwoPassBitwise) {
  struct Shape {
    std::size_t nz, nx;
  };
  // 1-3 rows are smaller than the order-8 halo once the sponge is 0.
  const Shape shapes[] = {{1, 1}, {1, 7}, {2, 3}, {3, 9},
                          {5, 2}, {9, 33}, {33, 4}, {33, 33}};
  const std::size_t nt = 48;
  Rng rng(2024);
  std::size_t cases = 0;
  for (const Shape& shape : shapes) {
    const VelocityModel m = random_model(shape.nz, shape.nx, rng);
    const GridPos source{shape.nz / 2, shape.nx / 2};
    const ReceiverLine rec =
        make_receiver_line(shape.nx, std::min<std::size_t>(shape.nx, 5),
                           shape.nz - 1);
    const RickerWavelet wavelet(30.0, 0.0);  // no delay: energy from step 0
    const std::vector<std::size_t> snaps{0, nt / 2, nt - 1};
    for (int order : {2, 4, 8})
      for (bool free_surface : {false, true})
        for (std::size_t sponge : {0u, 3u, 12u, 40u})
          for (simd::SimdMode mode : host_simd_modes()) {
            const simd::ScopedSimdMode scoped(mode);
            FdtdConfig cfg;
            cfg.space_order = order;
            cfg.free_surface_top = free_surface;
            cfg.sponge_width = sponge;
            cfg.sponge_strength = 0.05;
            cfg.dt = 0.95 * max_stable_dt(m, order);
            cfg.nt = nt;
            const std::string where =
                "grid " + std::to_string(shape.nz) + "x" +
                std::to_string(shape.nx) + " order " + std::to_string(order) +
                " free_surface " + std::to_string(free_surface) + " sponge " +
                std::to_string(sponge) + " simd " +
                std::string(simd::simd_mode_name(mode));

            const ShotGather got = simulate_shot(m, source, wavelet, rec, cfg);
            const ShotGather want = ref::simulate_shot(m, source, wavelet, rec, cfg);
            EXPECT_TRUE(bitwise_equal(got.data(), want.data())) << where;

            const auto got_f = simulate_wavefield(m, source, wavelet, cfg, snaps);
            const auto want_f = ref::simulate_wavefield(m, source, wavelet, cfg, snaps);
            ASSERT_EQ(got_f.size(), want_f.size()) << where;
            for (std::size_t k = 0; k < got_f.size(); ++k)
              EXPECT_TRUE(bitwise_equal(got_f[k], want_f[k]))
                  << where << " snapshot " << snaps[k];
            ++cases;
          }
  }
  EXPECT_GE(cases, std::size_t{192});
}

/// A small corpus acquisition: the shot fan-out, not the grid, is on test.
Acquisition small_acquisition() {
  Acquisition acq = openfwi_acquisition();
  acq.num_sources = 3;
  acq.num_receivers = 8;
  acq.num_time_samples = 30;
  return acq;
}

FlatVelConfig small_flatvel() {
  FlatVelConfig cfg;
  cfg.nz = 20;
  cfg.nx = 20;
  cfg.min_thickness = 3;
  return cfg;
}

TEST(FdtdConformance, RawDatasetEqualsPerModelShotsAtAnyThreadCount) {
  const FlatVelConfig vel_cfg = small_flatvel();
  const Acquisition acq = small_acquisition();
  constexpr std::size_t kCount = 3;
  constexpr std::uint64_t kSeed = 41;

  // Reference: the old per-sample loop, one model_shots call per map.
  set_num_threads(1);
  Rng ref_rng(kSeed);
  std::vector<VelocityModel> models;
  std::vector<SeismicData> per_model;
  for (std::size_t i = 0; i < kCount; ++i) {
    models.push_back(generate_flatvel(vel_cfg, ref_rng));
    per_model.push_back(model_shots(models.back(), acq));
  }
  const std::uint64_t next_draw = ref_rng.next_u64();

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    Rng rng(kSeed);
    const data::RawDataset raw =
        data::generate_raw_dataset(kCount, vel_cfg, acq, rng);
    ASSERT_EQ(raw.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_TRUE(bitwise_equal(raw.samples[i].velocity.data(), models[i].data()))
          << "threads " << threads << " sample " << i;
      EXPECT_TRUE(bitwise_equal(raw.samples[i].seismic.data(), per_model[i].data()))
          << "threads " << threads << " sample " << i;
    }
    // The rng advanced exactly as the per-sample loop advanced it.
    EXPECT_EQ(rng.next_u64(), next_draw) << "threads " << threads;
  }
  set_num_threads(0);
}

TEST(FdtdConformance, PooledQdfwDatasetEqualsSerialScale) {
  Rng rng(43);
  const data::RawDataset raw =
      data::generate_raw_dataset(3, small_flatvel(), small_acquisition(), rng);
  const data::ScaleTarget target;
  const data::ForwardModelScaler qdfw(target, quantum_acquisition(), 4);

  set_num_threads(1);
  std::vector<data::ScaledSample> serial;
  for (const data::RawSample& s : raw.samples) serial.push_back(qdfw.scale(s));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    const data::ScaledDataset pooled = qdfw.scale_dataset(raw, target);
    EXPECT_EQ(pooled.scaler_name, "Q-D-FW");
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(pooled.samples[i].waveform, serial[i].waveform))
          << "threads " << threads << " sample " << i;
      EXPECT_TRUE(bitwise_equal(pooled.samples[i].velocity, serial[i].velocity))
          << "threads " << threads << " sample " << i;
    }
  }
  set_num_threads(0);
}

}  // namespace
}  // namespace qugeo::seismic
