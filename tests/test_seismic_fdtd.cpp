// FDTD solver physics: CFL bounds, kinematics (first-arrival travel time),
// absorbing boundaries, reciprocity, stencil-order consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/cpu_features.h"
#include "seismic/fdtd.h"
#include "seismic/fdtd_simd.h"

namespace qugeo::seismic {
namespace {

FdtdConfig stable_config(const VelocityModel& m, std::size_t nt, int order = 4) {
  FdtdConfig cfg;
  cfg.space_order = order;
  cfg.dt = 0.8 * max_stable_dt(m, order);
  cfg.nt = nt;
  return cfg;
}

/// First sample index where |trace| exceeds `frac` of its maximum.
std::size_t first_arrival(const ShotGather& g, std::size_t rec, Real frac = 0.2) {
  Real peak = 0;
  for (std::size_t t = 0; t < g.nt(); ++t)
    peak = std::max(peak, std::abs(g.at(t, rec)));
  for (std::size_t t = 0; t < g.nt(); ++t)
    if (std::abs(g.at(t, rec)) > frac * peak) return t;
  return g.nt();
}

TEST(Fdtd, MaxStableDtOrdering) {
  const VelocityModel m(Grid2D{32, 32, 10, 10}, 3000.0);
  // Higher-order stencils have tighter stability bounds.
  EXPECT_GT(max_stable_dt(m, 2), max_stable_dt(m, 4));
  EXPECT_GT(max_stable_dt(m, 4), max_stable_dt(m, 8));
}

TEST(Fdtd, RejectsUnstableDt) {
  const VelocityModel m(Grid2D{16, 16, 10, 10}, 3000.0);
  FdtdConfig cfg;
  cfg.dt = 2 * max_stable_dt(m, cfg.space_order);
  cfg.nt = 10;
  const RickerWavelet w(15.0);
  const ReceiverLine rec = make_receiver_line(16, 4);
  EXPECT_THROW((void)simulate_shot(m, {0, 8}, w, rec, cfg), std::invalid_argument);
}

TEST(Fdtd, RejectsNonFiniteSettings) {
  // Each of these ran to an all-NaN gather; a NaN dt passed the old
  // `dt <= 0 || dt > bound` check.
  const VelocityModel m(Grid2D{16, 16, 10, 10}, 3000.0);
  const RickerWavelet w(15.0);
  const ReceiverLine rec = make_receiver_line(16, 4);
  FdtdConfig good;
  good.dt = 0.8 * max_stable_dt(m, good.space_order);
  good.nt = 10;
  FdtdConfig nan_dt = good, nan_sponge = good, nan_amplitude = good;
  nan_dt.dt = std::nan("");
  nan_sponge.sponge_strength = std::nan("");
  nan_amplitude.source_amplitude = std::nan("");
  for (const FdtdConfig& cfg : {nan_dt, nan_sponge, nan_amplitude})
    EXPECT_THROW((void)simulate_shot(m, {0, 8}, w, rec, cfg), std::invalid_argument);
}

TEST(Fdtd, MaxStableDtRejectsDegenerateModels) {
  const Real nan = std::nan("");
  const Real inf = std::numeric_limits<Real>::infinity();
  // Empty: the velocity maximum used to dereference an empty range.
  EXPECT_THROW((void)max_stable_dt(VelocityModel(Grid2D{0, 8, 10, 10}, 2000.0), 4),
               std::invalid_argument);
  for (Real h : {Real(0), Real(-10), nan, inf}) {
    EXPECT_THROW((void)max_stable_dt(VelocityModel(Grid2D{8, 8, h, 10}, 2000.0), 4),
                 std::invalid_argument)
        << "dz " << h;
    EXPECT_THROW((void)max_stable_dt(VelocityModel(Grid2D{8, 8, 10, h}, 2000.0), 4),
                 std::invalid_argument)
        << "dx " << h;
  }
  for (Real c : {Real(0), Real(-2000), nan, inf}) {
    VelocityModel m(Grid2D{8, 8, 10, 10}, 2000.0);
    m.at(5, 3) = c;
    EXPECT_THROW((void)max_stable_dt(m, 4), std::invalid_argument) << "c " << c;
  }
}

TEST(Fdtd, RejectsBadStencilOrder) {
  const VelocityModel m(Grid2D{8, 8, 10, 10}, 2000.0);
  EXPECT_THROW((void)max_stable_dt(m, 6), std::invalid_argument);
}

TEST(Fdtd, RejectsSourceOutsideGrid) {
  const VelocityModel m(Grid2D{8, 8, 10, 10}, 2000.0);
  const FdtdConfig cfg = stable_config(m, 5);
  const RickerWavelet w(15.0);
  const ReceiverLine rec = make_receiver_line(8, 2);
  EXPECT_THROW((void)simulate_shot(m, {9, 0}, w, rec, cfg), std::invalid_argument);
}

TEST(Fdtd, WaveArrivesAtPhysicalTime) {
  // Homogeneous 2 km/s medium; source and receiver 300 m apart on the
  // surface -> direct arrival near t = d/c = 0.15 s (wavelet delay added).
  const Real c = 2000.0;
  const VelocityModel m(Grid2D{60, 60, 10, 10}, c);
  FdtdConfig cfg = stable_config(m, 400);
  const RickerWavelet w(15.0);
  ReceiverLine rec;
  rec.iz = 0;
  rec.ix = {40};  // 300 m from the source at ix=10
  const ShotGather g = simulate_shot(m, {0, 10}, w, rec, cfg);

  const Real t_arr = static_cast<Real>(first_arrival(g, 0)) * cfg.dt;
  const Real t_expected = 300.0 / c + w.delay();
  EXPECT_NEAR(t_arr, t_expected, 0.05);
}

TEST(Fdtd, FasterMediumArrivesEarlier) {
  const VelocityModel slow(Grid2D{50, 50, 10, 10}, 1600.0);
  const VelocityModel fast(Grid2D{50, 50, 10, 10}, 4000.0);
  const RickerWavelet w(15.0);
  ReceiverLine rec;
  rec.iz = 0;
  rec.ix = {40};
  // One shared clock, set by the tighter (fast-medium) stability bound.
  FdtdConfig cfg_fast = stable_config(fast, 900);
  FdtdConfig cfg_slow = cfg_fast;
  const ShotGather gs = simulate_shot(slow, {0, 5}, w, rec, cfg_slow);
  const ShotGather gf = simulate_shot(fast, {0, 5}, w, rec, cfg_fast);
  EXPECT_LT(first_arrival(gf, 0), first_arrival(gs, 0));
}

TEST(Fdtd, SpongeAbsorbsBoundaryEnergy) {
  // After the wave leaves a small domain, residual energy with the Cerjan
  // sponge must be a small fraction of the in-flight energy, and orders of
  // magnitude below a run with reflecting (no-sponge) boundaries.
  const VelocityModel m(Grid2D{40, 40, 10, 10}, 3000.0);
  const RickerWavelet w(15.0);
  auto energy = [](const std::vector<Real>& f) {
    Real e = 0;
    for (Real v : f) e += v * v;
    return e;
  };

  FdtdConfig absorbing = stable_config(m, 1200);
  absorbing.sponge_width = 20;
  const auto fa = simulate_wavefield(m, {20, 20}, w, absorbing, {150, 1199});
  ASSERT_EQ(fa.size(), 2u);
  EXPECT_LT(energy(fa[1]), 2e-2 * energy(fa[0]));

  FdtdConfig reflecting = absorbing;
  reflecting.sponge_width = 0;
  const auto fr = simulate_wavefield(m, {20, 20}, w, reflecting, {1199});
  ASSERT_EQ(fr.size(), 1u);
  EXPECT_LT(energy(fa[1]), 1e-2 * energy(fr[0]));
}

TEST(Fdtd, FreeSurfaceKeepsTopRowZero) {
  const VelocityModel m(Grid2D{30, 30, 10, 10}, 2500.0);
  FdtdConfig cfg = stable_config(m, 150);
  cfg.free_surface_top = true;
  const RickerWavelet w(15.0);
  const auto frames = simulate_wavefield(m, {15, 15}, w, cfg, {140});
  ASSERT_EQ(frames.size(), 1u);
  for (std::size_t ix = 0; ix < 30; ++ix)
    EXPECT_NEAR(frames[0][ix], 0.0, 1e-20);
}

TEST(Fdtd, ReciprocityOfSourceAndReceiver) {
  // Swapping source and receiver locations in a constant-density acoustic
  // medium yields (numerically) the same trace.
  Rng rng(77);
  FlatVelConfig vcfg;
  vcfg.nz = 40;
  vcfg.nx = 40;
  const VelocityModel m = generate_flatvel(vcfg, rng);
  FdtdConfig cfg = stable_config(m, 300);
  const RickerWavelet w(12.0);

  ReceiverLine rec_b;
  rec_b.iz = 0;
  rec_b.ix = {30};
  const ShotGather ab = simulate_shot(m, {0, 8}, w, rec_b, cfg);
  ReceiverLine rec_a;
  rec_a.iz = 0;
  rec_a.ix = {8};
  const ShotGather ba = simulate_shot(m, {0, 30}, w, rec_a, cfg);

  Real peak = 0;
  for (std::size_t t = 0; t < ab.nt(); ++t)
    peak = std::max(peak, std::abs(ab.at(t, 0)));
  for (std::size_t t = 0; t < ab.nt(); ++t)
    EXPECT_NEAR(ab.at(t, 0), ba.at(t, 0), 0.05 * peak);
}

TEST(Fdtd, HigherOrderAgreesWithSecondOrder) {
  // On a smooth problem the 2nd- and 8th-order solutions should agree to a
  // few percent at moderate resolution.
  const VelocityModel m(Grid2D{50, 50, 10, 10}, 2000.0);
  const RickerWavelet w(10.0);
  ReceiverLine rec;
  rec.iz = 0;
  rec.ix = {35};
  FdtdConfig cfg2 = stable_config(m, 600, 2);
  FdtdConfig cfg8 = stable_config(m, 600, 8);
  cfg8.dt = cfg2.dt = 0.8 * max_stable_dt(m, 8);
  const ShotGather g2 = simulate_shot(m, {0, 15}, w, rec, cfg2);
  const ShotGather g8 = simulate_shot(m, {0, 15}, w, rec, cfg8);

  Real peak = 0, err = 0;
  for (std::size_t t = 0; t < g2.nt(); ++t) {
    peak = std::max(peak, std::abs(g8.at(t, 0)));
    err = std::max(err, std::abs(g2.at(t, 0) - g8.at(t, 0)));
  }
  EXPECT_LT(err, 0.15 * peak);
}

TEST(Fdtd, FdtdRowAvx2MatchesScalarRow) {
  // The AVX2 row kernel against the scalar sweep's exact formula, for every
  // supported halo, on an interior width that exercises the vector tail.
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "AVX2+FMA not supported on this CPU";
  Rng rng(91);
  const Real inv_dz2 = 1.0 / (10.0 * 10.0);
  const Real inv_dx2 = 1.0 / (12.0 * 12.0);
  const Real dt2 = 1e-3 * 1e-3;
  for (std::size_t halo : {1u, 2u, 4u}) {
    const std::size_t nx = 37;
    const std::size_t stride = nx + 2 * halo;
    std::vector<Real> pc((2 * halo + 1) * stride);
    std::vector<Real> pp(nx), pn_avx2(nx), pn_ref(nx), cc(nx);
    std::vector<Real> stc(halo + 1);
    for (Real& v : pc) v = rng.uniform(-1, 1);
    for (Real& v : pp) v = rng.uniform(-1, 1);
    for (Real& v : cc) v = rng.uniform(1e6, 2e7);  // c^2 range
    for (Real& v : stc) v = rng.uniform(-3, 3);
    const Real* pc_row = pc.data() + halo * stride + halo;

    fdtd_row_avx2(halo, stc.data(), pc_row, pp.data(), pn_avx2.data(),
                  cc.data(), nx, stride, inv_dz2, inv_dx2, dt2);

    for (std::size_t ix = 0; ix < nx; ++ix) {
      const Real* p = pc_row + ix;
      Real lap = stc[0] * p[0] * (inv_dz2 + inv_dx2);
      for (std::size_t k = 1; k <= halo; ++k) {
        const auto kk = static_cast<std::ptrdiff_t>(k);
        const auto ks = static_cast<std::ptrdiff_t>(k * stride);
        lap += stc[k] *
               ((p[kk] + p[-kk]) * inv_dx2 + (p[ks] + p[-ks]) * inv_dz2);
      }
      pn_ref[ix] = 2 * p[0] - pp[ix] + cc[ix] * dt2 * lap;
    }

    for (std::size_t ix = 0; ix < nx; ++ix) {
      const Real scale = std::max(std::abs(pn_ref[ix]), Real(1));
      EXPECT_NEAR(pn_avx2[ix], pn_ref[ix], 1e-12 * scale)
          << "halo " << halo << " cell " << ix;
    }
  }
}

TEST(Fdtd, SimdScalarAndAvx2ShotsAgree) {
  // End-to-end: the same shot simulated under forced scalar and forced AVX2
  // dispatch produces (numerically) the same gather at every order.
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "AVX2+FMA not supported on this CPU";
  const VelocityModel m(Grid2D{40, 40, 10, 10}, 2500.0);
  const RickerWavelet w(15.0);
  const ReceiverLine rec = make_receiver_line(40, 8);
  for (int order : {2, 4, 8}) {
    const FdtdConfig cfg = stable_config(m, 200, order);
    ShotGather gs = [&] {
      const simd::ScopedSimdMode scoped(simd::SimdMode::kScalar);
      return simulate_shot(m, {0, 20}, w, rec, cfg);
    }();
    ShotGather ga = [&] {
      const simd::ScopedSimdMode scoped(simd::SimdMode::kAvx2);
      return simulate_shot(m, {0, 20}, w, rec, cfg);
    }();
    Real peak = 0;
    for (std::size_t t = 0; t < gs.nt(); ++t)
      for (std::size_t r = 0; r < gs.nrec(); ++r)
        peak = std::max(peak, std::abs(gs.at(t, r)));
    for (std::size_t t = 0; t < gs.nt(); ++t)
      for (std::size_t r = 0; r < gs.nrec(); ++r)
        EXPECT_NEAR(ga.at(t, r), gs.at(t, r), 1e-9 * peak)
            << "order " << order << " t " << t << " rec " << r;
  }
}

TEST(Fdtd, RecordDecimation) {
  const VelocityModel m(Grid2D{20, 20, 10, 10}, 2000.0);
  FdtdConfig cfg = stable_config(m, 100);
  cfg.record_every = 10;
  const RickerWavelet w(15.0);
  const ShotGather g = simulate_shot(m, {0, 10}, w, make_receiver_line(20, 5), cfg);
  EXPECT_EQ(g.nt(), 10u);
  EXPECT_EQ(g.nrec(), 5u);
}

}  // namespace
}  // namespace qugeo::seismic
