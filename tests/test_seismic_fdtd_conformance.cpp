// Conformance of the one-pass FDTD sweep (sponge damping folded into the
// row sweep, seismic/fdtd.cpp) against a test-local copy of the two-pass
// sweep it replaced: stencil over every row, then a separate pass damping
// both time levels. Gathers and wavefield snapshots must agree bitwise for
// every stencil order, with and without a free surface, over sponge widths
// and grid shapes down to grids smaller than the stencil halo, at both
// SIMD levels. Also pins the corpus fan-outs: generate_raw_dataset's flat
// shot fan-out against per-model model_shots, and the pooled Q-D-FW
// dataset against serial scale(), at 1 and 4 threads. And the cut corpus:
// one-shot model_shot against the every-source call, the picked_sources
// formula, and load_or_build_experiment_data, which models only the picked
// shots of its corpus maps, against a test-local copy of the build that
// modelled every shot (datasets and cache files bitwise).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "data/cache.h"
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

TEST(FdtdConformance, ModelShotEqualsThatShotOfTheEverySourceCall) {
  Acquisition acq = small_acquisition();
  acq.num_sources = 5;
  Rng rng(47);
  std::vector<VelocityModel> models;
  for (int i = 0; i < 2; ++i)
    models.push_back(generate_flatvel(small_flatvel(), rng));
  const std::vector<SeismicData> every = model_shots(models, acq);

  // One shot on the calling thread is that shot of the full call.
  for (std::size_t m = 0; m < models.size(); ++m)
    for (std::size_t src = 0; src < acq.num_sources; ++src)
      EXPECT_TRUE(bitwise_equal(model_shot(models[m], acq, src).data(),
                                every[m].shot_span(src)))
          << "model " << m << " source " << src;
  // A one-source acquisition is not the middle shot of five: a lone source
  // sits at nx / 2, the middle of five at 2 * (nx - 1) / 4.
  Acquisition lone = acq;
  lone.num_sources = 1;
  EXPECT_FALSE(bitwise_equal(model_shot(models[0], lone, 0).data(),
                             every[0].shot_span(2)));
}

TEST(FdtdConformance, OutOfRangeSourceThrowsBeforeAnyShotRuns) {
  // Grid spacing of 0.1 mm puts tens of millions of steps in one shot, so
  // a check made after the shot would take minutes.
  const VelocityModel slow(Grid2D{8, 8, 1e-4, 1e-4}, 4500.0);
  Acquisition acq = small_acquisition();
  acq.num_sources = 5;
  acq.num_time_samples = 4;
  for (std::size_t src : {std::size_t{5}, std::size_t{99}}) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW((void)model_shot(slow, acq, src), std::invalid_argument);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took.count(), 5.0) << "source " << src;
  }
}

TEST(FdtdConformance, PickedSourcesPins) {
  using V = std::vector<std::size_t>;
  EXPECT_EQ(data::picked_sources(5, 1), (V{2}));
  EXPECT_EQ(data::picked_sources(5, 3), (V{0, 2, 4}));
  EXPECT_EQ(data::picked_sources(5, 5), (V{0, 1, 2, 3, 4}));
  EXPECT_EQ(data::picked_sources(5, 8), (V{0, 0, 1, 1, 2, 2, 3, 4}));
  EXPECT_EQ(data::picked_sources(2, 1), (V{1}));
  // Picking again from a volume of the picked shots reads them in order.
  for (std::size_t k = 1; k <= 8; ++k) {
    V in_order(k);
    std::iota(in_order.begin(), in_order.end(), std::size_t{0});
    EXPECT_EQ(data::picked_sources(data::picked_sources(5, k).size(), k),
              in_order)
        << "k " << k;
  }
  EXPECT_THROW((void)data::picked_sources(0, 1), std::invalid_argument);
}

/// The corpus build as it was before it cut the unread shots: every shot
/// of every map in one generate_raw_dataset call (corpus maps first), then
/// the three scalers.
data::ExperimentData every_shot_build(
    const data::ExperimentDataConfig& config) {
  Rng rng(config.seed);
  const Acquisition acq = openfwi_acquisition();
  data::RawDataset raw = data::generate_raw_dataset(
      config.num_samples + config.cnn_train_samples, FlatVelConfig{}, acq, rng);
  data::RawDataset cnn_raw;
  cnn_raw.velocity_config = raw.velocity_config;
  cnn_raw.acquisition = acq;
  cnn_raw.samples.assign(
      std::make_move_iterator(raw.samples.begin() +
                              static_cast<std::ptrdiff_t>(config.num_samples)),
      std::make_move_iterator(raw.samples.end()));
  raw.samples.resize(config.num_samples);

  const data::ScaleTarget& t = config.target;
  Rng cnn_rng = rng.split();
  const data::CnnScaler qdcnn =
      data::train_cnn_scaler(cnn_raw, t, config.cnn, cnn_rng);
  data::ExperimentData out;
  out.train_count = config.train_count;
  out.dsample = data::DSampleScaler(t).scale_dataset(raw, t);
  out.qdfw = data::ForwardModelScaler(t).scale_dataset(raw, t);
  out.qdcnn = qdcnn.scale_dataset(raw, t);
  return out;
}

void expect_same_dataset(const data::ScaledDataset& got,
                         const data::ScaledDataset& want,
                         const std::string& where) {
  EXPECT_EQ(got.scaler_name, want.scaler_name) << where;
  EXPECT_EQ(got.waveform_size(), want.waveform_size()) << where;
  EXPECT_EQ(got.velocity_size(), want.velocity_size()) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const data::ScaledSample& g = got.samples[i];
    const data::ScaledSample& w = want.samples[i];
    const std::string at = where + " sample " + std::to_string(i);
    EXPECT_TRUE(bitwise_equal(g.waveform, w.waveform)) << at;
    EXPECT_TRUE(bitwise_equal(g.velocity, w.velocity)) << at;
  }
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(FdtdConformance, CutCorpusBuildEqualsEveryShotBuild) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "qugeo_cut_corpus_test";
  fs::remove_all(root);
  for (std::size_t nsrc : {std::size_t{1}, std::size_t{3}}) {
    data::ExperimentDataConfig config;
    config.num_samples = 3;
    config.train_count = 2;
    // Two scaler maps fold the input scale's max across maps, and at 2
    // threads one worker models shots beside the scaler training.
    config.cnn_train_samples = 2;
    config.seed = 77;
    config.target.nsrc = nsrc;
    config.cnn.epochs = 2;
    set_num_threads(1);
    const data::ExperimentData want = every_shot_build(config);

    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      set_num_threads(threads);
      const std::string where =
          "target nsrc " + std::to_string(nsrc) + " threads " +
          std::to_string(threads);
      config.cache_dir = root / ("built_" + std::to_string(threads));
      const data::ExperimentData got =
          data::load_or_build_experiment_data(config);
      EXPECT_EQ(got.train_count, want.train_count) << where;
      expect_same_dataset(got.dsample, want.dsample, where + " D-Sample");
      expect_same_dataset(got.qdfw, want.qdfw, where + " Q-D-FW");
      expect_same_dataset(got.qdcnn, want.qdcnn, where + " Q-D-CNN");

      // The six cache files, byte for byte against the reference's.
      const fs::path ref_dir = root / "reference";
      fs::create_directories(ref_dir);
      std::size_t compared = 0;
      for (const auto& entry : fs::directory_iterator(config.cache_dir)) {
        const std::string name = entry.path().filename().string();
        // <base>.wave.qgt or <base>.vel.qgt
        const std::string base = entry.path().stem().stem().string();
        const data::ScaledDataset& ds =
            base.ends_with("_dsample") ? want.dsample
            : base.ends_with("_qdfw")  ? want.qdfw
                                       : want.qdcnn;
        data::save_scaled_dataset(ref_dir / base, ds);
        EXPECT_EQ(file_bytes(entry.path()), file_bytes(ref_dir / name))
            << where << " " << name;
        ++compared;
      }
      EXPECT_EQ(compared, 6u) << where;
      fs::remove_all(root);
    }
  }
  set_num_threads(0);
}

}  // namespace
}  // namespace qugeo::seismic
