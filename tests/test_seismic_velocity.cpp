// Velocity-model generators: FlatVel layering invariants, resampling, and
// the CurveVel extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "seismic/velocity_model.h"

namespace qugeo::seismic {
namespace {

TEST(VelocityModel, ConstantConstructor) {
  const VelocityModel m(Grid2D{10, 12, 10, 10}, 2000.0);
  EXPECT_EQ(m.nz(), 10u);
  EXPECT_EQ(m.nx(), 12u);
  const auto [lo, hi] = std::ranges::minmax(m.data());
  EXPECT_EQ(lo, 2000.0);
  EXPECT_EQ(hi, 2000.0);
}

TEST(VelocityModel, SizeValidation) {
  EXPECT_THROW(VelocityModel(Grid2D{4, 4, 10, 10}, std::vector<Real>(10)),
               std::invalid_argument);
}

TEST(VelocityModel, ResampleKeepsExtentAndValues) {
  VelocityModel m(Grid2D{8, 8, 10, 10}, 1500.0);
  for (std::size_t iz = 4; iz < 8; ++iz)
    for (std::size_t ix = 0; ix < 8; ++ix) m.at(iz, ix) = 3000.0;
  const VelocityModel small = m.resampled(4, 4);
  EXPECT_EQ(small.nz(), 4u);
  EXPECT_NEAR(small.grid().dz, 20.0, 1e-12);
  EXPECT_EQ(small.at(0, 0), 1500.0);
  EXPECT_EQ(small.at(3, 3), 3000.0);
}

class FlatVelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatVelTest, LayersAreHorizontalAndInRange) {
  Rng rng(GetParam());
  const FlatVelConfig cfg;
  const VelocityModel m = generate_flatvel(cfg, rng);
  EXPECT_EQ(m.nz(), 70u);
  EXPECT_EQ(m.nx(), 70u);
  const auto [lo, hi] = std::ranges::minmax(m.data());
  EXPECT_GE(lo, cfg.vmin);
  EXPECT_LE(hi, cfg.vmax);
  // Every row must be constant (flat layers).
  for (std::size_t iz = 0; iz < m.nz(); ++iz)
    for (std::size_t ix = 1; ix < m.nx(); ++ix)
      ASSERT_EQ(m.at(iz, ix), m.at(iz, 0)) << "row " << iz;
}

TEST_P(FlatVelTest, LayerCountWithinConfig) {
  Rng rng(GetParam());
  const FlatVelConfig cfg;
  const VelocityModel m = generate_flatvel(cfg, rng);
  std::set<Real> distinct;
  for (std::size_t iz = 0; iz < m.nz(); ++iz) distinct.insert(m.at(iz, 0));
  EXPECT_GE(distinct.size(), 1u);
  EXPECT_LE(distinct.size(), static_cast<std::size_t>(cfg.max_layers));
}

TEST_P(FlatVelTest, MinimumLayerThicknessRespected) {
  Rng rng(GetParam());
  FlatVelConfig cfg;
  cfg.min_thickness = 6;
  const VelocityModel m = generate_flatvel(cfg, rng);
  std::size_t run = 1;
  for (std::size_t iz = 1; iz < m.nz(); ++iz) {
    if (m.at(iz, 0) == m.at(iz - 1, 0)) {
      ++run;
    } else {
      EXPECT_GE(run, cfg.min_thickness);
      run = 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 100, 2024));

TEST(FlatVel, DeterministicForSeed) {
  Rng a(55), b(55);
  const FlatVelConfig cfg;
  const VelocityModel m1 = generate_flatvel(cfg, a);
  const VelocityModel m2 = generate_flatvel(cfg, b);
  for (std::size_t k = 0; k < m1.data().size(); ++k)
    ASSERT_EQ(m1.data()[k], m2.data()[k]);
}

TEST(CurveVel, ColumnsVaryAcrossOffsets) {
  Rng rng(9);
  CurveVelConfig cfg;
  cfg.base.min_layers = 3;
  cfg.base.max_layers = 4;
  cfg.max_amplitude_rows = 5.0;
  bool any_column_differs = false;
  for (int attempt = 0; attempt < 5 && !any_column_differs; ++attempt) {
    const VelocityModel m = generate_curvevel(cfg, rng);
    for (std::size_t iz = 0; iz < m.nz() && !any_column_differs; ++iz)
      for (std::size_t ix = 1; ix < m.nx(); ++ix)
        if (m.at(iz, ix) != m.at(iz, 0)) {
          any_column_differs = true;
          break;
        }
  }
  EXPECT_TRUE(any_column_differs);
}

TEST(CurveVel, VelocitiesInRange) {
  Rng rng(10);
  const CurveVelConfig cfg;
  const VelocityModel m = generate_curvevel(cfg, rng);
  const auto [lo, hi] = std::ranges::minmax(m.data());
  EXPECT_GE(lo, cfg.base.vmin);
  EXPECT_LE(hi, cfg.base.vmax);
}

}  // namespace
}  // namespace qugeo::seismic
