// Numeric helper properties.
#include <gtest/gtest.h>

#include "common/math_utils.h"

namespace qugeo {
namespace {

TEST(MathUtils, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(256));
  EXPECT_FALSE(is_pow2(255));
}

TEST(MathUtils, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
}

TEST(MathUtils, Log2Exact) {
  EXPECT_EQ(log2_exact(8), 3u);
  EXPECT_EQ(log2_exact(256), 8u);
  EXPECT_THROW((void)log2_exact(6), std::invalid_argument);
  EXPECT_THROW((void)log2_exact(0), std::invalid_argument);
}

TEST(MathUtils, L2NormAndNormalize) {
  std::vector<Real> v = {3, 4};
  EXPECT_NEAR(l2_norm(v), 5.0, 1e-12);
  const Real n = normalize_l2(v);
  EXPECT_NEAR(n, 5.0, 1e-12);
  EXPECT_NEAR(v[0], 0.6, 1e-12);
  EXPECT_NEAR(v[1], 0.8, 1e-12);
}

TEST(MathUtils, NormalizeZeroVector) {
  std::vector<Real> v = {0, 0, 0, 0};
  const Real n = normalize_l2(v);
  EXPECT_EQ(n, 0.0);
  EXPECT_EQ(v[0], 1.0);  // canonical fallback direction
  EXPECT_EQ(v[1], 0.0);
}

}  // namespace
}  // namespace qugeo
