// Image metrics: SSIM identity/symmetry/sensitivity properties, MSE.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "metrics/image_metrics.h"

namespace qugeo::metrics {
namespace {

std::vector<Real> random_image(std::size_t n, Rng& rng) {
  std::vector<Real> img(n);
  rng.fill_uniform(img, 0, 1);
  return img;
}

TEST(Ssim, IdenticalImagesScoreOne) {
  Rng rng(1);
  const auto img = random_image(64, rng);
  EXPECT_NEAR(ssim(img, img, 8, 8), 1.0, 1e-12);
}

TEST(Ssim, SymmetricInArguments) {
  Rng rng(2);
  const auto a = random_image(64, rng);
  const auto b = random_image(64, rng);
  EXPECT_NEAR(ssim(a, b, 8, 8), ssim(b, a, 8, 8), 1e-12);
}

TEST(Ssim, BoundedAboveByOne) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = random_image(64, rng);
    const auto b = random_image(64, rng);
    EXPECT_LE(ssim(a, b, 8, 8), 1.0 + 1e-12);
  }
}

TEST(Ssim, NoisierImageScoresLower) {
  // Smooth structured reference (diagonal gradient), perturbed by noise of
  // two magnitudes.
  Rng rng(4);
  const std::size_t n = 16;
  std::vector<Real> ref(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ref[i * n + j] = static_cast<Real>(i + j) / (2.0 * (n - 1));
  auto mild = ref, heavy = ref;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    mild[i] += rng.normal(0, 0.02);
    heavy[i] += rng.normal(0, 0.3);
  }
  SsimOptions opts;
  opts.data_range = 1.0;
  const Real s_mild = ssim(ref, mild, n, n, opts);
  const Real s_heavy = ssim(ref, heavy, n, n, opts);
  EXPECT_GT(s_mild, s_heavy);
  EXPECT_GT(s_mild, 0.7);
  EXPECT_LT(s_heavy, 0.6);
}

TEST(Ssim, StructureMattersBeyondMse) {
  // A constant offset and a sign-flipped detail pattern have the same MSE
  // but very different SSIM.
  const std::size_t n = 16;
  std::vector<Real> base(n * n), offset(n * n), flipped(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    const Real detail = ((i / n + i % n) % 2) ? 0.1 : -0.1;
    base[i] = 0.5 + detail;
    offset[i] = 0.5 + detail + 0.2;  // same structure, shifted mean
    flipped[i] = 0.5 - detail;       // anti-correlated structure, same mean
  }
  SsimOptions opts;
  opts.data_range = 1.0;
  EXPECT_NEAR(mse(base, offset), mse(base, flipped), 1e-12);
  EXPECT_GT(ssim(base, offset, n, n, opts), ssim(base, flipped, n, n, opts));
}

TEST(Ssim, SmallMapWindowShrinks) {
  // 8x8 velocity maps (the paper's output) must work with the default
  // window of 7 without throwing.
  Rng rng(5);
  const auto a = random_image(64, rng);
  const auto b = random_image(64, rng);
  const Real s = ssim(a, b, 8, 8);
  EXPECT_GE(s, -1.0);
  EXPECT_LE(s, 1.0);
}

TEST(Ssim, TinyImagesDegenerate) {
  const std::vector<Real> a = {0.5}, b = {0.5};
  EXPECT_NEAR(ssim(a, b, 1, 1), 1.0, 1e-9);
}

TEST(Ssim, ShapeValidation) {
  Rng rng(6);
  const auto a = random_image(64, rng);
  const auto b = random_image(64, rng);
  EXPECT_THROW((void)ssim(a, b, 7, 8), std::invalid_argument);
}

TEST(Mse, KnownValue) {
  const std::vector<Real> a = {1, 2, 3};
  const std::vector<Real> b = {1, 0, 0};
  EXPECT_NEAR(mse(a, b), (0 + 4 + 9) / 3.0, 1e-12);
}

TEST(Mse, ZeroForIdentical) {
  const std::vector<Real> a = {0.3, 0.7};
  EXPECT_EQ(mse(a, a), 0.0);
}

TEST(Metrics, EmptyInputRejected) {
  const std::vector<Real> empty;
  EXPECT_THROW((void)mse(empty, empty), std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::metrics
