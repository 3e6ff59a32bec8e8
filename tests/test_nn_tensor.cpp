// Tensor container semantics.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "nn/tensor.h"

namespace qugeo::nn {
namespace {

TEST(Tensor, ShapeAndNumel) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.numel(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0);
}

TEST(Tensor, ConstructFromData) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at2(0, 1), 2.0);
  EXPECT_EQ(t.at2(1, 0), 3.0);
}

TEST(Tensor, DataShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ShapeProductOverflowThrows) {
  // (2^64 - 1)^2 wraps to 1 in size_t, which would size the buffer at one
  // element for a shape that admits 2^128 indices.
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(Tensor({huge, huge}), std::invalid_argument);
  EXPECT_THROW(Tensor({huge, huge}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Tensor({std::size_t{1} << 33, std::size_t{1} << 33}),
               std::invalid_argument);
  const Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_THROW((void)t.reshaped({huge, huge, 4}), std::invalid_argument);
  // A zero dim makes the product 0, whatever the other dims are.
  EXPECT_EQ(Tensor({0, huge}).numel(), 0u);
}

TEST(Tensor, At4RowMajorLayout) {
  Tensor t({1, 2, 2, 2});
  t.at4(0, 1, 1, 0) = 5.0;
  // offset = ((0*2+1)*2+1)*2+0 = 6
  EXPECT_EQ(t[6], 5.0);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at2(2, 1), 6.0);
  EXPECT_THROW((void)t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, FillAndZero) {
  Tensor t({3});
  t.fill(7.5);
  EXPECT_EQ(t[2], 7.5);
  t.zero();
  EXPECT_EQ(t[0], 0.0);
}

TEST(Tensor, KaimingInitBounded) {
  Rng rng(1);
  Tensor t({100});
  t.init_kaiming(rng, 25);
  const Real bound = std::sqrt(6.0 / 25.0);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -bound);
    EXPECT_LE(t[i], bound);
  }
}

TEST(Param, GradMatchesValueShape) {
  Param p({4, 5});
  EXPECT_EQ(p.numel(), 20u);
  EXPECT_EQ(p.grad.numel(), 20u);
  EXPECT_EQ(p.value.shape(), p.grad.shape());
}

}  // namespace
}  // namespace qugeo::nn
