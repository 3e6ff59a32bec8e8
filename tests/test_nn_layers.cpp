// Layer forward/backward: every layer's parameter and input gradients are
// checked against central finite differences on random data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"

namespace qugeo::nn {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t.data_mut(), -1, 1);
  return t;
}

/// Scalar loss = sum of elementwise products with fixed random weights;
/// gives a dense, nontrivial gradient at the output.
struct ProbeLoss {
  Tensor weights;

  explicit ProbeLoss(const Tensor& like, Rng& rng) : weights(like.shape()) {
    rng.fill_uniform(weights.data_mut(), -1, 1);
  }
  Real value(const Tensor& y) const {
    Real s = 0;
    for (std::size_t i = 0; i < y.numel(); ++i) s += weights[i] * y[i];
    return s;
  }
  Tensor grad() const { return weights; }
};

/// Check dL/d(input) and dL/d(params) of `layer` against finite differences.
void grad_check(Layer& layer, Tensor input, Real tol = 1e-5) {
  Rng rng(777);
  Tensor out = layer.forward(input);
  ProbeLoss loss(out, rng);

  for (Param* p : layer.params()) p->grad.zero();
  const Tensor din = layer.backward(loss.grad());

  const Real eps = 1e-5;
  // Input gradient.
  for (std::size_t i = 0; i < input.numel(); ++i) {
    Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    const Real fd =
        (loss.value(layer.forward(plus)) - loss.value(layer.forward(minus))) /
        (2 * eps);
    ASSERT_NEAR(din[i], fd, tol) << "input grad " << i;
  }
  // Parameter gradients (layer caches from the last forward; rerun first).
  (void)layer.forward(input);
  for (Param* p : layer.params()) p->grad.zero();
  (void)layer.backward(loss.grad());
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      const Real saved = p->value[i];
      p->value[i] = saved + eps;
      const Real lp = loss.value(layer.forward(input));
      p->value[i] = saved - eps;
      const Real lm = loss.value(layer.forward(input));
      p->value[i] = saved;
      ASSERT_NEAR(p->grad[i], (lp - lm) / (2 * eps), tol) << "param grad " << i;
    }
  }
}

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor y = conv.forward(random_tensor({2, 2, 8, 8}, rng));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 3, 8, 8}));
}

TEST(Conv2d, StrideAndNoPadding) {
  Rng rng(2);
  Conv2d conv(1, 1, 3, 2, 0, rng);
  const Tensor y = conv.forward(random_tensor({1, 1, 9, 9}, rng));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 4, 4}));
}

TEST(Conv2d, KnownConvolutionValue) {
  Rng rng(3);
  Conv2d conv(1, 1, 2, 1, 0, rng);
  // Set kernel to all ones, bias to zero: output = window sums.
  conv.params()[0]->value.fill(1.0);
  conv.params()[1]->value.fill(0.0);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_NEAR(y[0], 10.0, 1e-12);
}

TEST(Conv2d, GradCheck) {
  Rng rng(4);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  grad_check(conv, random_tensor({1, 2, 5, 5}, rng));
  grad_check(conv, random_tensor({2, 2, 5, 5}, rng));
  // Rectangular plane, padded, stride 2.
  Conv2d strided(2, 3, 3, 2, 1, rng);
  grad_check(strided, random_tensor({2, 2, 6, 9}, rng));
}

TEST(Conv2d, GradCheckStridedUnpadded) {
  Rng rng(5);
  Conv2d conv(1, 2, 3, 2, 0, rng);
  grad_check(conv, random_tensor({1, 1, 7, 7}, rng));
  grad_check(conv, random_tensor({2, 1, 7, 7}, rng));
}

TEST(Conv2d, RejectsKernelLargerThanPaddedInput) {
  Rng rng(14);
  EXPECT_THROW(Conv2d(1, 1, 0, 1, 0, rng), std::invalid_argument);
  Conv2d conv(1, 1, 5, 1, 0, rng);
  EXPECT_THROW((void)conv.forward(random_tensor({1, 1, 3, 3}, rng)),
               std::invalid_argument);
  EXPECT_THROW((void)conv.forward(random_tensor({1, 1, 8, 4}, rng)),
               std::invalid_argument);
  // Padding makes room: 3 + 2*1 = 5 fits the kernel exactly.
  Conv2d padded(1, 1, 5, 1, 1, rng);
  const Tensor y = padded.forward(random_tensor({1, 1, 3, 3}, rng));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 1}));
}

TEST(Linear, KnownProduct) {
  Rng rng(6);
  Linear lin(2, 1, rng);
  lin.params()[0]->value = Tensor({1, 2}, {2, 3});
  lin.params()[1]->value = Tensor({1}, {1});
  const Tensor y = lin.forward(Tensor({1, 2}, {10, 20}));
  EXPECT_NEAR(y[0], 2 * 10 + 3 * 20 + 1, 1e-12);
}

TEST(Linear, GradCheck) {
  Rng rng(7);
  Linear lin(6, 4, rng);
  grad_check(lin, random_tensor({3, 6}, rng));
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor y = relu.forward(Tensor({4}, {-1, 0, 2, -3}));
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[2], 2.0);
}

TEST(ReLU, NaNAndNegativeZeroPassThrough) {
  // Forward keeps NaN and -0.0 as they are (v < 0 is false for both);
  // backward passes the gradient at NaN and blocks it at -0.0 (x <= 0).
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  ReLU relu;
  const Tensor y = relu.forward(Tensor({3}, {nan, -0.0, -2}));
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_TRUE(y[1] == 0 && std::signbit(y[1]));
  EXPECT_EQ(y[2], 0.0);
  const Tensor g = relu.backward(Tensor({3}, {5, 6, 7}));
  EXPECT_EQ(g[0], 5.0);
  EXPECT_EQ(g[1], 0.0);
  EXPECT_EQ(g[2], 0.0);
}

TEST(ReLU, GradCheck) {
  Rng rng(8);
  ReLU relu;
  // Keep values away from the kink for a clean finite-difference check.
  Tensor x = random_tensor({2, 5}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 0.1) x[i] = 0.5;
  grad_check(relu, x);
}

TEST(Sigmoid, RangeAndMidpoint) {
  Sigmoid s;
  const Tensor y = s.forward(Tensor({3}, {-100, 0, 100}));
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 0.5, 1e-12);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
}

TEST(Sigmoid, GradCheck) {
  Rng rng(9);
  Sigmoid s;
  grad_check(s, random_tensor({2, 4}, rng));
}

TEST(MaxPool2d, SelectsWindowMax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0);
}

TEST(MaxPool2d, GradRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  (void)pool.forward(x);
  const Tensor g = pool.backward(Tensor({1, 1, 1, 1}, {2.0}));
  EXPECT_EQ(g[0], 0.0);
  EXPECT_EQ(g[1], 2.0);  // the max position
  EXPECT_EQ(g[2], 0.0);
}

TEST(MaxPool2d, NonFiniteWindowsKeepTheirGradientAndNaN) {
  // Channel 0 is finite with its max last; channel 1 is all -inf, then all
  // NaN. A window's gradient must stay inside that window, and a NaN must
  // reach the output.
  const Real inf = std::numeric_limits<Real>::infinity();
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  for (const Real fill : {-inf, nan}) {
    MaxPool2d pool(2);
    const Tensor x({1, 2, 2, 2}, {0.1, 0.2, 0.3, 0.9, fill, fill, fill, fill});
    const Tensor y = pool.forward(x);
    EXPECT_EQ(y[0], 0.9);
    if (std::isnan(fill))
      EXPECT_TRUE(std::isnan(y[1])) << "a NaN window output " << y[1];
    else
      EXPECT_EQ(y[1], -inf);
    const Tensor g = pool.backward(Tensor({1, 2, 1, 1}, {1.0, 1.0}));
    const std::vector<Real> got(g.data().begin(), g.data().end());
    EXPECT_EQ(got, (std::vector<Real>{0, 0, 0, 1, 1, 0, 0, 0}))
        << "fill " << fill;
  }
}

/// MaxPool2d::forward as it was written with four-index at4() reads: the
/// reference for the plane-pointer loop.
Tensor reference_max_pool(const Tensor& x, std::size_t kernel,
                          std::vector<std::size_t>& argmax) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = h / kernel, ow = w / kernel;
  Tensor y({n, c, oh, ow});
  argmax.assign(y.numel(), 0);
  std::size_t out_idx = 0;
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t ch = 0; ch < c; ++ch)
      for (std::size_t i = 0; i < oh; ++i)
        for (std::size_t j = 0; j < ow; ++j, ++out_idx) {
          std::size_t best_flat =
              ((b * c + ch) * h + i * kernel) * w + j * kernel;
          Real best = x[best_flat];
          for (std::size_t ki = 0; ki < kernel; ++ki)
            for (std::size_t kj = 0; kj < kernel; ++kj) {
              const std::size_t ih = i * kernel + ki, iw = j * kernel + kj;
              const Real v = x.at4(b, ch, ih, iw);
              if (v > best || (std::isnan(v) && !std::isnan(best))) {
                best = v;
                best_flat = ((b * c + ch) * h + ih) * w + iw;
              }
            }
          y.at4(b, ch, i, j) = best;
          argmax[out_idx] = best_flat;
        }
  return y;
}

bool same_bits(std::span<const Real> a, std::span<const Real> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0;
}

TEST(MaxPool2d, PlaneLoopMatchesFourIndexLoopBitwise) {
  // Random shapes whose h and w are not multiples of the kernel, values
  // with ties, NaN and -inf in some windows: outputs and routed gradients
  // must be bitwise those of the at4() loop.
  const Real inf = std::numeric_limits<Real>::infinity();
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t kernel = 1 + rng.next_u64() % 3;
    const std::size_t n = 1 + rng.next_u64() % 3, c = 1 + rng.next_u64() % 4;
    const std::size_t h = kernel + rng.next_u64() % 9;
    const std::size_t w = kernel + rng.next_u64() % 9;
    Tensor x = random_tensor({n, c, h, w}, rng);
    for (std::size_t k = 0; k < x.numel(); ++k) {
      const std::uint64_t r = rng.next_u64() % 16;
      if (r == 0) x[k] = nan;
      else if (r == 1) x[k] = -inf;
      else if (r == 2) x[k] = 0.5;  // ties
    }
    std::vector<std::size_t> want_arg;
    const Tensor want = reference_max_pool(x, kernel, want_arg);
    MaxPool2d pool(kernel);
    const Tensor got = pool.forward(x);
    const std::string at = "trial " + std::to_string(trial);
    ASSERT_EQ(got.shape(), want.shape()) << at;
    EXPECT_TRUE(same_bits(got.data(), want.data())) << at;

    const Tensor grad_out = random_tensor(want.shape(), rng);
    Tensor want_grad(x.shape());
    for (std::size_t k = 0; k < want_arg.size(); ++k)
      want_grad[want_arg[k]] += grad_out[k];
    EXPECT_TRUE(same_bits(pool.backward(grad_out).data(), want_grad.data()))
        << at;
  }
}

TEST(MaxPool2d, GradCheck) {
  Rng rng(10);
  MaxPool2d pool(2);
  // Distinct values avoid argmax ties that break finite differences.
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<Real>(i % 7) + 0.01 * static_cast<Real>(i);
  grad_check(pool, x);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Rng rng(11);
  const Tensor x = random_tensor({2, 3, 2, 2}, rng);
  const Tensor y = f.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 12}));
  const Tensor g = f.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Flatten, EmptyBatchKeepsFeatureCount) {
  Flatten f;
  const Tensor y = f.forward(Tensor({0, 3, 2, 2}));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{0, 12}));
  EXPECT_EQ(f.backward(y).shape(), (std::vector<std::size_t>{0, 3, 2, 2}));
}

/// Every layer's backward() rejects a gradient whose shape is not the last
/// forward() output's, and a backward() with no forward() before it.
TEST(Layers, BackwardRejectsMismatchedGradient) {
  Rng rng(15);
  struct Case {
    std::unique_ptr<Layer> layer;
    std::vector<std::size_t> in_shape;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<Conv2d>(1, 2, 3, 1, 1, rng), {1, 1, 4, 4}});
  cases.push_back({std::make_unique<Linear>(4, 3, rng), {1, 4}});
  cases.push_back({std::make_unique<ReLU>(), {2, 3}});
  cases.push_back({std::make_unique<Sigmoid>(), {2, 3}});
  cases.push_back({std::make_unique<MaxPool2d>(2), {1, 2, 4, 4}});
  for (Case& c : cases) {
    Layer& layer = *c.layer;
    EXPECT_THROW((void)layer.backward(Tensor({1, 2})), std::invalid_argument)
        << layer.name() << " before forward";
    const Tensor y = layer.forward(random_tensor(c.in_shape, rng));
    std::vector<std::size_t> fewer = y.shape(), more = y.shape();
    fewer.back() -= 1;
    more.back() += 1;
    EXPECT_THROW((void)layer.backward(Tensor(fewer)), std::invalid_argument)
        << layer.name();
    EXPECT_THROW((void)layer.backward(Tensor(more)), std::invalid_argument)
        << layer.name();
    EXPECT_THROW((void)layer.backward(y.reshaped({y.numel()})), std::invalid_argument)
        << layer.name();
    EXPECT_EQ(layer.backward(y).shape(), c.in_shape) << layer.name();
  }
}

TEST(Sequential, ChainsAndCountsParams) {
  Rng rng(12);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2);
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 2 * 2, 3, rng);
  const Tensor y = net.forward(random_tensor({1, 1, 4, 4}, rng));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(net.param_count(), 2u * (9 + 1) + (8u * 3 + 3));
}

TEST(Sequential, GradCheckEndToEnd) {
  Rng rng(13);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  net.emplace<Sigmoid>();
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 4 * 4, 3, rng);
  grad_check(net, random_tensor({1, 1, 4, 4}, rng), 2e-5);
}

TEST(Loss, MseValueAndGrad) {
  const Tensor pred({3}, {1, 2, 3});
  const Tensor target({3}, {1, 1, 1});
  const LossResult r = mse_loss(pred, target);
  EXPECT_NEAR(r.value, (0 + 1 + 4) / 3.0, 1e-12);
  EXPECT_NEAR(r.grad[1], 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace qugeo::nn
