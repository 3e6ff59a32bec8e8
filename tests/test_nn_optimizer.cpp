// Adam and the cosine schedule: convergence on convex toy problems.
#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "nn/schedule.h"

namespace qugeo::nn {
namespace {

/// Quadratic bowl: L = 0.5 * sum((x - c)^2); grad = x - c.
void fill_quadratic_grad(Param& p, const std::vector<Real>& c) {
  for (std::size_t i = 0; i < p.numel(); ++i)
    p.grad[i] = p.value[i] - c[i];
}

TEST(Adam, ConvergesOnQuadratic) {
  Param p({2});
  p.value = Tensor({2}, {-3, 7});
  const std::vector<Real> target = {0.5, -0.5};
  Adam opt({&p});
  for (int step = 0; step < 2000; ++step) {
    opt.zero_grad();
    fill_quadratic_grad(p, target);
    opt.step(0.05);
  }
  EXPECT_NEAR(p.value[0], target[0], 0.01);
  EXPECT_NEAR(p.value[1], target[1], 0.01);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction the first Adam step is ~lr * sign(grad).
  Param p({1});
  p.value[0] = 0.0;
  Adam opt({&p});
  p.grad[0] = 0.001;  // tiny gradient, but normalized step
  opt.step(0.1);
  EXPECT_NEAR(p.value[0], -0.1, 1e-4);
}

TEST(Optimizer, ZeroGradClears) {
  Param p({4});
  p.grad.fill(3.0);
  Adam opt({&p});
  opt.zero_grad();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(p.grad[i], 0.0);
}

TEST(CosineSchedule, EndpointsAndMonotonicity) {
  const CosineAnnealingLr sched(0.1, 100, 0.0);
  EXPECT_NEAR(sched.lr(0), 0.1, 1e-12);
  EXPECT_NEAR(sched.lr(50), 0.05, 1e-12);
  EXPECT_NEAR(sched.lr(100), 0.0, 1e-12);
  EXPECT_NEAR(sched.lr(500), 0.0, 1e-12);  // clamped past the horizon
  for (std::size_t e = 1; e <= 100; ++e) EXPECT_LE(sched.lr(e), sched.lr(e - 1));
}

TEST(CosineSchedule, RespectsMinLr) {
  const CosineAnnealingLr sched(0.1, 10, 0.01);
  EXPECT_NEAR(sched.lr(10), 0.01, 1e-12);
  EXPECT_GE(sched.lr(5), 0.01);
}

}  // namespace
}  // namespace qugeo::nn
