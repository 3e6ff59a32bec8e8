// Conformance of the GEMM-backed Conv2d and Linear (im2col + one row-major
// GEMM, nn/layers.cpp) against a test-local copy of the direct six-deep
// loops they replaced. The two paths sum in different orders, so outputs,
// input gradients and accumulated parameter gradients must agree to
// <= 1e-12, on every Conv2d/Linear shape the CNN baselines
// (core/classical_baseline.cpp) and the Q-D-CNN scaler (data/cnn_scaler.cpp)
// build, at batch sizes 1 and 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"

namespace qugeo::nn {
namespace {

constexpr Real kTol = 1e-12;

// ------------------------------------------------------------ reference --
// The direct-loop layer bodies as they were before the GEMM path, kept
// verbatim in their arithmetic.

struct ConvSpec {
  std::size_t in, out, k, stride, pad, h, w;
};

Tensor ref_conv_forward(const ConvSpec& c, const Tensor& weight,
                        const Tensor& bias, const Tensor& x) {
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = (h + 2 * c.pad - c.k) / c.stride + 1;
  const std::size_t ow = (w + 2 * c.pad - c.k) / c.stride + 1;
  Tensor y({n, c.out, oh, ow});
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t oc = 0; oc < c.out; ++oc)
      for (std::size_t i = 0; i < oh; ++i)
        for (std::size_t j = 0; j < ow; ++j) {
          Real acc = bias[oc];
          for (std::size_t ic = 0; ic < c.in; ++ic)
            for (std::size_t ki = 0; ki < c.k; ++ki)
              for (std::size_t kj = 0; kj < c.k; ++kj) {
                const std::ptrdiff_t ih =
                    static_cast<std::ptrdiff_t>(i * c.stride + ki) -
                    static_cast<std::ptrdiff_t>(c.pad);
                const std::ptrdiff_t iw =
                    static_cast<std::ptrdiff_t>(j * c.stride + kj) -
                    static_cast<std::ptrdiff_t>(c.pad);
                if (ih < 0 || iw < 0 || ih >= static_cast<std::ptrdiff_t>(h) ||
                    iw >= static_cast<std::ptrdiff_t>(w))
                  continue;
                acc += weight.at4(oc, ic, ki, kj) *
                       x.at4(b, ic, static_cast<std::size_t>(ih),
                             static_cast<std::size_t>(iw));
              }
          y.at4(b, oc, i, j) = acc;
        }
  return y;
}

/// Accumulates into dweight/dbias like Conv2d::backward; returns dL/dx.
Tensor ref_conv_backward(const ConvSpec& c, const Tensor& weight,
                         const Tensor& x, const Tensor& grad_out,
                         Tensor& dweight, Tensor& dbias) {
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  Tensor grad_in(x.shape());
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t oc = 0; oc < c.out; ++oc)
      for (std::size_t i = 0; i < oh; ++i)
        for (std::size_t j = 0; j < ow; ++j) {
          const Real g = grad_out.at4(b, oc, i, j);
          dbias[oc] += g;
          for (std::size_t ic = 0; ic < c.in; ++ic)
            for (std::size_t ki = 0; ki < c.k; ++ki)
              for (std::size_t kj = 0; kj < c.k; ++kj) {
                const std::ptrdiff_t ih =
                    static_cast<std::ptrdiff_t>(i * c.stride + ki) -
                    static_cast<std::ptrdiff_t>(c.pad);
                const std::ptrdiff_t iw =
                    static_cast<std::ptrdiff_t>(j * c.stride + kj) -
                    static_cast<std::ptrdiff_t>(c.pad);
                if (ih < 0 || iw < 0 || ih >= static_cast<std::ptrdiff_t>(h) ||
                    iw >= static_cast<std::ptrdiff_t>(w))
                  continue;
                const auto ihs = static_cast<std::size_t>(ih);
                const auto iws = static_cast<std::size_t>(iw);
                dweight.at4(oc, ic, ki, kj) += g * x.at4(b, ic, ihs, iws);
                grad_in.at4(b, ic, ihs, iws) += g * weight.at4(oc, ic, ki, kj);
              }
        }
  return grad_in;
}

Tensor ref_linear_forward(const Tensor& weight, const Tensor& bias,
                          const Tensor& x) {
  const std::size_t n = x.dim(0), out = weight.dim(0), in = weight.dim(1);
  Tensor y({n, out});
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t o = 0; o < out; ++o) {
      Real acc = bias[o];
      for (std::size_t i = 0; i < in; ++i) acc += weight.at2(o, i) * x.at2(b, i);
      y.at2(b, o) = acc;
    }
  return y;
}

Tensor ref_linear_backward(const Tensor& weight, const Tensor& x,
                           const Tensor& grad_out, Tensor& dweight,
                           Tensor& dbias) {
  const std::size_t n = x.dim(0), out = weight.dim(0), in = weight.dim(1);
  Tensor grad_in({n, in});
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t o = 0; o < out; ++o) {
      const Real g = grad_out.at2(b, o);
      dbias[o] += g;
      for (std::size_t i = 0; i < in; ++i) {
        dweight.at2(o, i) += g * x.at2(b, i);
        grad_in.at2(b, i) += g * weight.at2(o, i);
      }
    }
  return grad_in;
}

// --------------------------------------------------------------- checks --

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t.data_mut(), -1, 1);
  return t;
}

void expect_close(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  Real worst = 0;
  for (std::size_t i = 0; i < got.numel(); ++i)
    worst = std::max(worst, std::abs(got[i] - want[i]));
  EXPECT_LE(worst, kTol) << what;
}

/// Two forward/backward rounds through `layer` and through the reference,
/// with the parameter gradients left to accumulate across both (as the
/// Q-D-CNN scaler accumulates over its mini-batch), comparing every output.
template <typename Fwd, typename Bwd>
void check_against_reference(Layer& layer, const std::vector<std::size_t>& in_shape,
                             Fwd ref_forward, Bwd ref_backward, Rng& rng,
                             const std::string& what) {
  Param& weight = *layer.params()[0];
  Param& bias = *layer.params()[1];
  rng.fill_uniform(bias.value.data_mut(), -1, 1);  // nonzero bias in the sums
  Tensor dweight(weight.value.shape()), dbias(bias.value.shape());
  for (int round = 0; round < 2; ++round) {
    const std::string tag = what + " round " + std::to_string(round);
    const Tensor x = random_tensor(in_shape, rng);
    const Tensor y = layer.forward(x);
    const Tensor y_ref = ref_forward(weight.value, bias.value, x);
    expect_close(y, y_ref, tag + " output");
    const Tensor g = random_tensor(y_ref.shape(), rng);
    const Tensor dx = layer.backward(g);
    const Tensor dx_ref = ref_backward(weight.value, x, g, dweight, dbias);
    expect_close(dx, dx_ref, tag + " input grad");
    expect_close(weight.grad, dweight, tag + " weight grad");
    expect_close(bias.grad, dbias, tag + " bias grad");
  }
}

void check_conv(const ConvSpec& c, std::size_t n, const std::string& net) {
  Rng rng(1000 + c.in * 31 + c.out * 7 + c.k + n);
  Conv2d conv(c.in, c.out, c.k, c.stride, c.pad, rng);
  check_against_reference(
      conv, {n, c.in, c.h, c.w},
      [&](const Tensor& w, const Tensor& b, const Tensor& x) {
        return ref_conv_forward(c, w, b, x);
      },
      [&](const Tensor& w, const Tensor& x, const Tensor& g, Tensor& dw, Tensor& db) {
        return ref_conv_backward(c, w, x, g, dw, db);
      },
      rng, net + " Conv2d(" + std::to_string(c.in) + "," + std::to_string(c.out) +
               ",k" + std::to_string(c.k) + ",s" + std::to_string(c.stride) +
               ",p" + std::to_string(c.pad) + ") on " + std::to_string(c.h) +
               "x" + std::to_string(c.w) + " N=" + std::to_string(n));
}

void check_linear(std::size_t in, std::size_t out, std::size_t n,
                  const std::string& net) {
  Rng rng(2000 + in * 13 + out + n);
  Linear lin(in, out, rng);
  check_against_reference(
      lin, {n, in}, ref_linear_forward, ref_linear_backward, rng,
      net + " Linear(" + std::to_string(in) + "," + std::to_string(out) +
          ") N=" + std::to_string(n));
}

// The layer shapes of the networks, with each conv's input plane size.
struct NetConvs {
  std::string net;
  std::vector<ConvSpec> convs;
  std::vector<std::pair<std::size_t, std::size_t>> linears;
};

std::vector<NetConvs> paper_networks() {
  return {
      // CNN-PX: 16x16 -> 5x5/2 -> 6x6 -> pool 3x3 -> 3x3 -> 1x1.
      {"CNN-PX", {{1, 2, 5, 2, 0, 16, 16}, {2, 8, 3, 1, 0, 3, 3}}, {{8, 64}}},
      // CNN-LY: the same trunk, wider, with the 8-row head.
      {"CNN-LY", {{1, 4, 5, 2, 0, 16, 16}, {4, 16, 3, 1, 0, 3, 3}}, {{16, 8}}},
      // INet-ref: three 3x3 pad-1 convs with pooling, two FC layers.
      {"INet-ref",
       {{1, 16, 3, 1, 1, 16, 16}, {16, 32, 3, 1, 1, 8, 8}, {32, 32, 3, 1, 1, 4, 4}},
       {{128, 64}, {64, 64}}},
      // Q-D-CNN scaler: 64x16 decimated gather, one source channel.
      {"scaler", {{1, 8, 3, 1, 1, 64, 16}, {8, 8, 3, 1, 1, 32, 8}}, {{512, 256}}},
  };
}

TEST(NnGemmConformance, Conv2dMatchesDirectLoops) {
  for (const NetConvs& net : paper_networks())
    for (const ConvSpec& c : net.convs)
      for (std::size_t n : {1u, 2u}) check_conv(c, n, net.net);
  // Off the paper's shapes: a non-square plane at stride 2 with padding,
  // stride 3 with a 4x4 kernel, and a kernel spanning the padded width.
  check_conv({2, 3, 3, 2, 1, 7, 10}, 2, "rectangular");
  check_conv({3, 2, 4, 3, 2, 9, 5}, 1, "stride-3");
  check_conv({1, 2, 5, 1, 1, 6, 3}, 2, "kernel-spans-width");
}

TEST(NnGemmConformance, LinearMatchesDirectLoops) {
  for (const NetConvs& net : paper_networks())
    for (const auto& [in, out] : net.linears)
      for (std::size_t n : {1u, 2u}) check_linear(in, out, n, net.net);
}

std::vector<Real> values(const Tensor& t) {
  return std::vector<Real>(t.data().begin(), t.data().end());
}

/// Give `fresh` the parameters of `reused`, zero `reused`'s gradients, run
/// one forward/backward pass through each and require identical results.
void expect_same_pass(Layer& reused, Layer& fresh, const Tensor& x, Rng& rng) {
  const std::vector<Param*> rp = reused.params(), fp = fresh.params();
  for (std::size_t p = 0; p < rp.size(); ++p) {
    fp[p]->value = rp[p]->value;
    rp[p]->grad.zero();
  }
  const Tensor y = reused.forward(x), y_fresh = fresh.forward(x);
  ASSERT_EQ(y.shape(), y_fresh.shape());
  const Tensor g = random_tensor(y.shape(), rng);
  EXPECT_EQ(values(reused.backward(g)), values(fresh.backward(g))) << reused.name();
  EXPECT_EQ(values(y), values(y_fresh)) << reused.name();
  for (std::size_t p = 0; p < rp.size(); ++p)
    EXPECT_EQ(values(rp[p]->grad), values(fp[p]->grad)) << reused.name();
}

/// A layer's scratch is sized by the last input; reusing one layer across
/// input shapes must give exactly what fresh layers with the same
/// parameters give.
TEST(NnGemmConformance, ReusedLayerMatchesFreshLayers) {
  Rng rng(31);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  Linear lin(6, 5, rng);
  const std::vector<std::vector<std::size_t>> shapes = {
      {1, 2, 8, 8}, {2, 2, 5, 7}, {1, 2, 3, 3}, {1, 2, 8, 8}};
  for (const auto& shape : shapes) {
    Rng fresh_rng(99);
    Conv2d fresh_conv(2, 4, 3, 1, 1, fresh_rng);
    Linear fresh_lin(6, 5, fresh_rng);
    expect_same_pass(conv, fresh_conv, random_tensor(shape, rng), rng);
    expect_same_pass(lin, fresh_lin, random_tensor({shape[0] + shape[2] % 3, 6}, rng),
                     rng);
  }
}

}  // namespace
}  // namespace qugeo::nn
