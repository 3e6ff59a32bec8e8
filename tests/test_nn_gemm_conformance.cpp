// Conformance of the GEMM-backed Conv2d and Linear (im2col + one row-major
// GEMM, nn/layers.cpp) against a test-local copy of the direct six-deep
// loops they replaced. The two paths sum in different orders, so outputs,
// input gradients and accumulated parameter gradients must agree to
// <= 1e-12, on every Conv2d/Linear shape the CNN baselines
// (core/classical_baseline.cpp) and the Q-D-CNN scaler (data/cnn_scaler.cpp)
// build, at batch sizes 1 and 2.
//
// The GEMM's AVX2 tiles (nn/gemm_simd.h) must equal its plain loops
// bitwise: the kernels against a test-local copy of the loops on shapes
// that reach every tile tail, the layers on every network shape at both
// QUGEO_SIMD levels, and a short INet-ref training. This file builds with
// -ffp-contract=off (tests/CMakeLists.txt), as qugeo_nn does, so its copy
// of the loops rounds each product as the library does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/classical_baseline.h"
#include "nn/gemm_simd.h"
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

// ------------------------------------------------- AVX2 tiles, bitwise --

bool same_bits(const std::vector<Real>& a, const std::vector<Real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && same_bits(values(a), values(b));
}

// The plain loops of nn/layers.cpp, verbatim in their arithmetic.

void plain_nn(std::size_t m, std::size_t n, std::size_t k, const Real* a,
              const Real* b, Real* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] += a[i * k + p] * b[p * n + j];
}

void plain_tn(std::size_t m, std::size_t n, std::size_t k, const Real* a,
              const Real* b, Real* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] += a[p * m + i] * b[p * n + j];
}

void plain_nt(std::size_t m, std::size_t n, std::size_t k, const Real* a,
              const Real* b, Real* c) {
  constexpr std::size_t kLanes = 8;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      Real s[kLanes] = {};
      std::size_t p = 0;
      for (; p + kLanes <= k; p += kLanes)
        for (std::size_t l = 0; l < kLanes; ++l)
          s[l] += a[i * k + p + l] * b[j * k + p + l];
      for (std::size_t l = 0; p + l < k; ++l)
        s[l] += a[i * k + p + l] * b[j * k + p + l];
      for (std::size_t half = kLanes / 2; half > 0; half /= 2)
        for (std::size_t l = 0; l < half; ++l) s[l] += s[l + half];
      c[i * n + j] += s[0];
    }
}

/// Uniform values in [-1, 1) with every seventh a -0.0, so signed zeros
/// reach the products, the partial sums and C.
std::vector<Real> operand(std::size_t size, Rng& rng) {
  std::vector<Real> v(size);
  rng.fill_uniform(v, -1, 1);
  for (std::size_t i = 0; i < size; i += 7) v[i] = -0.0;
  return v;
}

using Gemm = void (*)(std::size_t, std::size_t, std::size_t, const Real*,
                      const Real*, Real*);

void expect_tile_equals_loop(Gemm tile, Gemm loop, const char* form,
                             std::size_t m, std::size_t n, std::size_t k,
                             std::size_t a_size, std::size_t b_size, Rng& rng) {
  const std::vector<Real> a = operand(a_size, rng), b = operand(b_size, rng);
  std::vector<Real> c_tile = operand(m * n, rng);
  std::vector<Real> c_loop = c_tile;
  tile(m, n, k, a.data(), b.data(), c_tile.data());
  loop(m, n, k, a.data(), b.data(), c_loop.data());
  EXPECT_TRUE(same_bits(c_tile, c_loop))
      << form << " m=" << m << " n=" << n << " k=" << k;
}

/// Every tail of the tiles: m % 4 (A*B, A^T*B rows), n % 12 and n % 4
/// (their columns; A*B^T's four dot products per A load), k % 8 and
/// k < 8 (A*B^T's eight partial sums), n < 4.
TEST(NnGemmAvx2, TilesEqualThePlainLoopsBitwise) {
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "no AVX2 kernels on this build/CPU";
  Rng rng(4242);
  const std::size_t rows[] = {1, 2, 3, 4, 5, 7, 8, 9};
  const std::size_t cols[] = {1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 16, 23, 24, 25};
  const std::size_t depths[] = {1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 17, 33};
  for (std::size_t m : rows)
    for (std::size_t n : cols)
      for (std::size_t k : depths) {
        expect_tile_equals_loop(gemm_nn_avx2, plain_nn, "nn", m, n, k, m * k,
                                k * n, rng);
        expect_tile_equals_loop(gemm_tn_avx2, plain_tn, "tn", m, n, k, k * m,
                                k * n, rng);
        expect_tile_equals_loop(gemm_nt_avx2, plain_nt, "nt", m, n, k, m * k,
                                n * k, rng);
      }
}

/// What one layer produced over two forward/backward rounds.
struct LayerRun {
  std::vector<Tensor> outputs, input_grads;
  std::vector<Tensor> param_grads;  // accumulated over both rounds
};

/// Build a layer with `make(rng)` from a fixed seed and run it at `mode`
/// on fixed inputs and output gradients.
template <typename Make>
LayerRun run_layer_at(simd::SimdMode mode, Make make,
                      const std::vector<std::size_t>& in_shape,
                      std::uint64_t seed) {
  const simd::ScopedSimdMode scoped(mode);
  Rng rng(seed);
  auto layer = make(rng);
  // A nonzero bias in the sums.
  rng.fill_uniform(layer->params()[1]->value.data_mut(), -1, 1);
  LayerRun run;
  for (int round = 0; round < 2; ++round) {
    const Tensor x = random_tensor(in_shape, rng);
    run.outputs.push_back(layer->forward(x));
    const Tensor g = random_tensor(run.outputs.back().shape(), rng);
    run.input_grads.push_back(layer->backward(g));
  }
  for (const Param* p : layer->params()) run.param_grads.push_back(p->grad);
  return run;
}

template <typename Make>
void expect_levels_agree(Make make, const std::vector<std::size_t>& in_shape,
                         std::uint64_t seed, const std::string& what) {
  const LayerRun scalar =
      run_layer_at(simd::SimdMode::kScalar, make, in_shape, seed);
  const LayerRun avx2 =
      run_layer_at(simd::SimdMode::kAvx2, make, in_shape, seed);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(same_bits(scalar.outputs[r], avx2.outputs[r]))
        << what << " output, round " << r;
    EXPECT_TRUE(same_bits(scalar.input_grads[r], avx2.input_grads[r]))
        << what << " input grad, round " << r;
  }
  for (std::size_t p = 0; p < scalar.param_grads.size(); ++p)
    EXPECT_TRUE(same_bits(scalar.param_grads[p], avx2.param_grads[p]))
        << what << " param " << p << " grad";
}

void expect_conv_levels_agree(const ConvSpec& c, std::size_t n,
                              const std::string& net) {
  expect_levels_agree(
      [&](Rng& rng) {
        return std::make_unique<Conv2d>(c.in, c.out, c.k, c.stride, c.pad, rng);
      },
      {n, c.in, c.h, c.w}, 3000 + c.in * 31 + c.out * 7 + c.k + n,
      net + " Conv2d(" + std::to_string(c.in) + "," + std::to_string(c.out) +
          ",k" + std::to_string(c.k) + ") on " + std::to_string(c.h) + "x" +
          std::to_string(c.w) + " N=" + std::to_string(n));
}

void expect_linear_levels_agree(std::size_t in, std::size_t out, std::size_t n,
                                const std::string& net) {
  expect_levels_agree(
      [&](Rng& rng) { return std::make_unique<Linear>(in, out, rng); }, {n, in},
      4000 + in * 13 + out + n,
      net + " Linear(" + std::to_string(in) + "," + std::to_string(out) +
          ") N=" + std::to_string(n));
}

TEST(NnGemmAvx2, LayersMatchAcrossSimdLevelsBitwise) {
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "no AVX2 kernels on this build/CPU";
  for (const NetConvs& net : paper_networks()) {
    for (const ConvSpec& c : net.convs)
      for (std::size_t n : {1u, 2u}) expect_conv_levels_agree(c, n, net.net);
    for (const auto& [in, out] : net.linears)
      for (std::size_t n : {1u, 2u})
        expect_linear_levels_agree(in, out, n, net.net);
  }
  // Off the paper's shapes, into the tails: Linear(in, out) at batch N runs
  // A*B^T with (m, n, k) = (N, out, in), A^T*B with (out, in, N) and A*B
  // with (N, in, out); a conv with c_out channels on an oh x ow plane and
  // r = c_in * k * k runs (c_out, oh * ow, r), (c_out, r, oh * ow) and
  // (r, oh * ow, c_out).
  expect_linear_levels_agree(7, 5, 3, "odd");    // k < 8, n % 4, m % 4
  expect_linear_levels_agree(13, 3, 5, "odd");   // k % 8, n < 4
  expect_linear_levels_agree(29, 27, 6, "odd");  // n % 12, n % 4, k % 8
  expect_conv_levels_agree({3, 5, 3, 1, 1, 5, 7}, 2, "odd");  // 35, r = 27
  expect_conv_levels_agree({2, 3, 2, 2, 0, 7, 9}, 1, "odd");  // 12, r = 8
}

/// A short INet-ref training (core/classical_baseline.cpp): its curve and
/// trained parameters must be bitwise the same at both levels.
TEST(NnGemmAvx2, InetTrainingMatchesAcrossSimdLevelsBitwise) {
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "no AVX2 kernels on this build/CPU";
  Rng data_rng(77);
  data::ScaledDataset ds;
  ds.samples.resize(6);
  for (auto& s : ds.samples) {
    s.waveform.resize(ds.waveform_size());
    data_rng.fill_uniform(s.waveform, -1, 1);
    s.velocity.resize(ds.velocity_size());
    data_rng.fill_uniform(s.velocity, 0, 1);
  }
  const data::SplitView split = data::split_dataset(6, 4);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.initial_lr = 0.003;
  struct Trained {
    std::vector<Real> curve, params;
  };
  const auto train_at = [&](simd::SimdMode mode) {
    const simd::ScopedSimdMode scoped(mode);
    Rng rng(78);
    core::ClassicalConfig cfg;
    cfg.inversion_net_reference = true;
    core::ClassicalFwiNet net(cfg, rng);
    const core::TrainResult r = net.train(ds, split, tc);
    Trained t;
    for (const core::EpochRecord& e : r.curve)
      t.curve.insert(t.curve.end(), {e.train_loss, e.test_ssim, e.test_mse});
    t.params = net.parameters();
    return t;
  };
  const Trained scalar = train_at(simd::SimdMode::kScalar);
  const Trained avx2 = train_at(simd::SimdMode::kAvx2);
  ASSERT_EQ(scalar.curve.size(), 6u);
  EXPECT_TRUE(same_bits(scalar.curve, avx2.curve));
  EXPECT_TRUE(same_bits(scalar.params, avx2.params));
}

}  // namespace
}  // namespace qugeo::nn
