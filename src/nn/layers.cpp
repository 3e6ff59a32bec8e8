#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "common/cpu_features.h"
#include "nn/gemm_simd.h"

namespace qugeo::nn {
namespace {

// Row-major GEMM in the three forms the layers need, accumulating into C.
// At simd::active_level() kAvx2 each form runs its register-tiled twin in
// gemm_avx2.cpp, bitwise equal to the plain loops below (nn/gemm_simd.h).
// The loops keep a unit-stride innermost loop, so GCC vectorises them at
// the baseline x86-64 target (at -O3; -O2's cheap cost model leaves the
// A*B and A^T*B rows scalar); the summation order is fixed by the shapes
// alone.

bool use_avx2() noexcept {
  return simd::active_level() == simd::SimdLevel::kAvx2;
}

/// C[m x n] += A[m x k] * B[k x n]; each C element adds its products in
/// ascending p.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k,
             const Real* __restrict a, const Real* __restrict b,
             Real* __restrict c) {
  if (use_avx2()) {
    gemm_nn_avx2(m, n, k, a, b, c);
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    Real* ci = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const Real aip = a[i * k + p];
      const Real* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

/// C[m x n] += A^T * B with A stored [k x m], B [k x n]; each C element
/// adds its products in ascending p.
void gemm_tn(std::size_t m, std::size_t n, std::size_t k,
             const Real* __restrict a, const Real* __restrict b,
             Real* __restrict c) {
  if (use_avx2()) {
    gemm_tn_avx2(m, n, k, a, b, c);
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    Real* ci = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const Real api = a[p * m + i];
      const Real* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += api * bp[j];
    }
  }
}

/// C[m x n] += A * B^T with A stored [m x k], B [n x k]. Each C element
/// adds one dot product, summed in kLanes interleaved partial sums
/// (lane = p mod kLanes) folded pairwise, which vectorises without
/// reassociation.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k,
             const Real* __restrict a, const Real* __restrict b,
             Real* __restrict c) {
  if (use_avx2()) {
    gemm_nt_avx2(m, n, k, a, b, c);
    return;
  }
  constexpr std::size_t kLanes = 8;
  for (std::size_t i = 0; i < m; ++i) {
    const Real* ai = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const Real* bj = b + j * k;
      Real s[kLanes] = {};
      std::size_t p = 0;
      for (; p + kLanes <= k; p += kLanes)
        for (std::size_t l = 0; l < kLanes; ++l) s[l] += ai[p + l] * bj[p + l];
      for (std::size_t l = 0; p + l < k; ++l) s[l] += ai[p + l] * bj[p + l];
      for (std::size_t half = kLanes / 2; half > 0; half /= 2)
        for (std::size_t l = 0; l < half; ++l) s[l] += s[l + half];
      c[i * n + j] += s[0];
    }
  }
}

/// Geometry of one image plane pair: a channels x h x w input and its
/// oh x ow output under a k x k kernel.
struct ConvGeom {
  std::size_t channels, h, w, k, stride, pad, oh, ow;
};

/// Output indices o in [lo, hi) whose tap at kernel offset `kk` lands
/// inside an input axis of length `len`: 0 <= o * stride + kk - pad < len.
struct TapRange {
  std::size_t lo, hi;
};

TapRange tap_range(std::size_t kk, std::size_t len, std::size_t olen,
                   std::size_t stride, std::size_t pad) {
  const std::size_t lo = kk >= pad ? 0 : (pad - kk + stride - 1) / stride;
  const std::size_t hi =
      len + pad <= kk ? 0 : std::min(olen, (len + pad - kk + stride - 1) / stride);
  return {std::min(lo, hi), hi};
}

/// col[(c*k + ki)*k + kj][i*ow + j] = x[c][i*stride + ki - pad][j*stride + kj - pad],
/// zero where the tap falls in the padding.
void im2col(const ConvGeom& g, const Real* x, Real* col) {
  const std::size_t plane = g.oh * g.ow;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t ki = 0; ki < g.k; ++ki) {
      const TapRange ri = tap_range(ki, g.h, g.oh, g.stride, g.pad);
      for (std::size_t kj = 0; kj < g.k; ++kj, col += plane) {
        const TapRange rj = tap_range(kj, g.w, g.ow, g.stride, g.pad);
        std::fill_n(col, plane, Real(0));
        for (std::size_t i = ri.lo; i < ri.hi; ++i) {
          const Real* xr = x + (c * g.h + i * g.stride + ki - g.pad) * g.w;
          Real* cr = col + i * g.ow;
          for (std::size_t j = rj.lo; j < rj.hi; ++j)
            cr[j] = xr[j * g.stride + kj - g.pad];
        }
      }
    }
}

/// Adjoint of im2col: x[c][ih][iw] += every col entry im2col read from it.
void col2im(const ConvGeom& g, const Real* col, Real* x) {
  const std::size_t plane = g.oh * g.ow;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t ki = 0; ki < g.k; ++ki) {
      const TapRange ri = tap_range(ki, g.h, g.oh, g.stride, g.pad);
      for (std::size_t kj = 0; kj < g.k; ++kj, col += plane) {
        const TapRange rj = tap_range(kj, g.w, g.ow, g.stride, g.pad);
        for (std::size_t i = ri.lo; i < ri.hi; ++i) {
          Real* xr = x + (c * g.h + i * g.stride + ki - g.pad) * g.w;
          const Real* cr = col + i * g.ow;
          for (std::size_t j = rj.lo; j < rj.hi; ++j)
            xr[j * g.stride + kj - g.pad] += cr[j];
        }
      }
    }
}

/// backward()'s precondition, shared by the layers: forward() ran and
/// grad_out has the shape it returned.
void check_grad_out(const char* layer, const Tensor& grad_out,
                    const std::vector<std::size_t>& out_shape) {
  if (out_shape.empty())
    throw std::invalid_argument(std::string(layer) +
                                "::backward: no forward pass to differentiate");
  if (grad_out.shape() != out_shape)
    throw std::invalid_argument(
        std::string(layer) +
        "::backward: grad_out shape differs from the last forward output");
}

/// Resize `t` to `shape` unless it already has it, so scratch buffers are
/// reallocated only when the input shape changes.
void ensure_shape(Tensor& t, const std::vector<std::size_t>& shape) {
  if (t.shape() != shape) t = Tensor(shape);
}

}  // namespace

std::size_t Layer::param_count() {
  std::size_t n = 0;
  for (const Param* p : params()) n += p->numel();
  return n;
}

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}) {
  if (kernel == 0) throw std::invalid_argument("Conv2d: kernel must be > 0");
  if (stride == 0) throw std::invalid_argument("Conv2d: stride must be > 0");
  weight_.value.init_kaiming(rng, in_channels * kernel * kernel);
  bias_.value.zero();
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_ch_)
    throw std::invalid_argument("Conv2d: expected [N, C_in, H, W]");
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  if (kernel_ > h + 2 * padding_ || kernel_ > w + 2 * padding_)
    throw std::invalid_argument("Conv2d: kernel larger than the padded input");
  const ConvGeom g{in_ch_, h, w, kernel_, stride_, padding_,
                   (h + 2 * padding_ - kernel_) / stride_ + 1,
                   (w + 2 * padding_ - kernel_) / stride_ + 1};
  const std::size_t rows = in_ch_ * kernel_ * kernel_, plane = g.oh * g.ow;
  Tensor y({n, out_ch_, g.oh, g.ow});
  ensure_shape(cols_, {n, rows, plane});
  in_shape_ = x.shape();
  out_shape_ = y.shape();

  const Real* bias = bias_.value.data().data();
  for (std::size_t b = 0; b < n; ++b) {
    Real* col = cols_.data_mut().data() + b * rows * plane;
    Real* yb = y.data_mut().data() + b * out_ch_ * plane;
    im2col(g, x.data().data() + b * in_ch_ * h * w, col);
    for (std::size_t oc = 0; oc < out_ch_; ++oc)
      std::fill_n(yb + oc * plane, plane, bias[oc]);
    gemm_nn(out_ch_, plane, rows, weight_.value.data().data(), col, yb);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  check_grad_out("Conv2d", grad_out, out_shape_);
  const ConvGeom g{in_ch_,  in_shape_[2], in_shape_[3],  kernel_,
                   stride_, padding_,     out_shape_[2], out_shape_[3]};
  const std::size_t n = in_shape_[0], rows = in_ch_ * kernel_ * kernel_,
                    plane = g.oh * g.ow;
  Tensor grad_in(in_shape_);
  ensure_shape(dcols_, {rows, plane});
  Real* dcols = dcols_.data_mut().data();
  Real* bias_grad = bias_.grad.data_mut().data();
  for (std::size_t b = 0; b < n; ++b) {
    const Real* gb = grad_out.data().data() + b * out_ch_ * plane;
    for (std::size_t oc = 0; oc < out_ch_; ++oc)
      for (std::size_t j = 0; j < plane; ++j) bias_grad[oc] += gb[oc * plane + j];
    // dW += G * cols^T, dcols = W^T * G, then scatter dcols into grad_in.
    gemm_nt(out_ch_, rows, plane, gb, cols_.data().data() + b * rows * plane,
            weight_.grad.data_mut().data());
    std::fill_n(dcols, rows * plane, Real(0));
    gemm_tn(rows, plane, out_ch_, weight_.value.data().data(), gb, dcols);
    col2im(g, dcols, grad_in.data_mut().data() + b * in_ch_ * g.h * g.w);
  }
  return grad_in;
}

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_f_(in_features),
      out_f_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  weight_.value.init_kaiming(rng, in_features);
  bias_.value.zero();
}

Tensor Linear::forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_f_)
    throw std::invalid_argument("Linear: expected [N, in_features]");
  input_ = x;
  const std::size_t n = x.dim(0);
  Tensor y({n, out_f_});
  out_shape_ = y.shape();
  const auto bias = bias_.value.data();
  for (std::size_t b = 0; b < n; ++b)
    std::copy(bias.begin(), bias.end(), y.data_mut().begin() + b * out_f_);
  // y += x * W^T
  gemm_nt(n, out_f_, in_f_, x.data().data(), weight_.value.data().data(),
          y.data_mut().data());
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  check_grad_out("Linear", grad_out, out_shape_);
  const std::size_t n = out_shape_[0];
  const Real* g = grad_out.data().data();
  Real* bias_grad = bias_.grad.data_mut().data();
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t o = 0; o < out_f_; ++o) bias_grad[o] += g[b * out_f_ + o];
  // dW += G^T * x, grad_in = G * W
  gemm_tn(out_f_, in_f_, n, g, input_.data().data(),
          weight_.grad.data_mut().data());
  Tensor grad_in({n, in_f_});
  gemm_nn(n, in_f_, out_f_, g, weight_.value.data().data(),
          grad_in.data_mut().data());
  return grad_in;
}

// ------------------------------------------------------------------ ReLU --

Tensor ReLU::forward(const Tensor& x) {
  input_ = x;
  Tensor y = x;
  // Selects, not branches, so the loops vectorise; NaN and -0.0 pass
  // through unchanged.
  for (auto& v : y.data_mut()) v = v < 0 ? 0 : v;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  check_grad_out("ReLU", grad_out, input_.shape());
  Tensor grad_in = grad_out;
  auto gi = grad_in.data_mut();
  const auto xi = input_.data();
  for (std::size_t k = 0; k < gi.size(); ++k) gi[k] = xi[k] <= 0 ? 0 : gi[k];
  return grad_in;
}

// --------------------------------------------------------------- Sigmoid --

Tensor Sigmoid::forward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.data_mut()) v = Real(1) / (Real(1) + std::exp(-v));
  output_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  check_grad_out("Sigmoid", grad_out, output_.shape());
  Tensor grad_in = grad_out;
  auto gi = grad_in.data_mut();
  const auto yo = output_.data();
  for (std::size_t k = 0; k < gi.size(); ++k)
    gi[k] *= yo[k] * (Real(1) - yo[k]);
  return grad_in;
}

// ------------------------------------------------------------- MaxPool2d --

MaxPool2d::MaxPool2d(std::size_t kernel) : kernel_(kernel) {
  if (kernel == 0) throw std::invalid_argument("MaxPool2d: kernel must be > 0");
}

Tensor MaxPool2d::forward(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("MaxPool2d: expected 4-D input");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = h / kernel_, ow = w / kernel_;
  Tensor y({n, c, oh, ow});
  out_shape_ = y.shape();
  argmax_.assign(y.numel(), 0);
  Real* out = y.data_mut().data();
  std::size_t* arg = argmax_.data();
  // One input plane per (batch item, channel); outputs in (plane, i, j)
  // order. Positions are offsets into the plane until stored flat.
  for (std::size_t plane = 0; plane < n * c; ++plane) {
    const std::size_t base = plane * h * w;
    const Real* in = x.data().data() + base;
    for (std::size_t i = 0; i < oh; ++i)
      for (std::size_t j = 0; j < ow; ++j) {
        // Seeded from the window's own first element, so an all -inf
        // window routes its gradient inside itself; the first NaN in a
        // window wins and reaches the output.
        std::size_t best_at = i * kernel_ * w + j * kernel_;
        Real best = in[best_at];
        for (std::size_t ki = 0; ki < kernel_; ++ki) {
          const std::size_t row = (i * kernel_ + ki) * w + j * kernel_;
          for (std::size_t kj = 0; kj < kernel_; ++kj) {
            const Real v = in[row + kj];
            if (v > best || (std::isnan(v) && !std::isnan(best))) {
              best = v;
              best_at = row + kj;
            }
          }
        }
        *out++ = best;
        *arg++ = base + best_at;
      }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  check_grad_out("MaxPool2d", grad_out, out_shape_);
  Tensor grad_in(in_shape_);
  const auto go = grad_out.data();
  auto gi = grad_in.data_mut();
  for (std::size_t k = 0; k < go.size(); ++k) gi[argmax_[k]] += go[k];
  return grad_in;
}

// --------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x) {
  const std::size_t n = x.dim(0);
  in_shape_ = x.shape();
  const std::size_t features =
      std::accumulate(in_shape_.begin() + 1, in_shape_.end(), std::size_t{1},
                      std::multiplies<>());
  return x.reshaped({n, features});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ------------------------------------------------------------ Sequential --

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_)
    for (Param* p : layer->params()) all.push_back(p);
  return all;
}

}  // namespace qugeo::nn
