#include "core/classical_baseline.h"

#include <stdexcept>

#include "common/math_utils.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"

namespace qugeo::core {
namespace {

/// The 256-value waveform enters both CNNs as one 16x16 image. CNN-PX:
/// 2x 5x5 stride-2 conv -> pool -> 8x 3x3 conv -> FC(8 -> 64) -> sigmoid;
/// 780 parameters, the same level as the 576/577-parameter VQCs.
std::shared_ptr<nn::Sequential> build_px(std::size_t out_dim, Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->emplace<nn::Conv2d>(1, 2, 5, 2, 0, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Conv2d>(2, 8, 3, 1, 0, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8, out_dim, rng);
  net->emplace<nn::Sigmoid>();
  return net;
}

/// CNN-LY: wider trunk, 8-value row head. 832 parameters.
std::shared_ptr<nn::Sequential> build_ly(std::size_t rows, Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->emplace<nn::Conv2d>(1, 4, 5, 2, 0, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Conv2d>(4, 16, 3, 1, 0, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(16, rows, rng);
  net->emplace<nn::Sigmoid>();
  return net;
}

/// InversionNet-lite: a conv encoder + FC decoder in the spirit of Wu et
/// al. 2019, shrunk to the 16x16 quantum-scale input. ~25k parameters —
/// deliberately NOT parameter-matched; it bounds what classical learning
/// extracts from the same scaled data.
std::shared_ptr<nn::Sequential> build_inversion_net(std::size_t out_dim,
                                                    Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->emplace<nn::Conv2d>(1, 16, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Conv2d>(16, 32, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Conv2d>(32, 32, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Flatten>();  // 32 * 2 * 2 = 128
  net->emplace<nn::Linear>(128, 64, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Linear>(64, out_dim, rng);
  net->emplace<nn::Sigmoid>();
  return net;
}

}  // namespace

ClassicalFwiNet::ClassicalFwiNet(const ClassicalConfig& config, Rng& rng)
    : config_(config) {
  if (config.nsrc * config.nt * config.nrec != 256)
    throw std::invalid_argument("ClassicalFwiNet: expects 256-value waveforms");
  const std::size_t out_dim = config.vel_rows * config.vel_cols;
  if (config.inversion_net_reference) {
    net_ = build_inversion_net(
        config.decoder == DecoderKind::kPixel ? out_dim : config.vel_rows, rng);
  } else {
    net_ = config.decoder == DecoderKind::kPixel
               ? build_px(out_dim, rng)
               : build_ly(config.vel_rows, rng);
  }
}

nn::Tensor ClassicalFwiNet::to_input(const data::ScaledSample& s) const {
  std::vector<Real> w = s.waveform;
  normalize_l2(w);  // same per-sample gauge the quantum encoder applies
  return nn::Tensor({1, 1, 16, 16}, std::move(w));
}

std::vector<Real> ClassicalFwiNet::head_to_map(const nn::Tensor& out) const {
  const std::size_t rows = config_.vel_rows, cols = config_.vel_cols;
  if (config_.decoder == DecoderKind::kPixel)
    return std::vector<Real>(out.data().begin(), out.data().end());
  std::vector<Real> map(rows * cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) map[i * cols + j] = out[i];
  return map;
}

std::vector<Real> ClassicalFwiNet::parameters() const {
  std::vector<Real> out;
  for (const nn::Param* p : net_->params())
    out.insert(out.end(), p->value.data().begin(), p->value.data().end());
  return out;
}

std::vector<std::vector<Real>> ClassicalFwiNet::predict(
    std::span<const data::ScaledSample* const> samples) const {
  std::vector<std::vector<Real>> out;
  out.reserve(samples.size());
  for (const data::ScaledSample* s : samples)
    out.push_back(head_to_map(net_->forward(to_input(*s))));
  return out;
}

TrainResult ClassicalFwiNet::train(const data::ScaledDataset& ds,
                                   const data::SplitView& split,
                                   const TrainConfig& config) {
  TrainResult result;
  nn::Adam opt(net_->params());
  const nn::CosineAnnealingLr schedule(config.initial_lr, config.epochs);
  Rng shuffle_rng(config.shuffle_seed);
  const std::size_t rows = config_.vel_rows, cols = config_.vel_cols;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto order = shuffle_rng.permutation(split.train.size());
    Real epoch_loss = 0;
    for (std::size_t oi : order) {
      const data::ScaledSample& s = ds.samples[split.train[oi]];
      const nn::Tensor pred = net_->forward(to_input(s));

      // SSE against the target map; for the layer head, fold the per-row
      // column sums into the 8-value gradient (Eq. 3).
      nn::Tensor grad(pred.shape());
      Real loss = 0;
      if (config_.decoder == DecoderKind::kPixel) {
        for (std::size_t k = 0; k < pred.numel(); ++k) {
          const Real d = pred[k] - s.velocity[k];
          loss += d * d;
          grad[k] = 2 * d;
        }
      } else {
        for (std::size_t i = 0; i < rows; ++i) {
          Real g = 0;
          for (std::size_t j = 0; j < cols; ++j) {
            const Real d = pred[i] - s.velocity[i * cols + j];
            loss += d * d;
            g += 2 * d;
          }
          grad[i] = g;
        }
      }
      epoch_loss += loss;
      opt.zero_grad();
      (void)net_->backward(grad);
      opt.step(schedule.lr(epoch));
    }

    EpochRecord rec;
    rec.train_loss = epoch_loss / static_cast<Real>(order.empty() ? 1 : order.size());
    std::vector<const data::ScaledSample*> test_samples;
    for (std::size_t i : split.test) test_samples.push_back(&ds.samples[i]);
    const EvalMetrics ev =
        evaluate_predictions(predict(test_samples), ds, split.test);
    rec.test_ssim = ev.ssim;
    rec.test_mse = ev.mse;
    result.curve.push_back(rec);
  }
  if (!result.curve.empty()) {
    result.final_ssim = result.curve.back().test_ssim;
    result.final_mse = result.curve.back().test_mse;
  }
  return result;
}

}  // namespace qugeo::core
