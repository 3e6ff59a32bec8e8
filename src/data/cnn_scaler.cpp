#include "data/cnn_scaler.h"

#include <cmath>
#include <stdexcept>

#include "common/logging.h"
#include "common/math_utils.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"

namespace qugeo::data {
namespace {

/// Decimate a raw gather volume to [nsrc_target, rows, cols] (nearest
/// neighbour along each axis), returned as a [1, C, H, W] tensor.
nn::Tensor decimate_raw(const seismic::SeismicData& seismic,
                        std::size_t nsrc_target, std::size_t rows,
                        std::size_t cols, Real input_scale) {
  nn::Tensor x({1, nsrc_target, rows, cols});
  const std::vector<std::size_t> picked =
      picked_sources(seismic.nsrc(), nsrc_target);
  for (std::size_t s = 0; s < nsrc_target; ++s) {
    const std::size_t src = picked[s];
    for (std::size_t t = 0; t < rows; ++t) {
      const std::size_t tt = t * seismic.nt() / rows;
      for (std::size_t r = 0; r < cols; ++r) {
        const std::size_t rr = r * seismic.nrec() / cols;
        x.at4(0, s, t, r) = seismic.at(src, tt, rr) * input_scale;
      }
    }
  }
  return x;
}

std::shared_ptr<nn::Sequential> build_net(std::size_t in_ch, std::size_t rows,
                                          std::size_t cols, std::size_t out_dim,
                                          Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->emplace<nn::Conv2d>(in_ch, 8, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Conv2d>(8, 8, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Flatten>();
  const std::size_t flat = 8 * (rows / 4) * (cols / 4);
  net->emplace<nn::Linear>(flat, out_dim, rng);
  return net;
}

}  // namespace

std::vector<Real> CnnScaler::compress(const seismic::SeismicData& seismic) const {
  const nn::Tensor x = decimate_raw(seismic, target_.nsrc, config_.input_time_rows,
                                    config_.input_rec_cols, input_scale_);
  const nn::Tensor y = net_->forward(x);
  return std::vector<Real>(y.data().begin(), y.data().end());
}

ScaledSample CnnScaler::scale(const RawSample& raw) const {
  ScaledSample out;
  out.waveform = compress(raw.seismic);
  out.velocity = scale_velocity_map(raw.velocity, target_.vel_rows, target_.vel_cols);
  return out;
}

std::size_t CnnScaler::param_count() const { return net_->param_count(); }

CnnScaler train_cnn_scaler(const RawDataset& train_set, const ScaleTarget& target,
                           const CnnScalerConfig& config, Rng& rng) {
  if (train_set.size() == 0)
    throw std::invalid_argument("train_cnn_scaler: empty training set");

  CnnScaler scaler;
  scaler.target_ = target;
  scaler.config_ = config;

  // Input normalization: one global scale over the training set.
  Real max_abs = 0;
  for (const RawSample& s : train_set.samples)
    for (Real v : s.seismic.data()) max_abs = std::max(max_abs, std::abs(v));
  scaler.input_scale_ = max_abs > 0 ? Real(1) / max_abs : Real(1);

  const std::size_t out_dim = target.nsrc * target.nt * target.nrec;
  scaler.net_ = build_net(target.nsrc, config.input_time_rows,
                          config.input_rec_cols, out_dim, rng);

  // Targets: physics-guided waveforms, L2-normalized per sample (the
  // quantum encoder normalizes anyway, so this is the natural gauge),
  // re-modelled over the pool.
  ScaledDataset refs = ForwardModelScaler(target).scale_dataset(train_set, target);
  std::vector<nn::Tensor> inputs, targets;
  inputs.reserve(train_set.size());
  targets.reserve(train_set.size());
  for (std::size_t i = 0; i < train_set.size(); ++i) {
    inputs.push_back(decimate_raw(train_set.samples[i].seismic, target.nsrc,
                                  config.input_time_rows, config.input_rec_cols,
                                  scaler.input_scale_));
    std::vector<Real>& wave = refs.samples[i].waveform;
    normalize_l2(wave);
    targets.emplace_back(std::vector<std::size_t>{1, out_dim}, std::move(wave));
  }

  nn::Adam opt(scaler.net_->params());
  const nn::CosineAnnealingLr schedule(config.initial_lr, config.epochs);
  const std::size_t n = inputs.size();
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto order = rng.permutation(n);
    Real epoch_loss = 0;
    std::size_t in_batch = 0;
    opt.zero_grad();
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::size_t i = order[idx];
      const nn::Tensor pred = scaler.net_->forward(inputs[i]);
      const nn::LossResult loss = nn::mse_loss(pred, targets[i]);
      epoch_loss += loss.value;
      (void)scaler.net_->backward(loss.grad);
      if (++in_batch == config.batch_size || idx + 1 == n) {
        opt.step(schedule.lr(epoch));
        opt.zero_grad();
        in_batch = 0;
      }
    }
    if ((epoch + 1) % 50 == 0)
      log_info("train_cnn_scaler: epoch ", epoch + 1, "/", config.epochs,
               " mse=", epoch_loss / static_cast<Real>(n));
  }
  return scaler;
}

}  // namespace qugeo::data
