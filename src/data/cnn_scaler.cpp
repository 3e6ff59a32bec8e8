#include "data/cnn_scaler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/logging.h"
#include "common/math_utils.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"

namespace qugeo::data {
namespace {

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

nn::Tensor cnn_input_pick(const seismic::SeismicData& seismic,
                          const ScaleTarget& target,
                          const CnnScalerConfig& config) {
  const std::size_t rows = config.input_time_rows;
  const std::size_t cols = config.input_rec_cols;
  nn::Tensor x({1, target.nsrc, rows, cols});
  const std::vector<std::size_t> picked =
      picked_sources(seismic.nsrc(), target.nsrc);
  for (std::size_t s = 0; s < target.nsrc; ++s) {
    const std::size_t src = picked[s];
    for (std::size_t t = 0; t < rows; ++t) {
      const std::size_t tt = t * seismic.nt() / rows;
      for (std::size_t r = 0; r < cols; ++r) {
        const std::size_t rr = r * seismic.nrec() / cols;
        x.at4(0, s, t, r) = seismic.at(src, tt, rr);
      }
    }
  }
  return x;
}

Real max_abs_amplitude(std::span<const Real> samples) {
  Real max_abs = 0;
  for (Real v : samples) max_abs = std::max(max_abs, std::abs(v));
  return max_abs;
}

nn::Tensor CnnScaler::scaled_input(nn::Tensor pick) const {
  for (Real& v : pick.data_mut()) v *= input_scale_;
  return pick;
}

std::vector<Real> CnnScaler::compress(nn::Tensor pick) const {
  const nn::Tensor y = net_->forward(scaled_input(std::move(pick)));
  return std::vector<Real>(y.data().begin(), y.data().end());
}

std::vector<Real> CnnScaler::compress(
    const seismic::SeismicData& seismic) const {
  return compress(cnn_input_pick(seismic, target_, config_));
}

ScaledSample CnnScaler::scale(nn::Tensor pick,
                              const seismic::VelocityModel& velocity) const {
  ScaledSample out;
  out.waveform = compress(std::move(pick));
  out.velocity =
      scale_velocity_map(velocity, target_.vel_rows, target_.vel_cols);
  return out;
}

ScaledSample CnnScaler::scale(const RawSample& raw) const {
  return scale(cnn_input_pick(raw.seismic, target_, config_), raw.velocity);
}

std::size_t CnnScaler::param_count() const { return net_->param_count(); }

CnnScaler train_cnn_scaler(const RawDataset& train_set, const ScaleTarget& target,
                           const CnnScalerConfig& config, Rng& rng) {
  CnnTrainingSet set;
  set.picks.reserve(train_set.size());
  for (const RawSample& s : train_set.samples) {
    set.picks.push_back(cnn_input_pick(s.seismic, target, config));
    set.max_abs = std::max(set.max_abs, max_abs_amplitude(s.seismic.data()));
  }
  // Targets: physics-guided waveforms, re-modelled over the pool.
  ScaledDataset refs =
      ForwardModelScaler(target).scale_dataset(train_set, target);
  set.targets.reserve(train_set.size());
  for (ScaledSample& ref : refs.samples)
    set.targets.push_back(std::move(ref.waveform));
  return train_cnn_scaler(std::move(set), target, config, rng);
}

CnnScaler train_cnn_scaler(CnnTrainingSet train_set, const ScaleTarget& target,
                           const CnnScalerConfig& config, Rng& rng) {
  const std::size_t n = train_set.picks.size();
  if (n == 0)
    throw std::invalid_argument("train_cnn_scaler: empty training set");
  if (train_set.targets.size() != n)
    throw std::invalid_argument("train_cnn_scaler: " + std::to_string(n) +
                                " picks but " +
                                std::to_string(train_set.targets.size()) +
                                " targets");

  CnnScaler scaler;
  scaler.target_ = target;
  scaler.config_ = config;
  // Input normalization: one global scale over the training set.
  scaler.input_scale_ =
      train_set.max_abs > 0 ? Real(1) / train_set.max_abs : Real(1);

  const std::size_t out_dim = target.nsrc * target.nt * target.nrec;
  scaler.net_ = build_net(target.nsrc, config.input_time_rows,
                          config.input_rec_cols, out_dim, rng);

  // Targets are L2-normalized per sample: the quantum encoder normalizes
  // anyway, so this is the natural gauge.
  std::vector<nn::Tensor> inputs, targets;
  inputs.reserve(n);
  targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(scaler.scaled_input(std::move(train_set.picks[i])));
    std::vector<Real>& wave = train_set.targets[i];
    normalize_l2(wave);
    targets.emplace_back(std::vector<std::size_t>{1, out_dim}, std::move(wave));
  }

  nn::Adam opt(scaler.net_->params());
  const nn::CosineAnnealingLr schedule(config.initial_lr, config.epochs);
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
