#include "nn_probe.h"

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/optimizer.h"

namespace qugeo::perfbench {
namespace {

using Stack = std::vector<std::unique_ptr<nn::Layer>>;

template <typename L, typename... Args>
void push(Stack& s, Args&&... args) {
  s.push_back(std::make_unique<L>(std::forward<Args>(args)...));
}

/// The layer stacks of core/classical_baseline.cpp (CNN-PX, CNN-LY,
/// INet-ref with the pixel head) and data/cnn_scaler.cpp, in order.
Stack mirror(NetShape shape, Rng& rng, std::vector<std::size_t>* input) {
  Stack s;
  switch (shape) {
    case NetShape::kPx:
      *input = {1, 1, 16, 16};
      push<nn::Conv2d>(s, 1, 2, 5, 2, 0, rng);
      push<nn::ReLU>(s);
      push<nn::MaxPool2d>(s, 2);
      push<nn::Conv2d>(s, 2, 8, 3, 1, 0, rng);
      push<nn::ReLU>(s);
      push<nn::Flatten>(s);
      push<nn::Linear>(s, 8, 64, rng);
      push<nn::Sigmoid>(s);
      break;
    case NetShape::kLy:
      *input = {1, 1, 16, 16};
      push<nn::Conv2d>(s, 1, 4, 5, 2, 0, rng);
      push<nn::ReLU>(s);
      push<nn::MaxPool2d>(s, 2);
      push<nn::Conv2d>(s, 4, 16, 3, 1, 0, rng);
      push<nn::ReLU>(s);
      push<nn::Flatten>(s);
      push<nn::Linear>(s, 16, 8, rng);
      push<nn::Sigmoid>(s);
      break;
    case NetShape::kInet:
      *input = {1, 1, 16, 16};
      push<nn::Conv2d>(s, 1, 16, 3, 1, 1, rng);
      push<nn::ReLU>(s);
      push<nn::MaxPool2d>(s, 2);
      push<nn::Conv2d>(s, 16, 32, 3, 1, 1, rng);
      push<nn::ReLU>(s);
      push<nn::MaxPool2d>(s, 2);
      push<nn::Conv2d>(s, 32, 32, 3, 1, 1, rng);
      push<nn::ReLU>(s);
      push<nn::MaxPool2d>(s, 2);
      push<nn::Flatten>(s);
      push<nn::Linear>(s, 128, 64, rng);
      push<nn::ReLU>(s);
      push<nn::Linear>(s, 64, 64, rng);
      push<nn::Sigmoid>(s);
      break;
    case NetShape::kScaler:
      *input = {1, 1, 64, 16};
      push<nn::Conv2d>(s, 1, 8, 3, 1, 1, rng);
      push<nn::ReLU>(s);
      push<nn::MaxPool2d>(s, 2);
      push<nn::Conv2d>(s, 8, 8, 3, 1, 1, rng);
      push<nn::ReLU>(s);
      push<nn::MaxPool2d>(s, 2);
      push<nn::Flatten>(s);
      push<nn::Linear>(s, 8 * 16 * 4, 256, rng);
      break;
  }
  return s;
}

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

}  // namespace

NnProbe probe_net(NetShape shape, std::size_t adam_every, Rng& rng) {
  constexpr std::size_t kReps = 100;
  std::vector<std::size_t> in_shape;
  Stack stack = mirror(shape, rng, &in_shape);
  std::vector<nn::Param*> params;
  NnProbe p;
  for (auto& layer : stack) {
    p.params += layer->param_count();
    for (nn::Param* q : layer->params()) params.push_back(q);
  }
  nn::Adam opt(params);
  nn::Tensor input(in_shape);
  for (std::size_t i = 0; i < input.numel(); ++i) input[i] = rng.normal();

  std::vector<double> fwd, bwd, adam, conv_share;
  for (std::size_t rep = 0; rep <= kReps; ++rep) {
    double f = 0, b = 0, conv = 0;
    nn::Tensor x = input;
    for (auto& layer : stack) {
      const auto t0 = Clock::now();
      x = layer->forward(x);
      const double dt = us_since(t0);
      f += dt;
      if (layer->name() == "Conv2d") conv += dt;
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const auto t0 = Clock::now();
      x = (*it)->backward(x);
      const double dt = us_since(t0);
      b += dt;
      if ((*it)->name() == "Conv2d") conv += dt;
    }
    const auto t0 = Clock::now();
    opt.step(1e-3);
    const double dt = us_since(t0);
    opt.zero_grad();
    if (rep == 0) continue;  // warm-up
    fwd.push_back(f);
    bwd.push_back(b);
    adam.push_back(dt / static_cast<double>(adam_every));
    conv_share.push_back(conv / (f + b));
  }
  p.forward_us = median(fwd);
  p.backward_us = median(bwd);
  p.adam_us = median(adam);
  p.conv_share = median(conv_share);
  return p;
}

void add_nn_metrics(Result& r, const std::string& net, const NnProbe& p) {
  r.add("nn.forward_us." + net, p.forward_us, "us");
  r.add("nn.backward_us." + net, p.backward_us, "us");
  r.add("nn.adam_us." + net, p.adam_us, "us");
}

}  // namespace qugeo::perfbench
