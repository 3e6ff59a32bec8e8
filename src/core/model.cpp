#include "core/model.h"

#include <stdexcept>

#include "common/fault.h"
#include "common/parallel.h"
#include "qsim/executor.h"
#include "qsim/observables.h"

namespace qugeo::core {

QuGeoModel::QuGeoModel(const ModelConfig& config, Rng& init_rng)
    : config_(config),
      exec_(qsim::apply_env_overrides(config.execution)),
      layout_(config.group_data_qubits, config.batch_log2),
      ansatz_(build_qugeo_ansatz(layout_, config.ansatz)),
      encoder_(layout_),
      decoder_(make_decoder(config.decoder, layout_, config.vel_rows,
                            config.vel_cols)) {
  theta_.resize(ansatz_.num_params());
  init_rng.fill_uniform(theta_, -config.param_init_range, config.param_init_range);
}

std::vector<Real> QuGeoModel::parameters() const {
  std::vector<Real> p;
  p.reserve(theta_.size() + decoder_->num_classical_params());
  p.insert(p.end(), theta_.begin(), theta_.end());
  for (std::size_t i = 0; i < decoder_->num_classical_params(); ++i)
    p.push_back(decoder_->classical_param(i));
  return p;
}

void QuGeoModel::set_parameters(std::span<const Real> params) {
  if (params.size() != num_params())
    throw std::invalid_argument("QuGeoModel::set_parameters: size mismatch");
  std::copy(params.begin(), params.begin() + static_cast<std::ptrdiff_t>(theta_.size()),
            theta_.begin());
  for (std::size_t i = 0; i < decoder_->num_classical_params(); ++i)
    decoder_->set_classical_param(i, params[theta_.size() + i]);
}

qsim::StateVector QuGeoModel::run_forward(
    std::span<const data::ScaledSample* const> chunk) const {
  std::vector<const std::vector<Real>*> waves(chunk.size());
  for (std::size_t i = 0; i < chunk.size(); ++i) waves[i] = &chunk[i]->waveform;
  qsim::StateVector psi = encoder_.encode(waves);
  qsim::run_circuit(ansatz_, theta_, psi);
  return psi;
}

std::vector<Real> QuGeoModel::run_forward_probabilities(
    std::span<const data::ScaledSample* const> chunk,
    const qsim::ExecutionConfig& exec, std::uint64_t stream) const {
  std::vector<const std::vector<Real>*> waves(chunk.size());
  for (std::size_t i = 0; i < chunk.size(); ++i) waves[i] = &chunk[i]->waveform;
  // Backends are stateful and not thread-safe; predict fans chunks across
  // the pool, so each chunk drives its own instance. The chunk index (not
  // the thread) salts the trajectory/shot seed, so results stay
  // deterministic for any pool size while noise realizations differ
  // across chunks. The salt is a full splitmix64 finalizer, NOT the bare
  // golden-ratio increment: trajectory_rng/shot_rng derive sub-stream t of
  // chunk i as seed(i) + G*(t+1), so a linear G*i salt would make chunk
  // i's trajectory t collide with chunk i+1's trajectory t-1 — adjacent
  // samples would see nearly identical noise realizations.
  qsim::ExecutionConfig chunk_exec = exec;
  std::uint64_t z = exec.seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  chunk_exec.seed = z ^ (z >> 31);
  // Transient execution faults (injected via common/fault, or a future
  // remote/accelerated backend hiccuping) retry with exponential backoff;
  // each attempt rebuilds the backend and re-encodes from scratch so no
  // partially-evolved state leaks across attempts. Exhaustion surfaces as
  // FatalError naming the stream and attempt count.
  return fault::retry_on_transient(
      "circuit execution (chunk stream " + std::to_string(stream) + ")",
      fault::RetryPolicy{}, [&]() -> std::vector<Real> {
        const auto backend =
            qsim::make_backend(chunk_exec, layout_.total_qubits());
        backend->run(ansatz_, theta_, encoder_.encode(waves));
        return backend->probabilities();
      });
}

std::vector<std::vector<Real>> QuGeoModel::predict(
    std::span<const data::ScaledSample* const> samples) const {
  return predict_with(samples, exec_);
}

std::vector<std::vector<Real>> QuGeoModel::predict_with(
    std::span<const data::ScaledSample* const> samples,
    const qsim::ExecutionConfig& exec) const {
  const std::size_t bs = batch_size();
  const std::size_t num_chunks = (samples.size() + bs - 1) / bs;
  // QuBatch chunks are independent circuit executions; fan them out across
  // the pool. Every chunk writes its own slice of `out`, so the result is
  // identical for any QUGEO_THREADS value.
  std::vector<std::vector<Real>> out(samples.size());
  parallel_for(0, num_chunks, [&](std::size_t ci) {
    const std::size_t pos = ci * bs;
    std::vector<const data::ScaledSample*> chunk(bs);
    for (std::size_t b = 0; b < bs; ++b)
      chunk[b] = samples[std::min(pos + b, samples.size() - 1)];
    const std::vector<Real> probs = run_forward_probabilities(chunk, exec, ci);
    DecodeResult dec = decoder_->decode(std::span<const Real>(probs));
    for (std::size_t b = 0; b < bs && pos + b < samples.size(); ++b)
      out[pos + b] = std::move(dec.predictions[b]);
  });
  return out;
}

Real QuGeoModel::loss_and_gradient(
    std::span<const data::ScaledSample* const> chunk,
    std::span<Real> grad_out) const {
  if (chunk.size() != batch_size())
    throw std::invalid_argument("loss_and_gradient: chunk must equal batch size");
  if (grad_out.size() != num_params())
    throw std::invalid_argument("loss_and_gradient: grad size mismatch");

  qsim::StateVector psi = run_forward(chunk);
  const DecodeResult dec = decoder_->decode(psi);

  // Sum-of-squares loss per block (Eq. 2 / Eq. 3) and its prediction grads.
  Real total_loss = 0;
  std::vector<std::vector<Real>> pred_grads(chunk.size());
  for (std::size_t b = 0; b < chunk.size(); ++b) {
    const std::vector<Real>& pred = dec.predictions[b];
    const std::vector<Real>& target = chunk[b]->velocity;
    if (pred.size() != target.size())
      throw std::invalid_argument("loss_and_gradient: target shape mismatch");
    pred_grads[b].resize(pred.size());
    for (std::size_t k = 0; k < pred.size(); ++k) {
      const Real d = pred[k] - target[k];
      total_loss += d * d;
      pred_grads[b][k] = 2 * d;
    }
  }

  // Decoder backward: dL/d(prediction) -> dL/dp -> state cotangent.
  const std::vector<Real> dp = decoder_->probability_grads(dec, pred_grads);
  const std::vector<Complex> cot =
      qsim::cotangent_from_probability_grads(psi, dp);
  const qsim::AdjointResult adj =
      qsim::adjoint_backward(ansatz_, theta_, std::move(psi), cot);
  for (std::size_t i = 0; i < adj.param_grads.size(); ++i)
    grad_out[i] += adj.param_grads[i];

  const std::vector<Real> cg = decoder_->classical_grads(dec, pred_grads);
  for (std::size_t i = 0; i < cg.size(); ++i)
    grad_out[theta_.size() + i] += cg[i];
  return total_loss;
}

Real QuGeoModel::loss(std::span<const data::ScaledSample* const> chunk) const {
  const qsim::StateVector psi = run_forward(chunk);
  const DecodeResult dec = decoder_->decode(psi);
  Real total = 0;
  for (std::size_t b = 0; b < chunk.size(); ++b) {
    const std::vector<Real>& pred = dec.predictions[b];
    const std::vector<Real>& target = chunk[b]->velocity;
    for (std::size_t k = 0; k < pred.size(); ++k) {
      const Real d = pred[k] - target[k];
      total += d * d;
    }
  }
  return total;
}

}  // namespace qugeo::core
