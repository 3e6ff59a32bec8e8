#include "serve/server.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "common/env.h"

namespace qugeo::serve {
namespace {

/// The dispatcher computes `enqueued + deadline` on steady_clock. Capping
/// the deadline at half the clock's range (~146 years at nanosecond ticks)
/// leaves the other half for the time point, so the sum cannot overflow.
constexpr std::chrono::microseconds kMaxDeadline =
    std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::duration::max() / 2);

}  // namespace

ServeConfig apply_serve_env_overrides(ServeConfig base) {
  base.max_batch = env::parse_env_positive("QUGEO_SERVE_BATCH", base.max_batch);
  if (std::getenv("QUGEO_SERVE_DEADLINE_US") != nullptr) {
    const std::size_t us = env::parse_env_size_t("QUGEO_SERVE_DEADLINE_US", 0);
    // Checked before the conversion: the signed rep would wrap 2^64 - 1 to
    // a negative deadline.
    if (us > static_cast<std::size_t>(kMaxDeadline.count()))
      throw std::invalid_argument(
          "QUGEO_SERVE_DEADLINE_US: expected at most " +
          std::to_string(kMaxDeadline.count()) + " us, got " +
          std::to_string(us));
    base.deadline = std::chrono::microseconds(
        static_cast<std::chrono::microseconds::rep>(us));
  }
  return base;
}

double histogram_quantile(
    const std::array<std::uint64_t, kServeHistogramBuckets>& buckets,
    double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next >= target) {
      // Bucket i holds values in [2^(i-1), 2^i) (bucket 0 is exactly 0);
      // interpolate linearly within it.
      const double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << (i - 1));
      const double hi = i == 0 ? 1.0 : static_cast<double>(1ULL << i);
      const double frac =
          (target - cumulative) / static_cast<double>(buckets[i]);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return static_cast<double>(1ULL << (buckets.size() - 1));
}

void ModelServer::Histogram::record(std::uint64_t value) noexcept {
  std::size_t idx = static_cast<std::size_t>(std::bit_width(value));
  if (idx >= kServeHistogramBuckets) idx = kServeHistogramBuckets - 1;
  buckets[idx].fetch_add(1, std::memory_order_relaxed);
}

std::array<std::uint64_t, kServeHistogramBuckets>
ModelServer::Histogram::snapshot() const noexcept {
  std::array<std::uint64_t, kServeHistogramBuckets> out{};
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = buckets[i].load(std::memory_order_relaxed);
  return out;
}

ModelServer::ModelServer(const core::QuGeoModel& model, ServeConfig config)
    : model_(&model),
      config_(apply_serve_env_overrides(std::move(config))),
      exec_(model.execution_config()),
      full_threshold_(config_.full_threshold == 0 ? config_.queue_capacity
                                                  : config_.full_threshold) {
  if (config_.max_batch == 0)
    throw std::invalid_argument("ModelServer: max_batch must be positive");
  if (config_.deadline < std::chrono::microseconds::zero() ||
      config_.deadline > kMaxDeadline)
    throw std::invalid_argument(
        "ModelServer: deadline must be in [0, " +
        std::to_string(kMaxDeadline.count()) + "] us, got " +
        std::to_string(config_.deadline.count()));
  if (config_.queue_capacity == 0)
    throw std::invalid_argument("ModelServer: queue_capacity must be positive");
  if (config_.max_batch > config_.queue_capacity)
    throw std::invalid_argument(
        "ModelServer: max_batch exceeds queue_capacity");
  if (full_threshold_ > config_.queue_capacity)
    throw std::invalid_argument(
        "ModelServer: full_threshold exceeds queue_capacity");
  ring_.resize(config_.queue_capacity);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ModelServer::~ModelServer() { shutdown(); }

std::future<PredictResult> ModelServer::submit(
    const data::ScaledSample& sample) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  std::promise<PredictResult> promise;
  std::future<PredictResult> future = promise.get_future();
  try {
    fault::site("serve.enqueue");
  } catch (const std::exception& e) {
    // Injected intake fault: this request was never queued; it fails
    // individually and visibly while the server keeps serving.
    failed_.fetch_add(1, std::memory_order_relaxed);
    promise.set_value({RequestStatus::kFailed, {},
                       std::string("enqueue fault: ") + e.what()});
    return future;
  }
  const auto now = std::chrono::steady_clock::now();
  {
    MutexLock lk(mutex_);
    if (!accepting_) {
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
      promise.set_value(
          {RequestStatus::kShutdown, {}, "server is shut down"});
      return future;
    }
    if (size_ >= full_threshold_) {
      // Backpressure: reject immediately rather than blocking the
      // producer; the caller sees kOverloaded and can shed or retry.
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      promise.set_value({RequestStatus::kOverloaded, {},
                         "queue full (" + std::to_string(size_) + "/" +
                             std::to_string(full_threshold_) + ")"});
      return future;
    }
    Request& slot = ring_[(head_ + size_) % ring_.size()];
    slot.sample = &sample;
    slot.enqueued = now;
    slot.promise = std::move(promise);
    ++size_;
    if (size_ > max_depth_) max_depth_ = size_;
  }
  work_.notify_one();
  return future;
}

void ModelServer::shutdown() {
  {
    MutexLock lk(mutex_);
    accepting_ = false;
    stop_ = true;
  }
  work_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::vector<ModelServer::Request> ModelServer::take_locked(std::size_t n) {
  const std::size_t take = std::min(n, size_);
  std::vector<Request> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(ring_[head_]));
    head_ = (head_ + 1) % ring_.size();
  }
  size_ -= take;
  return batch;
}

void ModelServer::dispatcher_loop() {
  for (;;) {
    std::vector<Request> batch;
    Flush trigger = Flush::kDeadline;
    {
      MutexLock lk(mutex_);
      while (size_ == 0 && !stop_) work_.wait(mutex_);
      if (size_ == 0) return;  // stopping and fully drained
      // Coalesce: hold until the batch fills or the OLDEST request's
      // deadline passes. Shutdown flushes immediately (drain mode), so
      // no request waits out its deadline against a dead server.
      const auto deadline = ring_[head_].enqueued + config_.deadline;
      while (size_ < config_.max_batch && !stop_ &&
             work_.wait_until(mutex_, deadline) != std::cv_status::timeout) {
      }
      trigger = size_ >= config_.max_batch ? Flush::kSize
                : stop_                    ? Flush::kDrain
                                           : Flush::kDeadline;
      batch = take_locked(config_.max_batch);
      in_flight_.fetch_add(batch.size(), std::memory_order_relaxed);
    }
    dispatch_batch(batch, trigger);
  }
}

void ModelServer::dispatch_batch(std::vector<Request>& batch, Flush trigger) {
  std::vector<const data::ScaledSample*> samples;
  samples.reserve(batch.size());
  for (const Request& r : batch) samples.push_back(r.sample);

  std::vector<std::vector<Real>> predictions;
  std::string error;
  bool ok = true;
  try {
    // Transient dispatch faults (serve.dispatch) retry under the
    // configured policy; the model's own execution-level retries are
    // nested inside predict_with and stack with this one.
    predictions = fault::retry_on_transient(
        "serve batch dispatch", config_.retry,
        [&]() -> std::vector<std::vector<Real>> {
          fault::site("serve.dispatch");
          return model_->predict_with(samples, exec_);
        });
  } catch (const std::exception& e) {
    // Retry exhaustion or a fatal execution error: the batch fails as a
    // unit, every waiter learns why, and the degradation is recorded
    // instead of requests silently vanishing.
    ok = false;
    error = e.what();
    fault::report_degradation(
        "serve", "batch of " + std::to_string(batch.size()) +
                     " request(s) failed: " + error);
  }

  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        now - batch[i].enqueued);
    latency_us_.record(static_cast<std::uint64_t>(
        waited.count() < 0 ? 0 : waited.count()));
    PredictResult result;
    if (ok) {
      result.status = RequestStatus::kOk;
      result.prediction = std::move(predictions[i]);
    } else {
      result.status = RequestStatus::kFailed;
      result.error = error;
    }
    batch[i].promise.set_value(std::move(result));
  }

  (ok ? completed_ : failed_)
      .fetch_add(batch.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_sizes_.record(batch.size());
  switch (trigger) {
    case Flush::kSize: flush_size_.fetch_add(1, std::memory_order_relaxed); break;
    case Flush::kDeadline:
      flush_deadline_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Flush::kDrain:
      flush_drain_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  in_flight_.fetch_sub(batch.size(), std::memory_order_relaxed);
}

ServerStats ModelServer::stats() const {
  ServerStats s;
  {
    MutexLock lk(mutex_);
    s.queue_depth = size_;
    s.max_queue_depth = max_depth_;
  }
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.batches_dispatched = batches_.load(std::memory_order_relaxed);
  s.flush_size = flush_size_.load(std::memory_order_relaxed);
  s.flush_deadline = flush_deadline_.load(std::memory_order_relaxed);
  s.flush_drain = flush_drain_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  s.latency_us_buckets = latency_us_.snapshot();
  s.batch_size_buckets = batch_sizes_.snapshot();
  return s;
}

}  // namespace qugeo::serve
