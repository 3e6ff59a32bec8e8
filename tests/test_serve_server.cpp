// ModelServer: request/response round trip against direct predict,
// predictions independent of how requests coalesce, size- vs deadline-
// triggered flushes, explicit backpressure, drop accounting, graceful
// shutdown drain, and fault injection on the serve.enqueue /
// serve.dispatch sites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/model.h"
#include "serve/server.h"

namespace qugeo::serve {
namespace {

using namespace std::chrono_literals;

data::ScaledSample random_sample(std::size_t wave_size, std::size_t vel_size,
                                 Rng& rng) {
  data::ScaledSample s;
  s.waveform.resize(wave_size);
  s.velocity.resize(vel_size);
  rng.fill_uniform(s.waveform, -1, 1);
  rng.fill_uniform(s.velocity, 0, 1);
  return s;
}

core::ModelConfig small_config() {
  core::ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.ansatz.blocks = 2;
  mc.decoder = core::DecoderKind::kLayer;
  mc.vel_rows = 3;
  mc.vel_cols = 2;
  return mc;
}

std::vector<data::ScaledSample> make_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<data::ScaledSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) samples.push_back(random_sample(8, 6, rng));
  return samples;
}

/// Once the server has quiesced (shutdown() returned), no request may be
/// unaccounted for: everything submitted is completed, failed, or counted
/// as an explicit rejection.
void expect_settled_accounting(const ServerStats& s) {
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.rejected_overload +
                             s.rejected_shutdown);
}

/// Spin until `pred()` holds (the dispatcher runs on its own thread), with
/// a generous bound so a wedged server fails the test instead of hanging.
template <typename Pred>
void wait_for(Pred&& pred) {
  for (int i = 0; i < 10000 && !pred(); ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(pred());
}

/// Scoped env var with save/restore (CI legs pin QUGEO_* globally).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_old_)
      ::setenv(name_.c_str(), old_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(Serve, RoundTripMatchesDirectPredict) {
  Rng rng(11);
  const core::QuGeoModel model(small_config(), rng);
  const auto samples = make_samples(8, 12);
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  const auto direct = model.predict(ptrs);

  ServeConfig sc;
  sc.max_batch = samples.size();  // one size-triggered flush of the lot,
  sc.deadline = 10s;              // never the deadline: the single batch
  sc.queue_capacity = 64;         // sees the same chunk-stream indices as
                                  // the direct call, so results match
                                  // exactly even under sampled readout
                                  // (QUGEO_SHOTS CI leg).
  ModelServer server(model, sc);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    PredictResult r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.prediction, direct[i]) << "sample " << i;
  }
  server.shutdown();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, samples.size());
  EXPECT_EQ(s.batches_dispatched, 1u);
  EXPECT_EQ(s.flush_size, 1u);
  expect_settled_accounting(s);
}

TEST(Serve, PredictionDoesNotDependOnItsBatch) {
  Rng rng(15);
  core::QuGeoModel model(small_config(), rng);
  // Exact readout: under sampled readout a chunk's seed salt is its
  // position in the batch, which would differ across coalescings for a
  // reason unrelated to the kernels.
  qsim::ExecutionConfig exact = model.execution_config();
  exact.backend = qsim::BackendKind::kStatevector;
  exact.shots = 0;
  model.set_execution_config(exact);
  const auto samples = make_samples(12, 16);
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  const auto direct = model.predict(ptrs);

  // max_batch 1 serves every request alone; max_batch 8 serves a size-
  // triggered batch of 8 and then drains the last 4 at shutdown.
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{8}}) {
    ServeConfig sc;
    sc.max_batch = max_batch;
    sc.deadline = 10s;
    sc.queue_capacity = 64;
    ModelServer server(model, sc);
    std::vector<std::future<PredictResult>> futures;
    for (const auto& s : samples) futures.push_back(server.submit(s));
    server.shutdown();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      PredictResult r = futures[i].get();
      ASSERT_EQ(r.status, RequestStatus::kOk);
      EXPECT_EQ(r.prediction, direct[i])
          << "sample " << i << " at max_batch " << max_batch;
    }
    const ServerStats s = server.stats();
    EXPECT_EQ(s.batches_dispatched, max_batch == 1 ? 12u : 2u);
    expect_settled_accounting(s);
  }
}

TEST(Serve, DeadlineFlushesShortBatch) {
  Rng rng(13);
  const core::QuGeoModel model(small_config(), rng);
  const auto samples = make_samples(3, 14);

  ServeConfig sc;
  sc.max_batch = 100;  // never reached: every flush is deadline-driven
  sc.deadline = 1ms;
  sc.queue_capacity = 128;
  ModelServer server(model, sc);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));
  for (auto& f : futures) {
    PredictResult r = f.get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.prediction.size(), 6u);
  }
  server.shutdown();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.flush_size, 0u);
  EXPECT_GE(s.flush_deadline, 1u);
  expect_settled_accounting(s);
}

TEST(Serve, SizeFlushFiresBeforeDeadline) {
  Rng rng(15);
  const core::QuGeoModel model(small_config(), rng);
  const auto samples = make_samples(4, 16);

  ServeConfig sc;
  sc.max_batch = 2;
  sc.deadline = 10s;  // any flush before shutdown must be size-triggered
  sc.queue_capacity = 64;
  ModelServer server(model, sc);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));
  for (auto& f : futures) ASSERT_EQ(f.get().status, RequestStatus::kOk);
  server.shutdown();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.batches_dispatched, 2u);
  EXPECT_EQ(s.flush_size, 2u);
  EXPECT_EQ(s.flush_deadline, 0u);
  expect_settled_accounting(s);
}

TEST(Serve, BackpressureRejectsInsteadOfBlocking) {
  Rng rng(17);
  const core::QuGeoModel model(small_config(), rng);
  const auto samples = make_samples(6, 18);

  // Wedge the dispatcher inside its first batch: the first dispatch
  // attempt throws a transient fault, and the retry hook blocks until the
  // test releases it. Meanwhile the queue fills to full_threshold and the
  // next submit must be rejected immediately, not block.
  std::atomic<bool> release{false};
  ServeConfig sc;
  sc.max_batch = 1;
  sc.deadline = std::chrono::microseconds{0};  // flush each request alone
  sc.queue_capacity = 8;
  sc.full_threshold = 3;
  sc.retry.max_attempts = 2;
  sc.retry.on_retry = [&](std::size_t, std::chrono::milliseconds) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  fault::FaultScope wedge("serve.dispatch", 1, 1);

  ModelServer server(model, sc);
  std::vector<std::future<PredictResult>> futures;
  futures.push_back(server.submit(samples[0]));
  // Dispatcher pops samples[0] and blocks in the retry hook.
  wait_for([&] { return server.stats().in_flight == 1; });
  for (int i = 1; i <= 3; ++i) futures.push_back(server.submit(samples[i]));
  EXPECT_EQ(server.stats().queue_depth, 3u);

  // Queue is at full_threshold: this must resolve NOW as kOverloaded.
  std::future<PredictResult> rejected = server.submit(samples[4]);
  ASSERT_EQ(rejected.wait_for(0s), std::future_status::ready);
  PredictResult r = rejected.get();
  EXPECT_EQ(r.status, RequestStatus::kOverloaded);
  EXPECT_NE(r.error.find("queue full"), std::string::npos);

  release.store(true);
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  server.shutdown();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.rejected_overload, 1u);
  EXPECT_EQ(s.max_queue_depth, 3u);
  expect_settled_accounting(s);
}

TEST(Serve, GracefulShutdownDrainsQueue) {
  Rng rng(19);
  const core::QuGeoModel model(small_config(), rng);
  const auto samples = make_samples(3, 20);

  ServeConfig sc;
  sc.max_batch = 4;   // never fills
  sc.deadline = 10s;  // never expires: only the drain can flush
  sc.queue_capacity = 64;
  ModelServer server(model, sc);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));
  server.shutdown();
  for (auto& f : futures) {
    PredictResult r = f.get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
  }

  // Post-shutdown submits resolve immediately as kShutdown.
  std::future<PredictResult> late = server.submit(samples[0]);
  ASSERT_EQ(late.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(late.get().status, RequestStatus::kShutdown);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 3u);
  EXPECT_GE(s.flush_drain, 1u);
  EXPECT_EQ(s.rejected_shutdown, 1u);
  expect_settled_accounting(s);
}

TEST(Serve, EnqueueFaultFailsOneRequestVisibly) {
  Rng rng(21);
  const core::QuGeoModel model(small_config(), rng);
  const auto samples = make_samples(2, 22);

  ServeConfig sc;
  sc.max_batch = 1;
  sc.deadline = std::chrono::microseconds{0};
  ModelServer server(model, sc);
  fault::FaultScope scope("serve.enqueue", 1);
  std::future<PredictResult> faulted = server.submit(samples[0]);
  PredictResult r = faulted.get();
  EXPECT_EQ(r.status, RequestStatus::kFailed);
  EXPECT_NE(r.error.find("enqueue fault"), std::string::npos);
  // The server keeps serving after the intake fault.
  EXPECT_EQ(server.submit(samples[1]).get().status, RequestStatus::kOk);
  server.shutdown();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  expect_settled_accounting(s);
}

TEST(Serve, DispatchFaultRetriesTransparently) {
  Rng rng(23);
  const core::QuGeoModel model(small_config(), rng);
  const auto samples = make_samples(1, 24);

  ServeConfig sc;
  sc.max_batch = 1;
  sc.deadline = std::chrono::microseconds{0};
  sc.retry.on_retry = [](std::size_t, std::chrono::milliseconds) {};
  fault::FaultScope scope("serve.dispatch", 1, 1);  // first attempt only
  ModelServer server(model, sc);
  PredictResult r = server.submit(samples[0]).get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_GE(scope.hits(), 2u);  // the failed attempt plus the retry
  server.shutdown();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  expect_settled_accounting(s);
}

TEST(Serve, DispatchRetryExhaustionDegradesGracefully) {
  Rng rng(25);
  const core::QuGeoModel model(small_config(), rng);
  const auto samples = make_samples(2, 26);
  fault::clear_degradation_events();

  ServeConfig sc;
  sc.max_batch = 2;
  sc.deadline = 10s;
  sc.retry.max_attempts = 2;
  sc.retry.on_retry = [](std::size_t, std::chrono::milliseconds) {};
  ModelServer server(model, sc);
  std::vector<std::future<PredictResult>> futures;
  {
    fault::FaultScope scope("serve.dispatch", 1, 0);  // every attempt fails
    for (const auto& s : samples) futures.push_back(server.submit(s));
    for (auto& f : futures) {
      PredictResult r = f.get();
      EXPECT_EQ(r.status, RequestStatus::kFailed);
      EXPECT_NE(r.error.find("giving up"), std::string::npos);
    }
  }
  server.shutdown();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.completed, 0u);
  expect_settled_accounting(s);

  const auto events = fault::degradation_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().component, "serve");
  EXPECT_NE(events.back().detail.find("batch of 2"), std::string::npos);
}

TEST(Serve, ConcurrentProducersAllComplete) {
  Rng rng(27);
  const core::QuGeoModel model(small_config(), rng);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 25;
  const auto samples = make_samples(kThreads * kPerThread, 28);

  ServeConfig sc;
  sc.max_batch = 8;
  sc.deadline = 200us;
  sc.queue_capacity = 512;
  ModelServer server(model, sc);
  std::vector<std::vector<std::future<PredictResult>>> futures(kThreads);
  {
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < kThreads; ++t)
      producers.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i)
          futures[t].push_back(server.submit(samples[t * kPerThread + i]));
      });
    for (auto& p : producers) p.join();
  }
  for (auto& per_thread : futures)
    for (auto& f : per_thread) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  server.shutdown();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, kThreads * kPerThread);
  EXPECT_EQ(s.completed, kThreads * kPerThread);
  expect_settled_accounting(s);

  // Every resolved request left a latency observation.
  std::uint64_t latency_total = 0;
  for (const std::uint64_t c : s.latency_us_buckets) latency_total += c;
  EXPECT_EQ(latency_total, s.completed + s.failed);
  EXPECT_LE(s.latency_quantile_us(0.5), s.latency_quantile_us(0.99));
}

TEST(Serve, EnvOverridesApplyAndRejectMalformedValues) {
  Rng rng(29);
  const core::QuGeoModel model(small_config(), rng);
  {
    EnvGuard batch("QUGEO_SERVE_BATCH", "7");
    EnvGuard deadline("QUGEO_SERVE_DEADLINE_US", "1234");
    ModelServer server(model, ServeConfig{});
    EXPECT_EQ(server.config().max_batch, 7u);
    EXPECT_EQ(server.config().deadline, std::chrono::microseconds{1234});
  }
  {
    EnvGuard batch("QUGEO_SERVE_BATCH", "abc");
    EXPECT_THROW(ModelServer(model, ServeConfig{}), std::invalid_argument);
  }
  {
    EnvGuard batch("QUGEO_SERVE_BATCH", "0");
    EXPECT_THROW(ModelServer(model, ServeConfig{}), std::invalid_argument);
  }
  {
    EnvGuard deadline("QUGEO_SERVE_DEADLINE_US", "-10");
    EXPECT_THROW(ModelServer(model, ServeConfig{}), std::invalid_argument);
  }
  // 2^64 - 1 would wrap to a negative deadline through the signed rep, and
  // 10^16 us overflows `enqueued + deadline` in the dispatcher.
  for (const char* huge : {"18446744073709551615", "10000000000000000"}) {
    EnvGuard deadline("QUGEO_SERVE_DEADLINE_US", huge);
    try {
      ModelServer server(model, ServeConfig{});
      ADD_FAILURE() << "QUGEO_SERVE_DEADLINE_US=" << huge << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("QUGEO_SERVE_DEADLINE_US"),
                std::string::npos)
          << e.what();
    }
  }
  // A deadline set in code goes through the same bounds.
  for (const auto bad :
       {std::chrono::microseconds{-1}, std::chrono::microseconds::max()}) {
    ServeConfig config;
    config.deadline = bad;
    EXPECT_THROW(ModelServer(model, config), std::invalid_argument)
        << bad.count() << " us";
  }
}

TEST(Serve, HistogramQuantileInterpolates) {
  std::array<std::uint64_t, kServeHistogramBuckets> buckets{};
  EXPECT_EQ(histogram_quantile(buckets, 0.5), 0.0);  // empty -> 0
  buckets[3] = 100;                                  // values in [4, 8)
  EXPECT_GE(histogram_quantile(buckets, 0.5), 4.0);
  EXPECT_LE(histogram_quantile(buckets, 0.5), 8.0);
  buckets[5] = 100;  // values in [16, 32)
  EXPECT_LE(histogram_quantile(buckets, 0.25), 8.0);
  EXPECT_GE(histogram_quantile(buckets, 0.99), 16.0);
}

}  // namespace
}  // namespace qugeo::serve
