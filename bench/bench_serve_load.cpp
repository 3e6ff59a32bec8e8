// Sustained multi-producer load driver for the serving front-end
// (src/serve): N producer threads submit single-sample requests with a
// bounded outstanding window, and the run asserts the three serving
// invariants the CI perf-smoke job gates on:
//
//   1. Throughput: the coalescing server beats the same N threads calling
//      predict() singleton-style.
//   2. Tail stability: steady-state p99 latency in the second measurement
//      window stays within 3x (or +2 ms) of the first — no runaway queue.
//   3. Zero silent losses: completed + failed + rejected == submitted and
//      nothing stays pending after shutdown, including under deliberate
//      overload against a tiny queue.
//
// Results merge into BENCH_micro.json (QUGEO_BENCH_JSON overrides the
// path) alongside the bench_micro_* suites. Returns nonzero when a gate
// fails, so CI turns red on a serving regression.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/model.h"
#include "serve/server.h"

namespace qugeo::bench {
namespace {

using std::chrono::steady_clock;

constexpr std::size_t kPerThreadPerWindow = 200;
constexpr std::size_t kOutstandingWindow = 16;
constexpr std::size_t kSamplePool = 256;

std::size_t producer_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n = hw == 0 ? 2 : hw;
  return n < 2 ? 2 : (n > 8 ? 8 : n);
}

core::ModelConfig bench_model_config() {
  core::ModelConfig mc;
  mc.group_data_qubits = {6};  // 64-amplitude state: real work per request
  mc.ansatz.blocks = 6;
  mc.decoder = core::DecoderKind::kLayer;
  mc.vel_rows = 4;
  mc.vel_cols = 4;
  return mc;
}

std::vector<data::ScaledSample> make_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<data::ScaledSample> samples(n);
  for (auto& s : samples) {
    s.waveform.resize(64);
    s.velocity.resize(16);
    rng.fill_uniform(s.waveform, -1, 1);
    rng.fill_uniform(s.velocity, 0, 1);
  }
  return samples;
}

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

/// Baseline: every producer thread calls predict() on one sample at a
/// time — the pattern the server exists to replace.
double run_direct_baseline(const core::QuGeoModel& model,
                           const std::vector<data::ScaledSample>& samples,
                           std::size_t producers, double* out_seconds) {
  const auto t0 = steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t t = 0; t < producers; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThreadPerWindow; ++i) {
        const data::ScaledSample* one =
            &samples[(t * kPerThreadPerWindow + i) % samples.size()];
        const auto preds = model.predict({&one, 1});
        if (preds.size() != 1) std::abort();  // keep the call un-elided
      }
    });
  for (auto& th : threads) th.join();
  const double secs = seconds_since(t0);
  *out_seconds = secs;
  return static_cast<double>(producers * kPerThreadPerWindow) / secs;
}

/// One sustained window: every producer keeps up to kOutstandingWindow
/// requests in flight. Returns the number of non-kOk results (which the
/// gates require to be zero in the steady-state phase).
std::size_t run_server_window(serve::ModelServer& server,
                              const std::vector<data::ScaledSample>& samples,
                              std::size_t producers) {
  std::atomic<std::size_t> not_ok{0};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t t = 0; t < producers; ++t)
    threads.emplace_back([&, t] {
      std::deque<std::future<serve::PredictResult>> window;
      const auto settle = [&](std::future<serve::PredictResult>&& f) {
        if (f.get().status != serve::RequestStatus::kOk)
          not_ok.fetch_add(1, std::memory_order_relaxed);
      };
      for (std::size_t i = 0; i < kPerThreadPerWindow; ++i) {
        window.push_back(server.submit(
            samples[(t * kPerThreadPerWindow + i) % samples.size()]));
        if (window.size() >= kOutstandingWindow) {
          settle(std::move(window.front()));
          window.pop_front();
        }
      }
      while (!window.empty()) {
        settle(std::move(window.front()));
        window.pop_front();
      }
    });
  for (auto& th : threads) th.join();
  return not_ok.load();
}

/// Blast a tiny queue with blind submits to force backpressure, then check
/// that every request is accounted for (the zero-silent-loss invariant
/// must hold even when most requests are shed).
bool run_overload_phase(const core::QuGeoModel& model,
                        const std::vector<data::ScaledSample>& samples,
                        std::size_t producers) {
  serve::ServeConfig sc;
  sc.max_batch = 4;
  sc.deadline = std::chrono::microseconds{0};
  sc.queue_capacity = 8;
  sc.full_threshold = 4;
  serve::ModelServer server(model, sc);
  std::vector<std::thread> threads;
  std::vector<std::vector<std::future<serve::PredictResult>>> futures(producers);
  for (std::size_t t = 0; t < producers; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 100; ++i)
        futures[t].push_back(server.submit(samples[i % samples.size()]));
    });
  for (auto& th : threads) th.join();
  for (auto& per_thread : futures)
    for (auto& f : per_thread) (void)f.get();
  server.shutdown();
  const serve::ServerStats s = server.stats();
  std::printf("[overload] submitted=%llu completed=%llu rejected=%llu failed=%llu\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.rejected_overload),
              static_cast<unsigned long long>(s.failed));
  if (s.pending() != 0 ||
      s.submitted != s.completed + s.failed + s.rejected_overload +
                         s.rejected_shutdown) {
    std::fprintf(stderr, "FAIL: overload phase lost requests silently\n");
    return false;
  }
  return true;
}

std::array<std::uint64_t, serve::kServeHistogramBuckets> bucket_delta(
    const std::array<std::uint64_t, serve::kServeHistogramBuckets>& after,
    const std::array<std::uint64_t, serve::kServeHistogramBuckets>& before) {
  std::array<std::uint64_t, serve::kServeHistogramBuckets> out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = after[i] - before[i];
  return out;
}

int run() {
  const std::size_t producers = producer_count();
  print_header("bench_serve_load: sustained multi-producer serving load",
               "serving front-end (no paper figure; CI perf gate)");
  std::printf("[setup] producers=%zu requests/window=%zu outstanding=%zu\n",
              producers, producers * kPerThreadPerWindow, kOutstandingWindow);

  Rng rng(123);
  const core::QuGeoModel model(bench_model_config(), rng);
  const auto samples = make_samples(kSamplePool, 321);

  // -------------------------------------------------- direct baseline --
  double direct_secs = 0;
  const double direct_rps =
      run_direct_baseline(model, samples, producers, &direct_secs);
  std::printf("[direct] %zu threads x %zu singleton predicts: %.0f req/s\n",
              producers, kPerThreadPerWindow, direct_rps);

  // ------------------------------------------- coalescing server load --
  serve::ServeConfig sc;
  sc.max_batch = 32;
  sc.deadline = std::chrono::microseconds{200};
  sc.queue_capacity = 4096;
  serve::ModelServer server(model, sc);

  const serve::ServerStats s0 = server.stats();
  const auto t0 = steady_clock::now();
  const std::size_t bad1 = run_server_window(server, samples, producers);
  const serve::ServerStats s1 = server.stats();
  const std::size_t bad2 = run_server_window(server, samples, producers);
  const double total_secs = seconds_since(t0);
  const serve::ServerStats s2 = server.stats();
  server.shutdown();
  const serve::ServerStats final_stats = server.stats();

  // Count on the producer side: the server resolves a batch's promises
  // before it bumps `completed`, so a stats snapshot taken before
  // shutdown() can miss the last batch of a window.
  const std::uint64_t served =
      2 * producers * kPerThreadPerWindow - (bad1 + bad2);
  const double server_rps = static_cast<double>(served) / total_secs;
  const double p99_w1 =
      serve::histogram_quantile(
          bucket_delta(s1.latency_us_buckets, s0.latency_us_buckets), 0.99);
  const double p99_w2 =
      serve::histogram_quantile(
          bucket_delta(s2.latency_us_buckets, s1.latency_us_buckets), 0.99);
  std::printf("[server] %.0f req/s over %llu requests (%.2fx direct), "
              "batches=%llu (size=%llu deadline=%llu drain=%llu) "
              "max_depth=%zu\n",
              server_rps, static_cast<unsigned long long>(served),
              server_rps / direct_rps,
              static_cast<unsigned long long>(final_stats.batches_dispatched),
              static_cast<unsigned long long>(final_stats.flush_size),
              static_cast<unsigned long long>(final_stats.flush_deadline),
              static_cast<unsigned long long>(final_stats.flush_drain),
              final_stats.max_queue_depth);
  std::printf("[latency] p50=%.0fus p95=%.0fus p99(w1)=%.0fus p99(w2)=%.0fus\n",
              final_stats.latency_quantile_us(0.5),
              final_stats.latency_quantile_us(0.95), p99_w1, p99_w2);

  // ------------------------------------------------------------ gates --
  bool pass = true;
  if (bad1 != 0 || bad2 != 0) {
    std::fprintf(stderr, "FAIL: %zu steady-state request(s) not kOk\n",
                 bad1 + bad2);
    pass = false;
  }
  if (final_stats.pending() != 0 ||
      final_stats.submitted !=
          final_stats.completed + final_stats.failed +
              final_stats.rejected_overload + final_stats.rejected_shutdown) {
    std::fprintf(stderr, "FAIL: request accounting does not balance\n");
    pass = false;
  }
  if (server_rps <= direct_rps) {
    std::fprintf(stderr,
                 "FAIL: coalescing server (%.0f req/s) did not beat the "
                 "singleton-predict baseline (%.0f req/s)\n",
                 server_rps, direct_rps);
    pass = false;
  }
  // Sustained-load stability: the second window's tail must not run away
  // from the first (allow 3x or +2 ms of scheduler noise on small boxes).
  if (p99_w2 > std::max(3.0 * p99_w1, p99_w1 + 2000.0)) {
    std::fprintf(stderr,
                 "FAIL: p99 drifted under sustained load (%.0fus -> %.0fus)\n",
                 p99_w1, p99_w2);
    pass = false;
  }
  if (!run_overload_phase(model, samples, producers)) pass = false;

  JsonReport report;
  const double total_reqs = std::max(1.0, static_cast<double>(served));
  report.add("BM_ServeDirectPredict",
             direct_secs * 1000.0 /
                 static_cast<double>(producers * kPerThreadPerWindow),
             0.0, static_cast<std::int64_t>(producers * kPerThreadPerWindow),
             direct_rps);
  report.add("BM_ServeCoalescedLoad", total_secs * 1000.0 / total_reqs, 0.0,
             static_cast<std::int64_t>(served), server_rps);
  report.add("BM_ServeSteadyP99", p99_w2 / 1000.0, 0.0,
             static_cast<std::int64_t>(served), server_rps);
  const char* path = std::getenv("QUGEO_BENCH_JSON");
  report.write_merged(path != nullptr ? path : "BENCH_micro.json");

  std::printf(pass ? "[gates] all serving gates PASSED\n"
                   : "[gates] serving gates FAILED\n");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace qugeo::bench

int main() { return qugeo::bench::run(); }
