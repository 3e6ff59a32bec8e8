// The `serve` workload: the paper's headline model (Q-M-LY, 12 blocks, one
// 8-qubit group, no QuBatch) with seeded parameters behind
// serve::ModelServer at the default ServeConfig.
//
// Phase A is an open loop: one generator thread submits single 256-value
// requests on a seeded Poisson schedule at kOpenLoopRps, and one collector
// thread resolves the futures. Latency runs from each request's scheduled
// send time. Phase B is a closed loop: nproc clients, each keeping
// kWindow requests outstanding; its completion rate is the saturation
// throughput.
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/model.h"
#include "qsim_probe.h"
#include "seismic/velocity_model.h"
#include "serve/server.h"

namespace qugeo::perfbench {
namespace {

/// Open-loop arrival rate, requests/s: about a ninth of the closed-loop
/// saturation throughput measured on a 4-core x86-64 box (see README.md).
/// At a third of it, the default 1024-request queue overflowed during the
/// ~130 ms stalls a shared machine shows, and requests were rejected.
constexpr double kOpenLoopRps = 4000;
constexpr std::size_t kRequestPool = 256;  ///< distinct request samples
constexpr std::size_t kWindow = 16;        ///< closed-loop outstanding/client
constexpr std::size_t kChecked = 64;       ///< predictions compared bitwise
constexpr std::size_t kSetupReps = 101;
constexpr double kPhaseAShare = 0.4;  ///< of the run's seconds
constexpr std::size_t kWindows = 8;   ///< slices a phase's statistic is taken over

struct Setup {
  data::ScaledDataset requests;
  std::unique_ptr<core::QuGeoModel> model;
  std::unique_ptr<serve::ModelServer> server;
};

/// Seeded requests (normal waveforms, FlatVel target maps), the model and a
/// started server.
Setup make_setup(const Options& opt) {
  Setup s;
  Rng rng(derive(opt.seed, 7));
  s.requests.scaler_name = "serve";
  for (std::size_t i = 0; i < kRequestPool; ++i) {
    data::ScaledSample sample;
    sample.waveform.resize(256);
    rng.fill_normal(sample.waveform, 0, 1);
    sample.velocity = data::scale_velocity_map(
        seismic::generate_flatvel(seismic::FlatVelConfig{}, rng), 8, 8);
    s.requests.samples.push_back(std::move(sample));
  }
  core::ModelConfig mc;
  mc.group_data_qubits = {8};
  mc.batch_log2 = 0;
  mc.ansatz.blocks = 12;
  mc.decoder = core::DecoderKind::kLayer;
  Rng init_rng(derive(opt.seed, 8));
  s.model = std::make_unique<core::QuGeoModel>(mc, init_rng);
  s.server = std::make_unique<serve::ModelServer>(*s.model, serve::ServeConfig{});
  return s;
}

/// Per-request timestamps kept for the trace.
struct RequestTimes {
  Clock::time_point scheduled, submitted, resolved;
};

struct OpenLoop {
  std::vector<double> latency_ms;  ///< resolved - scheduled
  std::vector<double> lag_ms;      ///< submitted - scheduled
  std::vector<RequestTimes> times;
  std::uint64_t not_ok = 0;
  std::vector<std::pair<std::size_t, std::vector<Real>>> checked;
};

/// Phase A. `check` marks the request indices whose predictions are kept.
OpenLoop open_loop(serve::ModelServer& server, const data::ScaledDataset& req,
                   double seconds, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> offsets;  // seconds after start
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform()) / kOpenLoopRps;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  std::vector<bool> keep(offsets.size(), false);
  for (std::size_t i = 0; i < kChecked && !offsets.empty(); ++i)
    keep[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(offsets.size()) - 1))] =
        true;

  OpenLoop out;
  out.times.resize(offsets.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<serve::PredictResult>> queue;
  bool done = false;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::thread collector([&] {
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      std::future<serve::PredictResult> f;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      serve::PredictResult res = f.get();
      out.times[i].resolved = Clock::now();
      if (res.status != serve::RequestStatus::kOk) ++out.not_ok;
      if (keep[i] && res.status == serve::RequestStatus::kOk)
        out.checked.emplace_back(i, std::move(res.prediction));
    }
  });
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offsets[i]));
    std::this_thread::sleep_until(due);
    out.times[i].scheduled = due;
    out.times[i].submitted = Clock::now();
    auto f = server.submit(req.samples[i % req.size()]);
    {
      const std::lock_guard lock(mu);
      queue.push_back(std::move(f));
    }
    cv.notify_one();
  }
  {
    const std::lock_guard lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  for (const RequestTimes& t : out.times) {
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t.resolved - t.scheduled)
            .count());
    out.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(t.submitted - t.scheduled)
            .count());
  }
  return out;
}

struct ClosedLoop {
  std::uint64_t completed = 0;
  std::uint64_t not_ok = 0;
  double seconds = 0;
  /// Completions by resolve time, one count per kWindows slice (timed runs).
  std::array<std::uint64_t, kWindows> per_slice{};
  /// Per client, each request's submit and resolve time (recorded runs).
  std::vector<std::vector<RequestTimes>> times;
};

/// Phase B. With `per_client` 0 the clients stop after `seconds` and only
/// count completions per slice, so nothing grows with the request count;
/// otherwise each sends `per_client` requests, and with `record` keeps
/// every request's times inside the loop, as a traced run does.
ClosedLoop closed_loop(serve::ModelServer& server,
                       const data::ScaledDataset& req, std::size_t clients,
                       double seconds, std::size_t per_client, bool record) {
  ClosedLoop out;
  out.times.resize(clients);
  std::vector<std::uint64_t> ok(clients, 0), bad(clients, 0);
  std::vector<std::array<std::uint64_t, kWindows>> slices(clients);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      std::deque<std::pair<std::future<serve::PredictResult>, std::size_t>>
          window;
      auto& times = out.times[c];
      auto& slice = slices[c];
      slice.fill(0);
      if (record) times.reserve(per_client);
      const auto settle = [&] {
        const serve::PredictResult res = window.front().first.get();
        const auto now = Clock::now();
        if (record) {
          times[window.front().second].resolved = now;
        } else if (per_client == 0) {
          const double at = std::chrono::duration<double>(now - start).count();
          if (at < seconds)
            ++slice[static_cast<std::size_t>(at / seconds * kWindows)];
        }
        (res.status == serve::RequestStatus::kOk ? ok[c] : bad[c])++;
        window.pop_front();
      };
      for (std::size_t i = 0;; ++i) {
        const bool more = per_client != 0 ? i < per_client
                                          : seconds_since(start) < seconds;
        if (!more) break;
        if (record) times.push_back({Clock::now(), Clock::now(), {}});
        window.emplace_back(
            server.submit(req.samples[(c * 7919 + i) % req.size()]), i);
        if (window.size() >= kWindow) settle();
      }
      while (!window.empty()) settle();
    });
  for (auto& t : threads) t.join();
  out.seconds = seconds_since(start);
  for (std::size_t c = 0; c < clients; ++c) {
    out.completed += ok[c];
    out.not_ok += bad[c];
    for (std::size_t w = 0; w < kWindows; ++w) out.per_slice[w] += slices[c][w];
  }
  return out;
}

/// Bitwise comparison of kept served predictions with direct predict;
/// returns the largest difference.
double check_predictions(Result& r, const core::QuGeoModel& model,
                         const data::ScaledDataset& req, const OpenLoop& a) {
  double diff = 0;
  bool equal = !a.checked.empty();
  for (const auto& [i, served] : a.checked) {
    const data::ScaledSample* one = &req.samples[i % req.size()];
    const std::vector<Real> direct = model.predict({&one, 1}).front();
    equal = equal && served == direct;
    if (served.size() != direct.size()) {
      diff = std::numeric_limits<double>::infinity();
      continue;
    }
    for (std::size_t k = 0; k < served.size(); ++k)
      diff = std::max(diff, std::abs(served[k] - direct[k]));
  }
  r.check(equal, "served predictions equal QuGeoModel::predict bitwise (max "
                 "difference " + std::to_string(diff) + ")");
  return diff;
}

void check_accounting(Result& r, serve::ModelServer& server) {
  server.shutdown();
  const serve::ServerStats s = server.stats();
  r.check(s.pending() == 0 &&
              s.submitted == s.completed + s.failed + s.rejected_overload +
                                 s.rejected_shutdown,
          "ServerStats accounting identity holds with zero pending");
}

/// Quantile `q` of an open-loop series, taken in each of kWindows
/// consecutive slices; returns quantile `across` of the slices' values, so
/// a stall of a shared machine moves some slices and not the result.
double windowed(const std::vector<double>& series, double q,
                double across = 0.5) {
  std::vector<double> per_slice;
  const std::size_t n = series.size();
  for (std::size_t w = 0; w < kWindows; ++w)
    per_slice.push_back(quantile(
        {series.begin() + static_cast<std::ptrdiff_t>(w * n / kWindows),
         series.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / kWindows)},
        q));
  return quantile(std::move(per_slice), across);
}

Result trace_serve(const Options& opt) {
  Result r;
  Setup s = make_setup(opt);
  r.input_fingerprint = digest(s.requests, derive(opt.seed, 8));
  const double phase_a = opt.seconds * kPhaseAShare;
  constexpr std::size_t kPerClient = 2000;

  // Overhead: the same fixed closed-loop work, first counting only, then
  // keeping every request's times inside the loop as the spans need them.
  const ClosedLoop plain =
      closed_loop(*s.server, s.requests, opt.nproc, 0, kPerClient, false);
  Trace trace;
  const ClosedLoop traced =
      closed_loop(*s.server, s.requests, opt.nproc, 0, kPerClient, true);
  std::int64_t request = 0;
  for (const auto& client : traced.times)
    for (const RequestTimes& t : client)
      trace.add("serve.closed_loop.request", t.submitted, t.resolved,
                request++);
  for (const ClosedLoop* b : {&plain, &traced}) {
    r.attempted += b->completed + b->not_ok;
    r.failed += b->not_ok;
  }
  check_accounting(r, *s.server);

  // Server-side statistics come from a fresh server under the open loop.
  serve::ModelServer server(*s.model, serve::ServeConfig{});
  OpenLoop a;
  {
    const ScopedSpan span(&trace, "serve.open_loop");
    a = open_loop(server, s.requests, phase_a, derive(opt.seed, 9));
    for (std::size_t i = 0; i < a.times.size(); ++i) {
      const auto id = static_cast<std::int64_t>(i);
      trace.add("serve.generator_lag", a.times[i].scheduled,
                a.times[i].submitted, id);
      trace.add("serve.open_loop.request", a.times[i].submitted,
                a.times[i].resolved, id);
    }
  }
  r.attempted += a.times.size();
  r.failed += a.not_ok;
  const double diff = check_predictions(r, *s.model, s.requests, a);
  check_accounting(r, server);
  const serve::ServerStats st = server.stats();
  const auto batches = static_cast<double>(std::max<std::uint64_t>(1, st.batches_dispatched));
  const double mean_batch = static_cast<double>(st.completed + st.failed) / batches;
  r.add("serve.batch_size_mean", mean_batch, "count");
  r.add("serve.flush_deadline_share",
        static_cast<double>(st.flush_deadline) / batches, "ratio");
  r.add("serve.max_queue_depth", static_cast<double>(st.max_queue_depth),
        "count");
  r.add("serve.server_latency_ms_p99", st.latency_quantile_us(0.99) / 1e3,
        "ms");
  r.add("serve.rejected",
        static_cast<double>(st.rejected_overload + st.rejected_shutdown),
        "count");
  r.add("serve.failed", static_cast<double>(st.failed), "count");
  r.add("serve.generator_lag_ms_p99", windowed(a.lag_ms, 0.99), "ms");
  r.add("serve.latency_ms_p99", windowed(a.latency_ms, 0.99), "ms");

  // serve.dispatch_us: the call one dispatch makes, at the mean batch size.
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(mean_batch)));
  std::vector<const data::ScaledSample*> batch;
  for (std::size_t i = 0; i < n; ++i) batch.push_back(&s.requests.samples[i]);
  const qsim::ExecutionConfig& exec = s.model->execution_config();
  r.add("serve.dispatch_us", median_call_us(200, [&] {
          (void)s.model->predict_with(batch, exec);
        }),
        "us");
  const data::ScaledSample* one = &s.requests.samples[0];
  r.add("core.predict_us",
        median_call_us(200, [&] { (void)s.model->predict({&one, 1}); }), "us");
  r.add("qsim.forward_us.b1",
        probe_qsim(0, s.requests, derive(opt.seed, 8)).forward_us, "us");
  const auto& cache = *s.model->compile_cache();
  const auto ratio = [](std::size_t hits, std::size_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  r.add("qsim.compile_hit_ratio",
        ratio(cache.hit_count(), cache.compile_count()), "ratio");
  r.add("qsim.plan_hit_ratio",
        ratio(cache.plan_hit_count(), cache.plan_compile_count()), "ratio");
  add_trace_summary(r, trace, opt, traced.seconds, plain.seconds, diff);
  return r;
}

}  // namespace

Result run_serve(const Options& opt) {
  if (opt.trace) return trace_serve(opt);
  Result r;
  // Lazy set-up a user pays once: the compiled-circuit cache fill.
  const auto warm = [](Setup& s) {
    const data::ScaledSample* one = &s.requests.samples[0];
    (void)s.model->predict({&one, 1});
  };
  std::vector<double> setup;
  {
    // A set-up takes a few milliseconds, so each falls in one host state,
    // and a CPU can hold a slow one for the whole loop: rotate the CPUs.
    CpuRotation cpus;
    for (std::size_t i = 0; i < kSetupReps; ++i) {
      cpus.next();
      const auto t0 = Clock::now();
      Setup rep = make_setup(opt);
      warm(rep);
      setup.push_back(seconds_since(t0));
    }
  }
  r.add("setup_s", op_time(setup), "s");
  // Built once more outside the rotation: the dispatcher thread inherits
  // the CPU mask of the thread that starts it.
  Setup s = make_setup(opt);
  warm(s);
  r.input_fingerprint = digest(s.requests, derive(opt.seed, 8));

  const OpenLoop a = open_loop(*s.server, s.requests,
                               opt.seconds * kPhaseAShare, derive(opt.seed, 9));
  const double b_seconds = opt.seconds * (1 - kPhaseAShare);
  const ClosedLoop b =
      closed_loop(*s.server, s.requests, opt.nproc, b_seconds, 0, false);
  r.attempted += a.times.size() + b.completed + b.not_ok;
  r.failed += a.not_ok + b.not_ok;
  (void)check_predictions(r, *s.model, s.requests, a);
  check_accounting(r, *s.server);

  std::vector<double> rps;
  for (std::uint64_t d : b.per_slice)
    rps.push_back(static_cast<double>(d) * kWindows / b_seconds);
  r.add("throughput_per_s", median(rps), "1/s");
  // The median latency reads the fast end of the slices, as the batch
  // workloads read the 10th percentile of their operation times: a shared
  // machine can hold a slow state for several seconds of the open loop.
  // (The slices' completion rates vary more from slice to slice, upwards
  // as well, so their median is steadier.)
  r.add("latency_ms", windowed(a.latency_ms, 0.5, 0.1), "ms");
  return r;
}

}  // namespace qugeo::perfbench
