// Custom Google-Benchmark main for the bench_micro_* suites: runs the
// registered benchmarks with the normal console output, then merges every
// measured run into BENCH_micro.json (override the path with
// QUGEO_BENCH_JSON) via bench_common.h's JsonReport — the machine-readable
// perf trajectory compared across PRs.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"

namespace qugeo::bench {

/// Google Benchmark renamed Run::error_occurred to Run::skipped in v1.8;
/// probe the member so both API generations compile.
template <typename R>
[[nodiscard]] bool run_was_skipped(const R& run) {
  if constexpr (requires { run.skipped; })
    return run.skipped != decltype(run.skipped){};
  else
    return run.error_occurred;
}

class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run_was_skipped(run) || run.run_type != Run::RT_Iteration) continue;
      const auto it = run.counters.find("items_per_second");
      report_.add(run.benchmark_name(), to_ms(run.GetAdjustedRealTime(), run.time_unit),
                  to_ms(run.GetAdjustedCPUTime(), run.time_unit),
                  static_cast<std::int64_t>(run.iterations),
                  it == run.counters.end() ? 0.0 : static_cast<double>(it->second));
    }
  }

  [[nodiscard]] const JsonReport& report() const { return report_; }

 private:
  static double to_ms(double t, benchmark::TimeUnit unit) {
    switch (unit) {
      case benchmark::kNanosecond: return t * 1e-6;
      case benchmark::kMicrosecond: return t * 1e-3;
      case benchmark::kMillisecond: return t;
      case benchmark::kSecond: return t * 1e3;
    }
    return t;
  }

  JsonReport report_;
};

/// Best of five wall times, in ms, of `iters` back-to-back calls of `body`:
/// the timing loop of the CI perf gates the micro suites run after their
/// benchmarks.
template <typename Body>
double best_of_ms(int iters, const Body& body) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = clock::now();
    for (int it = 0; it < iters; ++it) body();
    const std::chrono::duration<double, std::milli> dt = clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

inline int run_micro_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!reporter.report().empty()) {
    const char* path = std::getenv("QUGEO_BENCH_JSON");
    reporter.report().write_merged(path != nullptr ? path : "BENCH_micro.json");
  }
  return 0;
}

}  // namespace qugeo::bench

/// Drop-in replacement for BENCHMARK_MAIN() that also writes BENCH_micro.json.
#define QUGEO_BENCH_MICRO_MAIN()                                    \
  int main(int argc, char** argv) {                                 \
    return qugeo::bench::run_micro_benchmarks(argc, argv);          \
  }
