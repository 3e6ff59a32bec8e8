// Shared plumbing of the end-to-end benchmark driver: options, timing,
// statistics, result assembly, the in-memory span recorder used by traced
// runs, and the workloads' entry points.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "data/cache.h"
#include "data/dataset.h"

namespace qugeo::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir = ".bench_build/perfbench/work";
  std::size_t nproc = 1;
};

/// Independent sub-seed `stream` of the workload seed (splitmix64).
[[nodiscard]] inline std::uint64_t derive(std::uint64_t seed,
                                          std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Median (and interpolated quantiles) of a sample; 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The statistic reported over a run's repeated timings (the batch
/// workloads' operations, every workload's set-ups): their 10th
/// percentile. On a shared virtual machine a vCPU can run up to ~1.7x
/// slower for a while, and on a serial workload most operations can fall
/// in the slow state; the 10th percentile reads the program's own speed
/// whenever the fast state holds for a tenth of the timings, where the
/// median (or a quartile) flips with the mix of the two.
[[nodiscard]] inline double op_time(std::vector<double> times) {
  return quantile(std::move(times), 0.1);
}

/// Pins the calling thread to each CPU it may run on in turn, and restores
/// its affinity when destroyed. Serial work measured without it measures
/// whichever vCPU the scheduler picked, and on a shared virtual machine one
/// vCPU can run ~1.7x slower than another for a whole run; rotating the
/// repetitions over the vCPUs samples all of them. Threads started while
/// pinned inherit the single CPU, so nothing measured afterwards may be
/// started inside a rotation.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Everything one run reports. `check` records an output check; a failed
/// check counts as a failed operation and makes the run incorrect.
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Digest of the inputs the seed generated (the seed self-check compares
  /// it across seeds).
  std::uint64_t input_fingerprint = 0;
  /// Output quality (final SSIM/MSE, Q-D-CNN waveform SSIM/MSE). It varies
  /// with the seed far more than any worsening bound allows, so it is a
  /// per-layer metric of traced runs and a metadata field of plain ones.
  std::map<std::string, double> quality;
  /// Wall time of each operation the medians were taken over (batch
  /// workloads), for the metadata line.
  std::vector<double> op_ms;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return check_failures.empty(); }
};

/// In-memory span recorder. Spans opened through ScopedSpan nest on the
/// calling thread; work measured on pool threads is added afterwards with
/// explicit timestamps. Self time is a span's duration minus the time its
/// direct children cover.
class Trace {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::int64_t id = -1;  ///< request, epoch or chunk id; -1 when none
  };

  Trace() : origin_(Clock::now()) {}

  std::size_t open(std::string name, std::int64_t id);
  void close(std::size_t index);
  /// Record a finished span measured elsewhere, as a child of the
  /// innermost open span.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           std::int64_t id);

  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Summed duration of every span with this name, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Mean duration of the spans with this name, in microseconds.
  [[nodiscard]] double mean_us(const std::string& name) const;
  /// Write every span, with its self time, as JSON (one object per line
  /// inside an array).
  void write_json(const std::filesystem::path& path) const;

 private:
  /// Each span's self time: its duration minus the union of its children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null trace makes it a no-op, so the same code path serves
/// traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, std::int64_t id = -1)
      : trace_(trace),
        index_(trace ? trace->open(std::move(name), id) : 0) {}
  ~ScopedSpan() {
    if (trace_) trace_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  std::size_t index_;
};

/// Median wall time in microseconds of `reps` calls of `fn` (after one
/// warm-up call).
template <typename Fn>
[[nodiscard]] double median_call_us(std::size_t reps, Fn&& fn) {
  fn();
  std::vector<double> us(reps);
  for (double& u : us) {
    const auto t0 = Clock::now();
    fn();
    u = seconds_since(t0) * 1e6;
  }
  return median(std::move(us));
}

/// Largest absolute element-wise difference between two datasets (infinity
/// when their shapes differ).
[[nodiscard]] double max_abs_diff(const data::ScaledDataset& a,
                                  const data::ScaledDataset& b);

/// FNV-1a digests of values, and of a dataset's shape and values, chained
/// through `h`.
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;
[[nodiscard]] std::uint64_t digest(std::span<const Real> values,
                                   std::uint64_t h = kDigestSeed);
[[nodiscard]] std::uint64_t digest(const data::ScaledDataset& ds,
                                   std::uint64_t h = kDigestSeed);

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Mean waveform SSIM and MSE of `test` against `reference`, each scaled to
/// unit peak amplitude first (Fig. 6a compares shapes, not gains).
struct WaveFidelity {
  double ssim = 0;
  double mse = 0;
};
[[nodiscard]] WaveFidelity wave_fidelity(const data::ScaledDataset& reference,
                                         const data::ScaledDataset& test);

// ---------------------------------------------------------------- corpus --

/// The corpus the training workloads use, built from `seed`.
[[nodiscard]] data::ExperimentDataConfig corpus_config(
    std::uint64_t seed, const std::filesystem::path& cache_dir);

/// Build the verified training corpus for `opt.seed` into the work
/// directory unless a verified copy is already there (a cache fill).
void fill_corpus(const Options& opt);

/// Load the filled corpus and check it against its stored digest; throws
/// when the digest is missing or differs. A trace gets a span around the
/// load.
[[nodiscard]] data::ExperimentData load_verified_corpus(const Options& opt,
                                                        Trace* trace = nullptr);

// ------------------------------------------------------------- workloads --

[[nodiscard]] Result run_corpus(const Options& opt);
[[nodiscard]] Result run_train_vqc(const Options& opt);
[[nodiscard]] Result run_train_cnn(const Options& opt);
[[nodiscard]] Result run_serve(const Options& opt);

/// Per-layer metrics every traced run reports: the tracing overhead, the
/// largest difference between replayed and monolith outputs, the failure
/// ratio and the degradation events the program recorded.
void add_trace_summary(Result& result, const Trace& trace,
                       const Options& opt, double traced_wall_s,
                       double untraced_wall_s, double replay_max_abs_diff);

}  // namespace qugeo::perfbench
