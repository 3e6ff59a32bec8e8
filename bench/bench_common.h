// Shared plumbing for the per-figure/per-table experiment harnesses.
//
// Every harness loads the same cached corpus (built on first use) and the
// training budget from the environment, so `QUGEO_SAMPLES=500 QUGEO_TRAIN=400
// QUGEO_EPOCHS=500 ./bench_fig8_decoders` reproduces the paper-scale run
// (README.md, Benchmarks) while the default stays minutes-fast.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "data/cache.h"

namespace qugeo::bench {

// ---------------------------------------------------------------------------
// Machine-readable perf trajectory: BENCH_micro.json
// ---------------------------------------------------------------------------
// Collects one line-oriented JSON entry per benchmark and merges them into a
// results file keyed by benchmark name, so successive suites (qsim, fdtd,
// pipeline) and successive PRs can update the same BENCH_micro.json and
// speedups stay diffable. Schema (one entry per line, sorted by name):
//
//   {
//     "schema": "qugeo-bench-micro-v1",
//     "benchmarks": [
//       {"name": "...", "wall_ms": <per-iteration real time>,
//        "cpu_ms": <per-iteration cpu time>, "iterations": N,
//        "items_per_second": <throughput: gate-ops/s for qsim suites,
//                             cell-updates/s for fdtd>},
//       ...
//     ]
//   }
class JsonReport {
 public:
  void add(const std::string& name, double wall_ms, double cpu_ms,
           std::int64_t iterations, double items_per_second) {
    std::ostringstream line;
    line.precision(9);
    line << "{\"name\": \"" << name << "\", \"wall_ms\": " << wall_ms
         << ", \"cpu_ms\": " << cpu_ms << ", \"iterations\": " << iterations
         << ", \"items_per_second\": " << items_per_second << "}";
    entries_[name] = line.str();
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Merge into `path`: entries already present keep their line unless this
  /// run re-measured the same benchmark name. Only files produced by this
  /// writer are understood (one entry per line).
  void write_merged(const std::string& path) const {
    std::map<std::string, std::string> merged = read_existing(path);
    for (const auto& [name, line] : entries_) merged[name] = line;
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n  \"schema\": \"qugeo-bench-micro-v1\",\n  \"benchmarks\": [\n";
    std::size_t i = 0;
    for (const auto& [name, line] : merged)
      out << "    " << line << (++i == merged.size() ? "\n" : ",\n");
    out << "  ]\n}\n";
  }

 private:
  static std::map<std::string, std::string> read_existing(const std::string& path) {
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const auto start = line.find("{\"name\": \"");
      if (start == std::string::npos) continue;
      const auto name_begin = start + 10;
      const auto name_end = line.find('"', name_begin);
      if (name_end == std::string::npos) continue;
      std::string entry = line.substr(start);
      if (!entry.empty() && entry.back() == ',') entry.pop_back();
      out[line.substr(name_begin, name_end - name_begin)] = std::move(entry);
    }
    return out;
  }

  std::map<std::string, std::string> entries_;
};

struct Setup {
  data::ExperimentData data;
  core::TrainConfig train;
};

inline Setup standard_setup() {
  Setup s{data::load_or_build_experiment_data(data::experiment_config_from_env()),
          {}};
  s.train.epochs = data::epochs_from_env(120);
  s.train.initial_lr = 0.1;
  return s;
}

inline void print_header(const char* title, const char* paper_numbers) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paper_numbers);
  std::printf("================================================================\n");
}

inline void print_run_scale(const Setup& s) {
  const std::size_t total = s.data.dsample.size();
  std::printf("[scale] samples=%zu (train=%zu test=%zu) epochs=%zu "
              "(paper: 500 samples, 400/100, 500 epochs)\n",
              total, s.data.train_count, total - s.data.train_count,
              s.train.epochs);
}

}  // namespace qugeo::bench
