// QuGeo end-to-end benchmark driver.
//
//   qugeo_perfbench --workload corpus|train_vqc|train_cnn|serve --seed N
//                   --seconds S --trace 0|1 [--work-dir DIR]
//   qugeo_perfbench --fill-corpus --seed N [--work-dir DIR]
//
// Prints a metadata JSON line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one. Exits 1
// when an output check fails and 2 on an error (printing no result).
// perfbench/run.py builds this program and is the benchmark's command.
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "qsim/backend.h"

extern char** environ;

namespace qugeo::perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Unset every inherited QUGEO_* variable so no environment leg leaks into
/// a measurement; returns their names.
std::vector<std::string> clear_qugeo_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("QUGEO_", 0) == 0)
      names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

std::size_t count_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

std::string cpu_flags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  unsigned int a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d)) {
    if (c & bit_SSE4_2) flags += "sse4_2 ";
    if (c & bit_AVX) flags += "avx ";
    if (c & bit_FMA) flags += "fma ";
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    if (b & bit_AVX2) flags += "avx2 ";
    if (b & bit_AVX512F) flags += "avx512f ";
  }
#endif
  if (!flags.empty()) flags.pop_back();
  return flags;
}

std::string metadata_json(const Options& opt, const Result& r,
                          const std::vector<std::string>& cleared,
                          const std::string& git_sha,
                          const std::string& source_digest) {
  const qsim::ExecutionConfig exec =
      qsim::apply_env_overrides(qsim::ExecutionConfig{});
  std::ostringstream os;
  os << "{\"metadata\": {\"workload\": " << json_string(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"seconds\": " << json_number(opt.seconds)
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"git_sha\": " << json_string(git_sha)
     << ", \"source_digest\": " << json_string(source_digest)
     << ", \"compiler\": " << json_string(QUGEO_PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(QUGEO_PERFBENCH_BUILD_TYPE)
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"cpu_flags\": " << json_string(cpu_flags())
     << ", \"simd_level\": "
     << json_string(std::string(simd::simd_level_name(simd::active_level())))
     << ", \"num_threads\": " << num_threads() << ", \"nproc\": " << opt.nproc
     << ", \"execution_config\": {\"backend\": "
     << json_string(std::string(qsim::backend_name(exec.backend)))
     << ", \"shots\": " << exec.shots
     << ", \"trajectories\": " << exec.trajectories
     << ", \"fusion\": " << (exec.fusion ? "true" : "false")
     << ", \"grad_fusion\": " << (exec.grad_fusion ? "true" : "false")
     << ", \"simd\": " << json_string(std::string(simd::simd_mode_name(exec.simd)))
     << ", \"batch\": " << exec.batch << "}, \"cleared_env\": [";
  for (std::size_t i = 0; i < cleared.size(); ++i)
    os << (i ? ", " : "") << json_string(cleared[i]);
  os << "], \"input_fingerprint\": \"" << std::hex << r.input_fingerprint
     << std::dec << "\", \"quality\": {";
  for (auto it = r.quality.begin(); it != r.quality.end(); ++it)
    os << (it == r.quality.begin() ? "" : ", ") << json_string(it->first)
       << ": " << json_number(it->second);
  os << "}, \"op_ms\": [";
  for (std::size_t i = 0; i < r.op_ms.size(); ++i)
    os << (i ? ", " : "") << json_number(r.op_ms[i]);
  os << "], \"check_failures\": [";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i)
    os << (i ? ", " : "") << json_string(r.check_failures[i]);
  os << "]}}";
  return os.str();
}

/// The metrics every run of the mode adds on top of the workload's own;
/// run.py checks the names and units against BENCHMARK.json and fills the
/// per-layer metrics of layers the workload does not run with 0.
void add_common_metrics(Result& r, bool trace) {
  if (!trace) {
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  for (const auto& [name, value] : r.quality) r.add(name, value, "1");
  r.add("error_rate",
        r.attempted == 0 ? 0
                         : static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted),
        "ratio");
}

std::string result_json(const Result& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(1, r.attempted)
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(value.first) << ", \"unit\": " << json_string(value.second)
       << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int run(int argc, char** argv) {
  const std::vector<std::string> cleared = clear_qugeo_env();
  Options opt;
  bool fill = false;
  std::string git_sha = "unknown", source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--seed") opt.seed = std::stoull(value());
    else if (arg == "--seconds") opt.seconds = std::stod(value());
    else if (arg == "--trace") opt.trace = value() != "0";
    else if (arg == "--work-dir") opt.work_dir = value();
    else if (arg == "--git-sha") git_sha = value();
    else if (arg == "--source-digest") source_digest = value();
    else if (arg == "--fill-corpus") fill = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");

  set_log_level(LogLevel::kWarn);
  opt.nproc = count_cpus();
  set_num_threads(opt.nproc);
  if (fill) {
    fill_corpus(opt);
    return 0;
  }

  Result r;
  if (opt.workload == "corpus") r = run_corpus(opt);
  else if (opt.workload == "train_vqc") r = run_train_vqc(opt);
  else if (opt.workload == "train_cnn") r = run_train_cnn(opt);
  else if (opt.workload == "serve") r = run_serve(opt);
  else throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  add_common_metrics(r, opt.trace);

  for (const std::string& f : r.check_failures)
    std::cerr << "CHECK FAILED: " << f << "\n";
  std::cout << metadata_json(opt, r, cleared, git_sha, source_digest) << "\n"
            << result_json(r) << std::endl;
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace qugeo::perfbench

int main(int argc, char** argv) {
  try {
    return qugeo::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "qugeo_perfbench: " << e.what() << "\n";
    return 2;
  }
}
