#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/fault.h"
#include "metrics/image_metrics.h"

namespace qugeo::perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  check_failures.push_back(what);
}

std::size_t Trace::open(std::string name, std::int64_t id) {
  Span s;
  s.name = std::move(name);
  s.start_ns = to_ns(Clock::now());
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.id = id;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Trace::close(std::size_t index) {
  spans_[index].end_ns = to_ns(Clock::now());
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Trace::add(std::string name, Clock::time_point start,
                Clock::time_point end, std::int64_t id) {
  Span s;
  s.name = std::move(name);
  s.start_ns = to_ns(start);
  s.end_ns = to_ns(end);
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.id = id;
  spans_.push_back(std::move(s));
}

std::size_t Trace::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return s.name == name; }));
}

double Trace::total_s(const std::string& name) const {
  double ns = 0;
  for (const Span& s : spans_)
    if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
  return ns * 1e-9;
}

double Trace::mean_us(const std::string& name) const {
  const std::size_t n = count(name);
  return n == 0 ? 0 : total_s(name) * 1e6 / static_cast<double>(n);
}

std::vector<std::int64_t> Trace::self_ns() const {
  // Children may overlap (spans added from pool threads), so the covered
  // part of a parent is the union of its children's intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi - cur_lo;
    self[i] = spans_[i].end_ns - spans_[i].start_ns - covered;
  }
  return self;
}

void Trace::write_json(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  const std::vector<std::int64_t> self = self_ns();
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i] << ", \"parent\": " << s.parent
        << ", \"id\": " << s.id << "}"
        << (i + 1 == spans_.size() ? "\n" : ",\n");
  }
  out << "]\n";
}

double max_abs_diff(const data::ScaledDataset& a, const data::ScaledDataset& b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (a.size() != b.size() || a.waveform_size() != b.waveform_size() ||
      a.velocity_size() != b.velocity_size())
    return kInf;
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.samples[i];
    const auto& sb = b.samples[i];
    if (sa.waveform.size() != sb.waveform.size() ||
        sa.velocity.size() != sb.velocity.size())
      return kInf;
    for (std::size_t k = 0; k < sa.waveform.size(); ++k)
      d = std::max(d, std::abs(sa.waveform[k] - sb.waveform[k]));
    for (std::size_t k = 0; k < sa.velocity.size(); ++k)
      d = std::max(d, std::abs(sa.velocity[k] - sb.velocity[k]));
  }
  return d;
}

namespace {

std::uint64_t mix(const void* p, std::size_t n, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::uint64_t digest(std::span<const Real> values, std::uint64_t h) {
  return mix(values.data(), values.size_bytes(), h);
}

std::uint64_t digest(const data::ScaledDataset& ds, std::uint64_t h) {
  const std::uint64_t shape[] = {ds.size(), ds.nsrc, ds.nt, ds.nrec,
                                 ds.vel_rows, ds.vel_cols};
  h = mix(shape, sizeof(shape), h);
  for (const data::ScaledSample& s : ds.samples)
    h = digest(s.velocity, digest(s.waveform, h));
  return h;
}

WaveFidelity wave_fidelity(const data::ScaledDataset& reference,
                           const data::ScaledDataset& test) {
  const auto unit_gain = [](std::vector<Real> w) {
    Real peak = 0;
    for (Real v : w) peak = std::max(peak, std::abs(v));
    if (peak > 0)
      for (Real& v : w) v /= peak;
    return w;
  };
  WaveFidelity f;
  const std::size_t n = std::min(reference.size(), test.size());
  if (n == 0) return f;
  const std::size_t rows = reference.nsrc * reference.nt;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Real> a = unit_gain(reference.samples[i].waveform);
    const std::vector<Real> b = unit_gain(test.samples[i].waveform);
    f.ssim += metrics::ssim(a, b, rows, reference.nrec, metrics::SsimOptions{});
    f.mse += metrics::mse(a, b);
  }
  f.ssim /= static_cast<double>(n);
  f.mse /= static_cast<double>(n);
  return f;
}

void add_trace_summary(Result& result, const Trace& trace, const Options& opt,
                       double traced_wall_s, double untraced_wall_s,
                       double replay_max_abs_diff) {
  result.add("trace.overhead_ratio", traced_wall_s / untraced_wall_s, "ratio");
  result.add("trace.replay_max_abs_diff", replay_max_abs_diff, "1");
  result.add("common.degradation_events",
             static_cast<double>(fault::degradation_events().size()), "count");
  trace.write_json(opt.work_dir / "traces" /
                   (opt.workload + "-s" + std::to_string(opt.seed) + ".json"));
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

}  // namespace qugeo::perfbench
