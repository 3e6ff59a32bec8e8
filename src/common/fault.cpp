#include "common/fault.h"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace qugeo::fault {
namespace {

/// A live arming: the spec plus its hit counter and provenance. Scope
/// arms carry the id their FaultScope holds; the env arm has id 0.
struct ArmedFault {
  FaultSpec spec;
  std::size_t hits = 0;
  std::size_t id = 0;
  bool from_env = false;
};

struct Registry {
  Mutex mutex;
  std::vector<ArmedFault> armed QUGEO_GUARDED_BY(mutex);
  std::size_t next_id QUGEO_GUARDED_BY(mutex) = 1;
  bool env_loaded QUGEO_GUARDED_BY(mutex) = false;
  /// Fast-path gate: true iff `armed` is non-empty OR the env has not
  /// been consulted yet (the first site() hit pays the env parse).
  std::atomic<bool> check_needed{true};

  static Registry& instance() {
    static Registry r;
    return r;
  }

  void refresh_gate() QUGEO_REQUIRES(mutex) {
    check_needed.store(!armed.empty() || !env_loaded,
                       std::memory_order_release);
  }

  void load_env_locked() QUGEO_REQUIRES(mutex) {
    if (env_loaded) return;
    env_loaded = true;
    if (const char* spec = std::getenv("QUGEO_FAULT")) {
      ArmedFault f;
      f.spec = parse_fault_spec(spec);
      f.from_env = true;
      armed.push_back(std::move(f));
    }
    refresh_gate();
  }
};

[[noreturn]] void fire(const FaultSpec& spec, std::size_t hit) {
  const std::string msg = "injected fault at " + spec.site + " (hit " +
                          std::to_string(hit) + ")";
  if (spec.kind == FaultKind::kFatal) throw FatalError(msg);
  throw TransientError(msg);
}

}  // namespace

FaultSpec parse_fault_spec(std::string_view spec) {
  const auto fail = [&](const char* why) {
    throw std::invalid_argument(
        "QUGEO_FAULT: expected <site>:<nth>[:<count>], got '" +
        std::string(spec) + "' (" + why + ")");
  };
  FaultSpec out;
  const std::size_t first = spec.find(':');
  if (first == std::string_view::npos || first == 0) fail("missing ':<nth>'");
  out.site = std::string(spec.substr(0, first));
  std::string_view rest = spec.substr(first + 1);
  std::string_view nth = rest;
  std::string_view count;
  const std::size_t second = rest.find(':');
  if (second != std::string_view::npos) {
    nth = rest.substr(0, second);
    count = rest.substr(second + 1);
  }
  const auto parse_count = [&](std::string_view s, const char* what) {
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    std::size_t v = 0;
    if (s.empty()) fail(what);
    for (const char c : s) {
      if (c < '0' || c > '9') fail(what);
      const auto digit = static_cast<std::size_t>(c - '0');
      if (v > (kMax - digit) / 10) fail("value overflows std::size_t");
      v = v * 10 + digit;
    }
    return v;
  };
  out.nth = parse_count(nth, "nth must be a positive integer");
  if (out.nth == 0) fail("nth is 1-based; 0 never fires");
  if (second != std::string_view::npos)
    out.count = count == "*"
                    ? 0
                    : parse_count(count, "count must be an integer or '*'");
  return out;
}

void site(const char* name) {
  Registry& reg = Registry::instance();
  if (!reg.check_needed.load(std::memory_order_acquire)) return;
  MutexLock lk(reg.mutex);
  reg.load_env_locked();
  for (ArmedFault& f : reg.armed) {
    if (f.spec.site != name) continue;
    const std::size_t hit = ++f.hits;
    const bool in_window =
        hit >= f.spec.nth &&
        (f.spec.count == 0 || hit < f.spec.nth + f.spec.count);
    if (in_window) fire(f.spec, hit);
  }
}

bool any_fault_armed() noexcept {
  Registry& reg = Registry::instance();
  if (!reg.check_needed.load(std::memory_order_acquire)) return false;
  MutexLock lk(reg.mutex);
  reg.load_env_locked();
  return !reg.armed.empty();
}

void reload_from_env() {
  Registry& reg = Registry::instance();
  MutexLock lk(reg.mutex);
  std::erase_if(reg.armed, [](const ArmedFault& f) { return f.from_env; });
  reg.env_loaded = false;
  reg.load_env_locked();
}

FaultScope::FaultScope(FaultSpec spec) {
  Registry& reg = Registry::instance();
  MutexLock lk(reg.mutex);
  ArmedFault f;
  f.spec = std::move(spec);
  f.id = reg.next_id++;
  id_ = f.id;
  reg.armed.push_back(std::move(f));
  reg.refresh_gate();
}

FaultScope::FaultScope(std::string site_name, std::size_t nth,
                       std::size_t count, FaultKind kind)
    : FaultScope(FaultSpec{std::move(site_name), nth, count, kind}) {}

FaultScope::~FaultScope() {
  Registry& reg = Registry::instance();
  MutexLock lk(reg.mutex);
  std::erase_if(reg.armed, [&](const ArmedFault& f) { return f.id == id_; });
  reg.refresh_gate();
}

std::size_t FaultScope::hits() const {
  Registry& reg = Registry::instance();
  MutexLock lk(reg.mutex);
  for (const ArmedFault& f : reg.armed)
    if (f.id == id_) return f.hits;
  return 0;
}

// ------------------------------------------------------------------ retry --

std::vector<std::chrono::milliseconds> backoff_delays(
    const RetryPolicy& policy) {
  std::vector<std::chrono::milliseconds> delays;
  if (policy.max_attempts <= 1) return delays;
  delays.reserve(policy.max_attempts - 1);
  double ms = static_cast<double>(policy.initial_delay.count());
  const double cap = static_cast<double>(policy.max_delay.count());
  for (std::size_t k = 0; k + 1 < policy.max_attempts; ++k) {
    const double clamped = ms < cap ? ms : cap;
    delays.emplace_back(static_cast<std::chrono::milliseconds::rep>(clamped));
    ms *= policy.multiplier;
  }
  return delays;
}

namespace detail {

void wait_before_retry(const RetryPolicy& policy, std::size_t attempt,
                       std::chrono::milliseconds delay) {
  if (policy.on_retry) {
    policy.on_retry(attempt, delay);
    return;
  }
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
}

}  // namespace detail

// ----------------------------------------------------------- degradation --

namespace {

struct DegradationLog {
  Mutex mutex;
  std::vector<DegradationEvent> events QUGEO_GUARDED_BY(mutex);

  static DegradationLog& instance() {
    static DegradationLog log;
    return log;
  }
};

/// Bound on retained events: enough for any realistic run; the oldest
/// entries are dropped first so recent degradations stay visible.
constexpr std::size_t kMaxDegradationEvents = 256;

}  // namespace

void report_degradation(std::string component, std::string detail) {
  log_warn("degradation: ", component, ": ", detail);
  DegradationLog& log = DegradationLog::instance();
  MutexLock lk(log.mutex);
  if (log.events.size() >= kMaxDegradationEvents)
    log.events.erase(log.events.begin());
  log.events.push_back({std::move(component), std::move(detail)});
}

std::vector<DegradationEvent> degradation_events() {
  DegradationLog& log = DegradationLog::instance();
  MutexLock lk(log.mutex);
  return log.events;
}

void clear_degradation_events() {
  DegradationLog& log = DegradationLog::instance();
  MutexLock lk(log.mutex);
  log.events.clear();
}

}  // namespace qugeo::fault
