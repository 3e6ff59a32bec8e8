#include "common/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/fault.h"

namespace qugeo::simd {
namespace {

/// Thread-local dispatch override; -1 means "no override, use the global".
thread_local int tl_level_override = -1;

std::atomic<int>& global_level() {
  // First-use default: the QUGEO_SIMD environment mode when set (so forcing
  // scalar/avx2 covers every kernel call site — training, encoding, noise —
  // not just the backends), the auto resolution otherwise. Unparsable
  // values resolve as auto HERE; apply_env_overrides re-reads the variable
  // through simd_mode_from_env and throws the loud error on the execution
  // paths.
  static std::atomic<int> level{static_cast<int>(resolve_simd_level([] {
    const char* v = std::getenv("QUGEO_SIMD");
    if (v == nullptr) return SimdMode::kAuto;
    return parse_simd_mode(v).value_or(SimdMode::kAuto);
  }()))};
  return level;
}

}  // namespace

std::string_view simd_mode_name(SimdMode mode) noexcept {
  switch (mode) {
    case SimdMode::kAuto: return "auto";
    case SimdMode::kAvx2: return "avx2";
    case SimdMode::kScalar: return "scalar";
  }
  return "?";
}

std::optional<SimdMode> parse_simd_mode(std::string_view name) noexcept {
  if (name == "auto") return SimdMode::kAuto;
  if (name == "avx2") return SimdMode::kAvx2;
  if (name == "scalar") return SimdMode::kScalar;
  return std::nullopt;
}

std::string_view simd_level_name(SimdLevel level) noexcept {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

bool cpu_supports_avx2() noexcept {
#if defined(QUGEO_WITH_AVX2_KERNELS) && (defined(__GNUC__) || defined(__clang__))
  // The kernels use FMA contractions, so both feature bits must be present.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;  // no AVX2 TUs in this binary; dispatch must stay scalar
#endif
}

SimdLevel resolve_simd_level(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return SimdLevel::kScalar;
    case SimdMode::kAuto:
      return cpu_supports_avx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
    case SimdMode::kAvx2:
      if (cpu_supports_avx2()) return SimdLevel::kAvx2;
      fault::report_degradation(
          "simd",
          "QUGEO_SIMD=avx2 requested but this binary/CPU cannot run the AVX2 "
          "kernels; falling back to the scalar reference kernels");
      return SimdLevel::kScalar;
  }
  return SimdLevel::kScalar;
}

SimdLevel active_level() noexcept {
  const int tl = tl_level_override;
  if (tl >= 0) return static_cast<SimdLevel>(tl);
  return static_cast<SimdLevel>(
      global_level().load(std::memory_order_relaxed));
}

void set_global_simd_mode(SimdMode mode) {
  global_level().store(static_cast<int>(resolve_simd_level(mode)),
                       std::memory_order_relaxed);
}

SimdMode simd_mode_from_env(SimdMode base) {
  const char* v = std::getenv("QUGEO_SIMD");
  if (v == nullptr) return base;
  const auto parsed = parse_simd_mode(v);
  if (!parsed)
    throw std::invalid_argument(
        std::string("QUGEO_SIMD: expected auto/avx2/scalar, got '") + v + "'");
  return *parsed;
}

std::optional<SimdLevel> thread_override() noexcept {
  if (tl_level_override < 0) return std::nullopt;
  return static_cast<SimdLevel>(tl_level_override);
}

ScopedSimdMode::ScopedSimdMode(SimdMode mode) : saved_(tl_level_override) {
  tl_level_override = static_cast<int>(resolve_simd_level(mode));
}

ScopedSimdMode::ScopedSimdMode(std::optional<SimdLevel> level) noexcept
    : saved_(tl_level_override) {
  tl_level_override = level ? static_cast<int>(*level) : -1;
}

ScopedSimdMode::~ScopedSimdMode() { tl_level_override = saved_; }

}  // namespace qugeo::simd
