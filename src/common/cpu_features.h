// Runtime CPU-feature detection and the process-wide SIMD dispatch mode.
//
// The statevector, FDTD and nn GEMM hot kernels exist in two variants: the
// portable scalar code (the reference semantics every test pins) and AVX2
// intrinsic versions compiled into dedicated -mavx2 translation units
// (qsim/kernels_avx2.cpp, seismic/fdtd_avx2.cpp, nn/gemm_avx2.cpp). Which
// variant runs is a pure runtime decision made per kernel call through
// active_level():
//
//   QUGEO_SIMD                           (mode: auto | avx2 | scalar)
//          |
//          v
//   resolve_simd_level(mode)  -- auto picks AVX2 iff the CPU supports it
//          |                     AND the AVX2 TUs were compiled in;
//          v                     forcing avx2 without support degrades
//   thread-local override  >  process-global default  ->  SimdLevel
//
// The scalar level reproduces the pre-SIMD forward-kernel results
// bit-exactly (the scalar kernel bodies are untouched); the AVX2 level
// matches scalar to <= 1e-12 per amplitude (FMA contraction is the only
// difference), pinned by test_qsim_kernels. The nn GEMM tiles use no FMA
// and match their scalar loops bitwise (test_nn_gemm_conformance).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace qugeo::simd {

/// What the user asked for (config/env). kAuto defers to the CPU probe.
enum class SimdMode : std::uint8_t { kAuto, kAvx2, kScalar };

/// What the kernels actually run. Only levels whose translation units were
/// compiled in (QUGEO_AVX2_KERNELS) and whose instructions the CPU executes
/// are ever active.
enum class SimdLevel : std::uint8_t { kScalar, kAvx2 };

/// "auto" | "avx2" | "scalar".
[[nodiscard]] std::string_view simd_mode_name(SimdMode mode) noexcept;

/// Inverse of simd_mode_name; nullopt on unknown names.
[[nodiscard]] std::optional<SimdMode> parse_simd_mode(
    std::string_view name) noexcept;

/// "scalar" | "avx2".
[[nodiscard]] std::string_view simd_level_name(SimdLevel level) noexcept;

/// True iff this binary carries the AVX2 kernel TUs AND the running CPU
/// reports AVX2+FMA. Always false when QUGEO_AVX2_KERNELS was off at build
/// time (non-x86 targets, MSVC) — the two facts must agree or dispatch
/// would jump into illegal instructions.
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// Resolve a requested mode to the level the kernels will run: kAuto picks
/// AVX2 iff cpu_supports_avx2(); forcing kAvx2 without support reports a
/// graceful degradation (common/fault.h) once and falls back to scalar.
[[nodiscard]] SimdLevel resolve_simd_level(SimdMode mode);

/// The dispatch level kernels consult on every call: the calling thread's
/// ScopedSimdMode override if one is installed, the process-global default
/// otherwise. One relaxed atomic load — negligible next to any kernel.
[[nodiscard]] SimdLevel active_level() noexcept;

/// Set the process-global default level (resolving `mode` as above). The
/// QUGEO_SIMD environment override and tests use this; code that must
/// force a level while other threads run installs a thread-local
/// ScopedSimdMode instead, so it cannot race on the global.
void set_global_simd_mode(SimdMode mode);

/// Apply the QUGEO_SIMD environment variable ("auto" | "avx2" | "scalar")
/// on top of `base`; unset leaves `base` untouched, an unknown value
/// throws std::invalid_argument.
[[nodiscard]] SimdMode simd_mode_from_env(SimdMode base);

/// The calling thread's ScopedSimdMode override, if one is installed.
[[nodiscard]] std::optional<SimdLevel> thread_override() noexcept;

/// RAII thread-local dispatch override: every kernel call on this thread
/// between construction and destruction uses resolve_simd_level(mode).
/// Nests (the previous override is restored). Tests and benches use it to
/// force a level without touching the process global. The thread pool
/// (common/parallel.h) installs the submitter's thread_override() on every
/// thread that runs a chunk of the fan-out, so the override covers the
/// work the submitter hands to the pool.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode);
  /// Install an already-resolved override (nullopt: none), as the pool
  /// does on its workers.
  explicit ScopedSimdMode(std::optional<SimdLevel> level) noexcept;
  ~ScopedSimdMode();
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  int saved_;  ///< previous thread-local override (-1 = none)
};

}  // namespace qugeo::simd
