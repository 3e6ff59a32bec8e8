// Shared persistent thread pool used by every data-parallel hot loop
// (QuBatch chunk fan-out, trainer gradient accumulation, every shot of
// every sample in one forward-modelling fan-out, Q-D-FW re-modelling).
//
// Design rules:
//  - One global pool, sized once from the QUGEO_THREADS env var (default:
//    hardware concurrency). Workers persist across parallel_for calls, so
//    per-call dispatch cost is a mutex/condvar round trip, not thread spawn.
//  - Determinism by construction: iterations are only allowed to write
//    disjoint state, and a caller that reduces over them folds the
//    per-iteration slots in fixed index order on its own thread (the
//    trainer's gradient fold does). Results are bit-identical for any
//    thread count (see test_common_parallel.cpp).
//  - Threads claim one iteration at a time; every caller's iteration is
//    coarse (a shot, a sample, a QuBatch chunk, a trajectory slot).
//  - The submitting thread runs iteration `begin` itself; workers claim
//    from begin + 1 on. A fan-out can so keep one long iteration, and the
//    memory it allocates, on the caller's thread (the corpus build trains
//    the Q-D-CNN scaler there while the workers model shots).
//  - Nested parallel_for calls run inline on the calling worker (no
//    deadlock, no oversubscription), in index order, as at 1 thread.
//  - A submitter's simd::ScopedSimdMode override (common/cpu_features.h)
//    holds on every thread while it runs an iteration of that fan-out.
#pragma once

#include <cstddef>
#include <functional>

namespace qugeo {

/// Current worker count of the global pool (>= 1; 1 means "run inline").
/// Resolved from QUGEO_THREADS on first use.
[[nodiscard]] std::size_t num_threads();

/// Reconfigure the global pool to exactly `n` threads (n == 0 restores the
/// QUGEO_THREADS / hardware default). Must not race with an in-flight
/// parallel_for; intended for tests and program startup.
void set_num_threads(std::size_t n);

/// Run body(i) for every i in [begin, end), fanned out across the pool.
/// Blocks until every iteration has finished. Iterations must write
/// disjoint state; under that contract the result is independent of the
/// thread count and schedule.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

}  // namespace qugeo
