// Shared persistent thread pool used by every data-parallel hot loop
// (QuBatch chunk fan-out, trainer gradient accumulation, every shot of
// every sample in one forward-modelling fan-out, Q-D-FW re-modelling).
//
// Design rules:
//  - One global pool, sized once from the QUGEO_THREADS env var (default:
//    hardware concurrency). Workers persist across parallel_for calls.
//  - Spin-then-block handoff: a worker that runs out of claims, and a
//    submitter waiting for stragglers, poll an atomic counter (the fan-out
//    generation, the task's done count) for 500 us of wall time, pausing
//    and yielding while they poll, before they block on a condvar. A
//    fan-out that follows the last within that budget (the trainer's next
//    gradient group, the next predict or served batch) so costs an atomic
//    handoff, not a futex sleep and wake. On a 4-vCPU Xeon VM, one
//    4-iteration fan-out at 4 threads, back to back with 20 us of serial
//    work between, costs 2.7-3.2 us over its work (median of 2,000, 4 x
//    20 us or 4 x 127 us of work) against 14-18 us for the condvar
//    handoff alone.
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
