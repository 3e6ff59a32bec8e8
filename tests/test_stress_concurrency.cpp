// Purpose-built contention stress for the ThreadSanitizer CI leg: hammers
// the shared thread pool and the logger from many raw std::threads at
// once. The assertions are deliberately about invariants that survive any
// interleaving (coverage counts, result equality against a single-threaded
// reference) — the real payload is that TSan observes the lock discipline
// under genuine concurrency, including the patterns a single parallel_for
// never produces: concurrent external submitters and log-level flips
// mid-write.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"

namespace qugeo {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 200;

TEST(StressConcurrency, ConcurrentExternalSubmittersGetCorrectResults) {
  // parallel_for from several non-pool threads at once: submissions
  // overwrite each other's slot in the pool, so every submitter must
  // still see its own full iteration space (drained by itself if the
  // workers moved on).
  set_num_threads(4);
  constexpr std::size_t kRange = 4096;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<std::uint64_t> sums(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<std::atomic<std::uint32_t>> hits(kRange);
        parallel_for(0, kRange, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        std::uint64_t sum = 0;
        for (auto& h : hits) sum += h.load(std::memory_order_relaxed);
        ASSERT_EQ(sum, kRange) << "submitter " << t << " rep " << rep;
        sums[static_cast<std::size_t>(t)] += sum;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::uint64_t s : sums) EXPECT_EQ(s, 50u * kRange);
  set_num_threads(0);
}

TEST(StressConcurrency, NestedSubmissionInsidePoolWorkRunsInline) {
  set_num_threads(4);
  std::vector<std::atomic<std::uint32_t>> hits(64 * 64);
  parallel_for(0, 64, [&](std::size_t row) {
    parallel_for(0, 64, [&](std::size_t col) {
      hits[row * 64 + col].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1u);
  set_num_threads(0);
}

TEST(StressConcurrency, LoggerSurvivesConcurrentWritesAndLevelFlips) {
  const LogLevel before = log_level();
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    int flips = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      set_log_level(++flips % 2 ? LogLevel::kError : LogLevel::kWarn);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Below every active threshold: exercises the level load + early
        // return. A handful of kWarn lines take the stderr lock for real
        // without flooding the test log.
        log_debug("stress debug ", t, " ", i);
        if (i % 100 == 0) log_warn("stress warn ", t, " ", i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  set_log_level(before);
}

}  // namespace
}  // namespace qugeo
