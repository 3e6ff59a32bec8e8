#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/cpu_features.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace qugeo {
namespace {

/// Set while the current thread is executing pool work; nested
/// parallel_for calls detect it and run inline.
thread_local bool tl_in_pool_worker = false;

/// How long an idle worker, or a submitter waiting for stragglers, polls
/// before it blocks on a condvar. Back-to-back fan-outs (the trainer's
/// gradient groups, predict chunks, served batches) then hand off through
/// an atomic instead of a futex sleep and wake.
constexpr std::chrono::microseconds kSpinBudget{500};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Poll `ready` until it holds or kSpinBudget has passed, pausing between
/// polls and yielding the core every 64 of them; returns whether it holds.
template <typename Ready>
bool spin_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (;;) {
    for (int k = 0; k < 64; ++k) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    std::this_thread::yield();
  }
}

/// One fan-out: the submitter's iteration body plus atomic work-stealing
/// cursors. Held by shared_ptr so a worker that wakes late (after the
/// submitting call returned) still dereferences live memory and simply
/// finds no iterations left to claim; only a claimed iteration calls
/// `body`, and the submitter waits for every claimed one.
struct Task {
  const std::function<void(std::size_t)>* body = nullptr;
  // The submitter's ScopedSimdMode override, installed on every thread
  // while it runs this task's iterations.
  std::optional<simd::SimdLevel> simd_override;
  std::size_t begin = 0;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  // First exception thrown by an iteration: the remaining ones are drained
  // without running, and the submitting thread rethrows after the fan-out
  // has fully quiesced (so no worker still references caller state).
  std::atomic<bool> failed{false};
  Mutex error_mutex;
  std::exception_ptr error QUGEO_GUARDED_BY(error_mutex);
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t size() QUGEO_EXCLUDES(config_mutex_) {
    MutexLock lk(config_mutex_);
    return target_threads_;
  }

  void resize(std::size_t n) QUGEO_EXCLUDES(config_mutex_) {
    MutexLock lk(config_mutex_);
    if (n == 0) n = env_default();
    if (n == target_threads_) return;
    stop_workers();
    target_threads_ = n;
    start_workers();
  }

  void run(std::size_t begin, std::size_t end,
           const std::function<void(std::size_t)>& body)
      QUGEO_EXCLUDES(config_mutex_, mutex_) {
    const std::size_t n = end - begin;
    std::size_t threads;
    {
      MutexLock lk(config_mutex_);
      threads = target_threads_;
    }
    // Inline when there is nothing to fan out to, when the range is a
    // single iteration, or when already inside a worker.
    if (tl_in_pool_worker || threads <= 1 || n <= 1) {
      for (std::size_t i = begin; i < end; ++i) body(i);
      return;
    }

    // Threads claim one iteration at a time: every caller's iteration (a
    // shot, a sample's scaling, a QuBatch chunk, a trajectory slot) costs
    // microseconds or more, so the claim is cheap next to it, and no
    // thread waits behind a partner iteration while another idles.
    auto task = std::make_shared<Task>();
    task->body = &body;
    task->simd_override = simd::thread_override();
    task->begin = begin;
    task->count = n;
    // Iteration `begin` is the submitter's: it is claimed here, before any
    // worker can see the task, so a caller can keep a long iteration (the
    // Q-D-CNN scaler training, data/cache.cpp) and its allocations on its
    // own thread.
    task->next.store(1, std::memory_order_relaxed);

    {
      MutexLock lk(mutex_);
      current_ = task;
      generation_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_all();

    work_on(*task, /*submitter=*/true);  // the submitter is pool member #0

    const auto all_done = [&] {
      return task->done.load(std::memory_order_acquire) == task->count;
    };
    if (!spin_until(all_done)) {
      MutexLock lk(mutex_);
      while (!all_done()) done_.wait(mutex_);
    }
    if (task->failed.load(std::memory_order_acquire)) {
      std::exception_ptr error;
      {
        MutexLock elk(task->error_mutex);
        error = task->error;
      }
      std::rethrow_exception(error);
    }
  }

 private:
  Pool() QUGEO_EXCLUDES(config_mutex_) {
    MutexLock lk(config_mutex_);
    target_threads_ = env_default();
    start_workers();
  }

  ~Pool() QUGEO_EXCLUDES(config_mutex_) {
    MutexLock lk(config_mutex_);
    stop_workers();
  }

  static std::size_t env_default() {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t fallback = hw == 0 ? 1 : hw;
    // Strict by design: QUGEO_THREADS=abc used to silently fall back to
    // hardware concurrency, hiding the typo. Malformed or out-of-range
    // values now throw, naming the variable (common/env.h).
    const std::size_t n = env::parse_env_positive("QUGEO_THREADS", fallback);
    if (n > 1024)
      throw std::invalid_argument(
          "QUGEO_THREADS: expected a thread count in [1, 1024], got " +
          std::to_string(n));
    return n;
  }

  /// Run claimed iterations until none is left; the submitter starts with
  /// the iteration it reserved in run().
  void work_on(Task& task, bool submitter = false) QUGEO_EXCLUDES(mutex_) {
    const bool was_worker = tl_in_pool_worker;
    tl_in_pool_worker = true;
    std::size_t finished = 0;
    const simd::ScopedSimdMode simd_mode(task.simd_override);
    for (bool reserved = submitter;; reserved = false) {
      const std::size_t i =
          reserved ? 0 : task.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= task.count) break;
      // After a failure, claimed iterations are drained (counted but not
      // run) so the submitting thread's completion wait stays bounded.
      if (!task.failed.load(std::memory_order_acquire)) {
        try {
          fault::site("pool.task");
          (*task.body)(task.begin + i);
        } catch (...) {
          MutexLock elk(task.error_mutex);
          if (!task.error) task.error = std::current_exception();
          task.failed.store(true, std::memory_order_release);
        }
      }
      ++finished;
    }
    tl_in_pool_worker = was_worker;
    if (finished == 0) return;
    const std::size_t done =
        task.done.fetch_add(finished, std::memory_order_acq_rel) + finished;
    if (done == task.count) {
      // Empty critical section orders the notify after the waiter's
      // predicate check.
      { MutexLock lk(mutex_); }
      done_.notify_all();
    }
  }

  void worker_loop() QUGEO_EXCLUDES(mutex_) {
    std::uint64_t seen = 0;
    for (;;) {
      // Poll for the next fan-out (or a stop) before blocking.
      spin_until([&] {
        return generation_.load(std::memory_order_acquire) != seen;
      });
      std::shared_ptr<Task> task;
      {
        MutexLock lk(mutex_);
        while (!stop_ && generation_.load(std::memory_order_relaxed) == seen)
          wake_.wait(mutex_);
        if (stop_) return;
        seen = generation_.load(std::memory_order_relaxed);
        task = current_;
      }
      if (task) work_on(*task);
    }
  }

  void start_workers() QUGEO_REQUIRES(config_mutex_) QUGEO_EXCLUDES(mutex_) {
    {
      // stop_ belongs to mutex_, not config_mutex_: a worker surviving
      // from a previous generation (there are none today, but the lock
      // discipline should not depend on that) must never observe the
      // reset without synchronization.
      MutexLock lk(mutex_);
      stop_ = false;
    }
    workers_.reserve(target_threads_ > 0 ? target_threads_ - 1 : 0);
    for (std::size_t i = 1; i < target_threads_; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void stop_workers() QUGEO_REQUIRES(config_mutex_) QUGEO_EXCLUDES(mutex_) {
    {
      MutexLock lk(mutex_);
      stop_ = true;
      current_.reset();
      // Ends the spin of idle workers, which then read stop_ under the lock.
      generation_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  Mutex config_mutex_;  ///< guards target_threads_ / worker lifecycle
  std::size_t target_threads_ QUGEO_GUARDED_BY(config_mutex_) = 1;
  std::vector<std::thread> workers_ QUGEO_GUARDED_BY(config_mutex_);

  Mutex mutex_;  ///< guards current_ / stop_ and every generation_ bump
  CondVar wake_;
  CondVar done_;
  std::shared_ptr<Task> current_ QUGEO_GUARDED_BY(mutex_);
  /// Bumped under mutex_ whenever current_ or stop_ changes, so the
  /// condvar wait sees every bump; spinning workers read it lock-free.
  std::atomic<std::uint64_t> generation_{0};
  bool stop_ QUGEO_GUARDED_BY(mutex_) = false;
};

}  // namespace

std::size_t num_threads() { return Pool::instance().size(); }

void set_num_threads(std::size_t n) { Pool::instance().resize(n); }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  Pool::instance().run(begin, end, body);
}

}  // namespace qugeo
