// Host thread pool for the conservative parallel scheduler (DESIGN.md §16).
//
// The pool executes one task per per-node event queue inside a lookahead
// window; the caller (the thread driving Cluster::run) participates, so a
// pool built for N host threads spawns N-1 workers. Windows are a few
// microseconds of host work each and there are thousands of them per
// simulated second, so the barrier is the product: workers spin on an
// atomic batch generation (bounded, then fall back to a condition-variable
// sleep so an idle pool costs nothing), tasks are claimed with a single
// fetch_add, and completion is a release increment the caller acquires —
// the same happens-before edges a mutex would give, at ~100ns per window
// instead of ~10us of futex round-trips.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dqemu::sim {

class ThreadPool {
 public:
  /// `threads` counts the caller: ThreadPool(1) spawns nothing and
  /// run_tasks degenerates to a serial loop on the calling thread.
  explicit ThreadPool(std::uint32_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0) .. fn(n-1), each exactly once, distributed over the pool
  /// plus the calling thread; n is at most kIndexMask. Returns once all n
  /// calls completed; the return establishes happens-before from every
  /// task to the caller.
  void run_tasks(std::size_t n, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::uint32_t threads() const {
    return static_cast<std::uint32_t>(workers_.size()) + 1;
  }

 private:
  /// ticket_ layout: one word carries the batch id (high 32 bits), the
  /// batch's task count and the next unclaimed task index (16 bits each).
  /// Publishing a batch is a single release store, and a claim is a CAS
  /// of index+1 that validates the batch id and reads the count from the
  /// same word, so a straggler from an older batch can never pair its
  /// stale index with a newer batch's count.
  static constexpr std::uint64_t kIndexBits = 16;
  static constexpr std::uint64_t kIndexMask = (1ull << kIndexBits) - 1;
  static constexpr std::uint64_t kGenShift = 2 * kIndexBits;

  void worker_loop();
  /// Claims and runs tasks of batch `gen` until none remain or a newer
  /// batch supersedes it.
  void work(std::uint64_t gen);

  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<std::size_t> done_{0};  ///< tasks completed
  std::atomic<const std::function<void(std::size_t)>*> fn_{nullptr};
  std::atomic<bool> stop_{false};
  /// Spin iterations before parking/yielding; 0 on hosts with fewer cores
  /// than pool threads (set once in the constructor).
  int spin_budget_ = 0;

  // Sleep fallback: a worker that spun through its budget without seeing a
  // new batch parks on the condition variable; run_tasks only pays the
  // notify when `sleepers_` says someone is actually parked.
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::atomic<std::uint32_t> sleepers_{0};

  std::vector<std::thread> workers_;
};

}  // namespace dqemu::sim
