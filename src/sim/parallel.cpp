#include "sim/parallel.hpp"

#include <cassert>

namespace dqemu::sim {
namespace {

/// Spin iterations before a worker parks on the condition variable. At
/// ~1-10ns per iteration this is tens of microseconds — longer than the
/// gap between windows while a run is in flight, so workers effectively
/// never sleep mid-run, but an idle pool (between runs, or a thread count
/// above the active queue count) parks quickly.
constexpr int kSpinBudget = 20'000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::uint32_t threads) {
  // Spinning only helps when every worker can own a core; on an
  // oversubscribed host (fewer cores than pool threads) a spinning worker
  // steals the timeslice from the thread doing the work, so park on the
  // condition variable immediately instead. Decided before any worker
  // starts: workers read spin_budget_ unsynchronized.
  const unsigned cores = std::thread::hardware_concurrency();
  const std::uint32_t spawned = threads > 0 ? threads - 1 : 0;
  spin_budget_ = cores > spawned ? kSpinBudget : 0;
  for (std::uint32_t i = 0; i < spawned; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_tasks(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  assert(n <= kIndexMask);
  fn_.store(&fn, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  // One release store publishes the whole batch: a new batch id and task
  // count with the claim index reset to zero. Every claim CAS compares the
  // whole word, so a straggler still inside work() from the previous batch
  // can never claim into this one with stale state.
  const std::uint64_t gen =
      (ticket_.load(std::memory_order_relaxed) >> kGenShift) + 1;
  ticket_.store((gen << kGenShift) | (std::uint64_t{n} << kIndexBits),
                std::memory_order_release);
  if (sleepers_.load(std::memory_order_acquire) > 0) {
    // The lock pairs with the sleeper's re-check under the same lock:
    // either it sees the new batch before parking or this notify reaches
    // it after.
    const std::lock_guard<std::mutex> lock(mutex_);
    cv_work_.notify_all();
  }
  work(gen);
  // Every claim bumps done_ after its task ran (release); acquiring the
  // final count here orders all task effects before the return. A worker
  // that already saw done_ == n cannot touch batch state again: its next
  // ticket load fails the batch-id check. Past the spin budget (or on an
  // oversubscribed host) yield the core to the worker we are waiting on.
  int spins = 0;
  while (done_.load(std::memory_order_acquire) < n) {
    if (++spins >= spin_budget_) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t gen = 0;
    int spins = 0;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return;
      gen = ticket_.load(std::memory_order_acquire) >> kGenShift;
      if (gen != seen) break;
      if (++spins >= spin_budget_) {
        std::unique_lock<std::mutex> lock(mutex_);
        sleepers_.fetch_add(1, std::memory_order_release);
        cv_work_.wait(lock, [&] {
          return stop_.load(std::memory_order_acquire) ||
                 (ticket_.load(std::memory_order_acquire) >> kGenShift) !=
                     seen;
        });
        sleepers_.fetch_sub(1, std::memory_order_release);
        spins = 0;
      } else {
        cpu_relax();
      }
    }
    seen = gen;
    work(gen);
  }
}

void ThreadPool::work(std::uint64_t gen) {
  for (;;) {
    std::uint64_t t = ticket_.load(std::memory_order_acquire);
    if ((t >> kGenShift) != gen) return;  // a newer batch superseded ours
    const std::size_t index = t & kIndexMask;
    if (index >= ((t >> kIndexBits) & kIndexMask)) return;  // all claimed
    if (!ticket_.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      cpu_relax();
      continue;
    }
    (*fn_.load(std::memory_order_acquire))(index);
    done_.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace dqemu::sim
