// Parallel conservative-window scheduler (DESIGN.md §16).
//
// Three layers under test:
//   1. sim::ThreadPool — the spin-then-park batch barrier: exactly-once
//      task execution, straggler safety across thousands of batches, and
//      the happens-before edge run_tasks() promises its caller.
//   2. sim::EventQueue edge semantics the window scheduler leans on:
//      same-time tie-break order, run_window end-exclusivity vs run_until
//      deadline-inclusivity, in-the-past clamping at a window boundary,
//      cancellation of cross-window events, and the (when, poster, order)
//      total order of the post/drain_posted mailbox.
//   3. Cluster determinism — host_threads N ∈ {2, 4} must be byte-identical
//      to the serial kernel in every virtual-time observable: RunResult,
//      all stats counters, histograms, and the exported trace (counter
//      records excluded: parallel snapshots land on barrier horizons, so
//      their timestamps — never their values — may differ).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "testutil.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads/micro.hpp"
#include "workloads/serve.hpp"

namespace dqemu {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SingleThreadDegeneratesToSerialLoop) {
  sim::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> hits(8, 0);
  pool.run_tasks(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  sim::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run_tasks(kTasks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  sim::ThreadPool pool(2);
  bool ran = false;
  pool.run_tasks(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ManySmallBatchesStaySound) {
  // The window loop issues thousands of tiny batches back to back; a
  // straggler from batch k must never claim into batch k+1. The per-batch
  // sum catches both lost and double-claimed tasks.
  sim::ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int batch = 0; batch < 5000; ++batch) {
    const std::size_t n = 1 + static_cast<std::size_t>(batch % 5);
    pool.run_tasks(n, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    expected += n * (n + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, GrowingBatchesOnAnOversubscribedPoolStaySound) {
  // A straggler still inside work() for batch k can hold that batch's
  // exhausted ticket while run_tasks publishes batch k+1. Were it able to
  // check that index against batch k+1's larger size, its stale claim
  // would run a k+1 task twice. Growing sizes create that opening, and
  // more pool threads than host cores get the straggler preempted inside
  // it. Every task must run exactly once per batch, and run_tasks must not
  // return before all of them have. One std::function outlives every
  // batch, so a late task still lands in `hits` as a wrong count.
  sim::ThreadPool pool(16);
  constexpr std::size_t kMaxTasks = 16;
  std::array<std::atomic<std::uint32_t>, kMaxTasks> hits{};
  const std::function<void(std::size_t)> task = [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  };
  int bad_batches = 0;
  for (std::size_t batch = 0; batch < 100'000; ++batch) {
    const std::size_t n = 1 + batch % kMaxTasks;
    pool.run_tasks(n, task);
    for (std::size_t i = 0; i < kMaxTasks; ++i) {
      const std::uint32_t want = i < n ? 1u : 0u;
      if (hits[i].exchange(0, std::memory_order_relaxed) != want) {
        ++bad_batches;
        break;
      }
    }
  }
  EXPECT_EQ(bad_batches, 0);
}

TEST(ThreadPool, ReturnEstablishesHappensBefore) {
  // Plain (non-atomic) writes in tasks must be visible to the caller after
  // run_tasks returns; under TSan this is the test that proves the barrier
  // publishes task effects.
  sim::ThreadPool pool(4);
  std::vector<std::uint64_t> values(32, 0);
  pool.run_tasks(values.size(), [&](std::size_t i) { values[i] = i * i; });
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i * i);
}

// ------------------------------------------------- EventQueue edge semantics

TEST(EventQueueWindow, SameTimeFiresInSchedulingOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule_at(100, [&] { order.push_back(1); });
  q.schedule_at(100, [&] { order.push_back(2); });
  q.schedule_at(50, [&] { order.push_back(0); });
  q.schedule_at(100, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueWindow, RunWindowEndIsExclusive) {
  // An event at exactly `end` belongs to the next window — the scheduler's
  // window [H, H+L) must not leak it — and the clock stays at the last
  // fired event instead of jumping to `end`.
  sim::EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { fired++; });
  q.schedule_at(20, [&] { fired++; });
  EXPECT_EQ(q.run_window(20), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 10u);
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), 20u);
  EXPECT_EQ(q.run_window(21), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueWindow, RunUntilDeadlineIsInclusive) {
  // run_until is the contrast: an event at exactly the deadline fires, and
  // an empty remainder still advances the clock to the deadline.
  sim::EventQueue q;
  int fired = 0;
  q.schedule_at(30, [&] { fired++; });
  q.schedule_at(31, [&] { fired++; });
  EXPECT_EQ(q.run_until(30), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 30u);
  EXPECT_EQ(q.run_until(100), 1u);
  EXPECT_EQ(q.now(), 100u);  // clock advances past the last event
}

TEST(EventQueueWindow, ScheduleInThePastClampsAtWindowBoundary) {
  // A callback firing at t=100 that schedules for t=50 gets clamped to
  // now (100) and still fires inside the same window, after everything
  // already queued for 100 — identical to the single-queue kernel, because
  // run_window leaves the clock at the last fired event.
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule_at(100, [&] {
    order.push_back(1);
    q.schedule_at(50, [&] { order.push_back(3); });  // clamped to 100
  });
  q.schedule_at(100, [&] { order.push_back(2); });
  EXPECT_EQ(q.run_window(101), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueWindow, CancelCrossWindowEventBeforeItFires) {
  // An event scheduled beyond the current window can be cancelled by a
  // handler running inside the window (a retransmission timer that an ACK
  // kills is exactly this shape).
  sim::EventQueue q;
  int fired = 0;
  const sim::EventId timer = q.schedule_at(500, [&] { fired = -1; });
  q.schedule_at(10, [&] { fired++; });
  EXPECT_EQ(q.run_window(100), 1u);
  EXPECT_TRUE(q.cancel(timer));
  EXPECT_FALSE(q.cancel(timer));  // second cancel reports already-gone
  EXPECT_EQ(q.run(), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueWindow, DrainPostedOrdersByWhenPosterOrder) {
  // Posts arrive in arbitrary host order; drain_posted must fold them into
  // the queue in (when, poster, order) order, assigning fresh local seqs —
  // a total order no matter how host threads interleaved the posts.
  sim::EventQueue q;
  std::vector<int> order;
  q.post(200, /*poster=*/2, /*order=*/0, [&] { order.push_back(4); });
  q.post(100, /*poster=*/1, /*order=*/1, [&] { order.push_back(2); });
  q.post(100, /*poster=*/2, /*order=*/0, [&] { order.push_back(3); });
  q.post(100, /*poster=*/1, /*order=*/0, [&] { order.push_back(1); });
  EXPECT_EQ(q.drain_posted(), 4u);
  EXPECT_EQ(q.drain_posted(), 0u);  // mailbox is empty after a drain
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueWindow, PostedEventsInvisibleUntilDrained) {
  sim::EventQueue q;
  int fired = 0;
  q.post(10, 1, 0, [&] { fired++; });
  EXPECT_FALSE(q.next_time().has_value());
  EXPECT_EQ(q.run_window(1000), 0u);
  EXPECT_EQ(fired, 0);
  q.drain_posted();
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), 10u);
  EXPECT_EQ(q.run_window(1000), 1u);
  EXPECT_EQ(fired, 1);
}

// --------------------------------------------- Cluster-level determinism

isa::Program must(Result<isa::Program> r) {
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? r.take() : isa::Program{};
}

struct Observation {
  core::Cluster::RunResult result;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::string trace_json;  ///< counter records excluded (see header comment)
  std::string hist_dump;
};

Observation observe(const isa::Program& program, ClusterConfig config,
                    std::uint32_t host_threads) {
  config.sim.host_threads = host_threads;
  trace::TraceConfig trace_config;
  trace_config.categories =
      trace::kDefaultCategories & ~trace::cat_bit(trace::Cat::kCounter);
  trace::Tracer tracer(trace_config);

  core::Cluster cluster(config, &tracer);
  Observation obs;
  const Status load_status = cluster.load(program);
  EXPECT_TRUE(load_status.is_ok()) << load_status.to_string();
  auto run = cluster.run();
  EXPECT_TRUE(run.is_ok()) << run.status().to_string();
  if (run.is_ok()) obs.result = run.take();

  obs.counters = cluster.stats().counters();
  for (const auto& [name, hist] : cluster.stats().histograms()) {
    obs.hist_dump += name + " " + hist.to_string() + "\n";
  }
  std::ostringstream out;
  trace::write_chrome_json(tracer, out);
  obs.trace_json = out.str();
  return obs;
}

void expect_identical(const Observation& serial, const Observation& parallel,
                      std::uint32_t host_threads) {
  SCOPED_TRACE("host_threads=" + std::to_string(host_threads));
  EXPECT_EQ(serial.result.exit_code, parallel.result.exit_code);
  EXPECT_EQ(serial.result.sim_time, parallel.result.sim_time);
  EXPECT_EQ(serial.result.guest_insns, parallel.result.guest_insns);
  EXPECT_EQ(serial.result.guest_stdout, parallel.result.guest_stdout);

  ASSERT_EQ(serial.result.per_thread.size(), parallel.result.per_thread.size());
  for (const auto& [tid, b] : serial.result.per_thread) {
    const auto it = parallel.result.per_thread.find(tid);
    ASSERT_NE(it, parallel.result.per_thread.end()) << "tid " << tid;
    EXPECT_EQ(b.execute, it->second.execute) << "tid " << tid;
    EXPECT_EQ(b.translate, it->second.translate) << "tid " << tid;
    EXPECT_EQ(b.pagefault, it->second.pagefault) << "tid " << tid;
    EXPECT_EQ(b.syscall, it->second.syscall) << "tid " << tid;
    EXPECT_EQ(b.idle, it->second.idle) << "tid " << tid;
  }

  EXPECT_EQ(serial.counters, parallel.counters);
  if (serial.counters != parallel.counters) {
    for (const auto& [key, value] : serial.counters) {
      const auto it = parallel.counters.find(key);
      if (it == parallel.counters.end()) {
        ADD_FAILURE() << key << " missing in the parallel run";
      } else if (it->second != value) {
        ADD_FAILURE() << key << ": serial=" << value
                      << " parallel=" << it->second;
      }
    }
  }
  EXPECT_EQ(serial.trace_json, parallel.trace_json);
  EXPECT_EQ(serial.hist_dump, parallel.hist_dump);
}

void expect_thread_count_invisible(const isa::Program& program,
                                   const ClusterConfig& config) {
  const Observation serial = observe(program, config, 1);
  for (const std::uint32_t threads : {2u, 4u}) {
    expect_identical(serial, observe(program, config, threads), threads);
  }
}

TEST(ParallelSimDeterminism, MutexStressGlobalLock) {
  // Contended futexes + counter-page migration: the master plane and every
  // slave exchange messages constantly, the worst case for window ordering.
  const auto program = must(workloads::mutex_stress(8, 50, /*global=*/true));
  expect_thread_count_invisible(program, test::test_config(4));
}

TEST(ParallelSimDeterminism, MemwalkMultiWorker) {
  // One page-disjoint walker per slave: every queue busy every window —
  // maximum genuine concurrency between the per-node queues.
  const auto program =
      must(workloads::memwalk(512 * 1024, 2, /*touch_first=*/true,
                              /*workers=*/4));
  expect_thread_count_invisible(program, test::test_config(4));
}

TEST(ParallelSimDeterminism, FalseSharing) {
  const auto program = must(workloads::false_sharing_walk(8, 128, 4, 4));
  expect_thread_count_invisible(program, test::test_config(4));
}

TEST(ParallelSimDeterminism, MutexStressUnderFaults) {
  // The lossy wire adds retransmission timers and duplicate deliveries —
  // all modeled delays, so the lookahead bound and the byte-identity
  // guarantee must hold unchanged.
  const auto program = must(workloads::mutex_stress(8, 50, /*global=*/true));
  ClusterConfig config = test::test_config(2);
  config.faults.enabled = true;
  config.faults.drop_pct = 2.0;
  config.faults.dup_pct = 1.0;
  config.faults.jitter_pct = 5.0;
  expect_thread_count_invisible(program, config);
}

TEST(ParallelSimDeterminism, ServingPlane) {
  workloads::ServePoolParams pool;
  pool.workers = 8;
  const auto program = must(workloads::serve_pool(pool));
  ClusterConfig config = test::test_config(2);
  config.serve.enabled = true;
  config.serve.requests = 300;
  config.serve.rate = 4000.0;
  config.serve.workers = pool.workers;
  // hist_dump covers the latency histogram: every quantile byte-identical.
  expect_thread_count_invisible(program, config);
}

TEST(ParallelSim, SingleNodeFallsBackToSerialKernel) {
  // host_threads > 1 with nothing to parallelize (single node) must run on
  // the serial kernel and still produce identical results.
  const auto program = must(workloads::pi_taylor(2, 1, 50));
  ClusterConfig config = test::baseline_config();
  expect_identical(observe(program, config, 1), observe(program, config, 4),
                   4);
}

TEST(ParallelSim, ValidateRejectsZeroLookahead) {
  ClusterConfig config = test::test_config(2);
  config.sim.host_threads = 2;
  config.net.endpoint_overhead = 0;
  config.net.one_way_latency = 0;
  config.net.bandwidth_gbps = 0.0;  // wire_time(0) == 0
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(ParallelSim, ValidateRejectsZeroHostThreads) {
  ClusterConfig config = test::test_config(2);
  config.sim.host_threads = 0;
  EXPECT_FALSE(config.validate().is_ok());
}

}  // namespace
}  // namespace dqemu
