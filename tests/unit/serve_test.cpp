// Serving plane (DESIGN.md §14): load-generator unit tests against a fake
// worker pool on a bare event queue, then end-to-end cluster runs driving
// the real guest worker pool through the delegated-syscall machinery.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "serve/load_generator.hpp"
#include "sim/event_queue.hpp"
#include "testutil.hpp"
#include "workloads/serve.hpp"

namespace dqemu {
namespace {

// ---------------------------------------------------------------------------
// LoadGenerator against a fake pool: workers are (node, tid) pairs that ask
// for work immediately, service each descriptor after a fixed virtual
// delay, reply with the contract checksum and ask again.
// ---------------------------------------------------------------------------

struct FakePool {
  sim::EventQueue& queue;
  serve::LoadGenerator* gen = nullptr;
  DurationPs service_ps = 50 * time_literals::kUs;
  bool wrong_checksum = false;
  std::uint32_t completions = 0;
  std::uint32_t eofs = 0;

  // The responder. Descriptors are strictly positive (work >= 1); 0 is the
  // kServeDone ack; negative is EOF.
  void on_response(NodeId node, GuestTid tid, std::int64_t result,
                   std::uint64_t /*flow*/) {
    if (result == serve::LoadGenerator::kNoMoreWork) {
      ++eofs;
      return;
    }
    if (result <= 0) return;  // done-ack
    const auto desc = static_cast<std::uint32_t>(result);
    const std::uint32_t work = desc & serve::LoadGenerator::kWorkMask;
    queue.schedule_in(service_ps, [this, node, tid, work] {
      ++completions;
      const std::uint32_t sum =
          wrong_checksum ? 0xDEADBEEF
                         : serve::LoadGenerator::expected_checksum(work);
      gen->on_done(node, tid, sum, 0);
      gen->on_get_request(node, tid, 0);
    });
  }
};

struct Harness {
  sim::EventQueue queue;
  StatsRegistry stats;
  FakePool pool{queue};
  serve::LoadGenerator gen;

  explicit Harness(const ServeConfig& config)
      : gen(queue, config, stats, nullptr,
            [this](NodeId node, GuestTid tid, std::int64_t result,
                   std::uint64_t flow) {
              pool.on_response(node, tid, result, flow);
            }) {
    pool.gen = &gen;
  }

  void run(std::uint32_t workers) {
    gen.start();
    for (std::uint32_t w = 0; w < workers; ++w) {
      gen.on_get_request(/*src=*/static_cast<NodeId>(1 + w % 3),
                         /*tid=*/static_cast<GuestTid>(100 + w), 0);
    }
    while (queue.run_one()) {
    }
  }
};

ServeConfig open_loop_config(std::uint64_t seed = 7) {
  ServeConfig config;
  config.enabled = true;
  config.seed = seed;
  config.requests = 200;
  config.rate = 10000.0;
  return config;
}

TEST(LoadGenerator, SameSeedReproducesScheduleAndLatencies) {
  Harness a(open_loop_config());
  Harness b(open_loop_config());
  a.run(4);
  b.run(4);
  EXPECT_EQ(a.gen.issued(), 200u);
  EXPECT_EQ(a.gen.retired(), 200u);
  EXPECT_EQ(a.gen.arrival_times(), b.gen.arrival_times());
  EXPECT_EQ(a.gen.latencies(), b.gen.latencies());
  EXPECT_EQ(a.stats.to_string(), b.stats.to_string());
}

TEST(LoadGenerator, DifferentSeedsChangeThePoissonSchedule) {
  Harness a(open_loop_config(7));
  Harness b(open_loop_config(8));
  a.run(4);
  b.run(4);
  EXPECT_EQ(a.gen.issued(), b.gen.issued());
  EXPECT_EQ(a.gen.retired(), b.gen.retired());
  EXPECT_NE(a.gen.arrival_times(), b.gen.arrival_times());
}

TEST(LoadGenerator, UniformArrivalsAreEquallySpaced) {
  ServeConfig config = open_loop_config();
  config.arrival = ArrivalProcess::kUniform;
  config.rate = 1000.0;  // gap = exactly 1 ms
  Harness h(config);
  h.run(4);
  const auto& arrivals = h.gen.arrival_times();
  ASSERT_EQ(arrivals.size(), 200u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], time_literals::kMs)
        << "gap " << i;
  }
}

TEST(LoadGenerator, PoissonArrivalRateIsRoughlyTheConfiguredRate) {
  ServeConfig config = open_loop_config();
  config.requests = 2000;
  config.rate = 10000.0;
  Harness h(config);
  h.run(8);
  // 2000 draws at 10k req/s: the span estimator is within ±15% with
  // overwhelming probability (and this seed is fixed anyway).
  const double span_s =
      ps_to_seconds(h.gen.arrival_times().back() - h.gen.arrival_times()[0]);
  const double measured = 1999.0 / span_s;
  EXPECT_GT(measured, 8500.0);
  EXPECT_LT(measured, 11500.0);
}

TEST(LoadGenerator, CloningRunsEveryCloneButRetiresOnce) {
  ServeConfig config = open_loop_config();
  config.requests = 100;
  config.clones = 2;
  Harness h(config);
  h.run(8);
  EXPECT_EQ(h.gen.issued(), 100u);
  EXPECT_EQ(h.gen.retired(), 100u);
  EXPECT_EQ(h.gen.dispatched(), 200u);
  EXPECT_EQ(h.pool.completions, 200u);
  EXPECT_EQ(h.stats.get("serve.clone_wins"), 100u);
  EXPECT_EQ(h.stats.get("serve.clone_wasted"), 100u);
  EXPECT_EQ(h.stats.get("serve.checksum_errors"), 0u);
}

TEST(LoadGenerator, ClosedLoopIssuesExactlyTheConfiguredRequests) {
  ServeConfig config;
  config.enabled = true;
  config.arrival = ArrivalProcess::kClosed;
  config.requests = 150;
  config.clients = 5;
  config.think_mean = time_literals::kMs;
  Harness h(config);
  h.run(6);
  EXPECT_EQ(h.gen.issued(), 150u);
  EXPECT_EQ(h.gen.retired(), 150u);
  EXPECT_EQ(h.stats.get("serve.checksum_errors"), 0u);
}

TEST(LoadGenerator, EveryWorkerGetsExactlyOneEofAtDrain) {
  ServeConfig config = open_loop_config();
  config.requests = 50;
  Harness h(config);
  h.run(12);  // far more workers than concurrent offered load: most park
  EXPECT_EQ(h.gen.retired(), 50u);
  EXPECT_EQ(h.pool.eofs, 12u);
  EXPECT_EQ(h.stats.get("serve.stop_signals"), 12u);
  EXPECT_GT(h.stats.get("serve.parks"), 0u);
}

TEST(LoadGenerator, ChecksumMismatchesAreCounted) {
  ServeConfig config = open_loop_config();
  config.requests = 30;
  Harness h(config);
  h.pool.wrong_checksum = true;
  h.run(4);
  EXPECT_EQ(h.gen.retired(), 30u);
  EXPECT_EQ(h.stats.get("serve.checksum_errors"), 30u);
}

TEST(LoadGenerator, LatencyHistogramMatchesRetiredCount) {
  Harness h(open_loop_config());
  h.run(4);
  const LogHistogram* lat = h.stats.find_histogram("serve.latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 200u);
  // Latency >= the fake pool's fixed service time, minus nothing: queueing
  // only adds. (service_ps is 50 us = 50000 ns.)
  EXPECT_GE(lat->min(), 50000u);
  EXPECT_LE(lat->quantile(0.5), lat->quantile(0.999));
  const LogHistogram* queue_ns = h.stats.find_histogram("serve.queue_ns");
  ASSERT_NE(queue_ns, nullptr);
  EXPECT_EQ(queue_ns->count(), 200u);
}

// ---------------------------------------------------------------------------
// End-to-end: the real guest worker pool on a simulated cluster.
// ---------------------------------------------------------------------------

isa::Program must(Result<isa::Program> r) {
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? r.take() : isa::Program{};
}

ClusterConfig serving_config(std::uint32_t nodes, std::uint32_t requests,
                             std::uint32_t workers) {
  ClusterConfig config = test::test_config(nodes);
  config.serve.enabled = true;
  config.serve.requests = requests;
  config.serve.rate = 8000.0;
  config.serve.workers = workers;
  return config;
}

struct ClusterOutcome {
  core::Cluster::RunResult result;
  std::uint64_t retired = 0;
  std::uint64_t executions = 0;
  std::uint64_t checksum_errors = 0;
  std::uint64_t latency_count = 0;
  std::string error;
  bool ok = false;
};

ClusterOutcome run_serving(const ClusterConfig& config,
                           const isa::Program& program) {
  core::Cluster cluster(config, nullptr);
  ClusterOutcome outcome;
  const Status load_status = cluster.load(program);
  if (!load_status.is_ok()) {
    outcome.error = load_status.to_string();
    return outcome;
  }
  auto run = cluster.run();
  if (!run.is_ok()) {
    outcome.error = run.status().to_string();
    return outcome;
  }
  outcome.result = run.take();
  outcome.retired = cluster.stats().get("serve.retired");
  outcome.executions = cluster.stats().get("serve.executions");
  outcome.checksum_errors = cluster.stats().get("serve.checksum_errors");
  if (const LogHistogram* lat =
          cluster.stats().find_histogram("serve.latency_ns")) {
    outcome.latency_count = lat->count();
  }
  outcome.ok = true;
  return outcome;
}

TEST(ServeCluster, EndToEndRetiresEverythingAndChecksums) {
  const auto program = must(workloads::serve_pool({.workers = 8}));
  const auto outcome = run_serving(serving_config(2, 300, 8), program);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.exit_code, 0u);
  // The guest's only output: total executions = requests x clones.
  EXPECT_EQ(outcome.result.guest_stdout, "300\n");
  EXPECT_EQ(outcome.retired, 300u);
  EXPECT_EQ(outcome.executions, 300u);
  EXPECT_EQ(outcome.checksum_errors, 0u);
  EXPECT_EQ(outcome.latency_count, 300u);
}

TEST(ServeCluster, CloningDoublesExecutionsNotRetirements) {
  const auto program = must(workloads::serve_pool({.workers = 8}));
  ClusterConfig config = serving_config(2, 150, 8);
  config.serve.clones = 2;
  const auto outcome = run_serving(config, program);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.guest_stdout, "300\n");  // 150 x 2 executions
  EXPECT_EQ(outcome.retired, 150u);
  EXPECT_EQ(outcome.executions, 300u);
  EXPECT_EQ(outcome.checksum_errors, 0u);
}

TEST(ServeCluster, ClosedLoopOnFourNodes) {
  const auto program = must(workloads::serve_pool({.workers = 12}));
  ClusterConfig config = serving_config(4, 240, 12);
  config.serve.arrival = ArrivalProcess::kClosed;
  config.serve.clients = 6;
  config.serve.think_mean = time_literals::kMs;
  const auto outcome = run_serving(config, program);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.guest_stdout, "240\n");
  EXPECT_EQ(outcome.retired, 240u);
  EXPECT_EQ(outcome.checksum_errors, 0u);
}

TEST(ServeCluster, SurvivesTheLossyWire) {
  const auto program = must(workloads::serve_pool({.workers = 8}));
  ClusterConfig config = serving_config(2, 200, 8);
  config.faults.enabled = true;
  config.faults.seed = 7;
  config.faults.drop_pct = 2;
  config.faults.dup_pct = 1;
  const auto outcome = run_serving(config, program);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.guest_stdout, "200\n");
  EXPECT_EQ(outcome.retired, 200u);
  EXPECT_EQ(outcome.checksum_errors, 0u);
}

TEST(ServeGate, ServePoolRejectsBadParams) {
  workloads::ServePoolParams bad;
  bad.workers = 0;
  EXPECT_FALSE(workloads::serve_pool(bad).is_ok());
  bad.workers = 4;
  bad.table_words = 1000;  // not a power of two
  EXPECT_FALSE(workloads::serve_pool(bad).is_ok());
}

}  // namespace
}  // namespace dqemu
