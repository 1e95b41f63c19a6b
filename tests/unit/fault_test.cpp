// Fault injection + reliable delivery (DESIGN.md §13).
//
// Three layers of coverage: the deterministic injector itself (pure decision
// stream), the reliable channel over a lossy raw Network (drop / duplicate /
// reorder / backoff / pure acks), and full-cluster recovery scenarios
// (drop-the-grant, drop-the-ack, duplicated lease recall, watchdog re-issue)
// where the guest result must come out exactly as on a perfect wire.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsm/wire.hpp"
#include "net/fault/fault_injector.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"
#include "sys/wire.hpp"
#include "testutil.hpp"
#include "workloads/micro.hpp"

namespace dqemu {
namespace {

using time_literals::kMs;
using time_literals::kUs;

// ---- sim::Timer ----------------------------------------------------------

TEST(SimTimer, FiresOnceAndDisarms) {
  sim::EventQueue queue;
  sim::Timer timer(queue);
  int fired = 0;
  timer.arm(100, [&] { ++fired; });
  EXPECT_TRUE(timer.armed());
  queue.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(SimTimer, RearmCancelsThePreviousShot) {
  sim::EventQueue queue;
  sim::Timer timer(queue);
  std::vector<int> fired;
  timer.arm(100, [&] { fired.push_back(1); });
  timer.arm(200, [&] { fired.push_back(2); });
  queue.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(queue.now(), 200u);
}

TEST(SimTimer, CancelPreventsFiring) {
  sim::EventQueue queue;
  sim::Timer timer(queue);
  bool fired = false;
  timer.arm(100, [&] { fired = true; });
  timer.cancel();
  queue.run();
  EXPECT_FALSE(fired);
}

TEST(SimTimer, DestructionCancels) {
  sim::EventQueue queue;
  bool fired = false;
  {
    sim::Timer timer(queue);
    timer.arm(100, [&] { fired = true; });
  }
  queue.run();
  EXPECT_FALSE(fired);
}

TEST(SimTimer, CallbackMayRearm) {
  sim::EventQueue queue;
  sim::Timer timer(queue);
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 3) timer.arm(50, tick);
  };
  timer.arm(50, tick);
  queue.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(queue.now(), 150u);
}

// ---- FaultInjector -------------------------------------------------------

net::Message typed(std::uint32_t type, NodeId src = 1, NodeId dst = 0) {
  net::Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.type = type;
  return msg;
}

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 7;
  config.drop_pct = 10;
  config.dup_pct = 10;
  config.jitter_pct = 20;
  config.reorder_pct = 5;
  net::FaultInjector a(config, 3), b(config, 3);
  for (int i = 0; i < 2000; ++i) {
    const net::Message msg =
        typed(0x100u + std::uint32_t(i % 7), NodeId(i % 3));
    const net::WireFate fa = a.decide(msg);
    const net::WireFate fb = b.decide(msg);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    EXPECT_EQ(fa.extra_delay, fb.extra_delay);
    EXPECT_EQ(fa.dup_extra_delay, fb.dup_extra_delay);
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultConfig config;
  config.enabled = true;
  config.drop_pct = 30;
  config.seed = 1;
  net::FaultInjector a(config, 3);
  FaultConfig other = config;
  other.seed = 2;
  net::FaultInjector b(other, 3);
  int differing = 0;
  for (int i = 0; i < 500; ++i) {
    const net::Message msg = typed(0x100);
    if (a.decide(msg).drop != b.decide(msg).drop) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, ZeroRatesNeverFault) {
  FaultConfig config;
  config.enabled = true;
  net::FaultInjector injector(config, 3);
  for (int i = 0; i < 1000; ++i) {
    const net::WireFate fate = injector.decide(typed(0x100));
    EXPECT_FALSE(fate.drop);
    EXPECT_FALSE(fate.duplicate);
    EXPECT_EQ(fate.extra_delay, 0u);
  }
}

TEST(FaultInjector, RatesRoughlyMatchProbabilities) {
  FaultConfig config;
  config.enabled = true;
  config.drop_pct = 25;
  net::FaultInjector injector(config, 3);
  int drops = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (injector.decide(typed(0x100)).drop) ++drops;
  }
  EXPECT_GT(drops, n / 8);      // well above half the target rate
  EXPECT_LT(drops, n * 3 / 8);  // well below 1.5x the target rate
}

TEST(FaultInjector, RuleTargetsTypeLinkAndBudget) {
  // Baseline is clean; one rule drops exactly the first two kPageData
  // transmissions on the 0->2 link.
  FaultConfig config;
  config.enabled = true;
  FaultConfig::Rule rule;
  rule.type = static_cast<std::uint32_t>(dsm::DsmMsg::kPageData);
  rule.src = 0;
  rule.dst = 2;
  rule.drop_pct = 100;
  rule.max_matches = 2;
  config.rules.push_back(rule);
  net::FaultInjector injector(config, 3);

  EXPECT_FALSE(injector.decide(typed(rule.type, 0, 1)).drop);  // other link
  EXPECT_FALSE(injector.decide(typed(0x101, 0, 2)).drop);      // other type
  EXPECT_TRUE(injector.decide(typed(rule.type, 0, 2)).drop);   // match 1
  EXPECT_TRUE(injector.decide(typed(rule.type, 0, 2)).drop);   // match 2
  EXPECT_FALSE(injector.decide(typed(rule.type, 0, 2)).drop);  // budget spent
}

// ---- Reliable channel over a lossy raw Network ---------------------------

struct LossyNetFixture : ::testing::Test {
  /// Builds the network lazily so each test can set `faults` first.
  net::Network& build() {
    faults.enabled = true;
    network = std::make_unique<net::Network>(
        std::vector<sim::EventQueue*>(3, &queue), config, stats, nullptr,
        faults);
    for (NodeId n = 0; n < 3; ++n) {
      network->attach(n, [this, n](net::Message msg) {
        deliveries.push_back({n, queue.now(), std::move(msg)});
      });
    }
    return *network;
  }

  net::Message make(NodeId src, NodeId dst, std::uint64_t tag = 0) {
    net::Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.type = 0x100;
    msg.a = tag;
    return msg;
  }

  struct Delivery {
    NodeId node;
    TimePs at;
    net::Message msg;
  };

  sim::EventQueue queue;
  NetworkConfig config;
  FaultConfig faults;
  StatsRegistry stats;
  std::unique_ptr<net::Network> network;
  std::vector<Delivery> deliveries;
};

TEST_F(LossyNetFixture, CleanWireDeliversExactlyOnceAndDrains) {
  net::Network& net = build();
  net.send(make(0, 1, 1));
  net.send(make(0, 1, 2));
  queue.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].msg.a, 1u);
  EXPECT_EQ(deliveries[1].msg.a, 2u);
  EXPECT_EQ(stats.get("net.retrans"), 0u);
  // The queue drained: acks flowed and all timers stood down.
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_GE(stats.get("net.acks"), 1u);
}

TEST_F(LossyNetFixture, DroppedMessageIsRetransmittedAndDelivered) {
  FaultConfig::Rule rule;
  rule.type = 0x100;
  rule.drop_pct = 100;
  rule.max_matches = 1;
  faults.rules.push_back(rule);
  net::Network& net = build();
  net.send(make(0, 1, 42));
  queue.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].msg.a, 42u);
  EXPECT_EQ(stats.get("net.dropped"), 1u);
  EXPECT_GE(stats.get("net.retrans"), 1u);
  // Recovery cost one RTO: delivery happened after the first retransmit.
  EXPECT_GT(deliveries[0].at, faults.retrans_timeout);
}

TEST_F(LossyNetFixture, RetransmitBacksOffExponentially) {
  // Drop the first transmission AND the first retransmission: the second
  // retransmission fires one base RTO plus one doubled RTO after the send.
  FaultConfig::Rule rule;
  rule.type = 0x100;
  rule.drop_pct = 100;
  rule.max_matches = 2;
  faults.rules.push_back(rule);
  net::Network& net = build();
  net.send(make(0, 1, 7));
  queue.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(stats.get("net.dropped"), 2u);
  EXPECT_EQ(stats.get("net.retrans"), 2u);
  EXPECT_GT(deliveries[0].at, faults.retrans_timeout * 3);  // 1x + 2x
  EXPECT_EQ(queue.pending(), 0u);
}

TEST_F(LossyNetFixture, DuplicatesAreSuppressed) {
  faults.dup_pct = 100;  // the switch duplicates every transmission
  net::Network& net = build();
  net.send(make(0, 1, 1));
  net.send(make(0, 1, 2));
  queue.run();
  ASSERT_EQ(deliveries.size(), 2u);  // app sees each message exactly once
  EXPECT_EQ(deliveries[0].msg.a, 1u);
  EXPECT_EQ(deliveries[1].msg.a, 2u);
  EXPECT_GE(stats.get("net.wire_dup"), 2u);
  EXPECT_GE(stats.get("net.dup_suppressed"), 2u);
}

TEST_F(LossyNetFixture, ReorderedArrivalsAreHeldForFifo) {
  // Reorder-delay exactly the first message: it physically arrives after
  // the second, but delivery order must stay send order.
  FaultConfig::Rule rule;
  rule.type = 0x100;
  rule.reorder_pct = 100;
  rule.max_matches = 1;
  faults.rules.push_back(rule);
  faults.reorder_delay = 2 * kMs;
  net::Network& net = build();
  net.send(make(0, 1, 1));
  net.send(make(0, 1, 2));
  queue.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].msg.a, 1u);
  EXPECT_EQ(deliveries[1].msg.a, 2u);
  EXPECT_GE(stats.get("net.ooo_held"), 1u);
  // The held message was released the instant the gap filled.
  EXPECT_EQ(deliveries[0].at, deliveries[1].at);
}

TEST_F(LossyNetFixture, HeavyLossStillDeliversEverythingInOrder) {
  faults.drop_pct = 20;
  faults.dup_pct = 10;
  faults.jitter_pct = 30;
  faults.reorder_pct = 10;
  faults.seed = 3;
  net::Network& net = build();
  const int n = 60;
  for (int i = 0; i < n; ++i) net.send(make(0, 1, std::uint64_t(i) + 1));
  for (int i = 0; i < n / 2; ++i) {
    net.send(make(1, 0, 1000u + std::uint64_t(i)));
  }
  queue.run();
  ASSERT_EQ(deliveries.size(), std::size_t(n + n / 2));
  std::uint64_t expect_fwd = 1, expect_rev = 1000;
  for (const Delivery& d : deliveries) {
    if (d.node == 1) {
      EXPECT_EQ(d.msg.a, expect_fwd++);
    } else {
      EXPECT_EQ(d.msg.a, expect_rev++);
    }
  }
  EXPECT_GT(stats.get("net.dropped"), 0u);
  EXPECT_GT(stats.get("net.retrans"), 0u);
  EXPECT_EQ(queue.pending(), 0u);  // everything acked, all timers idle
}

TEST_F(LossyNetFixture, LoopbackBypassesTheLossyWire) {
  faults.drop_pct = 100;  // even a black-hole wire can't touch loopback
  net::Network& net = build();
  net.send(make(1, 1, 5));
  queue.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].at, config.loopback_latency);
  EXPECT_EQ(stats.get("net.loopback"), 1u);
  EXPECT_EQ(stats.get("net.dropped"), 0u);
}

// ---- Full-cluster recovery scenarios -------------------------------------

isa::Program must(Result<isa::Program> r) {
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? r.take() : isa::Program{};
}

/// Faulty-cluster config; tests add rules / tune timeouts on top.
ClusterConfig faulty_config(std::uint32_t nodes) {
  ClusterConfig config = test::test_config(nodes);
  config.faults.enabled = true;
  return config;
}

TEST(FaultRecovery, DropTheGrantStillCompletes) {
  // The very first kPageData grant from the master vanishes; the reliable
  // channel must retransmit it and the guest must never notice.
  const auto program = must(workloads::memwalk(64 * 1024, 1, true));
  ClusterConfig config = faulty_config(2);
  FaultConfig::Rule rule;
  rule.type = static_cast<std::uint32_t>(dsm::DsmMsg::kPageData);
  rule.src = kMasterNode;
  rule.drop_pct = 100;
  rule.max_matches = 1;
  config.faults.rules.push_back(rule);

  const auto outcome = test::run_program(config, program);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  const auto clean = test::run_program(test::test_config(2), program);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(outcome.result.exit_code, clean.result.exit_code);
  EXPECT_EQ(outcome.result.guest_stdout, clean.result.guest_stdout);
  EXPECT_EQ(outcome.result.guest_insns, clean.result.guest_insns);
}

TEST(FaultRecovery, DropTheAckStillCompletes) {
  // An ownership-recall writeback (kInvAck, carrying the only fresh copy of
  // a dirty page) is dropped: retransmission must recover the content.
  const auto program =
      must(workloads::mutex_stress(8, 50, /*global=*/true));
  ClusterConfig config = faulty_config(2);
  config.dbt.quantum_insns = 500;
  FaultConfig::Rule rule;
  rule.type = static_cast<std::uint32_t>(dsm::DsmMsg::kInvAck);
  rule.drop_pct = 100;
  rule.max_matches = 1;
  config.faults.rules.push_back(rule);

  const auto outcome = test::run_program(config, program);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ClusterConfig clean_config = test::test_config(2);
  clean_config.dbt.quantum_insns = 500;
  const auto clean = test::run_program(clean_config, program);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(outcome.result.exit_code, clean.result.exit_code);
  EXPECT_EQ(outcome.result.guest_stdout, clean.result.guest_stdout);
  // The checksum epilogue proves mutual exclusion held and no wakeup was
  // lost despite the dropped writeback.
  EXPECT_NE(outcome.result.guest_stdout.find("400"), std::string::npos);
}

TEST(FaultRecovery, RandomLossMutexStressMatchesCleanRun) {
  const auto program =
      must(workloads::mutex_stress(16, 100, /*global=*/true));
  ClusterConfig config = faulty_config(2);
  config.dbt.quantum_insns = 500;
  config.faults.drop_pct = 2;

  const auto faulty = test::run_program(config, program);
  ASSERT_TRUE(faulty.ok) << faulty.error;
  ClusterConfig clean_config = test::test_config(2);
  clean_config.dbt.quantum_insns = 500;
  const auto clean = test::run_program(clean_config, program);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(faulty.result.exit_code, clean.result.exit_code);
  EXPECT_EQ(faulty.result.guest_stdout, clean.result.guest_stdout);
  EXPECT_NE(faulty.result.guest_stdout.find("1600"), std::string::npos);
  // Loss costs virtual time, but recovery must bound the inflation.
  EXPECT_LT(faulty.result.sim_time, clean.result.sim_time * 3);
}

TEST(FaultRecovery, DuplicatedRecallIsIgnoredByTheAgent) {
  // Force the master's recall watchdog to fire while the lease return is
  // still in flight: the RTO is huge (so the dropped return sits unsent for
  // a long time) and the watchdog short (so the master re-recalls first).
  // The agent no longer owns the lease and must treat the duplicate recall
  // as a no-op instead of tripping its ownership assert.
  const auto program =
      must(workloads::mutex_stress(16, 200, /*global=*/true));
  ClusterConfig config = faulty_config(2);
  config.dbt.quantum_insns = 500;
  config.sys.enable_hierarchical_locking = true;
  config.sys.lease_min_hold = 1 * kMs;
  config.faults.retrans_timeout = 20 * kMs;
  config.faults.retrans_cap = 40 * kMs;
  config.faults.request_timeout = 2 * kMs;
  FaultConfig::Rule rule;
  rule.type = static_cast<std::uint32_t>(sys::SysMsg::kLeaseReturn);
  rule.drop_pct = 100;
  rule.max_matches = 1;
  config.faults.rules.push_back(rule);

  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.load(program).is_ok());
  auto run = cluster.run();
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  EXPECT_NE(run.value().guest_stdout.find("3200"), std::string::npos);
  // The scenario only proves something if the recall actually went twice.
  EXPECT_GE(cluster.stats().get("sys.recall_timeouts"), 1u);
  EXPECT_GE(cluster.stats().get("sys.dup_recalls_ignored"), 1u);
}

TEST(FaultRecovery, DsmWatchdogReissuesAStuckRequest) {
  // Same trick for the DSM fault watchdog: the grant is dropped and the
  // channel's RTO is far beyond the watchdog, so the client re-issues the
  // request and the directory's benign re-grant completes the fault.
  const auto program = must(workloads::memwalk(32 * 1024, 1, true));
  ClusterConfig config = faulty_config(2);
  config.faults.retrans_timeout = 50 * kMs;
  config.faults.retrans_cap = 100 * kMs;
  config.faults.request_timeout = 2 * kMs;
  FaultConfig::Rule rule;
  rule.type = static_cast<std::uint32_t>(dsm::DsmMsg::kPageData);
  rule.src = kMasterNode;
  rule.drop_pct = 100;
  rule.max_matches = 1;
  config.faults.rules.push_back(rule);

  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.load(program).is_ok());
  auto run = cluster.run();
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  EXPECT_GE(cluster.stats().get("dsm.timeouts"), 1u);
  const auto clean = test::run_program(test::test_config(2), program);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(run.value().exit_code, clean.result.exit_code);
  EXPECT_EQ(run.value().guest_stdout, clean.result.guest_stdout);
}

}  // namespace
}  // namespace dqemu
