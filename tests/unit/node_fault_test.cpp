// Whole-node fault plane (DESIGN.md §18): crash and pause-rejoin faults,
// lease/home revocation, thread re-homing, bounded retransmission give-up,
// and the cooperative checkpoint/restore digests.
//
// The load-bearing claims under test:
//   - a seeded crash mid-serving-run still retires every request with zero
//     checksum errors (recovery is complete, not just survived), and two
//     same-seed runs are identical counter-for-counter;
//   - the result does not depend on --host-threads;
//   - a checkpoint captured at a virtual-time cut is bit-identical between
//     a fresh run and a re-executed ("restored") run;
//   - a peer that stops acking is declared dead after the configured number
//     of zero-progress retransmit rounds, and the sender then goes quiet.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/cluster.hpp"
#include "dsm/placement.hpp"
#include "net/fault/node_faults.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "testutil.hpp"
#include "workloads/serve.hpp"

namespace dqemu {
namespace {

using time_literals::kMs;
using time_literals::kUs;

// ---- full-cluster crash/pause scenarios ----------------------------------

/// Serving cluster with one scripted node fault. The serving workload is
/// the natural victim: it has a master-side invariant (every request
/// retires with a verified checksum) that fails if recovery loses or
/// double-counts anything.
ClusterConfig fault_config(FaultConfig::NodeFault::Kind kind, NodeId node,
                           TimePs at, DurationPs pause_for = 0) {
  ClusterConfig config = test::test_config(4);
  config.serve.enabled = true;
  config.serve.requests = 200;
  config.serve.rate = 4000.0;
  config.serve.workers = 12;
  config.faults.enabled = true;
  FaultConfig::NodeFault nf;
  nf.kind = kind;
  nf.node = node;
  nf.at = at;
  nf.pause_for = pause_for;
  config.faults.node_faults.push_back(nf);
  return config;
}

struct ServeRun {
  bool ok = false;
  std::string error;
  core::Cluster::RunResult result;
  /// Full counter dump: the determinism fingerprint (virtual time, message
  /// counts, recovery actions — everything but host-side wall clock).
  std::string stats;
  std::uint64_t retired = 0;
  std::uint64_t checksum_errors = 0;
  std::vector<NodeId> dead;
  std::optional<core::CheckpointImage> checkpoint;
};

ServeRun run_serving(const ClusterConfig& config,
                     std::optional<TimePs> checkpoint_at = std::nullopt) {
  workloads::ServePoolParams pool;
  pool.workers = config.serve.workers;
  auto program = workloads::serve_pool(pool);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  ServeRun out;
  if (!program.is_ok()) return out;

  core::Cluster cluster(config);
  if (checkpoint_at.has_value()) cluster.arm_checkpoint(*checkpoint_at);
  const Status loaded = cluster.load(program.value());
  if (!loaded.is_ok()) {
    out.error = loaded.to_string();
    return out;
  }
  auto run = cluster.run();
  if (!run.is_ok()) {
    out.error = run.status().to_string();
    return out;
  }
  out.ok = true;
  out.result = run.take();
  out.stats = cluster.stats().to_string();
  out.retired = cluster.stats().get("serve.retired");
  out.checksum_errors = cluster.stats().get("serve.checksum_errors");
  out.dead = cluster.dead_nodes();
  out.checkpoint = cluster.checkpoint_image();
  return out;
}

TEST(NodeCrash, MidServingRunRecoversCompletely) {
  const auto config =
      fault_config(FaultConfig::NodeFault::Kind::kCrash, 2, 900 * kUs);
  const ServeRun run = run_serving(config);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.result.exit_code, 0u);
  EXPECT_EQ(run.dead, (std::vector<NodeId>{2}));
  // Completeness: the dead node's checked-out work was re-queued and its
  // threads re-homed — nothing lost, nothing retired twice.
  EXPECT_EQ(run.retired, config.serve.requests);
  EXPECT_EQ(run.checksum_errors, 0u);
}

TEST(NodeCrash, SameSeedRunsAreIdentical) {
  const auto config =
      fault_config(FaultConfig::NodeFault::Kind::kCrash, 2, 900 * kUs);
  const ServeRun a = run_serving(config);
  const ServeRun b = run_serving(config);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.result.sim_time, b.result.sim_time);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(NodeCrash, DrawnTargetAndTimeAreSeeded) {
  // node == 0 and at == 0 mean "draw from the fault seed": two runs with
  // the same seed must pick the same victim at the same instant.
  auto config = fault_config(FaultConfig::NodeFault::Kind::kCrash, 0, 0);
  config.faults.seed = 11;
  const ServeRun a = run_serving(config);
  const ServeRun b = run_serving(config);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_EQ(a.dead.size(), 1u);
  EXPECT_EQ(a.dead, b.dead);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.retired, config.serve.requests);
}

TEST(NodeCrash, IdenticalAcrossHostThreads) {
  auto config = fault_config(FaultConfig::NodeFault::Kind::kCrash, 2, 900 * kUs);
  const ServeRun serial = run_serving(config);
  ASSERT_TRUE(serial.ok) << serial.error;
  for (const std::uint32_t threads : {2u, 4u}) {
    config.sim.host_threads = threads;
    const ServeRun parallel = run_serving(config);
    ASSERT_TRUE(parallel.ok) << parallel.error;
    EXPECT_EQ(parallel.result.sim_time, serial.result.sim_time)
        << "host_threads=" << threads;
    EXPECT_EQ(parallel.stats, serial.stats) << "host_threads=" << threads;
  }
}

TEST(NodePause, RejoinRecoversAndIsDeterministic) {
  const auto config = fault_config(FaultConfig::NodeFault::Kind::kPause, 3,
                                   800 * kUs, 500 * kUs);
  const ServeRun a = run_serving(config);
  const ServeRun b = run_serving(config);
  ASSERT_TRUE(a.ok) << a.error;
  // A pause is not a death: the node buffers, rejoins, and finishes its
  // own work — nothing is revoked or re-homed.
  EXPECT_TRUE(a.dead.empty());
  EXPECT_EQ(a.retired, config.serve.requests);
  EXPECT_EQ(a.checksum_errors, 0u);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.stats, b.stats);
}

TEST(NodeCrash, ShardedHomeHandsOffToMaster) {
  // The hardest recovery: the dead node hosted a directory shard and a
  // futex home. Its shard state must hand off to the master, survivors'
  // learned routes must invalidate, and the run must still fully retire.
  auto config = fault_config(FaultConfig::NodeFault::Kind::kCrash, 2, 900 * kUs);
  config.dsm.enable_home_sharding = true;
  config.dsm.home_placement = HomePlacement::kFirstTouch;
  config.sys.enable_hierarchical_locking = true;
  const ServeRun a = run_serving(config);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.retired, config.serve.requests);
  EXPECT_EQ(a.checksum_errors, 0u);
  const ServeRun b = run_serving(config);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.stats, b.stats);
}

TEST(NodeCrash, LossyWireCrashQuiescesWatchdogs) {
  // Crash on an already-lossy wire: protocol watchdogs are armed when the
  // node dies, and the teardown must cancel every timer its agents own
  // (ASan builds of this test catch a timer firing into freed state).
  auto config = fault_config(FaultConfig::NodeFault::Kind::kCrash, 2, 900 * kUs);
  config.faults.drop_pct = 2.0;
  config.faults.giveup_retrans = 8;
  const ServeRun a = run_serving(config);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.retired, config.serve.requests);
  EXPECT_EQ(a.checksum_errors, 0u);
  const ServeRun b = run_serving(config);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.stats, b.stats);
}

// ---- checkpoint / restore ------------------------------------------------

TEST(Checkpoint, RestoredRunMatchesUninterrupted) {
  const auto config =
      fault_config(FaultConfig::NodeFault::Kind::kCrash, 2, 900 * kUs);
  const TimePs cut = 20 * kMs;
  // "Restore" is deterministic re-execution to the cut: the second run is
  // the restore of the first, and every state digest must agree.
  const ServeRun original = run_serving(config, cut);
  const ServeRun restored = run_serving(config, cut);
  ASSERT_TRUE(original.ok) << original.error;
  ASSERT_TRUE(restored.ok) << restored.error;
  ASSERT_TRUE(original.checkpoint.has_value());
  ASSERT_TRUE(restored.checkpoint.has_value());
  EXPECT_EQ(original.checkpoint->virtual_time, cut);
  EXPECT_TRUE(original.checkpoint->diff(*restored.checkpoint).empty());
  // The capture is an observer: arming it must not perturb the run.
  const ServeRun unarmed = run_serving(config);
  ASSERT_TRUE(unarmed.ok) << unarmed.error;
  EXPECT_EQ(unarmed.stats, original.stats);
}

TEST(Checkpoint, DivergentConfigIsDetected) {
  const auto config =
      fault_config(FaultConfig::NodeFault::Kind::kCrash, 2, 900 * kUs);
  auto other = config;
  other.serve.seed = config.serve.seed + 1;
  const TimePs cut = 20 * kMs;
  const ServeRun a = run_serving(config, cut);
  const ServeRun b = run_serving(other, cut);
  ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
  ASSERT_TRUE(a.checkpoint.has_value() && b.checkpoint.has_value());
  EXPECT_FALSE(a.checkpoint->diff(*b.checkpoint).empty());
}

TEST(Checkpoint, ImageRoundTripsThroughDisk) {
  core::CheckpointImage image;
  image.virtual_time = 123456789;
  image.add("space.0", 0xDEADBEEFCAFEF00DULL);
  image.add("insns", 42);
  image.normalize();
  const std::string path = ::testing::TempDir() + "node_fault_ckpt.img";
  ASSERT_TRUE(image.save(path));
  core::CheckpointImage loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.virtual_time, image.virtual_time);
  EXPECT_TRUE(loaded.diff(image).empty());
  EXPECT_EQ(loaded.digests, image.digests);
}

// ---- bounded give-up (net.peer_dead) -------------------------------------

TEST(ReliableGiveUp, DeclaresDeadPeerAndGoesQuiet) {
  // A link that makes zero progress for giveup_retrans consecutive
  // retransmit rounds declares the peer dead and stops retransmitting.
  // Without the bound this queue never drains (retransmit forever).
  sim::EventQueue queue;
  StatsRegistry stats;
  NetworkConfig config;
  FaultConfig faults;
  faults.enabled = true;
  faults.drop_pct = 100.0;
  faults.giveup_retrans = 3;
  net::Network network(queue, config, 2, &stats, nullptr, faults);
  std::vector<std::pair<NodeId, NodeId>> declared;
  network.set_peer_dead_hook([&](NodeId self, NodeId peer) {
    declared.emplace_back(self, peer);
  });
  for (NodeId n = 0; n < 2; ++n) {
    network.attach(n, [](net::Message) {});
  }
  net::Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.type = 0x100;
  network.send(std::move(msg));

  std::uint64_t fired = 0;
  while (queue.run_one() && ++fired < 100000) {
  }
  ASSERT_LT(fired, 100000u) << "sender never gave up; queue did not drain";
  EXPECT_EQ(stats.get("net.peer_dead"), 1u);
  ASSERT_EQ(declared.size(), 1u);
  EXPECT_EQ(declared[0], (std::pair<NodeId, NodeId>(0, 1)));
  EXPECT_TRUE(network.peer_dead(0, 1));

  // A message to a declared-dead peer is dropped at the sender: a crashed
  // peer stops generating wire traffic entirely.
  const std::uint64_t wire_before = stats.get("net.messages");
  net::Message late;
  late.src = 0;
  late.dst = 1;
  late.type = 0x101;
  network.send(std::move(late));
  while (queue.run_one()) {
  }
  EXPECT_EQ(stats.get("net.messages"), wire_before);
  EXPECT_GE(stats.get("net.dead_dropped"), 1u);
}

// ---- HomeView invalidation -----------------------------------------------

TEST(HomeViewCrash, InvalidateDropsLearnedRoutesAndRefusesRelearning) {
  ClusterConfig config = test::test_config(4);
  config.dsm.enable_home_sharding = true;
  config.dsm.home_placement = HomePlacement::kFirstTouch;
  const dsm::HomeLayout layout = dsm::home_layout(config);
  dsm::HomeView view(config.dsm, layout);
  ASSERT_TRUE(view.sharded());

  // An ordinary (non-shadow) page: shadow-pool pages are statically sliced
  // and never learned.
  const std::uint64_t page = 1;
  view.learn(page, 3);
  ASSERT_EQ(view.home_of(page), 3);

  // Crash notification: the learned route falls back to the master (which
  // adopted the shard). Without this the first request after the crash
  // would chase the dead home forever (relay loop).
  view.invalidate_home(3);
  EXPECT_EQ(view.home_of(page), kMasterNode);

  // Late in-flight traffic from the dying home must not resurrect it.
  view.learn(page, 3);
  EXPECT_EQ(view.home_of(page), kMasterNode);
  // A new learned home (post-recovery first touch) is accepted.
  view.learn(page, 1);
  EXPECT_EQ(view.home_of(page), 1);
}

}  // namespace
}  // namespace dqemu
