// Whole-node fault plane (DESIGN.md §18): crash and pause-rejoin faults,
// lease/home revocation, thread re-homing, bounded retransmission give-up,
// and the cooperative checkpoint/restore digests.
//
// The load-bearing claims under test:
//   - a seeded crash mid-serving-run still retires every request with zero
//     checksum errors (recovery is complete, not just survived), and two
//     same-seed runs are identical counter-for-counter;
//   - every surviving home's directory (the master's, which adopts a dead
//     home's shard, included) holds its invariants after recovery;
//   - the result does not depend on --host-threads;
//   - a checkpoint captured at a virtual-time cut is bit-identical between
//     a fresh run and a re-executed ("restored") run, CI's two checkpointed
//     crash runs write pinned digests, and a capture backs no guest page;
//   - a peer that stops acking is declared dead after the configured number
//     of zero-progress retransmit rounds, and the sender then goes quiet.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/cluster.hpp"
#include "dsm/directory.hpp"
#include "dsm/placement.hpp"
#include "mem/address_space.hpp"
#include "net/fault/node_faults.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"
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
  std::uint64_t crash_flushes_sent = 0;  ///< last writebacks the victim sent
  std::uint64_t crash_flushes = 0;       ///< ...and the homes applied
  std::vector<NodeId> dead;
  /// Surviving nodes whose home directory run_serving checked at the end.
  std::vector<NodeId> checked_homes;
  std::optional<core::CheckpointImage> checkpoint;
  /// Pages with backing storage, per node, at the end of the run.
  std::vector<std::uint32_t> materialized;
};

ServeRun run_serving(const ClusterConfig& config,
                     std::optional<TimePs> checkpoint_at = std::nullopt,
                     trace::Tracer* tracer = nullptr) {
  workloads::ServePoolParams pool;
  pool.workers = config.serve.workers;
  auto program = workloads::serve_pool(pool);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  ServeRun out;
  if (!program.is_ok()) return out;

  core::Cluster cluster(config, tracer);
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
  out.crash_flushes_sent = cluster.stats().get("core.crash_flushes_sent");
  out.crash_flushes = cluster.stats().get("dsm.crash_flushes");
  out.dead = cluster.dead_nodes();
  // Recovery must leave every surviving home's directory consistent.
  for (NodeId id = 0; id < cluster.node_count(); ++id) {
    const dsm::Directory* home = cluster.home(id);
    if (home == nullptr || std::ranges::count(out.dead, id) != 0) continue;
    EXPECT_TRUE(home->check_invariants()) << "home " << id;
    out.checked_homes.push_back(id);
  }
  out.checkpoint = cluster.checkpoint_image();
  for (NodeId id = 0; id < cluster.node_count(); ++id) {
    const mem::AddressSpace& space = cluster.node(id).space();
    std::uint32_t backed = 0;
    for (std::uint32_t page = 0; page < space.num_pages(); ++page) {
      if (space.page_materialized(page)) ++backed;
    }
    out.materialized.push_back(backed);
  }
  return out;
}

TEST(NodeCrash, MidServingRunRecoversCompletely) {
  // At 900 us node 2 holds no dirty page homed elsewhere, so its crash sends
  // no last writeback. At 1500 us it holds some: each must reach its home
  // and be applied there as the dying owner's writeback.
  constexpr TimePs kFlushingCrash = 1500 * kUs;
  for (const TimePs at : {900 * kUs, kFlushingCrash}) {
    SCOPED_TRACE("crash at " + std::to_string(at / kUs) + " us");
    const auto config =
        fault_config(FaultConfig::NodeFault::Kind::kCrash, 2, at);
    const ServeRun run = run_serving(config);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.result.exit_code, 0u);
    EXPECT_EQ(run.dead, (std::vector<NodeId>{2}));
    // Completeness: the dead node's checked-out work was re-queued and its
    // threads re-homed — nothing lost, nothing retired twice.
    EXPECT_EQ(run.retired, config.serve.requests);
    EXPECT_EQ(run.checksum_errors, 0u);
    EXPECT_EQ(run.crash_flushes, run.crash_flushes_sent);
    if (at == kFlushingCrash) {
      EXPECT_GE(run.crash_flushes_sent, 1u);
    }
  }
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
  // run_serving checked every surviving home: the master, which adopted
  // the dead shard, and the three live slave homes.
  EXPECT_EQ(a.checked_homes, (std::vector<NodeId>{0, 1, 3, 4}));
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

/// CI crash-smoke's serving run, built as `dqemu_run --serve --nodes 4
/// --requests 300 --rate 4000 --serve-workers 12 --crash N@T` builds it:
/// fault_config() with 300 requests on the default 256 MiB guest.
ClusterConfig crash_smoke_config(NodeId node, TimePs at) {
  ClusterConfig config =
      fault_config(FaultConfig::NodeFault::Kind::kCrash, node, at);
  config.guest_mem_bytes = ClusterConfig{}.guest_mem_bytes;
  config.serve.requests = 300;
  return config;
}

using Digests = std::vector<std::pair<std::string, std::uint64_t>>;

/// Cuts `config` at 40000 us (`--checkpoint 40000:FILE`) and checks the
/// image against `pinned`, the content of the checkpoint file such a run
/// writes: a capture that folds any component differently would make every
/// earlier checkpoint fail to restore. The parallel kernel, whose window
/// loop clamps at the cut, must write the same file at every host thread
/// count.
void expect_pinned_cut(ClusterConfig config, const Digests& pinned) {
  const TimePs cut = 40 * kMs;
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    config.sim.host_threads = threads;
    const ServeRun armed = run_serving(config, cut);
    ASSERT_TRUE(armed.ok) << armed.error;
    ASSERT_TRUE(armed.checkpoint.has_value());
    EXPECT_EQ(armed.checkpoint->virtual_time, cut);
    EXPECT_EQ(armed.checkpoint->digests, pinned);
    // The capture reads guest memory without backing it: the armed run
    // ends with exactly the pages the unarmed run materialized.
    const ServeRun unarmed = run_serving(config);
    ASSERT_TRUE(unarmed.ok) << unarmed.error;
    EXPECT_EQ(armed.materialized, unarmed.materialized);
  }
}

TEST(Checkpoint, CrashSmokeCutIsPinned) {
  const ClusterConfig config = crash_smoke_config(2, 900 * kUs);
  expect_pinned_cut(config, {{"dir.0", 0xbed6fc25f18cfec5},
                             {"futex.0", 0xac328922c6752ee2},
                             {"insns", 0x00000000000f384f},
                             {"serve", 0xea5c060b8b1b3772},
                             {"space.0", 0x64708515de6aed9e},
                             {"space.1", 0xd1975a17a2188fa8},
                             {"space.2", 0xb8d1b2e45cbcb6cc},
                             {"space.3", 0x08bf0839c4a97875},
                             {"space.4", 0x91c694903cb5e6e2},
                             {"threads.0", 0x537e65978beae7bd},
                             {"threads.1", 0xdb7343028ccf548b},
                             {"threads.2", 0xcbf29ce484222325},
                             {"threads.3", 0xcb2da7c8bb280918},
                             {"threads.4", 0x2f2c0024c6696523}});
}

TEST(Checkpoint, TracingLeavesTheDigestsUnchanged) {
  // A traced run hands out causal flow ids, and parked futex waiters carry
  // theirs; an untraced run's are all 0. The digests must not see them, or
  // restoring an untraced checkpoint with --trace reports a mismatch.
  const ClusterConfig config = crash_smoke_config(2, 900 * kUs);
  const TimePs cut = 40 * kMs;
  const ServeRun untraced = run_serving(config, cut);
  trace::TraceConfig trace_config;
  trace_config.categories = trace::kAllCategories;
  trace_config.capacity = 1u << 12;
  trace::Tracer tracer(trace_config);
  const ServeRun traced = run_serving(config, cut, &tracer);
  ASSERT_TRUE(untraced.ok) << untraced.error;
  ASSERT_TRUE(traced.ok) << traced.error;
  ASSERT_TRUE(untraced.checkpoint.has_value());
  ASSERT_TRUE(traced.checkpoint.has_value());
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_EQ(untraced.checkpoint->diff(*traced.checkpoint),
            std::vector<std::string>{});
}

TEST(Checkpoint, ShardedCrashSmokeCutIsPinned) {
  // `--hier-locking --home-sharding --placement first-touch --crash
  // 2@1500`: every home's directory and futex table is a component.
  ClusterConfig config = crash_smoke_config(2, 1500 * kUs);
  config.sys.enable_hierarchical_locking = true;
  config.dsm.enable_home_sharding = true;
  config.dsm.home_placement = HomePlacement::kFirstTouch;
  expect_pinned_cut(config, {{"dir.0", 0x35bb838999627dc4},
                             {"dir.1", 0x742270d64ff02ee5},
                             {"dir.2", 0x9a2978736344a1a4},
                             {"dir.3", 0xfa43e21db4a0208a},
                             {"dir.4", 0x799c01609450297d},
                             {"futex.0", 0xa56ba67f0e7b915d},
                             {"futex.1", 0xbc6125f9afca2a0d},
                             {"futex.2", 0x88201fb960ff6465},
                             {"futex.3", 0x88201fb960ff6465},
                             {"futex.4", 0x88201fb960ff6465},
                             {"insns", 0x00000000000f3582},
                             {"serve", 0xc8faed9368881a54},
                             {"space.0", 0xd322600ab37c0c22},
                             {"space.1", 0x6813a85b5e892a7e},
                             {"space.2", 0xd1bb2d639e26c2db},
                             {"space.3", 0x173cb4a1f66e1731},
                             {"space.4", 0xa9c72c981780b6a5},
                             {"threads.0", 0x537e65978beae7bd},
                             {"threads.1", 0x1fd4c61b70d4477e},
                             {"threads.2", 0xcbf29ce484222325},
                             {"threads.3", 0x8bfc82083fd2abbf},
                             {"threads.4", 0x060c2ca555e4b2cf}});
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
  net::Network network({&queue, &queue}, config, stats, nullptr, faults);
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
