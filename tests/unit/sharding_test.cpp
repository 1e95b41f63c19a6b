// Home-node sharding regression suite (DESIGN.md §17).
//
// Sharding is a *protocol* change, not a host-side one: with it on, page
// and futex traffic spreads across per-page home nodes, so virtual time
// legitimately shifts against the single-master run. What must hold:
//
//   - placement is a pure function: home_of is stable across instances,
//     runs and host thread counts (the master relays what it must under
//     first-touch, but a home never moves once assigned);
//   - the guest-visible results (exit code, stdout) are identical to the
//     single-master run — sharding may move picoseconds, never bytes;
//   - each sharded mode is individually byte-deterministic, run to run and
//     at every --host-threads count;
//   - the dual-gate contract: enable_home_sharding=false reproduces the
//     single-master run bit-for-bit even with every sharding knob set;
//   - the protocol survives a lossy wire (home recalls ride the same
//     reliable channel as everything else).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/directory.hpp"
#include "dsm/placement.hpp"
#include "testutil.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads/micro.hpp"

namespace dqemu {
namespace {

isa::Program must(Result<isa::Program> r) {
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? r.take() : isa::Program{};
}

ClusterConfig sharded_config(std::uint32_t nodes,
                             HomePlacement placement = HomePlacement::kHash) {
  ClusterConfig config = test::test_config(nodes);
  config.dsm.enable_home_sharding = true;
  config.dsm.home_placement = placement;
  return config;
}

struct Observation {
  core::Cluster::RunResult result;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::string trace_json;
  std::string hist_dump;
};

Observation observe(const isa::Program& program, ClusterConfig config) {
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

  // Every home — the master's and, under sharding, each slave's — must hold
  // the directory invariants once the run has drained. This covers hash and
  // first-touch placement on memwalk and on the global mutex_stress below.
  for (NodeId id = 0; id < cluster.node_count(); ++id) {
    const dsm::Directory* home = cluster.home(id);
    const bool is_home = config.dsm.enable_home_sharding || id == kMasterNode;
    EXPECT_EQ(home != nullptr, is_home) << "node " << id;
    if (home != nullptr) {
      EXPECT_TRUE(home->check_invariants()) << "home " << id;
    }
  }

  obs.counters = cluster.stats().counters();
  for (const auto& [name, hist] : cluster.stats().histograms()) {
    obs.hist_dump += name + " " + hist.to_string() + "\n";
  }
  std::ostringstream out;
  trace::write_chrome_json(tracer, out);
  obs.trace_json = out.str();
  return obs;
}

void expect_identical(const Observation& a, const Observation& b) {
  EXPECT_EQ(a.result.exit_code, b.result.exit_code);
  EXPECT_EQ(a.result.sim_time, b.result.sim_time);
  EXPECT_EQ(a.result.guest_insns, b.result.guest_insns);
  EXPECT_EQ(a.result.guest_stdout, b.result.guest_stdout);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.hist_dump, b.hist_dump);
}

void expect_same_guest_results(const Observation& a, const Observation& b) {
  EXPECT_EQ(a.result.exit_code, b.result.exit_code);
  EXPECT_EQ(a.result.guest_stdout, b.result.guest_stdout);
}

// ---- placement purity ------------------------------------------------------

TEST(HomePlacement_, HashHomeIsPureStableAndCoversOnlySlaves) {
  const ClusterConfig config = sharded_config(7);
  const dsm::HomeLayout layout = dsm::home_layout(config);
  dsm::HomeMap map_a(config.dsm, layout);
  dsm::HomeMap map_b(config.dsm, layout);
  const dsm::HomeView view(config.dsm, layout);

  std::set<NodeId> seen;
  for (std::uint64_t page = 0; page < 4096; ++page) {
    const NodeId home = map_a.home_of(page);
    // Pure function: a second instance and the per-node view all agree,
    // and repeated lookups never move (the unit form of the "stable across
    // runs and host thread counts" guarantee — there is no state to vary).
    EXPECT_EQ(home, map_b.home_of(page));
    EXPECT_EQ(home, view.home_of(page));
    EXPECT_EQ(home, map_a.home_of(page));
    EXPECT_GE(home, 1u);
    EXPECT_LE(home, config.slave_nodes);
    seen.insert(home);
  }
  // 4096 pages over 7 homes: every home must serve some of them.
  EXPECT_EQ(seen.size(), config.slave_nodes);
}

TEST(HomePlacement_, ShadowSlicesPartitionThePool) {
  const ClusterConfig config = sharded_config(5);
  const dsm::HomeLayout layout = dsm::home_layout(config);
  ASSERT_GT(layout.shadow_page_count, 0u);

  std::uint64_t covered = 0;
  for (NodeId home = 1; home <= config.slave_nodes; ++home) {
    const std::uint64_t first = layout.slice_first(home);
    const std::uint64_t count = layout.slice_count(home);
    covered += count;
    for (std::uint64_t p = first; p < first + count; ++p) {
      EXPECT_TRUE(layout.is_shadow(p));
      EXPECT_EQ(layout.shadow_home(p), home) << "page " << p;
    }
  }
  EXPECT_EQ(covered, layout.shadow_page_count);
}

TEST(HomePlacement_, FirstTouchAssignsOnceAndNeverMoves) {
  const ClusterConfig config = sharded_config(4, HomePlacement::kFirstTouch);
  const dsm::HomeLayout layout = dsm::home_layout(config);
  dsm::HomeMap map(config.dsm, layout);

  EXPECT_EQ(map.home_of(10), kMasterNode);  // unassigned: master fields it
  EXPECT_EQ(map.home_for(10, 3), 3u);       // first touch assigns
  EXPECT_EQ(map.home_for(10, 1), 3u);       // ...and the home never moves
  EXPECT_EQ(map.home_of(10), 3u);
}

TEST(HomePlacement_, ShardingOffMapsEverythingToTheMaster) {
  ClusterConfig config = sharded_config(4);
  config.dsm.enable_home_sharding = false;
  const dsm::HomeLayout layout = dsm::home_layout(config);
  dsm::HomeMap map(config.dsm, layout);
  EXPECT_FALSE(map.sharded());
  for (std::uint64_t page = 0; page < 256; ++page) {
    EXPECT_EQ(map.home_of(page), kMasterNode);
  }
}

// ---- guest equivalence and determinism -------------------------------------

TEST(ShardingDeterminism, HashShardingSameGuestResultsAsSingleMaster) {
  const auto memwalk = must(workloads::memwalk(256 * 1024, 2, true));
  const auto mutex = must(workloads::mutex_stress(8, 100, /*global=*/true));
  for (const auto* program : {&memwalk, &mutex}) {
    const Observation on = observe(*program, sharded_config(4));
    const Observation off = observe(*program, test::test_config(4));
    expect_same_guest_results(on, off);
  }
}

TEST(ShardingDeterminism, FirstTouchSameGuestResultsAndRelays) {
  const auto program = must(workloads::memwalk(256 * 1024, 2, true));
  const Observation ft =
      observe(program, sharded_config(4, HomePlacement::kFirstTouch));
  const Observation off = observe(program, test::test_config(4));
  expect_same_guest_results(ft, off);
  // The policy handoff actually happened: some requests reached the master
  // before the requester learned the home and were forwarded on.
  ASSERT_TRUE(ft.counters.contains("dsm.home_relays"));
  EXPECT_GT(ft.counters.at("dsm.home_relays"), 0u);
  // And after the handoff the homes served traffic directly: the per-home
  // counters prove slave-hosted directories carried real load.
  std::uint64_t slave_home_msgs = 0;
  for (NodeId n = 1; n <= 4; ++n) {
    const auto it = ft.counters.find("dsm.home_msgs." + std::to_string(n));
    if (it != ft.counters.end()) slave_home_msgs += it->second;
  }
  EXPECT_GT(slave_home_msgs, 0u);
}

TEST(ShardingDeterminism, EachPlacementIsRunToRunByteIdentical) {
  const auto program = must(workloads::mutex_stress(8, 100, /*global=*/true));
  for (const HomePlacement placement :
       {HomePlacement::kHash, HomePlacement::kFirstTouch}) {
    expect_identical(observe(program, sharded_config(4, placement)),
                     observe(program, sharded_config(4, placement)));
  }
}

TEST(ShardingDeterminism, HostThreadCountIsInvisible) {
  const auto program = must(workloads::mutex_stress(8, 100, /*global=*/true));
  ClusterConfig serial = sharded_config(4);
  ClusterConfig parallel = sharded_config(4);
  parallel.sim.host_threads = 4;
  expect_identical(observe(program, serial), observe(program, parallel));
}

TEST(ShardingDeterminism, DisabledShardingReproducesTheBaselineBitForBit) {
  // The runtime-switch contract: sharding knobs set but enabled=false must
  // not move a single picosecond.
  const auto program = must(workloads::mutex_stress(8, 50, /*global=*/true));
  ClusterConfig off = test::test_config(2);
  ClusterConfig constructed = test::test_config(2);
  constructed.dsm.enable_home_sharding = false;
  constructed.dsm.home_placement = HomePlacement::kFirstTouch;  // ignored
  expect_identical(observe(program, off), observe(program, constructed));
}

// ---- load spread -----------------------------------------------------------

TEST(ShardingLoad, HashSpreadsDirectoryLoadAcrossHomes) {
  // A multi-page walk touches enough distinct pages that splitmix64 should
  // spread the per-home message counts within the 2x evenness gate the
  // bench enforces at 64 nodes.
  const auto program = must(workloads::memwalk(1024 * 1024, 4, true));
  const Observation obs = observe(program, sharded_config(4));
  std::vector<std::uint64_t> loads;
  for (NodeId n = 1; n <= 4; ++n) {
    const auto it = obs.counters.find("dsm.home_msgs." + std::to_string(n));
    ASSERT_NE(it, obs.counters.end()) << "home " << n << " served nothing";
    loads.push_back(it->second);
  }
  const std::uint64_t lo = *std::min_element(loads.begin(), loads.end());
  const std::uint64_t hi = *std::max_element(loads.begin(), loads.end());
  ASSERT_GT(lo, 0u);
  EXPECT_LE(hi, 2 * lo) << "per-home load spread exceeds 2x";
  // The master is out of the page-serving business entirely under hash.
  const auto master = obs.counters.find("dsm.home_msgs.0");
  EXPECT_TRUE(master == obs.counters.end() || master->second == 0u);
}

TEST(ShardingLoad, FutexLeasesAreArbitratedByTheHome) {
  // Contended global mutex with hierarchical locking: the lease protocol
  // must run against the futex's home, not the master.
  const auto program = must(workloads::mutex_stress(16, 300, /*global=*/true));
  ClusterConfig config = sharded_config(4);
  config.dbt.quantum_insns = 500;
  config.sys.enable_hierarchical_locking = true;
  const Observation obs = observe(program, config);
  EXPECT_NE(obs.result.guest_stdout.find("4800"), std::string::npos)
      << "lost wakeup under sharded lease protocol";
  std::uint64_t futex_home_msgs = 0;
  for (NodeId n = 1; n <= 4; ++n) {
    const auto it =
        obs.counters.find("sys.futex_home_msgs." + std::to_string(n));
    if (it != obs.counters.end()) futex_home_msgs += it->second;
  }
  EXPECT_GT(futex_home_msgs, 0u) << "no futex traffic reached a slave home";
}

// ---- fault tolerance -------------------------------------------------------

TEST(ShardingFaults, HomeRecallsSurviveALossyWire) {
  const auto program = must(workloads::mutex_stress(8, 100, /*global=*/true));
  ClusterConfig lossy = sharded_config(2);
  lossy.dbt.quantum_insns = 500;
  lossy.faults.enabled = true;
  lossy.faults.seed = 7;
  lossy.faults.drop_pct = 2;
  lossy.faults.dup_pct = 1;
  lossy.faults.jitter_pct = 5;
  ClusterConfig clean = lossy;
  clean.faults.enabled = false;

  const Observation faulty = observe(program, lossy);
  const Observation base = observe(program, clean);
  expect_same_guest_results(faulty, base);
  EXPECT_NE(faulty.result.guest_stdout.find("800"), std::string::npos);
  // Lossy runs stay byte-reproducible, like every other subsystem.
  expect_identical(faulty, observe(program, lossy));
}

// ---- scale -----------------------------------------------------------------

TEST(ShardingScale, SixtyFourHomesServeAWalk) {
  // 64 slave homes at the default 256 MiB guest: a home's directory costs
  // what its pages touch, not the size of the guest space. The Release-mode
  // CI scale-smoke job runs the full scenario through dqemu_run with
  // byte-identity checked across two runs.
  ClusterConfig config = sharded_config(64);
  config.guest_mem_bytes = ClusterConfig{}.guest_mem_bytes;
  const auto program = must(workloads::memwalk(512 * 1024, 8, true));
  const Observation obs = observe(program, config);
  EXPECT_EQ(obs.result.exit_code, 0u);
  std::uint32_t homes_hit = 0;
  for (NodeId n = 1; n <= 64; ++n) {
    if (obs.counters.contains("dsm.home_msgs." + std::to_string(n))) {
      ++homes_hit;
    }
  }
  // A 128-page walk over 64 hash buckets cannot hit every home, but it
  // must spread far beyond any single hot spot.
  EXPECT_GE(homes_hit, 32u);
}

}  // namespace
}  // namespace dqemu
