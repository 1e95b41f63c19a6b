// Determinism regressions for the DBT's host-side machinery (DESIGN.md
// sections 10 and 15), plus same-config reproducibility checks for the
// protocol features further down.
//
// The DBT has one executor: every block runs as a trace of pre-decoded ops
// with a software TLB, an indirect-jump cache and an LL/SC store filter in
// front of the slow paths, and hot chains are stitched into multi-block
// traces. All of that is host-side only, so every virtual-time observable
// — final stats, per-thread time breakdowns, guest output, histograms and
// the exported trace — must equal what the per-instruction block
// interpreter produced. That interpreter is gone; its results are pinned
// below as constants. Only the counters in superblock_divergent_counters()
// may differ, because they count host-side work itself.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "dsm/wire.hpp"
#include "sys/wire.hpp"
#include "testutil.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads/micro.hpp"
#include "workloads/parsec.hpp"
#include "workloads/serve.hpp"

namespace dqemu {
namespace {

/// Counters that measure the DBT's host-side caches themselves; everything
/// else must be identical between two runs of the same config.
const std::set<std::string> kHostOnlyCounters = {
    "dbt.tlb_hit",       "dbt.tlb_miss", "dbt.jmp_cache_hit",
    "dbt.llsc_fastpath", "dbt.tcache_hit",
};

/// Counters that depend on how guest code is dispatched rather than on
/// what it does: the cache counters above, translation-cache probes (a
/// jump-cache hit skips the hash map), and the sb.* family, which follows
/// trace formation, stitching and fusion. dbt.chain_hit counted the block
/// interpreter's direct chaining; that counter is gone, but the pinned
/// digests below were recorded without it. Everything virtual-time related
/// must match the block interpreter's pinned results exactly.
std::set<std::string> superblock_divergent_counters() {
  std::set<std::string> keys = kHostOnlyCounters;
  keys.insert({"dbt.tcache_miss", "dbt.chain_hit", "dbt.sb_formed",
               "dbt.sb_invalidated", "dbt.sb_exec", "dbt.sb_side_exit",
               "dbt.fused_ops", "dbt.sb_blocks", "dbt.sb_insns",
               "dbt.fused_pairs"});
  return keys;
}

struct Observation {
  core::Cluster::RunResult result;
  std::map<std::string, std::uint64_t, std::less<>> counters;  ///< host-only keys removed
  std::string trace_json;                         ///< counter records excluded
  std::string hist_dump;  ///< every registry histogram (latency distributions)
};

Observation observe_with(const isa::Program& program, ClusterConfig config,
                         const std::set<std::string>& host_only =
                             kHostOnlyCounters) {
  // Counter snapshots sample the host-only counters into the trace, so the
  // export would trivially differ; every other category must match.
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
  for (const auto& key : host_only) obs.counters.erase(key);
  for (const auto& [name, hist] : cluster.stats().histograms()) {
    obs.hist_dump += name + " " + hist.to_string() + "\n";
  }

  std::ostringstream out;
  trace::write_chrome_json(tracer, out);
  obs.trace_json = out.str();
  return obs;
}

void expect_identical(const Observation& on, const Observation& off) {
  EXPECT_EQ(on.result.exit_code, off.result.exit_code);
  EXPECT_EQ(on.result.sim_time, off.result.sim_time);
  EXPECT_EQ(on.result.guest_insns, off.result.guest_insns);
  EXPECT_EQ(on.result.guest_stdout, off.result.guest_stdout);

  ASSERT_EQ(on.result.per_thread.size(), off.result.per_thread.size());
  for (const auto& [tid, b] : on.result.per_thread) {
    const auto it = off.result.per_thread.find(tid);
    ASSERT_NE(it, off.result.per_thread.end()) << "tid " << tid;
    EXPECT_EQ(b.execute, it->second.execute) << "tid " << tid;
    EXPECT_EQ(b.translate, it->second.translate) << "tid " << tid;
    EXPECT_EQ(b.pagefault, it->second.pagefault) << "tid " << tid;
    EXPECT_EQ(b.syscall, it->second.syscall) << "tid " << tid;
    EXPECT_EQ(b.idle, it->second.idle) << "tid " << tid;
  }

  // Whole-map equality gives a readable diff on failure via the dump below.
  EXPECT_EQ(on.counters, off.counters);
  if (on.counters != off.counters) {
    for (const auto& [key, value] : on.counters) {
      const auto it = off.counters.find(key);
      if (it == off.counters.end()) {
        ADD_FAILURE() << key << " only exists in the first run";
      } else if (it->second != value) {
        ADD_FAILURE() << key << ": first=" << value
                      << " second=" << it->second;
      }
    }
  }

  EXPECT_EQ(on.trace_json, off.trace_json);
  EXPECT_EQ(on.hist_dump, off.hist_dump);
}

isa::Program must(Result<isa::Program> r) {
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? r.take() : isa::Program{};
}

/// 64-bit FNV-1a of `bytes`.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return digest;
}

// ---- the block interpreter's results, pinned --------------------------------
//
// What expect_identical() compares, reduced to one row per scenario. The
// rows were recorded at commit 82ecc67bc11dad9285e3f02eed4d8d42e3fccd2c
// with that commit's DBT fast paths and superblock tier switched off, that
// is, on the per-instruction block interpreter with no software TLB, jump
// cache, LL/SC store filter or traces; that commit's on/off tests had
// already shown its accelerated engine byte-identical to it.

struct PinnedObservation {
  const char* scenario;
  std::uint32_t exit_code;
  TimePs sim_time;
  std::uint64_t guest_insns;
  const char* guest_stdout;
  std::uint64_t breakdown_digest;  ///< per-thread TimeBreakdown fields
  std::uint64_t counters_digest;   ///< minus superblock_divergent_counters()
  std::uint64_t hist_digest;       ///< every registry histogram
  std::uint64_t trace_digest;      ///< default categories minus counters
};

constexpr PinnedObservation kBlockInterpreterRuns[] = {
    {"mutex_stress_global_4n", 0, 17216233924ull, 12446ull, "400\n",
     0xf21de4bbf3a2b989ull, 0x3b83f06a9e0134afull,
     0xcbf29ce484222325ull, 0xbbc9d74d5fa34be9ull},
    {"false_sharing_split_4n", 0, 4194930057ull, 8138ull, "",
     0x59ff79d87b164bb8ull, 0x8e22af96c42bbddbull,
     0xcbf29ce484222325ull, 0x6c136cccc64e0f9aull},
    {"memwalk_256k_3n", 0, 31247688325ull, 917959ull, "",
     0x27f13b07b7c8eff6ull, 0x3ed9eb049344047full,
     0xcbf29ce484222325ull, 0x6b22ea53aa0d2f86ull},
    {"memwalk_128k_2n", 0, 16794312343ull, 459047ull, "",
     0x699565545a6e9bebull, 0x9e60f620f87b8a6full,
     0xcbf29ce484222325ull, 0x959f61f4d6bc0a7bull},
};

/// Digests of the parts of an Observation a pinned row stores as hashes.
struct ObservationDigests {
  std::uint64_t breakdowns = 0;
  std::uint64_t counters = 0;
  std::uint64_t hists = 0;
  std::uint64_t trace = 0;
};

ObservationDigests digests_of(const Observation& obs) {
  std::string breakdowns;
  for (const auto& [tid, b] : obs.result.per_thread) {
    breakdowns += std::to_string(tid) + ":" + std::to_string(b.execute) +
                  "," + std::to_string(b.translate) + "," +
                  std::to_string(b.pagefault) + "," +
                  std::to_string(b.syscall) + "," + std::to_string(b.idle) +
                  ";";
  }
  std::string counters;
  for (const auto& [name, value] : obs.counters) {
    counters += name + "=" + std::to_string(value) + ";";
  }
  return {fnv1a(breakdowns), fnv1a(counters), fnv1a(obs.hist_dump),
          fnv1a(obs.trace_json)};
}

/// The observation as a kBlockInterpreterRuns row, for (re-)recording.
std::string pinned_row(const char* scenario, const Observation& obs) {
  const ObservationDigests d = digests_of(obs);
  std::string escaped;
  for (const char c : obs.result.guest_stdout) {
    escaped += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  char row[512];
  std::snprintf(row, sizeof row,
                "{\"%s\", %u, %" PRIu64 "ull, %" PRIu64 "ull, \"%s\",\n"
                " 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull,\n"
                " 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},",
                scenario, obs.result.exit_code, obs.result.sim_time,
                obs.result.guest_insns, escaped.c_str(), d.breakdowns,
                d.counters, d.hists, d.trace);
  return row;
}

/// Runs `program` under `config` and checks it against its pinned row.
void expect_pinned(const char* scenario, const isa::Program& program,
                   const ClusterConfig& config) {
  const Observation obs =
      observe_with(program, config, superblock_divergent_counters());
  const PinnedObservation* pinned = nullptr;
  for (const PinnedObservation& row : kBlockInterpreterRuns) {
    if (std::string_view(row.scenario) == scenario) pinned = &row;
  }
  ASSERT_NE(pinned, nullptr) << "no pinned row; measured\n"
                             << pinned_row(scenario, obs);
  SCOPED_TRACE("measured row:\n" + pinned_row(scenario, obs));
  const ObservationDigests d = digests_of(obs);
  EXPECT_EQ(obs.result.exit_code, pinned->exit_code);
  EXPECT_EQ(obs.result.sim_time, pinned->sim_time);
  EXPECT_EQ(obs.result.guest_insns, pinned->guest_insns);
  EXPECT_EQ(obs.result.guest_stdout, pinned->guest_stdout);
  EXPECT_EQ(d.breakdowns, pinned->breakdown_digest);
  EXPECT_EQ(d.counters, pinned->counters_digest);
  EXPECT_EQ(d.hists, pinned->hist_digest);
  EXPECT_EQ(d.trace, pinned->trace_digest);
}

/// A hot threshold low enough that traces form inside these small
/// workloads, so stitching, side exits and trace invalidation all run.
ClusterConfig hot_trace_config(std::uint32_t nodes) {
  ClusterConfig config = test::test_config(nodes);
  config.dbt.sb_hot_threshold = 4;
  return config;
}

TEST(FastPathDeterminism, MutexStressGlobalLock) {
  // Heavy LL/SC contention plus DSM page migration: exercises the LL/SC
  // store filter and TLB invalidation on protection changes.
  expect_pinned("mutex_stress_global_4n",
                must(workloads::mutex_stress(8, 50, /*global=*/true)),
                test::test_config(4));
}

TEST(FastPathDeterminism, FalseSharingWalkWithSplitting) {
  // Page splitting rewrites the shadow map mid-run: exercises TLB
  // invalidation on split and the identity-only caching rule.
  expect_pinned("false_sharing_split_4n",
                must(workloads::false_sharing_walk(8, 128, 4, 4)),
                test::test_config(4));
}

TEST(FastPathDeterminism, MemwalkMultiNode) {
  // Bulk sequential memory traffic across nodes: per-op TLB lines and the
  // software TLB carry nearly every access; the jump cache serves the
  // function-return jalrs.
  expect_pinned("memwalk_256k_3n",
                must(workloads::memwalk(256 * 1024, 2, true)),
                test::test_config(3));
}

TEST(SuperblockDeterminism, MutexStressGlobalLock) {
  // LL/SC retry loops are hot and full of side exits; traces form and die
  // across DSM protection changes.
  expect_pinned("mutex_stress_global_4n",
                must(workloads::mutex_stress(8, 50, /*global=*/true)),
                hot_trace_config(4));
}

TEST(SuperblockDeterminism, MemwalkMultiNode) {
  // The walk loop is the canonical straight-line trace: its four byte
  // loads feed no ALU op, and its loop-closing addi+bne runs as one fused
  // op on every iteration.
  expect_pinned("memwalk_256k_3n",
                must(workloads::memwalk(256 * 1024, 2, true)),
                hot_trace_config(3));
}

TEST(SuperblockDeterminism, FusionToggleIsInvisible) {
  // Fused ops must charge exactly the unfused costs: the pinned row was
  // recorded without any fusion.
  expect_pinned("memwalk_128k_2n",
                must(workloads::memwalk(128 * 1024, 2, true)),
                hot_trace_config(2));
}

// Hierarchical locking (DESIGN.md section 11) is a *protocol* change, not a
// host-side one: it legitimately shifts virtual time and retired-instruction
// counts (LL/SC spins end sooner when lock handoff is faster). What must
// hold instead: the guest-visible results are byte-identical in both modes
// (the mutex_stress checksum catches any lost wakeup or broken mutual
// exclusion), the optimization never makes the contended case slower, and
// each mode is individually deterministic run to run.

/// Contended lock regime: a quantum short enough to preempt threads inside
/// the critical section, so waiters actually park in the futex.
ClusterConfig locking_config(std::uint32_t nodes, bool hier) {
  ClusterConfig config = test::test_config(nodes);
  config.dbt.quantum_insns = 500;
  config.sys.enable_hierarchical_locking = hier;
  return config;
}

TEST(HierLockingDeterminism, GlobalMutexSameGuestResultsAndNoSlower) {
  // Enough threads and iterations that workers outlive the spawn span and
  // genuinely contend — below that the lock is usually free and leasing has
  // nothing to win (see bench/ablation_locking.cpp for the swept version).
  const auto program =
      must(workloads::mutex_stress(32, 1000, /*global=*/true));
  const Observation on = observe_with(program, locking_config(4, true));
  const Observation off = observe_with(program, locking_config(4, false));
  EXPECT_EQ(on.result.exit_code, off.result.exit_code);
  EXPECT_EQ(on.result.guest_stdout, off.result.guest_stdout);
  // The checksum epilogue prints threads * iters iff no wakeup was lost.
  EXPECT_NE(on.result.guest_stdout.find("32000"), std::string::npos);
  EXPECT_LE(on.result.sim_time, off.result.sim_time);
}

TEST(HierLockingDeterminism, PrivateMutexSameGuestResultsAndNoSlower) {
  const auto program =
      must(workloads::mutex_stress(8, 200, /*global=*/false));
  const Observation on = observe_with(program, locking_config(4, true));
  const Observation off = observe_with(program, locking_config(4, false));
  EXPECT_EQ(on.result.exit_code, off.result.exit_code);
  EXPECT_EQ(on.result.guest_stdout, off.result.guest_stdout);
  EXPECT_LE(on.result.sim_time, off.result.sim_time);
}

TEST(HierLockingDeterminism, BarrierWakeAllsTravelAsBatches) {
  // A barrier's wake-all finds several waiters on one remote node; the
  // lock agent sends them as one kWakeBatch message per node, and they
  // must resume exactly as the master's per-waiter wakes resume them.
  const auto program =
      must(workloads::fluidanimate_like({.threads = 32, .iters = 4}));
  ClusterConfig hier = test::test_config(4);
  hier.sys.enable_hierarchical_locking = true;
  const Observation on = observe_with(program, hier);
  const Observation off = observe_with(program, test::test_config(4));
  EXPECT_EQ(on.result.exit_code, off.result.exit_code);
  EXPECT_EQ(on.result.guest_stdout, off.result.guest_stdout);
  const auto counter = [&on](std::string_view key) -> std::uint64_t {
    const auto it = on.counters.find(key);
    return it == on.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(counter("sys.wake_batches"), 0u);
  EXPECT_GE(counter("sys.wake_batch_wakes"), 2 * counter("sys.wake_batches"));
}

TEST(HierLockingDeterminism, EnabledModeIsRunToRunDeterministic) {
  const auto program = must(workloads::mutex_stress(16, 200, /*global=*/true));
  expect_identical(observe_with(program, locking_config(4, true)),
                   observe_with(program, locking_config(4, true)));
}

// Fault injection (DESIGN.md section 13) replays faults from a counter-based
// PRNG keyed only by FaultConfig::seed and the transmission number, so a
// lossy run is exactly as reproducible as a clean one: same seed, same
// drops, same retransmits, same virtual times — down to the exported trace.
// And because the reliable channel hides every fault from the layers above,
// the *guest-visible* results of a faulty run must equal the clean run's.

ClusterConfig fault_config(std::uint32_t nodes, std::uint32_t seed) {
  ClusterConfig config = test::test_config(nodes);
  config.dbt.quantum_insns = 500;
  config.faults.enabled = true;
  config.faults.seed = seed;
  config.faults.drop_pct = 2;
  config.faults.dup_pct = 1;
  config.faults.jitter_pct = 5;
  return config;
}

TEST(FaultDeterminism, SameSeedLossyRunsAreByteIdentical) {
  const auto program = must(workloads::mutex_stress(16, 100, /*global=*/true));
  expect_identical(observe_with(program, fault_config(2, 7)),
                   observe_with(program, fault_config(2, 7)));
}

TEST(FaultDeterminism, DifferentSeedsChangeTheWireButNotTheGuest) {
  const auto program = must(workloads::mutex_stress(16, 100, /*global=*/true));
  const Observation a = observe_with(program, fault_config(2, 1));
  const Observation b = observe_with(program, fault_config(2, 2));
  EXPECT_EQ(a.result.exit_code, b.result.exit_code);
  EXPECT_EQ(a.result.guest_stdout, b.result.guest_stdout);
  EXPECT_NE(a.result.guest_stdout.find("1600"), std::string::npos);
  // Different fault schedules: the runs are honestly different on the wire.
  EXPECT_NE(a.counters.at("net.dropped"), b.counters.at("net.dropped"));
}

TEST(FaultDeterminism, LossyGuestResultsMatchTheCleanRun) {
  // Guest *results* (exit code, stdout) must survive the lossy wire
  // untouched. Retired-instruction counts may legitimately shift: delayed
  // lock handoffs change how long LL/SC retry loops spin.
  std::uint64_t total_retrans = 0;
  for (const auto* name : {"mutex_stress", "false_sharing", "memwalk"}) {
    isa::Program program;
    if (std::string(name) == "mutex_stress") {
      program = must(workloads::mutex_stress(16, 100, /*global=*/true));
    } else if (std::string(name) == "false_sharing") {
      program = must(workloads::false_sharing_walk(8, 128, 4, 2));
    } else {
      program = must(workloads::memwalk(128 * 1024, 2, true));
    }
    ClusterConfig clean = fault_config(2, 1);
    clean.faults.enabled = false;
    const Observation faulty = observe_with(program, fault_config(2, 1));
    const Observation base = observe_with(program, clean);
    EXPECT_EQ(faulty.result.exit_code, base.result.exit_code) << name;
    EXPECT_EQ(faulty.result.guest_stdout, base.result.guest_stdout) << name;
    // Loss costs virtual time; recovery must bound the inflation.
    EXPECT_LT(faulty.result.sim_time, base.result.sim_time * 3) << name;
    const auto it = faulty.counters.find("net.retrans");
    if (it != faulty.counters.end()) total_retrans += it->second;
  }
  // At 2% loss at least one of the three runs must have actually recovered
  // something, or this test proves nothing.
  EXPECT_GT(total_retrans, 0u);
}

TEST(FaultDeterminism, DisabledFaultsLeaveTheCleanRunUntouched) {
  // The master determinism gate for this PR: constructing the fault
  // machinery but leaving it disabled must not move a single picosecond.
  const auto program = must(workloads::mutex_stress(8, 50, /*global=*/true));
  ClusterConfig off = test::test_config(2);
  ClusterConfig constructed = test::test_config(2);
  constructed.faults.seed = 99;      // non-default knobs, gate still off
  constructed.faults.drop_pct = 50;  // ignored while enabled=false
  expect_identical(observe_with(program, off),
                   observe_with(program, constructed));
}

// The serving plane (DESIGN.md §14) must inherit the simulator's
// bit-reproducibility: every arrival, dispatch and latency is a pure
// function of (config, seed), so two same-seed runs agree on everything —
// including the latency histograms (hist_dump) and the per-request trace
// flows — and a serving-disabled config cannot perturb a batch run.

ClusterConfig serving_config(std::uint32_t nodes, std::uint64_t seed) {
  ClusterConfig config = test::test_config(nodes);
  config.serve.enabled = true;
  config.serve.seed = seed;
  config.serve.requests = 200;
  config.serve.rate = 8000.0;
  config.serve.workers = 8;
  return config;
}

TEST(ServeDeterminism, SameSeedRunsAreByteIdentical) {
  const auto program = must(workloads::serve_pool({.workers = 8}));
  expect_identical(observe_with(program, serving_config(2, 7)),
                   observe_with(program, serving_config(2, 7)));
}

TEST(ServeDeterminism, SameSeedRunsAreByteIdenticalUnderLoss) {
  const auto program = must(workloads::serve_pool({.workers = 8}));
  ClusterConfig config = serving_config(2, 7);
  config.faults.enabled = true;
  config.faults.seed = 3;
  config.faults.drop_pct = 2;
  config.faults.dup_pct = 1;
  config.faults.jitter_pct = 5;
  expect_identical(observe_with(program, config),
                   observe_with(program, config));
}

TEST(ServeDeterminism, DifferentServeSeedChangesOnlyTheServingPlane) {
  const auto program = must(workloads::serve_pool({.workers = 8}));
  const Observation a = observe_with(program, serving_config(2, 7));
  const Observation b = observe_with(program, serving_config(2, 8));
  // The guest-visible results are seed-invariant: the pool completes every
  // execution whatever the arrival schedule.
  EXPECT_EQ(a.result.exit_code, b.result.exit_code);
  EXPECT_EQ(a.result.guest_stdout, b.result.guest_stdout);
  EXPECT_EQ(a.result.guest_stdout, "200\n");
  EXPECT_EQ(a.counters.at("serve.retired"), b.counters.at("serve.retired"));
  // But the serving plane honestly changed: different arrival times mean a
  // different latency distribution.
  EXPECT_NE(a.hist_dump, b.hist_dump);
}

TEST(ServeDeterminism, DisabledServingReproducesTheBatchBaseline) {
  // The runtime-switch contract: serve knobs set but enabled=false must
  // not move a single picosecond of a batch run.
  const auto program = must(workloads::mutex_stress(8, 50, /*global=*/true));
  ClusterConfig off = test::test_config(2);
  ClusterConfig constructed = test::test_config(2);
  constructed.serve.seed = 99;        // non-default knobs, gate still off
  constructed.serve.requests = 5000;  // ignored while enabled=false
  constructed.serve.rate = 1e6;
  expect_identical(observe_with(program, off),
                   observe_with(program, constructed));
}

// ---- every record site, pinned ----------------------------------------------
//
// The determinism tests above compare two runs of one build, so they cannot
// see a change to what a trace record says. These rows pin the text export
// of runs that reach the serving, lossy-wire, watchdog, crash, pause, lease,
// home-sharding, split/diff/forwarding, migration, event-queue and DBT
// record sites, with every category but kCounter (counter records sample
// host-only counters). kDbt records follow host-side trace formation, so
// they have their own digest: a formation change re-pins that one value.
// No run here reaches sys.lease_revoked, sys.wake_batched or
// dbt.sb_invalidated. Recorded at commit
// 9a9940490a6037d1c838c620eb2f3d78e2f1fa4a.

struct PinnedTrace {
  const char* scenario;
  std::size_t records;         ///< exported records, for a readable diff
  std::uint64_t trace_digest;  ///< every category but kCounter and kDbt
  std::uint64_t dbt_digest;    ///< kDbt records only
};

constexpr PinnedTrace kRecordSiteRuns[] = {
    {"serve_2n", 10244, 0xb86d56cefd60eeddull, 0x389b48f8400ca642ull},
    {"lossy_mutex_2n", 3834, 0xb94946a0ba25fe96ull, 0xcae89208919dbedfull},
    {"recall_watchdog_2n", 6110, 0x4bd91a4dbdb37a9eull, 0xc18b5dd6b94fb625ull},
    {"dsm_watchdog_2n", 640, 0x8c3abab8b94246dfull, 0xe097b4116aca10edull},
    {"crash_900us_4n", 14012, 0xe56b7fd86c2a69faull, 0xe06465fdb02d6078ull},
    {"crash_1500us_4n", 12425, 0xd3bee14ae4017316ull, 0x73c1aa3a0b85d8e2ull},
    {"pause_4n", 13057, 0x3c1adbabd9e2a6fdull, 0xa948e640990979c2ull},
    {"crash_sharded_hier_4n", 12441, 0x684637ad598f44fbull,
     0xcfc4e828fb4fc138ull},
    {"sharded_hier_mutex_4n", 4598, 0xe8f1488aad464dabull,
     0x123587ec055f8298ull},
    {"false_sharing_split_diff_4n", 5055, 0x2a2360549b28daa5ull,
     0x40a1dbaedfe57818ull},
    {"memwalk_forward_3n", 1129, 0xd2596b36d1686bf0ull, 0xb75f159ad1d74cc8ull},
    {"migrate_3n", 7681, 0xe1457616fce96496ull, 0x91ac5df0e7230b93ull},
    {"hot_traces_2n", 1255, 0x07e449a877d9b590ull, 0x1bfc2b9dd96a9209ull},
};

PinnedTrace trace_digests(
    const char* scenario, const isa::Program& program,
    const ClusterConfig& config,
    const std::function<void(core::Cluster&)>& before_run) {
  trace::TraceConfig trace_config;
  trace_config.categories =
      trace::kAllCategories & ~trace::cat_bit(trace::Cat::kCounter);
  trace::Tracer tracer(trace_config);
  core::Cluster cluster(config, &tracer);
  const Status load_status = cluster.load(program);
  EXPECT_TRUE(load_status.is_ok()) << load_status.to_string();
  if (before_run) before_run(cluster);
  const auto run = cluster.run();
  EXPECT_TRUE(run.is_ok()) << run.status().to_string();
  EXPECT_EQ(tracer.dropped(), 0u) << "ring too small to pin every record";

  std::string rest;
  std::string dbt;
  std::size_t records = 0;
  std::istringstream lines(trace::to_text(tracer));
  for (std::string line; std::getline(lines, line); ++records) {
    std::istringstream fields(line);
    std::string time, kind, cat;
    fields >> time >> kind >> cat;
    (cat == trace::cat_name(trace::Cat::kDbt) ? dbt : rest) += line + '\n';
  }
  return {scenario, records, fnv1a(rest), fnv1a(dbt)};
}

/// Runs `program` under `config` and checks it against its pinned row.
void expect_pinned_trace(
    const char* scenario, const isa::Program& program,
    const ClusterConfig& config,
    const std::function<void(core::Cluster&)>& before_run = {}) {
  const PinnedTrace got = trace_digests(scenario, program, config, before_run);
  char row[160];
  std::snprintf(row, sizeof row,
                "{\"%s\", %zu, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},",
                scenario, got.records, got.trace_digest, got.dbt_digest);
  const PinnedTrace* pinned = nullptr;
  for (const PinnedTrace& r : kRecordSiteRuns) {
    if (std::string_view(r.scenario) == scenario) pinned = &r;
  }
  ASSERT_NE(pinned, nullptr) << "no pinned row; measured\n" << row;
  SCOPED_TRACE(std::string("measured row:\n") + row);
  EXPECT_EQ(got.records, pinned->records);
  EXPECT_EQ(got.trace_digest, pinned->trace_digest);
  EXPECT_EQ(got.dbt_digest, pinned->dbt_digest);
}

/// node_fault_test's serving cluster with one scripted node fault.
ClusterConfig node_fault_config(FaultConfig::NodeFault::Kind kind, NodeId node,
                                TimePs at, DurationPs pause_for = 0) {
  ClusterConfig config = test::test_config(4);
  config.serve.enabled = true;
  config.serve.requests = 200;
  config.serve.rate = 4000.0;
  config.serve.workers = 12;
  config.faults.enabled = true;
  config.faults.node_faults.push_back(
      {.kind = kind, .node = node, .at = at, .pause_for = pause_for});
  return config;
}

TEST(TraceSites, ServingRun) {
  expect_pinned_trace("serve_2n", must(workloads::serve_pool({.workers = 8})),
                      serving_config(2, 7));
}

TEST(TraceSites, LossyWireWithDropDupAndJitter) {
  expect_pinned_trace("lossy_mutex_2n",
                      must(workloads::mutex_stress(16, 100, /*global=*/true)),
                      fault_config(2, 7));
}

TEST(TraceSites, ProtocolWatchdogsFire) {
  // fault_test's FaultRecovery runs: one dropped lease return or page grant
  // behind a far-off retransmit, so the recall and DSM watchdogs re-issue.
  using time_literals::kMs;
  ClusterConfig recall = locking_config(2, /*hier=*/true);
  recall.faults.enabled = true;
  recall.sys.lease_min_hold = 1 * kMs;
  recall.faults.retrans_timeout = 20 * kMs;
  recall.faults.retrans_cap = 40 * kMs;
  recall.faults.request_timeout = 2 * kMs;
  recall.faults.rules.push_back(
      {.type = static_cast<std::uint32_t>(sys::SysMsg::kLeaseReturn),
       .drop_pct = 100,
       .max_matches = 1});
  expect_pinned_trace("recall_watchdog_2n",
                      must(workloads::mutex_stress(16, 200, /*global=*/true)),
                      recall);
  ClusterConfig grant = test::test_config(2);
  grant.faults.enabled = true;
  grant.faults.retrans_timeout = 50 * kMs;
  grant.faults.retrans_cap = 100 * kMs;
  grant.faults.request_timeout = 2 * kMs;
  grant.faults.rules.push_back(
      {.type = static_cast<std::uint32_t>(dsm::DsmMsg::kPageData),
       .src = kMasterNode,
       .drop_pct = 100,
       .max_matches = 1});
  expect_pinned_trace("dsm_watchdog_2n",
                      must(workloads::memwalk(32 * 1024, 1, true)), grant);
}

TEST(TraceSites, NodeCrashAndPause) {
  using Kind = FaultConfig::NodeFault::Kind;
  using time_literals::kUs;
  const auto program = must(workloads::serve_pool({.workers = 12}));
  expect_pinned_trace("crash_900us_4n", program,
                      node_fault_config(Kind::kCrash, 2, 900 * kUs));
  expect_pinned_trace("crash_1500us_4n", program,
                      node_fault_config(Kind::kCrash, 2, 1500 * kUs));
  expect_pinned_trace("pause_4n", program,
                      node_fault_config(Kind::kPause, 3, 800 * kUs,
                                        500 * kUs));
  ClusterConfig sharded = node_fault_config(Kind::kCrash, 2, 900 * kUs);
  sharded.dsm.enable_home_sharding = true;
  sharded.dsm.home_placement = HomePlacement::kFirstTouch;
  sharded.sys.enable_hierarchical_locking = true;
  expect_pinned_trace("crash_sharded_hier_4n", program, sharded);
}

TEST(TraceSites, HomeShardedLeases) {
  ClusterConfig config = locking_config(4, /*hier=*/true);
  config.dsm.enable_home_sharding = true;
  expect_pinned_trace("sharded_hier_mutex_4n",
                      must(workloads::mutex_stress(16, 50, /*global=*/true)),
                      config);
}

TEST(TraceSites, DsmSplitDiffAndForwarding) {
  ClusterConfig split_diff = test::test_config(4);
  split_diff.sched.policy = SchedPolicy::kHintLocality;
  split_diff.dsm.enable_splitting = true;
  split_diff.dsm.enable_diff_transfers = true;
  expect_pinned_trace("false_sharing_split_diff_4n",
                      must(workloads::false_sharing_walk(32, 128, 400, 4)),
                      split_diff);
  ClusterConfig forwarding = test::test_config(3);
  forwarding.dsm.enable_forwarding = true;
  expect_pinned_trace("memwalk_forward_3n",
                      must(workloads::memwalk(128 * 1024, 2, true)),
                      forwarding);
}

TEST(TraceSites, ThreadMigration) {
  // Cluster.MigrationMovesThread's run: migrate tid 2 once the workers exist.
  expect_pinned_trace(
      "migrate_3n", must(workloads::pi_taylor(2, 4000, 1000)),
      test::test_config(3), [](core::Cluster& cluster) {
        (void)cluster.queue().run(600);
        const NodeId from = cluster.thread_node(2);
        EXPECT_TRUE(cluster.migrate_thread(2, from == 1 ? 2 : 1).is_ok());
      });
}

TEST(TraceSites, HotTracesWithQueueAndDbtRecords) {
  expect_pinned_trace("hot_traces_2n",
                      must(workloads::mutex_stress(4, 20, /*global=*/true)),
                      hot_trace_config(2));
}

// ---- the paper baseline, pinned -------------------------------------------
//
// Each feature added on top of the paper has exactly one switch, a runtime
// config field, and with all of them off the simulator must still be the
// paper's protocol, bit for bit. This pins that: one scenario per paper
// figure or table, on the single-node baseline and on 2 and 4 slaves, run
// once with every switch off and once with the default config. Both runs
// must reproduce the constants below, which were recorded at commit
// 7c7802f20cadedd7631fdf311efe68ecba28e6e0 with every feature compiled out,
// configured by this one command line (bash brace expansion):
//   cmake -S . -B build-off -DCMAKE_BUILD_TYPE=RelWithDebInfo
//     -DDQEMU_ENABLE_{PARALLEL_SIM,FASTPATH,SUPERBLOCKS,LOCK_FASTPATH}=OFF
//     -DDQEMU_ENABLE_{DSM_DIFF,FAULTS,SERVING,HOME_SHARDING,NODE_FAULTS}=OFF

struct PaperScenario {
  const char* name;
  Result<isa::Program> (*build)();
};

constexpr PaperScenario kPaperScenarios[] = {
    {"fig5_pi", [] { return workloads::pi_taylor(8, 1, 200); }},
    {"fig6_mutex_global",
     [] { return workloads::mutex_stress(8, 40, /*global=*/true); }},
    {"fig7_blackscholes",
     [] {
       return workloads::blackscholes_like(
           {.threads = 8, .options_n = 1024, .reps = 1});
     }},
    {"fig7_swaptions",
     [] {
       return workloads::swaptions_like(
           {.threads = 8, .swaptions_n = 8, .trials = 40});
     }},
    {"fig7_x264",
     [] {
       return workloads::x264_like({.threads = 16,
                                    .groups = 4,
                                    .rounds = 2,
                                    .frame_bytes = 4096,
                                    .compute_words = 256});
     }},
    {"fig7_fluidanimate",
     [] {
       return workloads::fluidanimate_like({.threads = 16,
                                            .rows_per_thread = 1,
                                            .cols = 512,
                                            .iters = 2,
                                            .hint_groups = 4});
     }},
    {"fig8_table1_memwalk",
     [] { return workloads::memwalk(64 * 1024, 1, /*touch_first=*/true); }},
};

struct PinnedRun {
  const char* scenario;
  std::uint32_t slaves;  ///< 0 = the single-node baseline
  std::uint32_t exit_code;
  TimePs sim_time;
  std::uint64_t guest_insns;
  const char* guest_stdout;
  std::uint64_t counters_digest;  ///< FNV-1a over "name=value;" pairs
};

constexpr PinnedRun kPaperBaseline[] = {
    {"fig5_pi", 0, 0, 86085446ull, 10640ull, "3136592\n",
     0x3d8ca4ef738af64full},
    {"fig5_pi", 2, 0, 3356129208ull, 10640ull, "3136592\n",
     0x1d6e86eee50394c9ull},
    {"fig5_pi", 4, 0, 4355592480ull, 10640ull, "3136592\n",
     0x19f9075220799aadull},
    {"fig6_mutex_global", 0, 0, 86520598ull, 8578ull, "320\n",
     0xc5424effe72c7c55ull},
    {"fig6_mutex_global", 2, 0, 10430681929ull, 10512ull, "320\n",
     0x2c1c8901bd76c224ull},
    {"fig6_mutex_global", 4, 0, 17215652106ull, 10526ull, "320\n",
     0x22282af44b52bbfbull},
    {"fig7_blackscholes", 0, 0, 113156964ull, 46110ull, "355118\n",
     0x9a7d9d4ba5220519ull},
    {"fig7_blackscholes", 2, 0, 5961523508ull, 46103ull, "355118\n",
     0x2a6061abbba5f094ull},
    {"fig7_blackscholes", 4, 0, 7497339386ull, 46103ull, "355118\n",
     0x7af912bce4e01703ull},
    {"fig7_swaptions", 0, 0, 87269083ull, 8787ull, "2102\n",
     0xeed97da7e0179eb3ull},
    {"fig7_swaptions", 2, 0, 3657860118ull, 8787ull, "2102\n",
     0xb24d956df78a0536ull},
    {"fig7_swaptions", 4, 0, 4632483997ull, 8787ull, "2102\n",
     0x53d8a7f6955651b6ull},
    {"fig7_x264", 0, 0, 322357554ull, 265963ull, "156672\n",
     0xbb0e05beb6dc883cull},
    {"fig7_x264", 2, 0, 13682774410ull, 266189ull, "156672\n",
     0xe78a41450c8266abull},
    {"fig7_x264", 4, 0, 19592050770ull, 266180ull, "156672\n",
     0x54282b55476c2d59ull},
    {"fig7_fluidanimate", 0, 0, 296867250ull, 183552ull, "333333\n",
     0x30b108c3991bf0abull},
    {"fig7_fluidanimate", 2, 0, 12923767378ull, 183638ull, "333333\n",
     0xffbea801f7b9c974ull},
    {"fig7_fluidanimate", 4, 0, 15187735866ull, 183659ull, "333333\n",
     0xf26376e8e1be481full},
    {"fig8_table1_memwalk", 0, 0, 407645452ull, 114899ull, "",
     0x45601ec1d6ee4f4eull},
    {"fig8_table1_memwalk", 2, 0, 9198036471ull, 114899ull, "",
     0xba194c3cb79af703ull},
    {"fig8_table1_memwalk", 4, 0, 9198036471ull, 114899ull, "",
     0xba194c3cb79af703ull},
};

struct MeasuredRun {
  std::uint32_t exit_code = 0;
  TimePs sim_time = 0;
  std::uint64_t guest_insns = 0;
  std::string guest_stdout;
  std::uint64_t counters_digest = 0;
};

ClusterConfig every_switch_off(ClusterConfig config) {
  config.sim.host_threads = 1;
  config.sys.enable_hierarchical_locking = false;
  config.dsm.enable_diff_transfers = false;
  config.dsm.enable_home_sharding = false;
  config.faults.enabled = false;
  config.faults.node_faults.clear();
  config.serve.enabled = false;
  return config;
}

MeasuredRun measure(const isa::Program& program, const ClusterConfig& config) {
  MeasuredRun measured;
  core::Cluster cluster(config);
  const Status load_status = cluster.load(program);
  EXPECT_TRUE(load_status.is_ok()) << load_status.to_string();
  auto run = cluster.run();
  EXPECT_TRUE(run.is_ok()) << run.status().to_string();
  if (!run.is_ok()) return measured;
  const core::Cluster::RunResult result = run.take();
  measured.exit_code = result.exit_code;
  measured.sim_time = result.sim_time;
  measured.guest_insns = result.guest_insns;
  measured.guest_stdout = result.guest_stdout;

  const std::set<std::string> host_only = superblock_divergent_counters();
  std::string counters;
  for (const auto& [name, value] : cluster.stats().counters()) {
    if (host_only.contains(name)) continue;
    counters += name + "=" + std::to_string(value) + ";";
  }
  measured.counters_digest = fnv1a(counters);
  return measured;
}

/// The measured run as a kPaperBaseline row, for (re-)recording the table.
std::string as_row(const char* scenario, std::uint32_t slaves,
                   const MeasuredRun& m) {
  std::string escaped;
  for (const char c : m.guest_stdout) {
    escaped += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  char row[256];
  std::snprintf(row, sizeof row,
                "{\"%s\", %u, %u, %" PRIu64 "ull, %" PRIu64 "ull, \"%s\",\n"
                " 0x%016" PRIx64 "ull},",
                scenario, slaves, m.exit_code, m.sim_time, m.guest_insns,
                escaped.c_str(), m.counters_digest);
  return row;
}

TEST(PaperBaseline, EverySwitchOffAndTheDefaultConfigMatchThePinnedRuns) {
  for (const PaperScenario& scenario : kPaperScenarios) {
    const isa::Program program = must(scenario.build());
    for (const std::uint32_t slaves : {0u, 2u, 4u}) {
      SCOPED_TRACE(std::string(scenario.name) +
                   " slaves=" + std::to_string(slaves));
      const PinnedRun* pinned = nullptr;
      for (const PinnedRun& row : kPaperBaseline) {
        if (std::string(row.scenario) == scenario.name && row.slaves == slaves)
          pinned = &row;
      }
      const ClusterConfig defaults = slaves == 0 ? test::baseline_config()
                                                 : test::test_config(slaves);
      const MeasuredRun off = measure(program, every_switch_off(defaults));
      const MeasuredRun on = measure(program, defaults);
      if (pinned == nullptr) {
        ADD_FAILURE() << "no pinned row; measured\n"
                      << as_row(scenario.name, slaves, off);
        continue;
      }
      for (const MeasuredRun* got : {&off, &on}) {
        SCOPED_TRACE(got == &off ? "every switch off" : "default config");
        EXPECT_EQ(got->exit_code, pinned->exit_code);
        EXPECT_EQ(got->sim_time, pinned->sim_time);
        EXPECT_EQ(got->guest_insns, pinned->guest_insns);
        EXPECT_EQ(got->guest_stdout, pinned->guest_stdout);
        EXPECT_EQ(got->counters_digest, pinned->counters_digest)
            << as_row(scenario.name, slaves, *got);
      }
    }
  }
}

}  // namespace
}  // namespace dqemu
