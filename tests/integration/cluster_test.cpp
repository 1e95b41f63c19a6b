// Integration tests: Cluster lifecycle, scheduling policies, migration,
// futex across nodes, limits, determinism properties.
#include <gtest/gtest.h>

#include <set>

#include "guestlib/runtime.hpp"
#include "isa/syscall_abi.hpp"
#include "testutil.hpp"
#include "workloads/micro.hpp"
#include "workloads/parsec.hpp"

namespace dqemu {
namespace {

using isa::Assembler;
using isa::Sys;
using test::baseline_config;
using test::must_finalize;
using test::run_program;
using test::test_config;
using enum isa::Reg;

isa::Program exit_with(std::uint32_t code) {
  Assembler a;
  a.li(kA0, static_cast<std::int64_t>(code));
  a.syscall(static_cast<std::int32_t>(Sys::kExitGroup));
  return must_finalize(a);
}

TEST(Cluster, ExitCodePropagates) {
  auto outcome = run_program(test_config(1), exit_with(77));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.exit_code, 77u);
}

TEST(Cluster, LoadTwiceFails) {
  core::Cluster cluster(test_config(1));
  EXPECT_TRUE(cluster.load(exit_with(0)).is_ok());
  EXPECT_FALSE(cluster.load(exit_with(0)).is_ok());
}

TEST(Cluster, RunWithoutLoadFails) {
  core::Cluster cluster(test_config(1));
  EXPECT_FALSE(cluster.run().is_ok());
}

TEST(Cluster, GuestErrorSurfacesAsInternal) {
  Assembler a;
  a.li(kT0, 0x1002);
  a.lw(kT1, kT0, 0);  // misaligned
  core::Cluster cluster(test_config(1));
  ASSERT_TRUE(cluster.load(must_finalize(a)).is_ok());
  const auto result = cluster.run();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("misaligned"), std::string::npos);
}

TEST(Cluster, DeadlockIsDetectedAndDumped) {
  // A thread futex-waits on a value nobody will ever change.
  Assembler a;
  auto word = a.make_label("word");
  a.la(kA0, word);
  a.li(kA1, static_cast<std::int32_t>(isa::kFutexWait));
  a.li(kA2, 1);
  a.syscall(static_cast<std::int32_t>(Sys::kFutex));
  a.bind_data(word);
  a.d_word(1);
  core::Cluster cluster(test_config(1));
  ASSERT_TRUE(cluster.load(must_finalize(a)).is_ok());
  const auto result = cluster.run();
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("deadlock"), std::string::npos);
  EXPECT_NE(result.status().message().find("tid 1"), std::string::npos);
}

TEST(Cluster, EventLimitTrips) {
  Assembler a;
  auto loop = a.here();
  a.j(loop);  // infinite loop
  core::Cluster cluster(test_config(1));
  ASSERT_TRUE(cluster.load(must_finalize(a)).is_ok());
  core::Cluster::RunLimits limits;
  limits.max_events = 1000;
  const auto result = cluster.run(limits);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Cluster, SimTimeLimitTrips) {
  Assembler a;
  auto loop = a.here();
  a.j(loop);
  core::Cluster cluster(test_config(1));
  ASSERT_TRUE(cluster.load(must_finalize(a)).is_ok());
  core::Cluster::RunLimits limits;
  limits.max_sim_time = time_literals::kMs;
  const auto result = cluster.run(limits);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Cluster, LocalSyscallsAnswerLocally) {
  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  guestlib::emit_crt0(a, main_fn);
  guestlib::Runtime rt = guestlib::emit_runtime(a);
  a.bind(main_fn);
  a.addi(kSp, kSp, -16);
  a.sw(kSp, kRa, 0);
  a.syscall(static_cast<std::int32_t>(Sys::kGettid));
  a.call(rt.print_u32);
  a.syscall(static_cast<std::int32_t>(Sys::kGetpid));
  a.call(rt.print_u32);
  a.syscall(static_cast<std::int32_t>(Sys::kGetcpu));
  a.call(rt.print_u32);
  a.li(kA0, 0);
  a.lw(kRa, kSp, 0);
  a.addi(kSp, kSp, 16);
  a.ret();
  auto outcome = run_program(test_config(2), must_finalize(a));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  // main: tid 1, pid 1, on the master (cpu 0).
  EXPECT_EQ(outcome.result.guest_stdout, "1\n1\n0\n");
}

TEST(Cluster, YieldReturnsZeroAndTheThreadContinues) {
  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  guestlib::emit_crt0(a, main_fn);
  guestlib::Runtime rt = guestlib::emit_runtime(a);
  a.bind(main_fn);
  a.addi(kSp, kSp, -16);
  a.sw(kSp, kRa, 0);
  a.syscall(static_cast<std::int32_t>(Sys::kYield));
  a.call(rt.print_u32);
  a.li(kA0, 7);
  a.call(rt.print_u32);
  a.li(kA0, 0);
  a.lw(kRa, kSp, 0);
  a.addi(kSp, kSp, 16);
  a.ret();
  auto outcome = run_program(test_config(2), must_finalize(a));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.guest_stdout, "0\n7\n");
}

TEST(Cluster, ClockGettimeAdvances) {
  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  guestlib::emit_crt0(a, main_fn);
  guestlib::Runtime rt = guestlib::emit_runtime(a);
  Assembler::Label buf = a.make_label("buf");
  a.bind(main_fn);
  a.addi(kSp, kSp, -16);
  a.sw(kSp, kRa, 0);
  a.li(kA0, 0);
  a.la(kA1, buf);
  a.syscall(static_cast<std::int32_t>(Sys::kClockGettime));
  // sleep 2ms, then read the clock again
  a.li(kA0, 2000000);
  a.syscall(static_cast<std::int32_t>(Sys::kNanosleep));
  a.li(kA0, 0);
  a.la(kA1, buf);
  a.addi(kA1, kA1, 8);
  a.syscall(static_cast<std::int32_t>(Sys::kClockGettime));
  // print nsec delta (assumes same second; fine at t < 1s)
  a.la(kT0, buf);
  a.lw(kT1, kT0, 4);
  a.lw(kT2, kT0, 12);
  a.sub(kA0, kT2, kT1);
  a.call(rt.print_u32);
  a.li(kA0, 0);
  a.lw(kRa, kSp, 0);
  a.addi(kSp, kSp, 16);
  a.ret();
  a.bind_data(buf);
  a.d_space(16);
  auto outcome = run_program(test_config(1), must_finalize(a));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  const long delta = std::stol(outcome.result.guest_stdout);
  EXPECT_GE(delta, 2000000);          // at least the sleep
  EXPECT_LT(delta, 10000000);         // but not wildly more
}

TEST(Cluster, RoundRobinSpreadsThreads) {
  // Workers report getcpu; with RR over 3 slaves all of 1,2,3 appear.
  const auto program = workloads::pi_taylor(6, 1, 10).take();
  ClusterConfig config = test_config(3);
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.load(program).is_ok());
  ASSERT_TRUE(cluster.run().is_ok());
  // Thread table: tids 2..7 spread over nodes 1..3.
  std::set<NodeId> nodes;
  for (GuestTid tid = 2; tid <= 7; ++tid) {
    nodes.insert(cluster.thread_node(tid));
  }
  EXPECT_EQ(nodes, (std::set<NodeId>{1, 2, 3}));
}

TEST(Cluster, HintLocalityGroupsThreads) {
  workloads::FluidanimateParams params;
  params.threads = 8;
  params.rows_per_thread = 1;
  params.cols = 64;
  params.iters = 2;
  params.hint_groups = 2;
  const auto program = workloads::fluidanimate_like(params).take();
  ClusterConfig config = test_config(2);
  config.sched.policy = SchedPolicy::kHintLocality;
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.load(program).is_ok());
  ASSERT_TRUE(cluster.run().is_ok());
  // block_groups(8, 2): threads 0-3 group 0 -> node 1; 4-7 group 1 -> node 2.
  for (GuestTid tid = 2; tid <= 5; ++tid)
    EXPECT_EQ(cluster.thread_node(tid), 1) << tid;
  for (GuestTid tid = 6; tid <= 9; ++tid)
    EXPECT_EQ(cluster.thread_node(tid), 2) << tid;
}

TEST(Cluster, HeterogeneousPlacementIsCapacityWeighted) {
  const auto program = workloads::pi_taylor(12, 1, 10).take();
  ClusterConfig config = test_config(2);
  config.node_machines.resize(3);
  config.node_machines[0] = config.machine;
  config.node_machines[1] = {3.3, 8, 4096};  // big node
  config.node_machines[2] = {3.3, 4, 4096};  // small node
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.load(program).is_ok());
  ASSERT_TRUE(cluster.run().is_ok());
  unsigned census[3] = {};
  for (GuestTid tid = 2; tid <= 13; ++tid) {
    const NodeId node = cluster.thread_node(tid);
    ASSERT_LT(node, 3);
    ++census[node];
  }
  EXPECT_EQ(census[1], 8u);  // 2:1 capacity ratio
  EXPECT_EQ(census[2], 4u);
}

TEST(Cluster, HeterogeneousConfigValidation) {
  ClusterConfig config = test_config(2);
  config.node_machines.resize(2);  // wrong size (needs 3 incl. master)
  EXPECT_FALSE(config.validate().is_ok());
  config.node_machines.resize(3, config.machine);
  EXPECT_TRUE(config.validate().is_ok());
  config.node_machines[1].page_size = 8192;  // mismatched page size
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(Cluster, BaselineHasNoDsmTraffic) {
  const auto program = workloads::pi_taylor(4, 1, 50).take();
  core::Cluster cluster(baseline_config());
  ASSERT_TRUE(cluster.load(program).is_ok());
  ASSERT_TRUE(cluster.run().is_ok());
  EXPECT_EQ(cluster.stats().get("core.page_faults"), 0u);
  EXPECT_EQ(cluster.stats().get("dir.read_reqs"), 0u);
  EXPECT_EQ(cluster.directory(), nullptr);
}

TEST(Cluster, MultiNodeRunsHaveFaultsAndInvariantsHold) {
  const auto program = workloads::false_sharing_walk(4, 128, 4, 2).take();
  core::Cluster cluster(test_config(2));
  ASSERT_TRUE(cluster.load(program).is_ok());
  ASSERT_TRUE(cluster.run().is_ok());
  EXPECT_GT(cluster.stats().get("core.page_faults"), 0u);
  ASSERT_NE(cluster.directory(), nullptr);
  EXPECT_TRUE(cluster.directory()->check_invariants());
}

TEST(Cluster, MigrationMovesThread) {
  // Spawn long-running workers, migrate one mid-run, expect completion and
  // an updated thread table.
  const auto program = workloads::pi_taylor(2, 4000, 1000).take();
  core::Cluster cluster(test_config(3));
  ASSERT_TRUE(cluster.load(program).is_ok());
  // Let the workers get created but not finish.
  (void)cluster.queue().run(600);
  const GuestTid victim = 2;
  const NodeId before = cluster.thread_node(victim);
  ASSERT_NE(before, kInvalidNode);
  const NodeId target = before == 1 ? 2 : 1;
  ASSERT_TRUE(cluster.migrate_thread(victim, target).is_ok());
  const auto result = cluster.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(cluster.thread_node(victim), target);
  EXPECT_GE(cluster.stats().get("core.migrations_sent"), 1u);
}

TEST(Cluster, MigrationValidation) {
  core::Cluster cluster(test_config(2));
  ASSERT_TRUE(cluster.load(exit_with(0)).is_ok());
  EXPECT_FALSE(cluster.migrate_thread(1, 99).is_ok());  // bad target
  EXPECT_FALSE(cluster.migrate_thread(42, 1).is_ok());  // unknown tid
  EXPECT_TRUE(cluster.migrate_thread(1, 0).is_ok());    // already there: ok
}

class NodeCountEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NodeCountEquivalence, MutexCounterResultIndependentOfPlacement) {
  // The coherence-correctness property: guest output must not depend on
  // how many nodes the threads are spread over.
  const auto program = workloads::mutex_stress(6, 40, /*global=*/true).take();
  auto reference = run_program(baseline_config(), program);
  ASSERT_TRUE(reference.ok) << reference.error;
  auto multi = run_program(test_config(GetParam()), program);
  ASSERT_TRUE(multi.ok) << multi.error;
  EXPECT_EQ(multi.result.exit_code, reference.result.exit_code);
  EXPECT_EQ(multi.result.guest_stdout, reference.result.guest_stdout);
}

INSTANTIATE_TEST_SUITE_P(OneToSix, NodeCountEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Cluster, PerThreadBreakdownsCoverLifetime) {
  const auto program = workloads::pi_taylor(4, 2, 100).take();
  auto outcome = run_program(test_config(2), program);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.result.per_thread.size(), 5u);  // main + 4 workers
  for (const auto& [tid, breakdown] : outcome.result.per_thread) {
    EXPECT_GT(breakdown.execute, 0u) << tid;
    // A thread's last slice is charged when it starts, so the breakdown
    // may overshoot the end of the run by up to one slice.
    EXPECT_LE(breakdown.total(),
              outcome.result.sim_time + time_literals::kMs) << tid;
  }
  EXPECT_GT(outcome.result.guest_insns, 0u);
}

}  // namespace
}  // namespace dqemu
