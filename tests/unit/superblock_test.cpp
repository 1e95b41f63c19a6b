// Unit tests: DBT traces and superblock stitching (DESIGN.md section 15).
//
// Formation, micro-op fusion cost equivalence, side exits, invalidation
// and the virtual-time contract: stop points, costs and faults equal to
// the per-instruction block interpreter's, pinned from its runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dbt/exec.hpp"
#include "dbt/llsc_table.hpp"
#include "dbt/superblock.hpp"
#include "dbt/translation.hpp"
#include "isa/assembler.hpp"

namespace dqemu::dbt {
namespace {

using isa::Assembler;
using enum isa::Reg;

constexpr GuestAddr kData = 0x00100000;  // scratch page, RW in the harness

/// Same single-space harness as dbt_test, with superblock knobs exposed.
struct Harness {
  explicit Harness(std::function<void(Assembler&)> emit,
                   bool check_protection = false, DbtConfig dbt_config = {},
                   TranslationCache::SbEventHook sb_event_hook = {})
      : space(32u << 20, 4096),
        config(dbt_config),
        llsc(stats),
        cache(space, config, stats, std::move(sb_event_hook)),
        engine(space, shadow, llsc, cache, config, stats),
        shadow(4096, 4) {
    Assembler a;
    emit(a);
    auto result = a.finalize();
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    program = result.take();
    space.load_program(program);
    if (!check_protection) {
      space.set_all_access(mem::PageAccess::kReadWrite);
    }
    ctx.pc = program.entry;
    ctx.tid = 1;
  }

  ExecResult run(std::uint64_t max_insns = 100000) {
    return engine.run(ctx, max_insns);
  }

  StatsRegistry stats;
  mem::AddressSpace space;
  DbtConfig config;
  LlscTable llsc;
  TranslationCache cache;
  ExecEngine engine;
  mem::ShadowMap shadow;
  isa::Program program;
  CpuContext ctx;
};

DbtConfig hot_config() {
  DbtConfig dbt;
  dbt.sb_hot_threshold = 4;  // form traces almost immediately
  return dbt;
}

/// A hot loop: a load feeding an ALU op, an ALU op feeding a store, and the
/// loop-closing addi+bne, which the trace builder fuses into one op.
/// Iterates `reps` times.
void emit_fusion_loop(Assembler& a, std::int64_t reps) {
  a.li(kT1, kData);
  a.li(kT0, reps);
  a.li(kT3, 0);
  Assembler::Label loop = a.here();
  a.lw(kT2, kT1, 0);
  a.add(kT3, kT3, kT2);     // reads the loaded kT2
  a.addi(kT4, kT3, 1);
  a.sw(kT1, kT4, 0);        // stores the kT4 just computed
  a.addi(kT0, kT0, -1);     // fused addi+bne: the addi...
  a.bne(kT0, kZero, loop);  //   ...and the branch testing its result
  a.syscall(1);
}

/// Reference model of emit_fusion_loop's final state.
struct FusionLoopModel {
  std::uint32_t t3 = 0;
  std::uint32_t mem = 0;
};
FusionLoopModel fusion_loop_model(std::int64_t reps) {
  FusionLoopModel m;
  for (std::int64_t i = 0; i < reps; ++i) {
    m.t3 += m.mem;
    m.mem = m.t3 + 1;
  }
  return m;
}

// ---- virtual-time contract ---------------------------------------------------
//
// The constants below were recorded at commit
// 82ecc67bc11dad9285e3f02eed4d8d42e3fccd2c on the per-instruction block
// interpreter this engine replaced, with that commit's superblock tier and
// fast paths switched off.

TEST(SuperblockEquivalence, VirtualTimeAndStateIdenticalOnOff) {
  // Every quantum stop of the hot fusion loop, in lockstep: an odd quantum
  // stops mid-loop, so each intermediate stop must agree, not just the end.
  struct Stop {
    StopReason reason;
    std::uint64_t insns;
    std::uint64_t cycles;
    GuestAddr pc;
  };
  constexpr Stop kBlockInterpreterStops[] = {
      {StopReason::kQuantum, 261, 2254, 0x0001000c},
      {StopReason::kQuantum, 258, 2236, 0x0001000c},
      {StopReason::kQuantum, 258, 2236, 0x0001000c},
      {StopReason::kQuantum, 258, 2236, 0x0001000c},
      {StopReason::kSyscall, 169, 1462, 0x00010028},
  };
  const std::int64_t reps = 200;
  Harness h([&](Assembler& a) { emit_fusion_loop(a, reps); }, false,
            hot_config());
  for (std::size_t step = 0; step < std::size(kBlockInterpreterStops);
       ++step) {
    const Stop& want = kBlockInterpreterStops[step];
    const ExecResult r = h.run(257);
    ASSERT_EQ(r.reason, want.reason) << "step " << step;
    ASSERT_EQ(r.insns, want.insns) << "step " << step;
    ASSERT_EQ(r.exec_cycles, want.cycles) << "step " << step;
    ASSERT_EQ(h.ctx.pc, want.pc) << "step " << step;
  }
  EXPECT_GE(h.stats.get("dbt.sb_exec"), 1u);  // the loop ran as a trace
  const FusionLoopModel model = fusion_loop_model(reps);
  EXPECT_EQ(h.ctx.gpr[kT3], model.t3);
  EXPECT_EQ(h.space.load(kData, 4), model.mem);
}

TEST(SuperblockEquivalence, ProtectionFaultMidLoopMatchesBlockEngine) {
  // Flip the data page read-only after a few quanta: the trace's store
  // must fault at the same instruction count, pc and fault address as the
  // block interpreter did — the addi feeding the store retired, the store
  // itself not.
  Harness h([](Assembler& a) { emit_fusion_loop(a, 100000); },
            /*check_protection=*/true, hot_config());
  h.space.set_all_access(mem::PageAccess::kReadWrite);
  std::uint64_t insns = 0, cycles = 0;
  ExecResult r;
  int steps = 0;
  for (;;) {
    r = h.run(509);
    insns += r.insns;
    cycles += r.exec_cycles;
    if (++steps == 3) {
      h.space.set_access(h.space.page_of(kData), mem::PageAccess::kRead);
    }
    if (r.reason != StopReason::kQuantum || steps >= 100) break;
  }
  EXPECT_EQ(r.reason, StopReason::kPageFault);
  EXPECT_TRUE(r.fault_is_write);
  EXPECT_EQ(r.fault_addr, kData);
  EXPECT_EQ(steps, 4);
  EXPECT_EQ(insns, 1537u);
  EXPECT_EQ(cycles, 13310u);
  EXPECT_EQ(h.ctx.pc, 0x0001001cu);
  EXPECT_EQ(h.ctx.gpr[kT3], 0xffffffffu);
}

// ---- stops inside a stitched trace -------------------------------------------
//
// A loop whose stitched trace crosses both kinds of inner block edge: the
// head block is 64 addi, cut by length, so a cut-block boundary follows
// it; the next block opens with a load and ends in a jal, a guard; the
// last opens with a store and closes the loop. Each stop below lands on
// the first op after one of those edges, where the ops before it belong
// to the previous block. Values recorded at
// 593a42ae546a59569c6a3ccf46baa146daacdec7, which retired every op as it
// ran.

constexpr GuestAddr kLoadPage = 0x00200000;   // read after the cut
constexpr GuestAddr kStorePage = 0x00300000;  // written after the jal

void emit_edge_loop(Assembler& a) {
  a.li(kT1, kLoadPage);
  a.li(kS0, kStorePage);
  a.li(kT0, 1000);
  Assembler::Label loop = a.here("loop");
  for (int i = 0; i < 64; ++i) a.addi(kT3, kT3, 1);
  a.here("after_cut");
  a.lw(kT2, kT1, 0);
  a.add(kT3, kT3, kT2);
  Assembler::Label after_jal = a.make_label("after_jal");
  a.j(after_jal);
  a.bind(after_jal);
  a.sw(kS0, kT3, 0);
  a.addi(kT0, kT0, -1);
  a.bne(kT0, kZero, loop);
  a.syscall(1);
}

/// Runs the edge loop in quanta of one block until its head has a stitched
/// trace and the next run enters it there.
void warm_edge_loop(Harness& h) {
  h.space.set_all_access(mem::PageAccess::kReadWrite);
  const GuestAddr loop = h.program.symbol("loop");
  for (int steps = 0; steps < 1000; ++steps) {
    ASSERT_EQ(h.run(1).reason, StopReason::kQuantum);
    if (h.ctx.pc == loop && h.cache.superblock_at(loop) != nullptr) return;
  }
  FAIL() << "the edge loop never stitched";
}

TEST(SuperblockStops, FaultOnTheFirstOpAfterAGuard) {
  Harness h(emit_edge_loop, /*check_protection=*/true, hot_config());
  warm_edge_loop(h);
  h.space.set_access(h.space.page_of(kStorePage), mem::PageAccess::kRead);
  const std::uint64_t sb_exec = h.stats.get("dbt.sb_exec");
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kPageFault);
  EXPECT_TRUE(r.fault_is_write);
  EXPECT_EQ(r.fault_addr, kStorePage);
  EXPECT_EQ(r.insns, 67u);
  EXPECT_EQ(r.exec_cycles, 410u);
  EXPECT_EQ(h.ctx.pc, h.program.symbol("after_jal"));
  EXPECT_EQ(h.stats.get("dbt.sb_exec"), sb_exec + 1);
}

TEST(SuperblockStops, FaultOnTheFirstOpAfterACutBlockBoundary) {
  Harness h(emit_edge_loop, /*check_protection=*/true, hot_config());
  warm_edge_loop(h);
  h.space.set_access(h.space.page_of(kLoadPage), mem::PageAccess::kNone);
  const std::uint64_t sb_exec = h.stats.get("dbt.sb_exec");
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kPageFault);
  EXPECT_FALSE(r.fault_is_write);
  EXPECT_EQ(r.fault_addr, kLoadPage);
  EXPECT_EQ(r.insns, 64u);
  EXPECT_EQ(r.exec_cycles, 384u);
  EXPECT_EQ(h.ctx.pc, h.program.symbol("after_cut"));
  EXPECT_EQ(h.stats.get("dbt.sb_exec"), sb_exec + 1);
}

TEST(SuperblockStops, QuantumStopsAtACutBlockBoundary) {
  Harness h(emit_edge_loop, /*check_protection=*/true, hot_config());
  warm_edge_loop(h);
  const std::uint64_t sb_exec = h.stats.get("dbt.sb_exec");
  const ExecResult r = h.run(64);
  ASSERT_EQ(r.reason, StopReason::kQuantum);
  EXPECT_EQ(r.insns, 64u);
  EXPECT_EQ(r.exec_cycles, 384u);
  EXPECT_EQ(h.ctx.pc, h.program.symbol("after_cut"));
  EXPECT_EQ(h.stats.get("dbt.sb_exec"), sb_exec + 1);
}

// ---- formation introspection ------------------------------------------------

TEST(SuperblockFormation, HotLoopFormsLoopingTraceWithFusedPairs) {
  Harness h([](Assembler& a) { emit_fusion_loop(a, 200); }, false,
            hot_config());
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);

  EXPECT_EQ(h.stats.get("dbt.sb_formed"), 1u);
  EXPECT_EQ(h.cache.superblock_count(), 1u);
  EXPECT_GE(h.stats.get("dbt.sb_exec"), 1u);
  EXPECT_GT(h.stats.get("dbt.fused_ops"), 100u);  // addi+bne, most iterations

  const std::vector<SuperblockInfo> census = h.cache.superblock_census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_TRUE(census[0].loops);
  EXPECT_EQ(census[0].blocks, 1u);
  EXPECT_EQ(census[0].insns, 6u);
  EXPECT_EQ(census[0].fused_pairs, 1u);  // addi+bne
  EXPECT_GE(census[0].exec_count, 1u);

  bool head_flagged = false;
  for (const HotBlockInfo& b : h.cache.hot_census()) {
    if (b.pc == census[0].entry_pc) {
      head_flagged = b.has_sb;
      EXPECT_GE(b.hot_count, h.config.sb_hot_threshold);
    }
  }
  EXPECT_TRUE(head_flagged);
}

/// Cost equivalence of a stitched trace, pinned against both the per-insn
/// cost source (op_cost) and the constituent blocks' MicroOps. An op's own
/// instructions and cost are its through-counts less its predecessor's in
/// the same block.
void expect_trace_charges_its_blocks(Harness& h, const Superblock& sb) {
  std::uint64_t sb_cost = 0;
  std::uint32_t sb_insns = 0;
  for (std::size_t i = 0; i < sb.ops.size(); ++i) {
    const SbOp& op = sb.ops[i];
    const SbOp* prev = op.block_head ? nullptr : &sb.ops[i - 1];
    const std::uint32_t own_insns =
        op.through_insns - (prev != nullptr ? prev->through_insns : 0);
    const std::uint32_t own_cost =
        op.through_cycles - (prev != nullptr ? prev->through_cycles : 0);
    EXPECT_EQ(own_insns, op.n_insns) << "op " << i;
    std::uint32_t want_cost = op.n_insns == 0 ? 0 : h.cache.op_cost(op.a);
    if (op.n_insns == 2) want_cost += h.cache.op_cost(op.b);
    EXPECT_EQ(own_cost, want_cost) << "op " << i;
    sb_cost += own_cost;
    sb_insns += own_insns;
  }
  std::uint64_t block_cost = 0;
  std::uint32_t block_insns = 0;
  for (const GuestAddr pc : sb.block_pcs) {
    TranslationBlock* tb = h.cache.lookup(pc);
    ASSERT_NE(tb, nullptr);
    for (const MicroOp& mop : tb->ops) {
      block_cost += mop.cost_cycles;
      ++block_insns;
    }
  }
  EXPECT_EQ(sb_cost, block_cost);
  EXPECT_EQ(sb_insns, block_insns);
  EXPECT_EQ(sb_insns, sb.guest_insns);
}

TEST(SuperblockFormation, FusedOpsChargeExactlyTheUnfusedCosts) {
  Harness h([](Assembler& a) { emit_fusion_loop(a, 64); }, false,
            hot_config());
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  const std::vector<SuperblockInfo> census = h.cache.superblock_census();
  ASSERT_EQ(census.size(), 1u);
  const Superblock* sb = h.cache.superblock_at(census[0].entry_pc);
  ASSERT_NE(sb, nullptr);
  expect_trace_charges_its_blocks(h, *sb);
}

// The same across a Boundary op, which runs no instruction and charges
// nothing of its own.
TEST(SuperblockFormation, BoundaryOpsChargeNothingOfTheirOwn) {
  Harness h(emit_edge_loop, /*check_protection=*/true, hot_config());
  warm_edge_loop(h);
  const Superblock* sb = h.cache.superblock_at(h.program.symbol("loop"));
  ASSERT_NE(sb, nullptr);
  ASSERT_EQ(sb->block_pcs.size(), 3u);
  ASSERT_EQ(sb->ops.size(), 64u + 1 + 3 + 2);
  const SbOp& boundary = sb->ops[64];
  EXPECT_EQ(boundary.kind, SbOpKind::kBoundary);
  EXPECT_EQ(boundary.through_insns, 64u);
  EXPECT_EQ(boundary.boundary_pc, h.program.symbol("after_cut"));
  expect_trace_charges_its_blocks(h, *sb);
}

TEST(SuperblockFormation, InnerLoopExitIsACountedSideExit) {
  DbtConfig dbt = hot_config();
  Harness h(
      [](Assembler& a) {
        a.li(kS0, 50);  // outer
        Assembler::Label outer = a.here();
        a.li(kT0, 8);  // inner
        Assembler::Label inner = a.here();
        a.addi(kT0, kT0, -1);
        a.bne(kT0, kZero, inner);
        a.addi(kS0, kS0, -1);
        a.bne(kS0, kZero, outer);
        a.syscall(1);
      },
      false, dbt);
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_GE(h.stats.get("dbt.sb_formed"), 1u);
  // Every completed inner loop leaves its trace through the guarded
  // branch's off-trace direction.
  EXPECT_GE(h.stats.get("dbt.sb_side_exit"), 10u);
  EXPECT_EQ(h.ctx.gpr[kS0], 0u);
  EXPECT_EQ(h.ctx.gpr[kT0], 0u);
}

TEST(SuperblockInvalidation, DroppingAConstituentPageKillsTheTrace) {
  // Lay the loop out across a page boundary: ~1000 filler instructions
  // push the loop body toward the end of the first code page, and a
  // 90-instruction straight-line body forces a cut block that lands on
  // the next page. The formed trace then has constituent blocks on two
  // pages; invalidating the second page must kill the whole trace while
  // the head block (first page) survives.
  Harness h(
      [](Assembler& a) {
        for (int i = 0; i < 1000; ++i) a.addi(kT4, kT4, 1);
        a.li(kT0, 400);
        Assembler::Label loop = a.here();
        for (int i = 0; i < 90; ++i) a.addi(kT3, kT3, 1);
        a.addi(kT0, kT0, -1);
        a.bne(kT0, kZero, loop);
        a.syscall(1);
      },
      false, hot_config());
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  ASSERT_GE(h.cache.superblock_count(), 1u);

  const std::vector<SuperblockInfo> census = h.cache.superblock_census();
  const Superblock* sb = h.cache.superblock_at(census[0].entry_pc);
  ASSERT_NE(sb, nullptr);
  ASSERT_GE(sb->pages.size(), 2u) << "layout regression: trace fits a page";
  ASSERT_GE(sb->block_pcs.size(), 2u);
  const GuestAddr entry = sb->entry_pc;
  const std::uint32_t head_page = h.space.page_of(entry);
  std::uint32_t tail_page = 0;
  for (const std::uint32_t page : sb->pages) {
    if (page != head_page) tail_page = page;
  }
  ASSERT_NE(tail_page, head_page);

  TranslationBlock* head_tb = h.cache.lookup(entry);
  ASSERT_NE(head_tb, nullptr);
  h.cache.invalidate_page(tail_page);

  EXPECT_EQ(h.cache.superblock_count(), 0u);
  EXPECT_EQ(h.cache.superblock_at(entry), nullptr);
  EXPECT_EQ(h.stats.get("dbt.sb_invalidated"), 1u);
  EXPECT_TRUE(h.cache.contains_block(head_tb));  // block outlives its trace
  EXPECT_EQ(head_tb->sb, nullptr);
}

TEST(SuperblockInvalidation, EventHookSeesFormationAndFlush) {
  std::vector<SbEvent> events;
  std::vector<GuestAddr> entries;
  Harness h([](Assembler& a) { emit_fusion_loop(a, 100); }, false,
            hot_config(), [&](SbEvent e, const Superblock& sb) {
              events.push_back(e);
              entries.push_back(sb.entry_pc);
            });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], SbEvent::kFormed);

  h.cache.flush();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], SbEvent::kInvalidated);
  EXPECT_EQ(entries[0], entries[1]);
  EXPECT_EQ(h.cache.superblock_count(), 0u);
}

// ---- dispatch ------------------------------------------------------------

// Kind 0 is a default-constructed op's. The label table gives it a handler
// of its own, which stops the run at an assert instead of running the op
// as some other kind.
TEST(TraceDispatchDeathTest, UnsetKindStopsAtTheAssert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Harness h([](Assembler& a) {
    a.addi(kT0, kZero, 1);
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  TranslationBlock* tb = h.cache.lookup(h.program.entry);
  ASSERT_NE(tb, nullptr);
  ASSERT_EQ(tb->trace.ops.front().kind, op_kind(isa::Opcode::kAddi));
  tb->trace.ops.front().kind = SbOpKind{};
  h.ctx.pc = h.program.entry;
  EXPECT_DEATH(h.run(), "every trace op has a kind");
}

}  // namespace
}  // namespace dqemu::dbt
