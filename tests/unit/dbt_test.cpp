// Unit tests: DBT translation cache, execution engine semantics, LL/SC.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "dbt/exec.hpp"
#include "dbt/llsc_table.hpp"
#include "dbt/translation.hpp"
#include "isa/assembler.hpp"

namespace dqemu::dbt {
namespace {

using isa::Assembler;
using enum isa::Reg;
using enum isa::FReg;

/// Single-space harness: assemble, load, run with full access.
struct Harness {
  explicit Harness(std::function<void(Assembler&)> emit,
                   bool check_protection = false, DbtConfig dbt_config = {})
      : space(32u << 20, 4096),
        config(dbt_config),
        llsc(stats),
        cache(space, config, stats),
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

// ---- integer semantics (parameterized sweep) --------------------------------

struct AluCase {
  const char* name;
  void (Assembler::*emit)(isa::Reg, isa::Reg, isa::Reg);
  std::uint32_t a;
  std::uint32_t b;
  std::uint32_t expected;
};

// gtest prints the parameter into the listed test name (and so the CTest
// name). Its default byte dump would include the `name` pointer, which moves
// with every load of the binary.
void PrintTo(const AluCase& c, std::ostream* os) { *os << c.name; }

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, ComputesExpected) {
  const AluCase& c = GetParam();
  Harness h([&](Assembler& a) {
    a.li(kT0, static_cast<std::int64_t>(static_cast<std::int32_t>(c.a)));
    a.li(kT1, static_cast<std::int64_t>(static_cast<std::int32_t>(c.b)));
    (a.*c.emit)(kT2, kT0, kT1);
    a.syscall(1);
  });
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT2], c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    IntegerOps, AluSemantics,
    ::testing::Values(
        AluCase{"add", &Assembler::add, 7, 8, 15},
        AluCase{"add_wraps", &Assembler::add, 0xFFFFFFFF, 1, 0},
        AluCase{"sub", &Assembler::sub, 5, 9, std::uint32_t(-4)},
        AluCase{"mul", &Assembler::mul, 100, 200, 20000},
        AluCase{"mul_wraps", &Assembler::mul, 0x10000, 0x10000, 0},
        AluCase{"div_signed", &Assembler::div, std::uint32_t(-20), 3,
                std::uint32_t(-6)},
        AluCase{"div_by_zero", &Assembler::div, 20, 0, 0xFFFFFFFF},
        AluCase{"div_overflow", &Assembler::div, 0x80000000,
                std::uint32_t(-1), 0x80000000},
        AluCase{"divu", &Assembler::divu, 0xFFFFFFFE, 2, 0x7FFFFFFF},
        AluCase{"divu_by_zero", &Assembler::divu, 5, 0, 0xFFFFFFFF},
        AluCase{"rem_signed", &Assembler::rem, std::uint32_t(-20), 3,
                std::uint32_t(-2)},
        AluCase{"rem_by_zero", &Assembler::rem, 17, 0, 17},
        AluCase{"rem_overflow", &Assembler::rem, 0x80000000,
                std::uint32_t(-1), 0},
        AluCase{"remu", &Assembler::remu, 10, 3, 1},
        AluCase{"and", &Assembler::and_, 0xF0F0, 0xFF00, 0xF000},
        AluCase{"or", &Assembler::or_, 0xF0F0, 0x0F0F, 0xFFFF},
        AluCase{"xor", &Assembler::xor_, 0xFF, 0x0F, 0xF0},
        AluCase{"sll", &Assembler::sll, 1, 31, 0x80000000},
        AluCase{"sll_mod32", &Assembler::sll, 1, 33, 2},
        AluCase{"srl", &Assembler::srl, 0x80000000, 31, 1},
        AluCase{"sra_negative", &Assembler::sra, 0x80000000, 31, 0xFFFFFFFF},
        AluCase{"slt_true", &Assembler::slt, std::uint32_t(-1), 0, 1},
        AluCase{"slt_false", &Assembler::slt, 0, std::uint32_t(-1), 0},
        AluCase{"sltu_true", &Assembler::sltu, 0, std::uint32_t(-1), 1},
        AluCase{"sltu_false", &Assembler::sltu, std::uint32_t(-1), 0, 0}),
    [](const ::testing::TestParamInfo<AluCase>& param) {
      return param.param.name;
    });

TEST(ExecSemantics, ZeroRegisterIsImmutable) {
  Harness h([](Assembler& a) {
    a.addi(kZero, kZero, 123);
    a.li(kT0, 5);
    a.add(kZero, kT0, kT0);
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[0], 0u);
}

TEST(ExecSemantics, LuiAuipc) {
  Harness h([](Assembler& a) {
    a.lui(kT0, 0x12345);
    a.auipc(kT1, 1);  // pc of auipc + 0x1000
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT0], 0x12345000u);
  EXPECT_EQ(h.ctx.gpr[kT1], isa::kDefaultCodeOrigin + 4 + 0x1000);
}

TEST(ExecSemantics, LoadSignExtension) {
  Harness h([](Assembler& a) {
    auto data = a.make_label("data");
    a.la(kT0, data);
    a.lb(kT1, kT0, 0);
    a.lbu(kT2, kT0, 0);
    a.lh(kT3, kT0, 0);
    a.lhu(kT4, kT0, 0);
    a.syscall(1);
    a.bind_data(data);
    a.d_word(0x0000FF80);  // byte 0 = 0x80, half = 0xFF80
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT1], 0xFFFFFF80u);
  EXPECT_EQ(h.ctx.gpr[kT2], 0x80u);
  EXPECT_EQ(h.ctx.gpr[kT3], 0xFFFFFF80u);
  EXPECT_EQ(h.ctx.gpr[kT4], 0xFF80u);
}

TEST(ExecSemantics, StoreWidths) {
  Harness h([](Assembler& a) {
    auto data = a.make_label("data");
    a.la(kT0, data);
    a.li(kT1, 0x11223344);
    a.sb(kT0, kT1, 0);
    a.sh(kT0, kT1, 2);
    a.sw(kT0, kT1, 4);
    a.syscall(1);
    a.bind_data(data);
    a.d_space(8);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  const GuestAddr base = h.program.symbol("data");
  EXPECT_EQ(h.space.load(base, 4), 0x33440044u);
  EXPECT_EQ(h.space.load(base + 4, 4), 0x11223344u);
}

TEST(ExecSemantics, BranchTakenAndNotTaken) {
  Harness h([](Assembler& a) {
    auto target = a.make_label();
    auto join = a.make_label();
    a.li(kT0, 1);
    a.beq(kT0, kZero, target);  // not taken
    a.li(kT1, 10);
    a.bne(kT0, kZero, join);    // taken
    a.bind(target);
    a.li(kT1, 20);
    a.bind(join);
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT1], 10u);
}

TEST(ExecSemantics, JalLinksAndJalrReturns) {
  Harness h([](Assembler& a) {
    auto func = a.make_label("func");
    a.call(func);           // jal ra
    a.li(kT1, 99);
    a.syscall(1);
    a.bind(func);
    a.li(kT0, 55);
    a.ret();                // jalr zero, ra
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT0], 55u);
  EXPECT_EQ(h.ctx.gpr[kT1], 99u);
}

TEST(ExecSemantics, JalrClearsLowBits) {
  Harness h([](Assembler& a) {
    auto target = a.make_label("t");
    a.la(kT0, target);
    a.ori(kT0, kT0, 2);  // misalign on purpose
    a.jalr(kRa, kT0, 0); // & ~3 -> lands on target
    a.bind(target);
    a.li(kT1, 7);
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT1], 7u);
}

TEST(ExecSemantics, HintSetsGroupAndSentinelClears) {
  Harness h([](Assembler& a) {
    a.hint(5);
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.hint_group, 5);

  Harness h2([](Assembler& a) {
    a.hint(3);
    a.hint(0xFFFF);
    a.syscall(1);
  });
  ASSERT_EQ(h2.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h2.ctx.hint_group, -1);
}

TEST(ExecSemantics, SyscallAdvancesPcAndReportsNumber) {
  Harness h([](Assembler& a) {
    a.nop();
    a.syscall(13);
  });
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  EXPECT_EQ(r.syscall_num, 13);
  EXPECT_EQ(h.ctx.pc, isa::kDefaultCodeOrigin + 8);
  EXPECT_EQ(r.insns, 2u);
}

// ---- FP ----------------------------------------------------------------------

TEST(ExecSemantics, FpArithmetic) {
  Harness h([](Assembler& a) {
    a.fli(kF0, 3.0);
    a.fli(kF1, 4.0);
    a.fmul(kF2, kF0, kF1);   // 12
    a.fadd(kF2, kF2, kF1);   // 16
    a.fsqrt(kF3, kF2);       // 4
    a.fdiv(kF4, kF3, kF0);   // 4/3
    a.fneg(kF5, kF4);
    a.fabs_(kF6, kF5);
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_DOUBLE_EQ(h.ctx.fpr[kF2], 16.0);
  EXPECT_DOUBLE_EQ(h.ctx.fpr[kF3], 4.0);
  EXPECT_DOUBLE_EQ(h.ctx.fpr[kF6], 4.0 / 3.0);
  EXPECT_LT(h.ctx.fpr[kF5], 0.0);
}

TEST(ExecSemantics, FpSpecials) {
  Harness h([](Assembler& a) {
    a.fli(kF0, 1.0);
    a.fexp(kF1, kF0);   // e
    a.flog(kF2, kF1);   // 1
    a.fli(kF3, 2.0);
    a.fpow(kF4, kF3, kF3);  // 4
    a.ferf(kF5, kF0);
    a.fsin(kF6, kF0);
    a.fcos(kF7, kF0);
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_NEAR(h.ctx.fpr[kF1], std::exp(1.0), 1e-12);
  EXPECT_NEAR(h.ctx.fpr[kF2], 1.0, 1e-12);
  EXPECT_NEAR(h.ctx.fpr[kF4], 4.0, 1e-12);
  EXPECT_NEAR(h.ctx.fpr[kF5], std::erf(1.0), 1e-12);
  EXPECT_NEAR(h.ctx.fpr[kF6], std::sin(1.0), 1e-12);
  EXPECT_NEAR(h.ctx.fpr[kF7], std::cos(1.0), 1e-12);
}

TEST(ExecSemantics, FpConversionsAndCompares) {
  Harness h([](Assembler& a) {
    a.li(kT0, -7);
    a.fcvt_d_w(kF0, kT0);     // -7.0
    a.fli(kF1, 2.5);
    a.fcvt_w_d(kT1, kF1);     // trunc -> 2
    a.flt(kT2, kF0, kF1);     // -7 < 2.5 -> 1
    a.fle(kT3, kF1, kF1);     // 1
    a.feq(kT4, kF0, kF1);     // 0
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_DOUBLE_EQ(h.ctx.fpr[kF0], -7.0);
  EXPECT_EQ(h.ctx.gpr[kT1], 2u);
  EXPECT_EQ(h.ctx.gpr[kT2], 1u);
  EXPECT_EQ(h.ctx.gpr[kT3], 1u);
  EXPECT_EQ(h.ctx.gpr[kT4], 0u);
}

TEST(ExecSemantics, FcvtSaturates) {
  Harness h([](Assembler& a) {
    a.fli(kF0, 1e20);
    a.fcvt_w_d(kT0, kF0);
    a.fli(kF1, -1e20);
    a.fcvt_w_d(kT1, kF1);
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT0], 0x7FFFFFFFu);
  EXPECT_EQ(h.ctx.gpr[kT1], 0x80000000u);
}

TEST(ExecSemantics, FldFsdRoundtrip) {
  Harness h([](Assembler& a) {
    auto data = a.make_label("data");
    a.la(kT0, data);
    a.fld(kF0, kT0, 0);
    a.fadd(kF0, kF0, kF0);
    a.fsd(kT0, kF0, 8);
    a.syscall(1);
    a.bind_data(data);
    a.d_align(8);
    a.d_double(1.25);
    a.d_space(8);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  const GuestAddr base = h.program.symbol("data");
  double out = 0;
  const std::uint64_t raw = h.space.load(base + 8, 8);
  std::memcpy(&out, &raw, 8);
  EXPECT_DOUBLE_EQ(out, 2.5);
}

// ---- guest errors -------------------------------------------------------------

TEST(ExecErrors, MisalignedLoadIsGuestError) {
  Harness h([](Assembler& a) {
    a.li(kT0, 0x1001);
    a.lw(kT1, kT0, 0);
  });
  const ExecResult r = h.run();
  EXPECT_EQ(r.reason, StopReason::kGuestError);
  EXPECT_NE(r.error.find("misaligned"), std::string::npos);
}

TEST(ExecErrors, OutOfBoundsIsGuestError) {
  Harness h([](Assembler& a) {
    a.li(kT0, -4);  // 0xFFFFFFFC, beyond the 32 MiB space
    a.lw(kT1, kT0, 0);
  });
  EXPECT_EQ(h.run().reason, StopReason::kGuestError);
}

TEST(ExecErrors, InvalidOpcodeIsGuestError) {
  Harness h([](Assembler& a) {
    a.nop();  // placeholder; we jump into data below
    auto data = a.make_label("data");
    a.la(kT0, data);
    a.jalr(kZero, kT0, 0);
    a.bind_data(data);
    a.d_word(0);  // opcode 0: unassigned
  });
  EXPECT_EQ(h.run().reason, StopReason::kGuestError);
}

// ---- faults (protection on) -----------------------------------------------------

TEST(ExecFaults, ReadFaultReportsAddress) {
  Harness h(
      [](Assembler& a) {
        a.li(kT0, 0x00800000);
        a.lw(kT1, kT0, 0);
        a.syscall(1);
      },
      /*check_protection=*/true);
  // Code pages readable; target page not.
  for (std::uint32_t p = 0; p < h.space.num_pages(); ++p) {
    h.space.set_access(p, mem::PageAccess::kRead);
  }
  h.space.set_access(0x00800000 / 4096, mem::PageAccess::kNone);
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kPageFault);
  EXPECT_EQ(r.fault_addr, 0x00800000u);
  EXPECT_FALSE(r.fault_is_write);
  EXPECT_FALSE(r.fault_is_ifetch);
  // pc points at the faulting instruction for re-execution.
  const auto pc_insn = isa::decode(
      static_cast<std::uint32_t>(h.space.load(h.ctx.pc, 4)));
  ASSERT_TRUE(pc_insn.has_value());
  EXPECT_EQ(pc_insn->op, isa::Opcode::kLw);
}

TEST(ExecFaults, WriteToReadOnlyFaults) {
  Harness h(
      [](Assembler& a) {
        a.li(kT0, 0x00800000);
        a.sw(kT0, kT0, 0);
        a.syscall(1);
      },
      /*check_protection=*/true);
  for (std::uint32_t p = 0; p < h.space.num_pages(); ++p) {
    h.space.set_access(p, mem::PageAccess::kRead);
  }
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kPageFault);
  EXPECT_TRUE(r.fault_is_write);
  // Grant write access; re-running retries the store and completes.
  h.space.set_access(0x00800000 / 4096, mem::PageAccess::kReadWrite);
  EXPECT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.space.load(0x00800000, 4), 0x00800000u);
}

// A fault mid-block stops a cold one-block trace with exactly the ops
// before the faulting one retired: their instructions and their cycles,
// not the load's, and nothing after it.
TEST(ExecFaults, MidBlockLoadFaultRetiresExactlyTheOpsBeforeIt) {
  Harness h(
      [](Assembler& a) {
        a.li(kT0, 0x00800000);
        a.addi(kT1, kT1, 3);
        a.slli(kT1, kT1, 2);
        a.here("load");
        a.lw(kT2, kT0, 0);
        a.addi(kT3, kT3, 1);
        a.syscall(1);
      },
      /*check_protection=*/true);
  for (std::uint32_t p = 0; p < h.space.num_pages(); ++p) {
    h.space.set_access(p, mem::PageAccess::kRead);
  }
  h.space.set_access(0x00800000 / 4096, mem::PageAccess::kNone);
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kPageFault);
  EXPECT_EQ(r.insns, 3u);
  EXPECT_EQ(r.exec_cycles, 18u);
  EXPECT_EQ(h.ctx.pc, h.program.symbol("load"));
  EXPECT_EQ(h.ctx.gpr[kT1], 12u);
  EXPECT_EQ(h.ctx.gpr[kT3], 0u);
  EXPECT_EQ(h.stats.get("dbt.sb_formed"), 0u);
}

TEST(ExecFaults, MidBlockGuestErrorRetiresExactlyTheOpsBeforeIt) {
  Harness h([](Assembler& a) {
    a.li(kT0, 0x00800002);
    a.addi(kT1, kT1, 3);
    a.here("load");
    a.lw(kT2, kT0, 0);  // misaligned
    a.addi(kT3, kT3, 1);
    a.syscall(1);
  });
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kGuestError);
  EXPECT_EQ(r.insns, 3u);
  EXPECT_EQ(r.exec_cycles, 18u);
  EXPECT_EQ(h.ctx.pc, h.program.symbol("load"));
  EXPECT_EQ(h.ctx.gpr[kT3], 0u);
}

TEST(ExecFaults, CodeFetchFaultIsIfetch) {
  Harness h(
      [](Assembler& a) {
        a.nop();
        a.syscall(1);
      },
      /*check_protection=*/true);
  // No page readable: translation itself faults.
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kPageFault);
  EXPECT_TRUE(r.fault_is_ifetch);
  EXPECT_EQ(r.fault_addr, h.program.entry);
}

TEST(ExecFaults, QuantumStopsAtBlockBoundary) {
  Harness h([](Assembler& a) {
    auto loop = a.here();
    a.addi(kT0, kT0, 1);
    a.j(loop);
  });
  const ExecResult r = h.run(10);
  EXPECT_EQ(r.reason, StopReason::kQuantum);
  EXPECT_GE(r.insns, 10u);
  EXPECT_LE(r.insns, 12u);  // may overshoot by one block
  // Resuming continues counting where it stopped.
  const std::uint32_t before = h.ctx.gpr[kT0];
  (void)h.run(10);
  EXPECT_GT(h.ctx.gpr[kT0], before);
}

// ---- translation cache ---------------------------------------------------------

TEST(TranslationCacheTest, CachesAndChains) {
  // Translate once, then enter the cached block on every iteration. The
  // hot threshold is out of reach, so no superblock absorbs the loop and
  // every entry goes through the jump cache or the hash map.
  DbtConfig never_hot;
  never_hot.sb_hot_threshold = 1000;
  Harness h(
      [](Assembler& a) {
        auto loop = a.here();
        a.addi(kT0, kT0, 1);
        a.slti(kT1, kT0, 100);
        a.bne(kT1, kZero, loop);
        a.syscall(1);
      },
      /*check_protection=*/false, never_hot);
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT0], 100u);
  EXPECT_GT(h.stats.get("dbt.jmp_cache_hit") + h.stats.get("dbt.tcache_hit"),
            90u);
  EXPECT_LE(h.stats.get("dbt.blocks_translated"), 3u);
}

TEST(TranslationCacheTest, BlocksEndAtMaxLength) {
  Harness h([](Assembler& a) {
    for (std::uint32_t i = 0; i < 2 * kMaxBlockInsns; ++i) a.nop();
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  const auto* tb = h.cache.lookup(h.program.entry);
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(tb->insn_count(), kMaxBlockInsns);
}

TEST(TranslationCacheTest, InvalidatePageDropsBlocks) {
  Harness h([](Assembler& a) {
    a.nop();
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_GT(h.cache.size(), 0u);
  h.cache.invalidate_page(h.program.entry / 4096);
  EXPECT_EQ(h.cache.size(), 0u);
}

TEST(TranslationCacheTest, TranslateChargesOneTimeCost) {
  Harness h([](Assembler& a) {
    a.nop();
    a.syscall(1);
  });
  const ExecResult first = h.run();
  EXPECT_GT(first.translate_cycles, 0u);
  h.ctx.pc = h.program.entry;
  const ExecResult second = h.run();
  EXPECT_EQ(second.translate_cycles, 0u);  // cached now
}

TEST(TranslationCacheTest, InvalidatePagePreservesSurvivingChains) {
  // invalidate_page drops only the blocks on the dropped page: blocks on
  // other pages stay cached, and a re-run retranslates what was dropped.
  Harness h([](Assembler& a) {
    auto loop = a.make_label("loop");
    auto far = a.make_label("far");
    a.li(kT0, 2);
    a.bind(loop);
    a.addi(kT0, kT0, -1);
    a.bne(kT0, kZero, far);  // taken on the 1st iteration, not on the 2nd
    a.syscall(1);
    for (int i = 0; i < 1200; ++i) a.nop();  // push `far` onto another page
    a.bind(far);
    a.addi(kT2, kT2, 1);
    a.j(loop);
  });
  // Two runs, so every block is translated and then re-entered.
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  h.ctx.pc = h.program.entry;
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT2], 2u);

  const GuestAddr loop_pc = h.program.symbol("loop");
  const GuestAddr far_pc = h.program.symbol("far");
  TranslationBlock* entry_tb = h.cache.lookup(h.program.entry);
  TranslationBlock* loop_tb = h.cache.lookup(loop_pc);
  ASSERT_NE(entry_tb, nullptr);
  ASSERT_NE(loop_tb, nullptr);
  ASSERT_NE(h.cache.lookup(far_pc), nullptr);

  const std::uint32_t far_page = far_pc / 4096;
  ASSERT_NE(far_page, loop_pc / 4096);
  const std::uint64_t gen_before = h.cache.generation();
  h.cache.invalidate_page(far_page);
  EXPECT_GT(h.cache.generation(), gen_before);
  EXPECT_EQ(h.cache.lookup(far_pc), nullptr);  // dropped
  EXPECT_TRUE(h.cache.contains_block(entry_tb));  // other page: survives
  EXPECT_TRUE(h.cache.contains_block(loop_tb));

  // Re-running retranslates `far` and still computes correctly; this also
  // exercises indirect-jump-cache invalidation across invalidate_page (its
  // generation snapshot is now stale).
  h.ctx.pc = h.program.entry;
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT2], 3u);
}

// ---- software TLB ---------------------------------------------------------------

TEST(FastPathTlb, ProtectionDowngradeInvalidates) {
  // DSM-style revoke: after a page is downgraded to read-only, a cached
  // write permission must not survive into the next quantum.
  Harness h(
      [](Assembler& a) {
        a.li(kT0, 0x00800000);
        a.li(kT1, 1);
        a.sw(kT0, kT1, 0);
        a.syscall(1);
      },
      /*check_protection=*/true);
  for (std::uint32_t p = 0; p < h.space.num_pages(); ++p) {
    h.space.set_access(p, mem::PageAccess::kReadWrite);
  }
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);  // store OK, TLB warm
  h.ctx.pc = h.program.entry;
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);  // served from the TLB
  h.space.set_access(0x00800000 / 4096, mem::PageAccess::kRead);
  h.ctx.pc = h.program.entry;
  const ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kPageFault);
  EXPECT_TRUE(r.fault_is_write);
  EXPECT_EQ(r.fault_addr, 0x00800000u);
}

TEST(FastPathTlb, ShadowSplitInvalidates) {
  // After add_split the page's identity mapping is gone: the next run must
  // re-resolve through the shadow map, not a stale TLB entry.
  Harness h([](Assembler& a) {
    a.li(kT0, 0x00900000);
    a.li(kT2, 0x00900C00);
    a.li(kT1, 0xAB);
    a.sb(kT0, kT1, 0);   // shard 0
    a.sb(kT2, kT1, 0);   // shard 3
    a.syscall(1);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);  // identity entry cached
  const std::uint32_t page = 0x00900000 / 4096;
  EXPECT_TRUE(h.space.page_materialized(page));
  const std::uint32_t shadows[4] = {0x1000, 0x1001, 0x1002, 0x1003};
  h.shadow.add_split(page, shadows);
  h.ctx.pc = h.program.entry;
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.space.load(0x1000u * 4096 + 0, 1), 0xABu);
  EXPECT_EQ(h.space.load(0x1003u * 4096 + 0xC00, 1), 0xABu);
}

TEST(FastPathTlb, ManualInvalidateForcesRefill) {
  // Two loads from one page. The first misses the software TLB and fills
  // it; the second, whose own per-op TLB line is still empty, hits it.
  // From then on each load's own line serves it.
  Harness h([](Assembler& a) {
    auto data = a.make_label("data");
    a.la(kT0, data);
    a.lw(kT1, kT0, 0);
    a.lw(kT2, kT0, 4);
    a.syscall(1);
    a.bind_data(data);
    a.d_word(5);
    a.d_word(6);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  const std::uint64_t misses_warm = h.stats.get("dbt.tlb_miss");
  EXPECT_GE(misses_warm, 1u);
  h.ctx.pc = h.program.entry;
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  // Nothing changed between quanta: the warm entries keep serving.
  EXPECT_EQ(h.stats.get("dbt.tlb_miss"), misses_warm);
  EXPECT_GE(h.stats.get("dbt.tlb_hit"), 1u);
  h.engine.invalidate_fast_caches();
  h.ctx.pc = h.program.entry;
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_GT(h.stats.get("dbt.tlb_miss"), misses_warm);
}

// ---- LL/SC ---------------------------------------------------------------------

TEST(Llsc, PairSucceedsUncontended) {
  Harness h([](Assembler& a) {
    auto data = a.make_label("data");
    a.la(kT0, data);
    a.ll(kT1, kT0);
    a.addi(kT1, kT1, 1);
    a.sc(kT2, kT0, kT1);
    a.syscall(1);
    a.bind_data(data);
    a.d_word(41);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT2], 0u);  // success
  EXPECT_EQ(h.space.load(h.program.symbol("data"), 4), 42u);
}

TEST(Llsc, ScWithoutLlFails) {
  Harness h([](Assembler& a) {
    auto data = a.make_label("data");
    a.la(kT0, data);
    a.li(kT1, 7);
    a.sc(kT2, kT0, kT1);
    a.syscall(1);
    a.bind_data(data);
    a.d_word(0);
  });
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  EXPECT_EQ(h.ctx.gpr[kT2], 1u);  // failure
  EXPECT_EQ(h.space.load(h.program.symbol("data"), 4), 0u);  // no store
}

TEST(Llsc, InterveningStoreBreaksReservationAba) {
  // The ABA scenario of section 4.4: another thread writes the SAME value
  // between LL and SC. A CAS-based emulation would succeed (value matches);
  // the hash-table scheme must fail the SC regardless of the value.
  StatsRegistry stats;
  LlscTable table(stats);
  table.on_ll(0x1000, /*tid=*/1);       // thread 1 reads A
  table.on_store(0x1000, /*tid=*/2);    // thread 2 stores B then A again
  table.on_store(0x1000, /*tid=*/2);
  EXPECT_FALSE(table.on_sc(0x1000, 1));  // SC fails: no ABA window
}

TEST(Llsc, OwnStoreKeepsReservation) {
  StatsRegistry stats;
  LlscTable table(stats);
  table.on_ll(0x2000, 3);
  table.on_store(0x2000, 3);  // same thread
  EXPECT_TRUE(table.on_sc(0x2000, 3));
}

TEST(Llsc, ReservationIsPerAddressAndConsumed) {
  StatsRegistry stats;
  LlscTable table(stats);
  table.on_ll(0x100, 1);
  table.on_ll(0x200, 2);
  EXPECT_FALSE(table.on_sc(0x100, 2));  // wrong thread
  EXPECT_TRUE(table.on_sc(0x100, 1));
  EXPECT_FALSE(table.on_sc(0x100, 1));  // consumed
  EXPECT_TRUE(table.on_sc(0x200, 2));
}

TEST(Llsc, PageInvalidationKillsReservationsFalsePositive) {
  StatsRegistry stats;
  LlscTable table(stats);
  table.on_ll(0x3000, 1);
  table.on_ll(0x3004, 2);
  table.on_ll(0x5000, 3);
  table.on_page_invalidate(3, 12);  // page 3 = addresses 0x3000..0x3FFF
  EXPECT_FALSE(table.on_sc(0x3000, 1));  // killed (possibly falsely)
  EXPECT_FALSE(table.on_sc(0x3004, 2));
  EXPECT_TRUE(table.on_sc(0x5000, 3));   // other page untouched
}

TEST(Llsc, LineFilterScreensStores) {
  // may_match is the DBT's LL/SC store-filter: false must PROVE no
  // reservation can match. Line bit = (addr >> 6) & 63.
  StatsRegistry stats;
  LlscTable table(stats);
  EXPECT_FALSE(table.may_match(0x1000));  // empty table: everything screened
  table.on_ll(0x1000, 1);                 // line bit 0
  EXPECT_TRUE(table.may_match(0x1000));
  EXPECT_TRUE(table.may_match(0x1020));   // same 64-byte line
  EXPECT_FALSE(table.may_match(0x1040));  // next line: provably clean
  EXPECT_TRUE(table.may_match(0x2000));   // aliases bit 0 (conservative true)

  table.on_ll(0x1040, 2);                 // line bit 1
  EXPECT_TRUE(table.may_match(0x1040));
  // Draining one reservation must NOT clear the filter (bits are shared).
  EXPECT_TRUE(table.on_sc(0x1000, 1));
  EXPECT_TRUE(table.may_match(0x1040));
  // Draining to empty resets it.
  EXPECT_TRUE(table.on_sc(0x1040, 2));
  EXPECT_FALSE(table.may_match(0x1000));
  EXPECT_FALSE(table.may_match(0x1040));
}

TEST(Llsc, EngineFastPathStillBreaksReservationAcrossThreads) {
  // Engine-level: thread 1 opens a reservation and yields at a syscall;
  // thread 2 stores to the reserved word. The LL/SC store filter must NOT
  // let that store skip the snoop — thread 1's SC has to fail.
  Harness h([](Assembler& a) {
    auto data = a.make_label("data");
    auto t2code = a.make_label("t2code");
    a.la(kT0, data);
    a.ll(kT1, kT0);
    a.syscall(2);          // yield point: thread 2 runs here
    a.sc(kT2, kT0, kT1);   // must fail
    a.syscall(1);
    a.bind(t2code);
    a.la(kT0, data);
    a.li(kT1, 99);
    a.sw(kT0, kT1, 0);
    a.li(kT3, 7);          // unrelated line: filter may screen this one
    a.sw(kT0, kT3, 64);
    a.syscall(1);
    a.d_align(4096);       // line bits deterministic: data -> 0, data+64 -> 1
    a.bind_data(data);
    a.d_word(7);
    a.d_space(64);
  });
  ExecResult r = h.run();
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  ASSERT_EQ(r.syscall_num, 2);
  ASSERT_TRUE(h.llsc.has_reservation(h.program.symbol("data")));

  CpuContext ctx2;
  ctx2.pc = h.program.symbol("t2code");
  ctx2.tid = 2;
  ASSERT_EQ(h.engine.run(ctx2, 100000).reason, StopReason::kSyscall);
  EXPECT_FALSE(h.llsc.has_reservation(h.program.symbol("data")));
  EXPECT_GE(h.stats.get("llsc.store_kill"), 1u);

  r = h.run();  // thread 1 resumes at the SC
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  ASSERT_EQ(r.syscall_num, 1);
  EXPECT_EQ(h.ctx.gpr[kT2], 1u);  // SC failed
  EXPECT_EQ(h.space.load(h.program.symbol("data"), 4), 99u);
  // The off-line store (data+64) was screened without a table probe.
  EXPECT_GE(h.stats.get("dbt.llsc_fastpath"), 1u);
}

TEST(Llsc, RetargetingLlMovesReservation) {
  StatsRegistry stats;
  LlscTable table(stats);
  table.on_ll(0x100, 1);
  table.on_ll(0x200, 1);  // same thread reserves elsewhere
  EXPECT_TRUE(table.on_sc(0x200, 1));
  // The first reservation still exists (per-address table).
  EXPECT_TRUE(table.on_sc(0x100, 1));
}

// ---- shadow-map integration -----------------------------------------------------

TEST(ExecShadow, AccessesRedirectToShadowPages) {
  Harness h([](Assembler& a) {
    a.li(kT0, 0x00900000);  // page 0x900
    a.li(kT1, 0xAB);
    a.sb(kT0, kT1, 0);      // offset 0 -> shard 0
    a.li(kT2, 0x00900C00);  // offset 0xC00 -> shard 3
    a.sb(kT2, kT1, 0);
    a.syscall(1);
  });
  const std::uint32_t page = 0x00900000 / 4096;
  const std::uint32_t shadows[4] = {0x1000, 0x1001, 0x1002, 0x1003};
  h.shadow.add_split(page, shadows);
  ASSERT_EQ(h.run().reason, StopReason::kSyscall);
  // Original page untouched; shadow pages hold the bytes at same offsets.
  EXPECT_FALSE(h.space.page_materialized(page));
  EXPECT_EQ(h.space.load(0x1000u * 4096 + 0, 1), 0xABu);
  EXPECT_EQ(h.space.load(0x1003u * 4096 + 0xC00, 1), 0xABu);
}

// ---- CpuContext ------------------------------------------------------------------

TEST(CpuContextTest, SerializeRoundtrip) {
  CpuContext ctx;
  for (unsigned i = 0; i < isa::kNumGpr; ++i) ctx.gpr[i] = i * 1000;
  for (unsigned i = 0; i < isa::kNumFpr; ++i) ctx.fpr[i] = i * 0.5;
  ctx.pc = 0x12340;
  ctx.tid = 77;
  ctx.hint_group = 3;
  std::vector<std::uint8_t> bytes(CpuContext::kWireBytes);
  ctx.serialize(bytes);
  const CpuContext back = CpuContext::deserialize(bytes);
  EXPECT_EQ(back.gpr, ctx.gpr);
  EXPECT_EQ(back.fpr, ctx.fpr);
  EXPECT_EQ(back.pc, ctx.pc);
  EXPECT_EQ(back.tid, ctx.tid);
  EXPECT_EQ(back.hint_group, ctx.hint_group);
}

}  // namespace
}  // namespace dqemu::dbt
