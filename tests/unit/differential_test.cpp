// Differential property tests: random programs through the production
// ExecEngine vs the independent reference interpreter must produce
// bit-identical final CPU and memory state.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dbt/exec.hpp"
#include "dbt/reference_interp.hpp"
#include "dbt/translation.hpp"
#include "isa/assembler.hpp"

namespace dqemu::dbt {
namespace {

using isa::Assembler;
using enum isa::Reg;
using enum isa::FReg;

constexpr std::uint32_t kScratchBytes = 2048;

/// Emits `length` random but well-defined operations: ALU/imm/FP ops over
/// all registers, aligned loads/stores into a scratch buffer addressed via
/// s2, short forward branches, LL/SC pairs. With `reserve_s1`, s1 is never
/// a destination (the looped programs use it as their trip counter).
void emit_random_ops(Rng& rng, Assembler& a, unsigned length,
                     bool reserve_s1) {
  auto any_gpr = [&] {
    // Never rd = s2 (the base would wander off the scratch region), nor
    // s1 when it is the caller's loop counter.
    std::uint8_t reg;
    do {
      reg = static_cast<std::uint8_t>(rng.next_below(16));
    } while (reg == kS2 || (reserve_s1 && reg == kS1));
    return static_cast<isa::Reg>(reg);
  };
  auto any_src = [&] { return static_cast<isa::Reg>(rng.next_below(16)); };
  auto any_fpr = [&] { return static_cast<isa::FReg>(rng.next_below(16)); };
  auto imm16 = [&] { return std::int32_t(rng.next_below(65536)) - 32768; };

  for (unsigned i = 0; i < length; ++i) {
    switch (rng.next_below(10)) {
      case 0: case 1: case 2: {  // R-type integer
        static constexpr void (Assembler::*kOps[])(isa::Reg, isa::Reg,
                                                   isa::Reg) = {
            &Assembler::add, &Assembler::sub, &Assembler::mul,
            &Assembler::div, &Assembler::divu, &Assembler::rem,
            &Assembler::remu, &Assembler::and_, &Assembler::or_,
            &Assembler::xor_, &Assembler::sll, &Assembler::srl,
            &Assembler::sra, &Assembler::slt, &Assembler::sltu};
        (a.*kOps[rng.next_below(std::size(kOps))])(any_gpr(), any_src(),
                                                   any_src());
        break;
      }
      case 3: case 4: {  // I-type integer
        static constexpr void (Assembler::*kOps[])(isa::Reg, isa::Reg,
                                                   std::int32_t) = {
            &Assembler::addi, &Assembler::andi, &Assembler::ori,
            &Assembler::xori, &Assembler::slli, &Assembler::srli,
            &Assembler::srai, &Assembler::slti, &Assembler::sltiu};
        (a.*kOps[rng.next_below(std::size(kOps))])(any_gpr(), any_src(),
                                                   imm16());
        break;
      }
      case 5: {  // aligned store into scratch
        const std::uint32_t width = 1u << rng.next_below(3);  // 1/2/4
        const auto offset = static_cast<std::int32_t>(
            rng.next_below(kScratchBytes / width) * width);
        if (width == 1) a.sb(kS2, any_src(), offset);
        else if (width == 2) a.sh(kS2, any_src(), offset);
        else a.sw(kS2, any_src(), offset);
        break;
      }
      case 6: {  // aligned load from scratch
        const std::uint32_t width = 1u << rng.next_below(3);
        const auto offset = static_cast<std::int32_t>(
            rng.next_below(kScratchBytes / width) * width);
        if (width == 1) a.lbu(any_gpr(), kS2, offset);
        else if (width == 2) a.lh(any_gpr(), kS2, offset);
        else a.lw(any_gpr(), kS2, offset);
        break;
      }
      case 7: {  // FP arithmetic (total functions only: keep values finite)
        static constexpr void (Assembler::*kOps[])(isa::FReg, isa::FReg,
                                                   isa::FReg) = {
            &Assembler::fadd, &Assembler::fsub, &Assembler::fmul,
            &Assembler::fmin, &Assembler::fmax};
        (a.*kOps[rng.next_below(std::size(kOps))])(any_fpr(), any_fpr(),
                                                   any_fpr());
        break;
      }
      case 8: {  // short forward branch over 1-3 instructions
        auto skip = a.make_label();
        if (rng.next_below(2) == 0) {
          a.beq(any_src(), any_src(), skip);
        } else {
          a.blt(any_src(), any_src(), skip);
        }
        const std::uint64_t body = 1 + rng.next_below(3);
        for (std::uint64_t k = 0; k < body; ++k) {
          a.addi(any_gpr(), any_src(), imm16());
        }
        a.bind(skip);
        break;
      }
      case 9: {  // LL/SC pair on a scratch word
        const auto offset = static_cast<std::int32_t>(
            rng.next_below(kScratchBytes / 4) * 4);
        a.addi(kT4, kS2, offset);
        a.ll(kT3, kT4);
        a.addi(kT3, kT3, 1);
        a.sc(kT3, kT4, kT3);
        break;
      }
    }
  }
}

/// Seeds every GPR/FPR with random values (s2 keeps the scratch base).
void seed_registers(Rng& rng, Assembler& a) {
  for (unsigned reg = 1; reg < 16; ++reg) {
    if (reg == kS2) continue;
    a.li(static_cast<isa::Reg>(reg), std::int64_t(std::int32_t(rng.next())));
  }
  for (unsigned reg = 0; reg < 16; ++reg) {
    a.fli(static_cast<isa::FReg>(reg), rng.next_double(-100.0, 100.0), kT4);
  }
  // (fli clobbered t4; reseed it.)
  a.li(kT4, std::int64_t(std::int32_t(rng.next())));
}

isa::Program finalize_program(Assembler& a, Assembler::Label scratch) {
  a.syscall(1);
  a.d_align(8);
  a.bind_data(scratch);
  a.d_space(kScratchBytes);
  auto result = a.finalize();
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? result.take() : isa::Program{};
}

/// Straight-line random program ending in a syscall.
isa::Program random_program(std::uint64_t seed, unsigned length) {
  Rng rng(seed);
  Assembler a;
  auto scratch = a.make_label("scratch");
  a.la(kS2, scratch);  // stable base register for memory ops
  seed_registers(rng, a);
  emit_random_ops(rng, a, length, /*reserve_s1=*/false);
  return finalize_program(a, scratch);
}

/// Random body wrapped in a counted loop (s1 = trip counter). The backward
/// branch makes the body hot, so with a low sb_hot_threshold the superblock
/// tier stitches and re-executes it — and the loop-closing addi+bne is
/// exactly the compare-and-branch fusion shape, so fusion always fires.
isa::Program looped_random_program(std::uint64_t seed, unsigned body_length,
                                   std::uint32_t reps) {
  Rng rng(seed);
  Assembler a;
  auto scratch = a.make_label("scratch");
  a.la(kS2, scratch);
  seed_registers(rng, a);
  a.li(kS1, static_cast<std::int64_t>(reps));
  Assembler::Label loop = a.here();
  emit_random_ops(rng, a, body_length, /*reserve_s1=*/true);
  a.addi(kS1, kS1, -1);
  a.bne(kS1, kZero, loop);
  return finalize_program(a, scratch);
}

class Differential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, EngineMatchesReference) {
  const isa::Program program = random_program(GetParam(), 400);

  // Production engine.
  mem::AddressSpace engine_space(32u << 20, 4096);
  engine_space.load_program(program);
  engine_space.set_all_access(mem::PageAccess::kReadWrite);
  DbtConfig config;
  LlscTable llsc;
  TranslationCache cache(engine_space, config, false, nullptr);
  ExecEngine engine(engine_space, nullptr, llsc, cache, config, false,
                    nullptr);
  CpuContext engine_ctx;
  engine_ctx.pc = program.entry;
  engine_ctx.tid = 1;
  const ExecResult engine_result = engine.run(engine_ctx, 1'000'000);
  ASSERT_EQ(engine_result.reason, StopReason::kSyscall)
      << engine_result.error;

  // Reference interpreter.
  mem::AddressSpace ref_space(32u << 20, 4096);
  ref_space.load_program(program);
  CpuContext ref_ctx;
  ref_ctx.pc = program.entry;
  ref_ctx.tid = 1;
  const ReferenceResult ref_result =
      reference_run(ref_ctx, ref_space, 1'000'000);
  ASSERT_EQ(ref_result.stop, ReferenceResult::Stop::kSyscall)
      << ref_result.error;

  // Bit-identical outcomes.
  EXPECT_EQ(engine_result.insns, ref_result.insns);
  EXPECT_EQ(engine_ctx.pc, ref_ctx.pc);
  EXPECT_EQ(engine_ctx.gpr, ref_ctx.gpr);
  for (unsigned i = 0; i < isa::kNumFpr; ++i) {
    std::uint64_t a_bits;
    std::uint64_t b_bits;
    std::memcpy(&a_bits, &engine_ctx.fpr[i], 8);
    std::memcpy(&b_bits, &ref_ctx.fpr[i], 8);
    EXPECT_EQ(a_bits, b_bits) << "f" << i;
  }
  const GuestAddr scratch = program.symbol("scratch");
  for (std::uint32_t off = 0; off < kScratchBytes; off += 8) {
    EXPECT_EQ(engine_space.load(scratch + off, 8),
              ref_space.load(scratch + off, 8))
        << "scratch+" << off;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, Differential,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// Looped variants: the counted loop makes its blocks hot, so with a low
// sb_hot_threshold the superblock tier stitches and re-executes them. Every
// engine mode — superblocks with fusion, superblocks without fusion, and
// superblocks disabled — must match the reference interpreter bit for bit,
// including the retired-instruction count.

struct EngineRun {
  ExecResult result;
  CpuContext ctx;
  std::vector<std::uint64_t> scratch;  // final scratch buffer, 8B words
  std::size_t superblocks = 0;         // traces formed during the run
};

EngineRun run_engine(const isa::Program& program, const DbtConfig& dbt) {
  mem::AddressSpace space(32u << 20, 4096);
  space.load_program(program);
  space.set_all_access(mem::PageAccess::kReadWrite);
  LlscTable llsc;
  TranslationCache cache(space, dbt, false, nullptr);
  ExecEngine engine(space, nullptr, llsc, cache, dbt, false, nullptr);
  EngineRun out;
  out.ctx.pc = program.entry;
  out.ctx.tid = 1;
  out.result = engine.run(out.ctx, 10'000'000);
  out.superblocks = cache.superblock_count();
  const GuestAddr scratch = program.symbol("scratch");
  for (std::uint32_t off = 0; off < kScratchBytes; off += 8) {
    out.scratch.push_back(space.load(scratch + off, 8));
  }
  return out;
}

class LoopedDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoopedDifferential, SuperblockEngineMatchesReference) {
  const isa::Program program =
      looped_random_program(GetParam(), /*body_length=*/60, /*reps=*/40);

  // Reference interpreter.
  mem::AddressSpace ref_space(32u << 20, 4096);
  ref_space.load_program(program);
  CpuContext ref_ctx;
  ref_ctx.pc = program.entry;
  ref_ctx.tid = 1;
  const ReferenceResult ref = reference_run(ref_ctx, ref_space, 10'000'000);
  ASSERT_EQ(ref.stop, ReferenceResult::Stop::kSyscall) << ref.error;

  DbtConfig sb_fused;
  sb_fused.enable_superblocks = true;
  sb_fused.sb_hot_threshold = 4;
  sb_fused.sb_fusion = true;
  DbtConfig sb_plain = sb_fused;
  sb_plain.sb_fusion = false;
  DbtConfig no_sb;
  no_sb.enable_superblocks = false;

  const struct {
    const char* name;
    const DbtConfig* dbt;
  } kModes[] = {
      {"superblocks+fusion", &sb_fused},
      {"superblocks, fusion off", &sb_plain},
      {"block engine", &no_sb},
  };
  const GuestAddr scratch = program.symbol("scratch");
  for (const auto& mode : kModes) {
    SCOPED_TRACE(mode.name);
    const EngineRun run = run_engine(program, *mode.dbt);
    ASSERT_EQ(run.result.reason, StopReason::kSyscall) << run.result.error;
    // The looped programs must actually reach the trace tier — a fuzz
    // pass that never forms a superblock would prove nothing.
    if (mode.dbt->enable_superblocks) {
      EXPECT_GT(run.superblocks, 0u);
    }
    EXPECT_EQ(run.result.insns, ref.insns);
    EXPECT_EQ(run.ctx.pc, ref_ctx.pc);
    EXPECT_EQ(run.ctx.gpr, ref_ctx.gpr);
    for (unsigned i = 0; i < isa::kNumFpr; ++i) {
      std::uint64_t a_bits;
      std::uint64_t b_bits;
      std::memcpy(&a_bits, &run.ctx.fpr[i], 8);
      std::memcpy(&b_bits, &ref_ctx.fpr[i], 8);
      EXPECT_EQ(a_bits, b_bits) << "f" << i;
    }
    for (std::uint32_t off = 0; off < kScratchBytes; off += 8) {
      EXPECT_EQ(run.scratch[off / 8], ref_space.load(scratch + off, 8))
          << "scratch+" << off;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, LoopedDifferential,
                         ::testing::Range<std::uint64_t>(100, 116));

}  // namespace
}  // namespace dqemu::dbt
