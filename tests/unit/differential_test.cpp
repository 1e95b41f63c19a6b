// Differential property tests: random programs through the production
// ExecEngine vs the independent reference interpreter must produce
// bit-identical final CPU and memory state.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "dbt/exec.hpp"
#include "dbt/reference_interp.hpp"
#include "dbt/superblock.hpp"
#include "dbt/translation.hpp"
#include "isa/assembler.hpp"

namespace dqemu::dbt {
namespace {

using isa::Assembler;
using enum isa::Reg;
using enum isa::FReg;

constexpr std::uint32_t kScratchBytes = 2048;

/// Seed ranges [begin, end) of the two fuzz suites; the coverage checks at
/// the bottom generate exactly these programs.
struct SeedRange {
  std::uint64_t begin;
  std::uint64_t end;
};
constexpr SeedRange kStraightSeeds{1, 25};
constexpr SeedRange kLoopedSeeds{100, 116};

/// Random-program generator. Emits well-defined operations over all
/// registers: integer ALU/imm/upper-immediate ops, aligned integer and FP
/// loads/stores into a scratch buffer addressed via s2, FP arithmetic,
/// conversions, compares and libm-class ops, short forward branches (half
/// of them testing the result of the addi just before them, the trace
/// builder's fused shape), LL/SC pairs, hints, fences, and calls to leaf
/// subroutines that finalize_program() places after the final syscall.
/// Never a destination: s2 (the scratch base), ra (the reserved link
/// register) and, with `reserve_s1`, s1 (the looped programs' trip
/// counter).
class OpEmitter {
 public:
  OpEmitter(Rng& rng, Assembler& a, bool reserve_s1)
      : rng_(rng), a_(a), reserve_s1_(reserve_s1) {}

  void emit_ops(unsigned length) {
    for (unsigned i = 0; i < length; ++i) emit_op();
  }

  /// Binds every leaf called so far (call after the final syscall): each
  /// runs a few ALU ops and returns through jalr on the link register.
  void emit_leaves() {
    for (const Assembler::Label leaf : leaves_) {
      a_.bind(leaf);
      const std::uint64_t body = 1 + rng_.next_below(4);
      for (std::uint64_t k = 0; k < body; ++k) emit_alu();
      a_.jalr(rng_.next_below(2) == 0 ? kZero : any_gpr(), kRa, 0);
    }
  }

 private:
  isa::Reg any_gpr() {
    std::uint8_t reg;
    do {
      reg = static_cast<std::uint8_t>(rng_.next_below(16));
    } while (reg == kS2 || reg == kRa || (reserve_s1_ && reg == kS1));
    return static_cast<isa::Reg>(reg);
  }
  isa::Reg any_src() { return static_cast<isa::Reg>(rng_.next_below(16)); }
  /// A destination other than r0.
  isa::Reg nonzero_gpr() {
    isa::Reg reg;
    do {
      reg = any_gpr();
    } while (reg == kZero);
    return reg;
  }
  isa::FReg any_fpr() {
    return static_cast<isa::FReg>(rng_.next_below(16));
  }
  std::int32_t imm16() {
    return std::int32_t(rng_.next_below(65536)) - 32768;
  }
  /// Aligned scratch offset for a `width`-byte access.
  std::int32_t scratch_offset(std::uint32_t width) {
    return static_cast<std::int32_t>(rng_.next_below(kScratchBytes / width) *
                                     width);
  }
  /// Loads a finite constant in [lo, hi) into a random FP register.
  isa::FReg finite_fpr(double lo, double hi) {
    const isa::FReg reg = any_fpr();
    a_.fli(reg, rng_.next_double(lo, hi), kT4);
    return reg;
  }

  void emit_alu() {
    if (rng_.next_below(2) == 0) {
      static constexpr void (Assembler::*kOps[])(isa::Reg, isa::Reg,
                                                 isa::Reg) = {
          &Assembler::add, &Assembler::sub, &Assembler::mul,
          &Assembler::div, &Assembler::divu, &Assembler::rem,
          &Assembler::remu, &Assembler::and_, &Assembler::or_,
          &Assembler::xor_, &Assembler::sll, &Assembler::srl,
          &Assembler::sra, &Assembler::slt, &Assembler::sltu};
      (a_.*kOps[rng_.next_below(std::size(kOps))])(any_gpr(), any_src(),
                                                   any_src());
    } else {
      static constexpr void (Assembler::*kOps[])(isa::Reg, isa::Reg,
                                                 std::int32_t) = {
          &Assembler::addi, &Assembler::andi, &Assembler::ori,
          &Assembler::xori, &Assembler::slli, &Assembler::srli,
          &Assembler::srai, &Assembler::slti, &Assembler::sltiu};
      (a_.*kOps[rng_.next_below(std::size(kOps))])(any_gpr(), any_src(),
                                                   imm16());
    }
  }

  void emit_op() {
    switch (rng_.next_below(20)) {
      case 0: case 1: case 2: case 3: case 4:  // integer ALU, R or I
        emit_alu();
        break;
      case 5: {  // upper immediates
        const auto imm20 = static_cast<std::int32_t>(rng_.next_below(1 << 20));
        if (rng_.next_below(2) == 0) a_.lui(any_gpr(), imm20);
        else a_.auipc(any_gpr(), imm20);
        break;
      }
      case 6: case 7: {  // aligned integer store into scratch
        const std::uint32_t width = 1u << rng_.next_below(3);  // 1/2/4
        const std::int32_t offset = scratch_offset(width);
        if (width == 1) a_.sb(kS2, any_src(), offset);
        else if (width == 2) a_.sh(kS2, any_src(), offset);
        else a_.sw(kS2, any_src(), offset);
        break;
      }
      case 8: case 9: {  // aligned integer load from scratch
        static constexpr struct {
          void (Assembler::*emit)(isa::Reg, isa::Reg, std::int32_t);
          std::uint32_t width;
        } kLoads[] = {{&Assembler::lb, 1}, {&Assembler::lbu, 1},
                      {&Assembler::lh, 2}, {&Assembler::lhu, 2},
                      {&Assembler::lw, 4}};
        const auto& load = kLoads[rng_.next_below(std::size(kLoads))];
        (a_.*load.emit)(any_gpr(), kS2, scratch_offset(load.width));
        break;
      }
      case 10: {  // FP load/store into scratch
        if (rng_.next_below(2) == 0) a_.fld(any_fpr(), kS2, scratch_offset(8));
        else a_.fsd(kS2, any_fpr(), scratch_offset(8));
        break;
      }
      case 11: {  // FP arithmetic (total functions only: keep values finite)
        static constexpr void (Assembler::*kOps[])(isa::FReg, isa::FReg,
                                                   isa::FReg) = {
            &Assembler::fadd, &Assembler::fsub, &Assembler::fmul,
            &Assembler::fmin, &Assembler::fmax};
        (a_.*kOps[rng_.next_below(std::size(kOps))])(any_fpr(), any_fpr(),
                                                     any_fpr());
        break;
      }
      case 12: {  // FP unary ops, division by a finite non-zero constant
        switch (rng_.next_below(4)) {
          case 0: a_.fneg(any_fpr(), any_fpr()); break;
          case 1: a_.fabs_(any_fpr(), any_fpr()); break;
          case 2: a_.fmov(any_fpr(), any_fpr()); break;
          default: {
            const isa::FReg divisor = finite_fpr(0.5, 8.0);
            a_.fdiv(any_fpr(), any_fpr(), divisor);
            break;
          }
        }
        break;
      }
      case 13: {  // FP <-> int conversions and compares
        switch (rng_.next_below(5)) {
          case 0: a_.fcvt_d_w(any_fpr(), any_src()); break;
          case 1: a_.fcvt_w_d(any_gpr(), any_fpr()); break;
          case 2: a_.flt(any_gpr(), any_fpr(), any_fpr()); break;
          case 3: a_.fle(any_gpr(), any_fpr(), any_fpr()); break;
          default: a_.feq(any_gpr(), any_fpr(), any_fpr()); break;
        }
        break;
      }
      case 14: {  // libm-class ops on finite in-domain arguments
        switch (rng_.next_below(7)) {
          case 0: a_.fsqrt(any_fpr(), finite_fpr(0.0, 100.0)); break;
          case 1: a_.fexp(any_fpr(), finite_fpr(-10.0, 10.0)); break;
          case 2: a_.flog(any_fpr(), finite_fpr(0.01, 100.0)); break;
          case 3: a_.ferf(any_fpr(), finite_fpr(-3.0, 3.0)); break;
          case 4: a_.fsin(any_fpr(), finite_fpr(-10.0, 10.0)); break;
          case 5: a_.fcos(any_fpr(), finite_fpr(-10.0, 10.0)); break;
          default: {
            const isa::FReg base = finite_fpr(0.1, 10.0);
            const isa::FReg exponent = finite_fpr(-3.0, 3.0);
            a_.fpow(any_fpr(), base, exponent);
            break;
          }
        }
        break;
      }
      case 15: {  // short forward branch over 1-3 instructions
        static constexpr void (Assembler::*kOps[])(isa::Reg, isa::Reg,
                                                   Assembler::Label) = {
            &Assembler::beq, &Assembler::bne, &Assembler::blt,
            &Assembler::bge, &Assembler::bltu, &Assembler::bgeu};
        auto skip = a_.make_label();
        isa::Reg lhs = any_src();
        if (rng_.next_below(2) == 0) {  // addi + a branch testing its rd
          lhs = nonzero_gpr();
          a_.addi(lhs, any_src(), imm16());
        }
        (a_.*kOps[rng_.next_below(std::size(kOps))])(lhs, any_src(), skip);
        const std::uint64_t body = 1 + rng_.next_below(3);
        for (std::uint64_t k = 0; k < body; ++k) {
          a_.addi(any_gpr(), any_src(), imm16());
        }
        a_.bind(skip);
        break;
      }
      case 16: {  // LL/SC pair on a scratch word
        a_.addi(kT4, kS2, scratch_offset(4));
        a_.ll(kT3, kT4);
        a_.addi(kT3, kT3, 1);
        a_.sc(kT3, kT4, kT3);
        break;
      }
      case 17: {  // locality hint (0xFFFF clears the group)
        a_.hint(rng_.next_below(4) == 0
                    ? 0xFFFF
                    : static_cast<std::int32_t>(rng_.next_below(64)));
        break;
      }
      case 18:
        a_.fence();
        break;
      case 19: {  // call a leaf placed after the final syscall
        const Assembler::Label leaf = a_.make_label();
        a_.jal(kRa, leaf);
        leaves_.push_back(leaf);
        break;
      }
    }
  }

  Rng& rng_;
  Assembler& a_;
  bool reserve_s1_;
  std::vector<Assembler::Label> leaves_;
};

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

isa::Program finalize_program(Assembler& a, OpEmitter& ops,
                              Assembler::Label scratch) {
  a.syscall(1);
  ops.emit_leaves();
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
  OpEmitter ops(rng, a, /*reserve_s1=*/false);
  ops.emit_ops(length);
  return finalize_program(a, ops, scratch);
}

/// Random body wrapped in a counted loop (s1 = trip counter). The backward
/// branch makes the body hot, so with a low sb_hot_threshold the superblock
/// tier stitches and re-executes it — and the loop-closing addi+bne is
/// the trace builder's fused addi+branch shape, so a fused op always runs.
isa::Program looped_random_program(std::uint64_t seed, unsigned body_length,
                                   std::uint32_t reps) {
  Rng rng(seed);
  Assembler a;
  auto scratch = a.make_label("scratch");
  a.la(kS2, scratch);
  seed_registers(rng, a);
  a.li(kS1, static_cast<std::int64_t>(reps));
  Assembler::Label loop = a.here();
  OpEmitter ops(rng, a, /*reserve_s1=*/true);
  ops.emit_ops(body_length);
  a.addi(kS1, kS1, -1);
  a.bne(kS1, kZero, loop);
  return finalize_program(a, ops, scratch);
}

class Differential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, EngineMatchesReference) {
  const isa::Program program = random_program(GetParam(), 400);

  // Production engine.
  mem::AddressSpace engine_space(32u << 20, 4096);
  engine_space.load_program(program);
  engine_space.set_all_access(mem::PageAccess::kReadWrite);
  DbtConfig config;
  StatsRegistry stats;
  const mem::ShadowMap shadow(4096, 4);
  LlscTable llsc(stats);
  TranslationCache cache(engine_space, config, stats);
  ExecEngine engine(engine_space, shadow, llsc, cache, config, stats);
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
  EXPECT_EQ(engine_ctx.hint_group, ref_ctx.hint_group);
  const GuestAddr scratch = program.symbol("scratch");
  for (std::uint32_t off = 0; off < kScratchBytes; off += 8) {
    EXPECT_EQ(engine_space.load(scratch + off, 8),
              ref_space.load(scratch + off, 8))
        << "scratch+" << off;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, Differential,
                         ::testing::Range(kStraightSeeds.begin,
                                          kStraightSeeds.end));

// ---------------------------------------------------------------------------
// Looped variants: the counted loop makes its blocks hot, so with a low
// sb_hot_threshold the engine stitches them into superblocks and
// re-executes those. The engine must match the reference interpreter bit
// for bit, including the retired-instruction count.

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

  // Production engine.
  DbtConfig dbt;
  dbt.sb_hot_threshold = 4;
  mem::AddressSpace space(32u << 20, 4096);
  space.load_program(program);
  space.set_all_access(mem::PageAccess::kReadWrite);
  StatsRegistry stats;
  const mem::ShadowMap shadow(4096, 4);
  LlscTable llsc(stats);
  TranslationCache cache(space, dbt, stats);
  ExecEngine engine(space, shadow, llsc, cache, dbt, stats);
  CpuContext ctx;
  ctx.pc = program.entry;
  ctx.tid = 1;
  const ExecResult result = engine.run(ctx, 10'000'000);
  ASSERT_EQ(result.reason, StopReason::kSyscall) << result.error;
  // The looped programs must actually reach stitched traces — a fuzz pass
  // that never forms a superblock would prove nothing about them.
  EXPECT_GT(cache.superblock_count(), 0u);

  EXPECT_EQ(result.insns, ref.insns);
  EXPECT_EQ(ctx.pc, ref_ctx.pc);
  EXPECT_EQ(ctx.gpr, ref_ctx.gpr);
  for (unsigned i = 0; i < isa::kNumFpr; ++i) {
    std::uint64_t a_bits;
    std::uint64_t b_bits;
    std::memcpy(&a_bits, &ctx.fpr[i], 8);
    std::memcpy(&b_bits, &ref_ctx.fpr[i], 8);
    EXPECT_EQ(a_bits, b_bits) << "f" << i;
  }
  EXPECT_EQ(ctx.hint_group, ref_ctx.hint_group);
  const GuestAddr scratch = program.symbol("scratch");
  for (std::uint32_t off = 0; off < kScratchBytes; off += 8) {
    EXPECT_EQ(space.load(scratch + off, 8), ref_space.load(scratch + off, 8))
        << "scratch+" << off;
  }
}

/// A looped program run to its syscall in quanta of `quantum` instructions:
/// what the quanta retired, summed, and the final guest state.
struct QuantumRun {
  std::uint64_t insns = 0;
  std::uint64_t cycles = 0;
  std::uint64_t superblocks_formed = 0;
  CpuContext ctx;
  std::array<std::uint64_t, isa::kNumFpr> fpr_bits{};
  std::vector<std::uint64_t> scratch;
};

constexpr std::uint32_t kNeverHot = ~std::uint32_t{0};

QuantumRun run_in_quanta(const isa::Program& program,
                         std::uint32_t sb_hot_threshold,
                         std::uint64_t quantum) {
  DbtConfig dbt;
  dbt.sb_hot_threshold = sb_hot_threshold;
  mem::AddressSpace space(32u << 20, 4096);
  space.load_program(program);
  space.set_all_access(mem::PageAccess::kReadWrite);
  StatsRegistry stats;
  const mem::ShadowMap shadow(4096, 4);
  LlscTable llsc(stats);
  TranslationCache cache(space, dbt, stats);
  ExecEngine engine(space, shadow, llsc, cache, dbt, stats);
  QuantumRun out;
  out.ctx.pc = program.entry;
  out.ctx.tid = 1;
  bool reached_syscall = false;
  for (int step = 0; step < 100'000 && !reached_syscall; ++step) {
    const ExecResult r = engine.run(out.ctx, quantum);
    out.insns += r.insns;
    out.cycles += r.exec_cycles;
    if (r.reason != StopReason::kQuantum) {
      EXPECT_EQ(r.reason, StopReason::kSyscall) << r.error;
      reached_syscall = true;
    }
  }
  EXPECT_TRUE(reached_syscall);
  out.superblocks_formed = stats.get("dbt.sb_formed");
  std::memcpy(out.fpr_bits.data(), out.ctx.fpr.data(), sizeof out.fpr_bits);
  const GuestAddr scratch = program.symbol("scratch");
  for (std::uint32_t off = 0; off < kScratchBytes; off += 8) {
    out.scratch.push_back(space.load(scratch + off, 8));
  }
  return out;
}

// Where a quantum stops, and what it has retired there, cannot depend on
// the quantum or on stitching: quanta of 1, 7 and 64 instructions, with
// superblocks and without, sum to the instructions and cycles of one
// unbroken run, and end in its state.
TEST_P(LoopedDifferential, RetirementIsIndependentOfQuantumAndStitching) {
  const isa::Program program =
      looped_random_program(GetParam(), /*body_length=*/60, /*reps=*/40);
  const QuantumRun whole = run_in_quanta(program, kNeverHot, 10'000'000);
  EXPECT_EQ(whole.superblocks_formed, 0u);
  for (const std::uint32_t threshold : {4u, kNeverHot}) {
    for (const std::uint64_t quantum : {1u, 7u, 64u}) {
      SCOPED_TRACE(::testing::Message() << "sb_hot_threshold " << threshold
                                        << ", quantum " << quantum);
      const QuantumRun run = run_in_quanta(program, threshold, quantum);
      EXPECT_EQ(run.superblocks_formed > 0, threshold != kNeverHot);
      EXPECT_EQ(run.insns, whole.insns);
      EXPECT_EQ(run.cycles, whole.cycles);
      EXPECT_EQ(run.ctx.pc, whole.ctx.pc);
      EXPECT_EQ(run.ctx.gpr, whole.ctx.gpr);
      EXPECT_EQ(run.fpr_bits, whole.fpr_bits);
      EXPECT_EQ(run.ctx.hint_group, whole.ctx.hint_group);
      EXPECT_EQ(run.scratch, whole.scratch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, LoopedDifferential,
                         ::testing::Range(kLoopedSeeds.begin,
                                          kLoopedSeeds.end));

// A fuzz pass that never emits some opcode proves nothing about it: over
// both seed ranges, the generated code must contain every opcode the ISA
// defines.
TEST(DifferentialCoverage, SeedRangesEmitEveryOpcode) {
  std::set<isa::Opcode> seen;
  auto collect = [&](const isa::Program& program) {
    for (const isa::Section& section : program.sections) {
      if (section.addr != program.entry) continue;  // code section only
      for (std::size_t at = 0; at + 4 <= section.bytes.size(); at += 4) {
        std::uint32_t word;
        std::memcpy(&word, section.bytes.data() + at, 4);
        if (const auto insn = isa::decode(word)) seen.insert(insn->op);
      }
    }
  };
  for (std::uint64_t seed = kStraightSeeds.begin; seed < kStraightSeeds.end;
       ++seed) {
    collect(random_program(seed, 400));
  }
  for (std::uint64_t seed = kLoopedSeeds.begin; seed < kLoopedSeeds.end;
       ++seed) {
    collect(looped_random_program(seed, /*body_length=*/60, /*reps=*/40));
  }
  for (unsigned raw = 0; raw < 256; ++raw) {
    if (!isa::is_valid_opcode(static_cast<std::uint8_t>(raw))) continue;
    const auto op = static_cast<isa::Opcode>(raw);
    EXPECT_TRUE(seen.contains(op)) << isa::insn_info(op).mnemonic;
  }
}

// The same holds for the trace builder: running both seed ranges must
// build every op kind it can select — each opcode as a single op, addi
// fused with each of the six conditional branches, and the Boundary of a
// cut block — in some block's one-block trace or in a stitched superblock.
TEST(DifferentialCoverage, SeedRangesBuildEveryTraceOpKind) {
  std::set<SbOpKind> seen;
  auto collect = [&](const isa::Program& program, const DbtConfig& config) {
    mem::AddressSpace space(32u << 20, 4096);
    space.load_program(program);
    space.set_all_access(mem::PageAccess::kReadWrite);
    StatsRegistry stats;
    const mem::ShadowMap shadow(4096, 4);
    LlscTable llsc(stats);
    TranslationCache cache(space, config, stats);
    ExecEngine engine(space, shadow, llsc, cache, config, stats);
    CpuContext ctx;
    ctx.pc = program.entry;
    ctx.tid = 1;
    ASSERT_EQ(engine.run(ctx, 10'000'000).reason, StopReason::kSyscall);
    for (const isa::Section& section : program.sections) {
      if (section.addr != program.entry) continue;  // code section only
      for (GuestAddr pc = section.addr;
           pc < section.addr + section.bytes.size(); pc += 4) {
        if (const TranslationBlock* tb = cache.lookup(pc)) {
          for (const SbOp& op : tb->trace.ops) seen.insert(op.kind);
        }
      }
    }
    for (const SuperblockInfo& info : cache.superblock_census()) {
      for (const SbOp& op : cache.superblock_at(info.entry_pc)->ops) {
        seen.insert(op.kind);
      }
    }
  };
  for (std::uint64_t seed = kStraightSeeds.begin; seed < kStraightSeeds.end;
       ++seed) {
    collect(random_program(seed, 400), DbtConfig{});
  }
  DbtConfig hot;
  hot.sb_hot_threshold = 4;
  for (std::uint64_t seed = kLoopedSeeds.begin; seed < kLoopedSeeds.end;
       ++seed) {
    collect(looped_random_program(seed, /*body_length=*/60, /*reps=*/40), hot);
  }
  for (unsigned raw = 0; raw < 256; ++raw) {
    if (!isa::is_valid_opcode(static_cast<std::uint8_t>(raw))) continue;
    const auto op = static_cast<isa::Opcode>(raw);
    EXPECT_TRUE(seen.contains(op_kind(op))) << isa::insn_info(op).mnemonic;
  }
  for (unsigned raw = static_cast<unsigned>(isa::Opcode::kBeq);
       raw <= static_cast<unsigned>(isa::Opcode::kBgeu); ++raw) {
    const auto branch = static_cast<isa::Opcode>(raw);
    EXPECT_TRUE(seen.contains(addi_branch_kind(branch)))
        << "addi+" << isa::insn_info(branch).mnemonic;
  }
  EXPECT_TRUE(seen.contains(SbOpKind::kBoundary));
}

}  // namespace
}  // namespace dqemu::dbt
