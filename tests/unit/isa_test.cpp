// Unit tests: GA32 encoding, decoding, metadata and disassembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "isa/isa.hpp"
#include "isa/text_asm.hpp"

namespace dqemu::isa {
namespace {

/// Every assigned opcode value.
std::vector<Opcode> all_opcodes() {
  std::vector<Opcode> out;
  for (unsigned raw = 0; raw < 256; ++raw) {
    if (is_valid_opcode(static_cast<std::uint8_t>(raw))) {
      out.push_back(static_cast<Opcode>(raw));
    }
  }
  return out;
}

/// A representative valid instruction for an opcode (fields respect the
/// encoding format).
Insn sample(Opcode op, Rng& rng) {
  const InsnInfo& info = insn_info(op);
  Insn insn;
  insn.op = op;
  switch (info.format) {
    case Format::kR:
      insn.rd = std::uint8_t(rng.next_below(16));
      insn.rs1 = std::uint8_t(rng.next_below(16));
      insn.rs2 = std::uint8_t(rng.next_below(16));
      break;
    case Format::kI:
      insn.rd = std::uint8_t(rng.next_below(16));
      insn.rs1 = std::uint8_t(rng.next_below(16));
      insn.imm = std::int32_t(rng.next_below(65536)) - 32768;
      break;
    case Format::kU:
      insn.rd = std::uint8_t(rng.next_below(16));
      insn.imm = op == Opcode::kJal
                     ? std::int32_t(rng.next_below(1u << 20)) - (1 << 19)
                     : std::int32_t(rng.next_below(1u << 20));
      break;
    case Format::kB:
    case Format::kS:
      insn.rs1 = std::uint8_t(rng.next_below(16));
      insn.rs2 = std::uint8_t(rng.next_below(16));
      insn.imm = std::int32_t(rng.next_below(65536)) - 32768;
      break;
    case Format::kN:
      insn.imm = std::int32_t(rng.next_below(32768));
      break;
  }
  return insn;
}

class OpcodeRoundtrip : public ::testing::TestWithParam<Opcode> {};

TEST_P(OpcodeRoundtrip, EncodeDecodeIsIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int i = 0; i < 50; ++i) {
    const Insn insn = sample(GetParam(), rng);
    const auto decoded = decode(encode(insn));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, insn);
  }
}

TEST_P(OpcodeRoundtrip, HasMnemonicAndDisassembles) {
  const InsnInfo& info = insn_info(GetParam());
  EXPECT_FALSE(info.mnemonic.empty());
  Rng rng(1);
  const std::string text = disassemble(sample(GetParam(), rng), 0x10000);
  EXPECT_NE(text.find(info.mnemonic.substr(0, 2)), std::string::npos);
}

/// A random instruction that sets exactly the fields its syntax names.
/// Label offsets stay short so the test program that binds them is small.
Insn canonical(Opcode op, Rng& rng) {
  Insn insn;
  insn.op = op;
  for (const Operand operand : operands(insn_info(op).syntax)) {
    const auto reg = std::uint8_t(rng.next_below(16));
    const auto imm16 = std::int32_t(rng.next_below(65536)) - 32768;
    switch (operand) {
      case Operand::kRd:
      case Operand::kFd: insn.rd = reg; break;
      case Operand::kRs1:
      case Operand::kFs1: insn.rs1 = reg; break;
      case Operand::kRs2:
      case Operand::kFs2: insn.rs2 = reg; break;
      case Operand::kImm16: insn.imm = imm16; break;
      case Operand::kUimm20: insn.imm = std::int32_t(rng.next_below(1u << 20)); break;
      case Operand::kNum16: insn.imm = imm16 + 32768; break;
      case Operand::kMem:
        insn.rs1 = reg;
        insn.imm = imm16;
        break;
      case Operand::kTarget: insn.imm = std::int32_t(rng.next_below(129)) - 64; break;
    }
  }
  return insn;
}

TEST_P(OpcodeRoundtrip, DisassemblyReassembles) {
  const Syntax syntax = insn_info(GetParam()).syntax;
  const bool has_target =
      syntax == Syntax::kRs1Rs2Target || syntax == Syntax::kRdTarget;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int i = 0; i < 50; ++i) {
    const Insn insn = canonical(GetParam(), rng);
    // The instruction goes on line `at` of a run of nops, and its target,
    // pc + 4 + imm * 4, is label L on line `label`.
    std::size_t at = 0;
    std::size_t label = 0;
    if (has_target) {
      at = insn.imm < 0 ? std::size_t(-insn.imm - 1) : 0;
      label = std::size_t(std::int64_t(at) + 1 + insn.imm);
    }
    std::vector<std::string> lines(std::max(at, label) + 1, "nop");
    lines[at] = disassemble(insn, kDefaultCodeOrigin + GuestAddr(4 * at));
    const std::string text = lines[at];
    if (has_target) {
      const std::size_t last = lines[at].rfind(", ") + 2;
      EXPECT_EQ(std::stoul(lines[at].substr(last), nullptr, 16),
                kDefaultCodeOrigin + 4 * label)
          << text;
      lines[at] = lines[at].substr(0, last) + "L";
    }
    std::string source;
    for (std::size_t line = 0; line < lines.size(); ++line) {
      if (has_target && line == label) source += "L: ";
      source += lines[line] + "\n";
    }

    const auto program = assemble_text(source);
    ASSERT_TRUE(program.is_ok()) << text << ": " << program.status().to_string();
    std::uint32_t word = 0;
    std::memcpy(&word, program.value().sections.at(0).bytes.data() + 4 * at, 4);
    EXPECT_EQ(decode(word), insn) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeRoundtrip, ::testing::ValuesIn(all_opcodes()),
    [](const ::testing::TestParamInfo<Opcode>& param_info) {
      std::string name(insn_info(param_info.param).mnemonic);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST(IsaDecode, RejectsUnassignedOpcodes) {
  EXPECT_FALSE(decode(0x00000000u).has_value());  // opcode 0 unassigned
  EXPECT_FALSE(decode(0xFF000000u).has_value());
  EXPECT_FALSE(is_valid_opcode(0));
}

TEST(IsaDecode, SignExtendsImm16) {
  const Insn insn{Opcode::kAddi, 1, 2, 0, -1};
  const auto decoded = decode(encode(insn));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->imm, -1);
}

TEST(IsaDecode, JalSignExtendsImm20) {
  const Insn insn{Opcode::kJal, 14, 0, 0, -(1 << 19)};
  const auto decoded = decode(encode(insn));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->imm, -(1 << 19));
}

TEST(IsaDecode, LuiZeroExtendsImm20) {
  const Insn insn{Opcode::kLui, 3, 0, 0, 0xFFFFF};
  const auto decoded = decode(encode(insn));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->imm, 0xFFFFF);
}

TEST(IsaInfo, MemoryFlagsAndWidths) {
  EXPECT_TRUE(insn_info(Opcode::kLw).is_load);
  EXPECT_EQ(insn_info(Opcode::kLw).mem_bytes, 4);
  EXPECT_TRUE(insn_info(Opcode::kSb).is_store);
  EXPECT_EQ(insn_info(Opcode::kSb).mem_bytes, 1);
  EXPECT_EQ(insn_info(Opcode::kFld).mem_bytes, 8);
  EXPECT_TRUE(insn_info(Opcode::kLl).is_load);
  EXPECT_TRUE(insn_info(Opcode::kSc).is_store);
  EXPECT_FALSE(insn_info(Opcode::kAdd).is_load);
}

TEST(IsaInfo, BlockEnders) {
  for (const Opcode op : {Opcode::kBeq, Opcode::kBne, Opcode::kJal,
                          Opcode::kJalr, Opcode::kSyscall}) {
    EXPECT_TRUE(insn_info(op).ends_block) << insn_info(op).mnemonic;
  }
  for (const Opcode op : {Opcode::kAdd, Opcode::kLw, Opcode::kSc,
                          Opcode::kHint, Opcode::kFence}) {
    EXPECT_FALSE(insn_info(op).ends_block) << insn_info(op).mnemonic;
  }
}

TEST(IsaInfo, FpSpecialCostClass) {
  EXPECT_TRUE(insn_info(Opcode::kFexp).is_fp_special);
  EXPECT_TRUE(insn_info(Opcode::kFsqrt).is_fp_special);
  EXPECT_FALSE(insn_info(Opcode::kFadd).is_fp_special);
}

TEST(IsaRegs, AbiNames) {
  EXPECT_EQ(gpr_name(0), "zero");
  EXPECT_EQ(gpr_name(kSp), "sp");
  EXPECT_EQ(gpr_name(kRa), "ra");
  EXPECT_EQ(gpr_name(kTp), "tp");
  EXPECT_EQ(fpr_name(15), "f15");
}

TEST(IsaDisasm, BranchTargetsAreAbsolute) {
  // beq at 0x1000 with offset +4 words -> target 0x1014.
  const Insn insn{Opcode::kBeq, 0, 1, 2, 4};
  EXPECT_EQ(disassemble(insn, 0x1000), "beq a0, a1, 0x1014");
}

TEST(IsaDisasm, LoadStoreSyntax) {
  EXPECT_EQ(disassemble({Opcode::kLw, 1, 13, 0, 8}), "lw a0, 8(sp)");
  EXPECT_EQ(disassemble({Opcode::kSw, 0, 13, 1, -4}), "sw a0, -4(sp)");
}

TEST(IsaDisasm, OperandsFollowTheSyntax) {
  EXPECT_EQ(disassemble({Opcode::kJalr, 14, 1, 0, 0}), "jalr ra, a0, 0");
  EXPECT_EQ(disassemble({Opcode::kLl, 1, 2, 0, 0}), "ll a0, 0(a1)");
  EXPECT_EQ(disassemble({Opcode::kFsqrt, 1, 2, 0, 0}), "fsqrt f1, f2");
  EXPECT_EQ(disassemble({Opcode::kFcvtwd, 1, 2, 0, 0}), "fcvt.w.d a0, f2");
  EXPECT_EQ(disassemble({Opcode::kFcvtdw, 1, 2, 0, 0}), "fcvt.d.w f1, a1");
  EXPECT_EQ(disassemble({Opcode::kFlt, 1, 2, 3, 0}), "flt a0, f2, f3");
  EXPECT_EQ(disassemble({Opcode::kFence, 0, 0, 0, 0}), "fence");
  EXPECT_EQ(disassemble({Opcode::kLui, 1, 0, 0, 0xFFFFF}), "lui a0, 0xfffff");
}

TEST(IsaDisasm, SyscallAndHint) {
  EXPECT_EQ(disassemble({Opcode::kSyscall, 0, 0, 0, 9}), "syscall 9");
  EXPECT_EQ(disassemble({Opcode::kHint, 0, 0, 0, 3}), "hint 3");
}

TEST(IsaImmRanges, Fit16And20) {
  EXPECT_TRUE(fits_imm16(32767));
  EXPECT_TRUE(fits_imm16(-32768));
  EXPECT_FALSE(fits_imm16(32768));
  EXPECT_FALSE(fits_imm16(-32769));
  EXPECT_TRUE(fits_imm20((1 << 19) - 1));
  EXPECT_FALSE(fits_imm20(1 << 19));
}

}  // namespace
}  // namespace dqemu::isa
