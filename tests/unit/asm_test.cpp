// Unit tests: programmatic assembler and text assembler front-end.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/text_asm.hpp"

namespace dqemu::isa {
namespace {

Insn decode_at(const Program& program, std::size_t index) {
  const auto& code = program.sections.at(0).bytes;
  std::uint32_t word = 0;
  std::memcpy(&word, code.data() + index * 4, 4);
  const auto insn = decode(word);
  EXPECT_TRUE(insn.has_value());
  return insn.value_or(Insn{});
}

// ---- builder -----------------------------------------------------------------

TEST(Assembler, LiSmallUsesAddi) {
  Assembler a;
  a.li(kA0, 42);
  const auto program = a.finalize().take();
  EXPECT_EQ(program.sections[0].bytes.size(), 4u);
  const Insn insn = decode_at(program, 0);
  EXPECT_EQ(insn.op, Opcode::kAddi);
  EXPECT_EQ(insn.imm, 42);
}

TEST(Assembler, LiLargeUsesLuiOri) {
  Assembler a;
  a.li(kA0, 0x12345678);
  const auto program = a.finalize().take();
  ASSERT_EQ(program.sections[0].bytes.size(), 8u);
  EXPECT_EQ(decode_at(program, 0).op, Opcode::kLui);
  EXPECT_EQ(decode_at(program, 0).imm, 0x12345);
  EXPECT_EQ(decode_at(program, 1).op, Opcode::kOri);
  EXPECT_EQ(decode_at(program, 1).imm, 0x678);
}

TEST(Assembler, LiNegativeRoundtrips) {
  Assembler a;
  a.li(kA0, -100000);
  const auto program = a.finalize().take();
  // lui 0xFFFE7 ; ori 0x960 -> 0xFFFE7960 = -100000.
  const std::uint32_t hi = static_cast<std::uint32_t>(decode_at(program, 0).imm) << 12;
  const std::uint32_t lo = static_cast<std::uint32_t>(decode_at(program, 1).imm);
  EXPECT_EQ(static_cast<std::int32_t>(hi | lo), -100000);
}

TEST(Assembler, BackwardBranchOffset) {
  Assembler a;
  auto loop = a.here("loop");
  a.addi(kT0, kT0, -1);
  a.bne(kT0, kZero, loop);
  const auto program = a.finalize().take();
  // bne at index 1; target = entry: offset = (0 - (4+4))/4 = -2.
  EXPECT_EQ(decode_at(program, 1).imm, -2);
}

TEST(Assembler, ForwardBranchPatched) {
  Assembler a;
  auto skip = a.make_label("skip");
  a.beq(kA0, kZero, skip);
  a.nop();
  a.nop();
  a.bind(skip);
  a.nop();
  const auto program = a.finalize().take();
  EXPECT_EQ(decode_at(program, 0).imm, 2);
}

TEST(Assembler, UnboundReferencedLabelFails) {
  Assembler a;
  auto ghost = a.make_label("ghost");
  a.j(ghost);
  const auto result = a.finalize();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Assembler, UnboundUnreferencedLabelIsFine) {
  Assembler a;
  (void)a.make_label("never_used");
  a.nop();
  EXPECT_TRUE(a.finalize().is_ok());
}

TEST(Assembler, DoubleBindFails) {
  Assembler a;
  auto label = a.here("x");
  a.nop();
  a.bind(label);
  EXPECT_FALSE(a.finalize().is_ok());
}

TEST(Assembler, BranchToDataFails) {
  Assembler a;
  auto data = a.make_label("d");
  a.j(data);
  a.bind_data(data);
  a.d_word(0);
  EXPECT_FALSE(a.finalize().is_ok());
}

TEST(Assembler, LaResolvesDataAddress) {
  Assembler a;
  auto value = a.make_label("value");
  a.la(kA0, value);
  a.bind_data(value);
  a.d_word(7);
  const auto program = a.finalize().take();
  const GuestAddr addr = program.symbol("value");
  const std::uint32_t hi = static_cast<std::uint32_t>(decode_at(program, 0).imm) << 12;
  const std::uint32_t lo = static_cast<std::uint32_t>(decode_at(program, 1).imm);
  EXPECT_EQ(hi | lo, addr);
  // Data lands on the page after code.
  EXPECT_EQ(addr % 4096, 0u);
  EXPECT_GT(addr, kDefaultCodeOrigin);
}

TEST(Assembler, LiteralPoolDeduplicates) {
  Assembler a;
  a.fli(kF0, 3.5);
  a.fli(kF1, 3.5);
  a.fli(kF2, 2.5);
  const auto program = a.finalize().take();
  // Two distinct constants -> 16 bytes of pool data.
  EXPECT_EQ(program.sections.at(1).bytes.size(), 16u);
}

TEST(Assembler, DataDirectivesLayout) {
  Assembler a;
  a.nop();
  auto w = a.make_label("w");
  a.bind_data(w);
  a.d_word(0xDEADBEEF);
  a.d_align(8);
  auto d = a.make_label("d");
  a.bind_data(d);
  a.d_double(1.5);
  auto s = a.make_label("s");
  a.bind_data(s);
  a.d_asciz("hi");
  const auto program = a.finalize().take();
  EXPECT_EQ(program.symbol("d") - program.symbol("w"), 8u);
  EXPECT_EQ(program.symbol("s") - program.symbol("d"), 8u);
  const auto& data = program.sections.at(1).bytes;
  EXPECT_EQ(data[0], 0xEF);
  EXPECT_EQ(data[16], 'h');
  EXPECT_EQ(data[18], '\0');
}

TEST(Assembler, EntryDefaultsToOriginAndCanBeSet) {
  Assembler a;
  a.nop();
  auto main_fn = a.here("main");
  a.nop();
  {
    Assembler b;
    b.nop();
    EXPECT_EQ(b.finalize().take().entry, kDefaultCodeOrigin);
  }
  a.set_entry(main_fn);
  EXPECT_EQ(a.finalize().take().entry, kDefaultCodeOrigin + 4);
}

TEST(Assembler, BrkStartPageAlignedAfterData) {
  Assembler a;
  a.nop();
  a.d_space(100);
  const auto program = a.finalize().take();
  EXPECT_EQ(program.brk_start % 4096, 0u);
  EXPECT_GE(program.brk_start,
            program.sections.back().addr +
                static_cast<GuestAddr>(program.sections.back().bytes.size()));
}

// ---- text assembler --------------------------------------------------------

TEST(TextAsm, BasicProgram) {
  const auto result = assemble_text(R"(
      ; compute 6*7 and exit
      li   a0, 6
      li   a1, 7
      mul  a0, a0, a1
      syscall 15
  )");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(decode_at(result.value(), 2).op, Opcode::kMul);
}

TEST(TextAsm, LabelsAndBranches) {
  const auto result = assemble_text(R"(
      li t0, 10
  loop:
      addi t0, t0, -1
      bne  t0, zero, loop
      syscall 15
  )");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  // li(10) = 1 insn; addi at 1; bne at 2 targeting the addi: offset -2.
  EXPECT_EQ(decode_at(result.value(), 2).imm, -2);
}

TEST(TextAsm, MemOperandBothForms) {
  const auto a = assemble_text("lw a0, 4(sp)\n");
  const auto b = assemble_text("lw a0, sp, 4\n");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().sections[0].bytes, b.value().sections[0].bytes);
}

TEST(TextAsm, StoreSourceFirst) {
  const auto result = assemble_text("sw a1, -8(sp)\n");
  ASSERT_TRUE(result.is_ok());
  const Insn insn = decode_at(result.value(), 0);
  EXPECT_EQ(insn.op, Opcode::kSw);
  EXPECT_EQ(insn.rs1, kSp);  // base
  EXPECT_EQ(insn.rs2, kA1);  // source
  EXPECT_EQ(insn.imm, -8);
}

TEST(TextAsm, DataSectionAndEntry) {
  const auto result = assemble_text(R"(
      .entry main
      helper: ret
      main:   la a0, msg
              syscall 15
      .data
      msg: .asciz "hello\n"
      tbl: .word 1, 2, 3
           .space 8
      pi:  .align 8
           .double 3.25
  )");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const Program& program = result.value();
  EXPECT_EQ(program.entry, program.symbol("main"));
  EXPECT_EQ(program.symbol("tbl") - program.symbol("msg"), 7u);
  const auto& data = program.sections.at(1).bytes;
  EXPECT_EQ(data[5], '\n');
}

TEST(TextAsm, HexAndNegativeImmediates) {
  const auto result = assemble_text("li a0, 0x7FFF\naddi a0, a0, -1\n");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(decode_at(result.value(), 0).imm, 0x7FFF);
  EXPECT_EQ(decode_at(result.value(), 1).imm, -1);
}

TEST(TextAsm, RawRegisterNames) {
  const auto result = assemble_text("add r1, r2, r15\n");
  ASSERT_TRUE(result.is_ok());
  const Insn insn = decode_at(result.value(), 0);
  EXPECT_EQ(insn.rd, 1);
  EXPECT_EQ(insn.rs2, 15);
}

TEST(TextAsm, FpInstructions) {
  const auto result = assemble_text(R"(
      fld f0, 0(sp)
      fadd f1, f0, f0
      fsqrt f2, f1
      fcvt.w.d a0, f2
      fsd f2, 8(sp)
  )");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(decode_at(result.value(), 2).op, Opcode::kFsqrt);
}

TEST(TextAsm, ErrorsCarryLineNumbers) {
  const auto result = assemble_text("nop\nnop\nbogus a0, a1\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
}

TEST(TextAsm, RejectsInstructionInData) {
  const auto result = assemble_text(".data\nnop\n");
  EXPECT_FALSE(result.is_ok());
}

TEST(TextAsm, RejectsBadOperandCount) {
  // Operands after fence/ret/nop were once ignored, and a three-operand
  // store once meant "sw base, src, off".
  for (const char* source :
       {"add a0, a1\n", "fence 1\n", "ret a0\n", "nop 0\n", "sw sp, a0, 4\n"}) {
    const auto result = assemble_text(source);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << source;
  }
}

/// `form` with each '%' replaced by `value`.
std::string fill(std::string_view form, std::string_view value) {
  std::string out;
  for (const char c : form) {
    if (c == '%') {
      out += value;
    } else {
      out += c;
    }
  }
  return out;
}

TEST(TextAsm, EveryOperandKindChecksItsRange) {
  // Per operand kind: both edges of its range assemble; one value past
  // each edge, and a token that is no value of the kind, are errors that
  // name the line.
  struct Case {
    const char* form;
    std::vector<const char*> good;
    std::vector<const char*> bad;
  };
  const Case cases[] = {
      {"add %, a0, a0", {"zero", "r0", "r15", "s2"}, {"r16", "r-1", "f1", "a4"}},
      {"fadd f0, %, f0", {"f0", "f15"}, {"f16", "f-1", "a0"}},
      {"fcvt.d.w f0, %", {"r0", "r15"}, {"r16", "f0"}},
      {"addi a0, a0, %", {"-32768", "32767", "-0x8000", "0x7fff"},
       {"-32769", "32768", "1.5", "12abc"}},
      {"jalr a0, a1, %", {"-32768", "32767"}, {"-32769", "99999", "zero"}},
      {"lui a0, %", {"0", "0xFFFFF"}, {"-1", "0x100000", "0x1g"}},
      {"syscall %", {"-32768", "65535"}, {"-32769", "70000", "exit"}},
      {"lw a0, %(sp)", {"-32768", "32767", ""}, {"-32769", "40000", "bogus"}},
      {"sw a0, %(sp)", {"-32768", "32767"}, {"-40000", "32768", "4x"}},
      {"fld f0, %(sp)", {"-32768", "32767"}, {"-32769", "70000", "0x"}},
      {"fsd f0, 0(%)", {"zero", "r15"}, {"r16", "f1", "4"}},
      {"beq a0, a1, %", {"L", "x.1_b"}, {"L+4", "3", "a0", "1.5"}},
      {"jal %", {"L"}, {"L-1", "-4", "f2"}},
  };
  for (const Case& c : cases) {
    for (const char* value : c.good) {
      const std::string source = "L: x.1_b: nop\n" + fill(c.form, value);
      const auto result = assemble_text(source);
      EXPECT_TRUE(result.is_ok())
          << source << ": " << result.status().to_string();
    }
    for (const char* value : c.bad) {
      const std::string source = "L: x.1_b: nop\n" + fill(c.form, value);
      const Status status = assemble_text(source).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << source;
      EXPECT_EQ(status.message().rfind("line 2: ", 0), 0u)
          << source << ": " << status.message();
    }
  }
}

TEST(TextAsm, BranchLabelRangeIsCheckedAtFinalize) {
  // A label's offset is known only once the label is bound, so it is
  // range-checked when the program is finalized, naming the label.
  auto branch_over = [](int nops) {
    std::string source = "beq a0, a1, far\n";
    for (int i = 0; i < nops; ++i) source += "nop\n";
    return assemble_text(source + "far: nop\n").status();
  };
  EXPECT_TRUE(branch_over(32767).is_ok());
  const Status past = branch_over(32768);
  EXPECT_EQ(past.code(), StatusCode::kOutOfRange);
  EXPECT_NE(past.message().find("'far'"), std::string::npos);
}

TEST(TextAsm, DataValuesMustFitTheirSlot) {
  // A w-bit slot takes [-2^(w-1), 2^w - 1]; li loads a 32-bit value, and
  // .space and .align take 32-bit sizes.
  const auto edges = assemble_text(R"(
      li a0, -2147483648
      li a1, 0xFFFFFFFF
      .data
      .byte -128, 255
      .half -32768, 65535
      .word -2147483648, 0xFFFFFFFF
  )");
  ASSERT_TRUE(edges.is_ok()) << edges.status().to_string();
  const std::vector<std::uint8_t> data = {0x80, 0xFF, 0x00, 0x80, 0xFF, 0xFF,
                                          0x00, 0x00, 0x00, 0x80, 0xFF, 0xFF,
                                          0xFF, 0xFF};
  EXPECT_EQ(edges.value().sections.at(1).bytes, data);
  for (const char* line :
       {".byte 300", ".byte -129", ".half 70000", ".half -32769",
        ".word 0x100000000", ".word -2147483649", ".word 0xFFFFFFFFFFFFFFFF",
        ".byte 1, x", ".space 0x100000010", ".align 0x100000000", ".align 3"}) {
    const Status status = assemble_text(std::string(".data\n") + line).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(status.message().rfind("line 2: ", 0), 0u) << status.message();
  }
  for (const char* line : {"li a0, 0x100000000", "li a0, -2147483649"}) {
    const Status status = assemble_text(std::string("nop\n") + line).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(status.message().rfind("line 2: ", 0), 0u) << status.message();
  }
}

TEST(TextAsm, ShortFormsMatchTheFullSyntax) {
  const std::pair<const char*, const char*> forms[] = {
      {"jal L\nL: nop", "jal ra, L\nL: nop"},
      {"jalr a1", "jalr ra, a1, 0"},
      {"ll a0, a1", "ll a0, 0(a1)"},
      {"sw a0, (sp)", "sw a0, 0(sp)"},
      {"mv f1, f2", "fmov f1, f2"},
  };
  for (const auto& [short_form, full] : forms) {
    const auto a = assemble_text(short_form);
    const auto b = assemble_text(full);
    ASSERT_TRUE(a.is_ok()) << short_form << ": " << a.status().to_string();
    ASSERT_TRUE(b.is_ok()) << full << ": " << b.status().to_string();
    EXPECT_EQ(a.value().sections[0].bytes, b.value().sections[0].bytes)
        << short_form;
  }
}

TEST(TextAsm, RejectsOutOfRangeImmediate) {
  const auto result = assemble_text("addi a0, a0, 1000000\n");
  EXPECT_FALSE(result.is_ok());
}

TEST(TextAsm, CommentsInAllStyles) {
  const auto result = assemble_text(
      "nop ; semicolon\nnop # hash\nnop // slashes\n");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().sections[0].bytes.size(), 12u);
}

}  // namespace
}  // namespace dqemu::isa
