#include "isa/isa.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>

namespace dqemu::isa {
namespace {

constexpr InsnInfo make(std::string_view mnemonic, Format format,
                        Syntax syntax, bool is_load = false,
                        bool is_store = false, bool ends_block = false,
                        bool is_fp = false, bool is_fp_special = false,
                        std::uint8_t mem_bytes = 0) {
  return InsnInfo{mnemonic, format, syntax, is_load, is_store, ends_block,
                  is_fp, is_fp_special, mem_bytes};
}

/// 256-entry table indexed by raw opcode byte. Unassigned slots have an
/// empty mnemonic.
const std::array<InsnInfo, 256>& info_table() {
  static const std::array<InsnInfo, 256> table = [] {
    std::array<InsnInfo, 256> t{};
    auto set = [&t](Opcode op, InsnInfo info) {
      t[static_cast<std::size_t>(op)] = info;
    };
    using F = Format;
    using S = Syntax;
    // Integer R-type.
    set(Opcode::kAdd, make("add", F::kR, S::kRdRs1Rs2));
    set(Opcode::kSub, make("sub", F::kR, S::kRdRs1Rs2));
    set(Opcode::kMul, make("mul", F::kR, S::kRdRs1Rs2));
    set(Opcode::kDiv, make("div", F::kR, S::kRdRs1Rs2));
    set(Opcode::kDivu, make("divu", F::kR, S::kRdRs1Rs2));
    set(Opcode::kRem, make("rem", F::kR, S::kRdRs1Rs2));
    set(Opcode::kRemu, make("remu", F::kR, S::kRdRs1Rs2));
    set(Opcode::kAnd, make("and", F::kR, S::kRdRs1Rs2));
    set(Opcode::kOr, make("or", F::kR, S::kRdRs1Rs2));
    set(Opcode::kXor, make("xor", F::kR, S::kRdRs1Rs2));
    set(Opcode::kSll, make("sll", F::kR, S::kRdRs1Rs2));
    set(Opcode::kSrl, make("srl", F::kR, S::kRdRs1Rs2));
    set(Opcode::kSra, make("sra", F::kR, S::kRdRs1Rs2));
    set(Opcode::kSlt, make("slt", F::kR, S::kRdRs1Rs2));
    set(Opcode::kSltu, make("sltu", F::kR, S::kRdRs1Rs2));
    // Integer I-type.
    set(Opcode::kAddi, make("addi", F::kI, S::kRdRs1Imm));
    set(Opcode::kAndi, make("andi", F::kI, S::kRdRs1Imm));
    set(Opcode::kOri, make("ori", F::kI, S::kRdRs1Imm));
    set(Opcode::kXori, make("xori", F::kI, S::kRdRs1Imm));
    set(Opcode::kSlli, make("slli", F::kI, S::kRdRs1Imm));
    set(Opcode::kSrli, make("srli", F::kI, S::kRdRs1Imm));
    set(Opcode::kSrai, make("srai", F::kI, S::kRdRs1Imm));
    set(Opcode::kSlti, make("slti", F::kI, S::kRdRs1Imm));
    set(Opcode::kSltiu, make("sltiu", F::kI, S::kRdRs1Imm));
    // U-type.
    set(Opcode::kLui, make("lui", F::kU, S::kRdUimm20));
    set(Opcode::kAuipc, make("auipc", F::kU, S::kRdUimm20));
    // Loads.
    set(Opcode::kLb, make("lb", F::kI, S::kRdMem, true, false, false, false, false, 1));
    set(Opcode::kLbu, make("lbu", F::kI, S::kRdMem, true, false, false, false, false, 1));
    set(Opcode::kLh, make("lh", F::kI, S::kRdMem, true, false, false, false, false, 2));
    set(Opcode::kLhu, make("lhu", F::kI, S::kRdMem, true, false, false, false, false, 2));
    set(Opcode::kLw, make("lw", F::kI, S::kRdMem, true, false, false, false, false, 4));
    // Stores.
    set(Opcode::kSb, make("sb", F::kS, S::kRs2Mem, false, true, false, false, false, 1));
    set(Opcode::kSh, make("sh", F::kS, S::kRs2Mem, false, true, false, false, false, 2));
    set(Opcode::kSw, make("sw", F::kS, S::kRs2Mem, false, true, false, false, false, 4));
    // Branches.
    set(Opcode::kBeq, make("beq", F::kB, S::kRs1Rs2Target, false, false, true));
    set(Opcode::kBne, make("bne", F::kB, S::kRs1Rs2Target, false, false, true));
    set(Opcode::kBlt, make("blt", F::kB, S::kRs1Rs2Target, false, false, true));
    set(Opcode::kBge, make("bge", F::kB, S::kRs1Rs2Target, false, false, true));
    set(Opcode::kBltu, make("bltu", F::kB, S::kRs1Rs2Target, false, false, true));
    set(Opcode::kBgeu, make("bgeu", F::kB, S::kRs1Rs2Target, false, false, true));
    // Jumps.
    set(Opcode::kJal, make("jal", F::kU, S::kRdTarget, false, false, true));
    set(Opcode::kJalr, make("jalr", F::kI, S::kRdRs1Imm, false, false, true));
    // Atomics & ordering.
    set(Opcode::kLl, make("ll", F::kI, S::kRdMem, true, false, false, false, false, 4));
    set(Opcode::kSc, make("sc", F::kR, S::kRdRs1Rs2, false, true, false, false, false, 4));
    set(Opcode::kFence, make("fence", F::kN, S::kNone));
    // System. SYSCALL ends the block: it may migrate, block or exit.
    set(Opcode::kSyscall, make("syscall", F::kN, S::kNum16, false, false, true));
    set(Opcode::kHint, make("hint", F::kN, S::kNum16));
    // FP memory.
    set(Opcode::kFld, make("fld", F::kI, S::kFdMem, true, false, false, true, false, 8));
    set(Opcode::kFsd, make("fsd", F::kS, S::kFs2Mem, false, true, false, true, false, 8));
    // FP arithmetic.
    set(Opcode::kFadd, make("fadd", F::kR, S::kFdFs1Fs2, false, false, false, true));
    set(Opcode::kFsub, make("fsub", F::kR, S::kFdFs1Fs2, false, false, false, true));
    set(Opcode::kFmul, make("fmul", F::kR, S::kFdFs1Fs2, false, false, false, true));
    set(Opcode::kFdiv, make("fdiv", F::kR, S::kFdFs1Fs2, false, false, false, true));
    set(Opcode::kFmin, make("fmin", F::kR, S::kFdFs1Fs2, false, false, false, true));
    set(Opcode::kFmax, make("fmax", F::kR, S::kFdFs1Fs2, false, false, false, true));
    set(Opcode::kFneg, make("fneg", F::kR, S::kFdFs1, false, false, false, true));
    set(Opcode::kFabs, make("fabs", F::kR, S::kFdFs1, false, false, false, true));
    set(Opcode::kFmov, make("fmov", F::kR, S::kFdFs1, false, false, false, true));
    set(Opcode::kFcvtdw, make("fcvt.d.w", F::kR, S::kFdRs1, false, false, false, true));
    set(Opcode::kFcvtwd, make("fcvt.w.d", F::kR, S::kRdFs1, false, false, false, true));
    set(Opcode::kFlt, make("flt", F::kR, S::kRdFs1Fs2, false, false, false, true));
    set(Opcode::kFle, make("fle", F::kR, S::kRdFs1Fs2, false, false, false, true));
    set(Opcode::kFeq, make("feq", F::kR, S::kRdFs1Fs2, false, false, false, true));
    set(Opcode::kFsqrt, make("fsqrt", F::kR, S::kFdFs1, false, false, false, true, true));
    set(Opcode::kFexp, make("fexp", F::kR, S::kFdFs1, false, false, false, true, true));
    set(Opcode::kFlog, make("flog", F::kR, S::kFdFs1, false, false, false, true, true));
    set(Opcode::kFpow, make("fpow", F::kR, S::kFdFs1Fs2, false, false, false, true, true));
    set(Opcode::kFerf, make("ferf", F::kR, S::kFdFs1, false, false, false, true, true));
    set(Opcode::kFsin, make("fsin", F::kR, S::kFdFs1, false, false, false, true, true));
    set(Opcode::kFcos, make("fcos", F::kR, S::kFdFs1, false, false, false, true, true));
    return t;
  }();
  return table;
}

constexpr std::uint32_t mask_bits(std::uint32_t value, unsigned bits) {
  return value & ((1u << bits) - 1u);
}

constexpr std::int32_t sign_extend(std::uint32_t value, unsigned bits) {
  const std::uint32_t sign = 1u << (bits - 1);
  const std::uint32_t masked = mask_bits(value, bits);
  return static_cast<std::int32_t>((masked ^ sign) - sign);
}

}  // namespace

std::span<const Operand> operands(Syntax syntax) {
  using O = Operand;
  static constexpr O kRdRs1Rs2[] = {O::kRd, O::kRs1, O::kRs2};
  static constexpr O kRdRs1Imm[] = {O::kRd, O::kRs1, O::kImm16};
  static constexpr O kRdMem[] = {O::kRd, O::kMem};
  static constexpr O kRs2Mem[] = {O::kRs2, O::kMem};
  static constexpr O kFdMem[] = {O::kFd, O::kMem};
  static constexpr O kFs2Mem[] = {O::kFs2, O::kMem};
  static constexpr O kRs1Rs2Target[] = {O::kRs1, O::kRs2, O::kTarget};
  static constexpr O kRdTarget[] = {O::kRd, O::kTarget};
  static constexpr O kRdUimm20[] = {O::kRd, O::kUimm20};
  static constexpr O kNum16[] = {O::kNum16};
  static constexpr O kFdFs1Fs2[] = {O::kFd, O::kFs1, O::kFs2};
  static constexpr O kFdFs1[] = {O::kFd, O::kFs1};
  static constexpr O kFdRs1[] = {O::kFd, O::kRs1};
  static constexpr O kRdFs1[] = {O::kRd, O::kFs1};
  static constexpr O kRdFs1Fs2[] = {O::kRd, O::kFs1, O::kFs2};
  switch (syntax) {
    case Syntax::kNone: return {};
    case Syntax::kRdRs1Rs2: return kRdRs1Rs2;
    case Syntax::kRdRs1Imm: return kRdRs1Imm;
    case Syntax::kRdMem: return kRdMem;
    case Syntax::kRs2Mem: return kRs2Mem;
    case Syntax::kFdMem: return kFdMem;
    case Syntax::kFs2Mem: return kFs2Mem;
    case Syntax::kRs1Rs2Target: return kRs1Rs2Target;
    case Syntax::kRdTarget: return kRdTarget;
    case Syntax::kRdUimm20: return kRdUimm20;
    case Syntax::kNum16: return kNum16;
    case Syntax::kFdFs1Fs2: return kFdFs1Fs2;
    case Syntax::kFdFs1: return kFdFs1;
    case Syntax::kFdRs1: return kFdRs1;
    case Syntax::kRdFs1: return kRdFs1;
    case Syntax::kRdFs1Fs2: return kRdFs1Fs2;
  }
  return {};  // unreachable
}

const InsnInfo& insn_info(Opcode op) {
  return info_table()[static_cast<std::size_t>(op)];
}

bool is_valid_opcode(std::uint8_t raw) {
  return !info_table()[raw].mnemonic.empty();
}

std::uint32_t encode(const Insn& insn) {
  const InsnInfo& info = insn_info(insn.op);
  assert(!info.mnemonic.empty() && "encoding an unassigned opcode");
  const std::uint32_t op = static_cast<std::uint32_t>(insn.op) << 24;
  switch (info.format) {
    case Format::kR:
      assert(insn.rd < kNumGpr && insn.rs1 < kNumGpr && insn.rs2 < kNumGpr);
      return op | (std::uint32_t(insn.rd) << 20) |
             (std::uint32_t(insn.rs1) << 16) | (std::uint32_t(insn.rs2) << 12);
    case Format::kI:
      assert(fits_imm16(insn.imm));
      return op | (std::uint32_t(insn.rd) << 20) |
             (std::uint32_t(insn.rs1) << 16) |
             mask_bits(static_cast<std::uint32_t>(insn.imm), 16);
    case Format::kU:
      assert(insn.op == Opcode::kJal ? fits_imm20(insn.imm)
                                     : (insn.imm >= 0 && insn.imm < (1 << 20)));
      return op | (std::uint32_t(insn.rd) << 20) |
             mask_bits(static_cast<std::uint32_t>(insn.imm), 20);
    case Format::kB:
    case Format::kS:
      assert(fits_imm16(insn.imm));
      return op | (std::uint32_t(insn.rs1) << 20) |
             (std::uint32_t(insn.rs2) << 16) |
             mask_bits(static_cast<std::uint32_t>(insn.imm), 16);
    case Format::kN:
      assert(fits_imm16(insn.imm) || (insn.imm >= 0 && insn.imm <= 0xFFFF));
      return op | mask_bits(static_cast<std::uint32_t>(insn.imm), 16);
  }
  return 0;  // unreachable
}

std::optional<Insn> decode(std::uint32_t word) {
  const std::uint8_t raw_op = static_cast<std::uint8_t>(word >> 24);
  if (!is_valid_opcode(raw_op)) return std::nullopt;
  const Opcode op = static_cast<Opcode>(raw_op);
  const InsnInfo& info = insn_info(op);

  Insn insn;
  insn.op = op;
  switch (info.format) {
    case Format::kR:
      insn.rd = static_cast<std::uint8_t>((word >> 20) & 0xF);
      insn.rs1 = static_cast<std::uint8_t>((word >> 16) & 0xF);
      insn.rs2 = static_cast<std::uint8_t>((word >> 12) & 0xF);
      break;
    case Format::kI:
      insn.rd = static_cast<std::uint8_t>((word >> 20) & 0xF);
      insn.rs1 = static_cast<std::uint8_t>((word >> 16) & 0xF);
      insn.imm = sign_extend(word, 16);
      break;
    case Format::kU:
      insn.rd = static_cast<std::uint8_t>((word >> 20) & 0xF);
      // JAL offsets are signed; LUI/AUIPC immediates are raw upper bits.
      insn.imm = (op == Opcode::kJal)
                     ? sign_extend(word, 20)
                     : static_cast<std::int32_t>(mask_bits(word, 20));
      break;
    case Format::kB:
    case Format::kS:
      insn.rs1 = static_cast<std::uint8_t>((word >> 20) & 0xF);
      insn.rs2 = static_cast<std::uint8_t>((word >> 16) & 0xF);
      insn.imm = sign_extend(word, 16);
      break;
    case Format::kN:
      insn.imm = static_cast<std::int32_t>(mask_bits(word, 16));
      break;
  }
  return insn;
}

std::string_view gpr_name(unsigned index) {
  static constexpr std::string_view kNames[kNumGpr] = {
      "zero", "a0", "a1", "a2", "a3", "t0", "t1", "t2",
      "t3",   "t4", "s0", "s1", "tp", "sp", "ra", "s2"};
  assert(index < kNumGpr);
  return kNames[index];
}

std::string_view fpr_name(unsigned index) {
  static constexpr std::string_view kNames[kNumFpr] = {
      "f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7",
      "f8", "f9", "f10", "f11", "f12", "f13", "f14", "f15"};
  assert(index < kNumFpr);
  return kNames[index];
}

std::string disassemble(const Insn& insn, GuestAddr pc) {
  char text[96];
  std::size_t n = 0;
  // Appends to `text`, dropping what does not fit.
  const auto print = [&text, &n](const char* format, auto... args) {
    const int written = std::snprintf(text + n, sizeof text - n, format, args...);
    n = std::min(sizeof text - 1, n + static_cast<std::size_t>(written));
  };
  const auto name = [&print](std::string_view s) {
    print("%.*s", static_cast<int>(s.size()), s.data());
  };
  const InsnInfo& info = insn_info(insn.op);
  name(info.mnemonic);
  const char* separator = " ";
  for (const Operand operand : operands(info.syntax)) {
    print("%s", separator);
    separator = ", ";
    switch (operand) {
      case Operand::kRd: name(gpr_name(insn.rd)); break;
      case Operand::kRs1: name(gpr_name(insn.rs1)); break;
      case Operand::kRs2: name(gpr_name(insn.rs2)); break;
      case Operand::kFd: name(fpr_name(insn.rd)); break;
      case Operand::kFs1: name(fpr_name(insn.rs1)); break;
      case Operand::kFs2: name(fpr_name(insn.rs2)); break;
      case Operand::kImm16:
      case Operand::kNum16: print("%d", insn.imm); break;
      case Operand::kUimm20: print("0x%x", static_cast<std::uint32_t>(insn.imm)); break;
      case Operand::kMem:
        print("%d(", insn.imm);
        name(gpr_name(insn.rs1));
        print("%s", ")");
        break;
      case Operand::kTarget:
        print("0x%x", pc + 4 + static_cast<GuestAddr>(insn.imm) * 4u);
        break;
    }
  }
  return std::string(text, n);
}

}  // namespace dqemu::isa
