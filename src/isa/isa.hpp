// GA32 — the guest instruction set architecture.
//
// GA32 is a small 32-bit RISC ISA standing in for the paper's ARM guest:
// fixed 4-byte encodings, 16 integer registers (r0 hardwired to zero),
// 16 double-precision FP registers, LL/SC atomics (so DQEMU's LL/SC-via-
// CAS hash-table emulation from section 4.4 is exercised), FENCE, a
// SYSCALL instruction with an immediate number, and a HINT no-op whose
// operand carries the locality group id used by section 5.3's scheduler.
//
// Encoding formats (bit 31 is the MSB):
//   R:  op[31:24] rd[23:20] rs1[19:16] rs2[15:12] 0[11:0]
//   I:  op[31:24] rd[23:20] rs1[19:16] imm16[15:0]      (signed)
//   U:  op[31:24] rd[23:20] imm20[19:0]                 (LUI/AUIPC/JAL)
//   B:  op[31:24] rs1[23:20] rs2[19:16] imm16[15:0]     (signed word offset)
//   S:  op[31:24] rs1[23:20] rs2[19:16] imm16[15:0]     (stores: mem[rs1+imm]=rs2)
//   N:  op[31:24] imm16[15:0]                           (SYSCALL/HINT/FENCE)
// Branch/JAL offsets are in 4-byte words relative to the *next* pc.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace dqemu::isa {

/// Number of integer / FP registers.
inline constexpr unsigned kNumGpr = 16;
inline constexpr unsigned kNumFpr = 16;

/// ABI register assignments.
enum Reg : std::uint8_t {
  kZero = 0,            ///< hardwired zero
  kA0 = 1, kA1 = 2, kA2 = 3, kA3 = 4,   ///< arguments / a0 = return value
  kT0 = 5, kT1 = 6, kT2 = 7, kT3 = 8, kT4 = 9,  ///< caller-saved temps
  kS0 = 10, kS1 = 11,   ///< callee-saved
  kTp = 12,             ///< thread pointer (set at thread start)
  kSp = 13,             ///< stack pointer
  kRa = 14,             ///< return address (link register)
  kS2 = 15,             ///< callee-saved
};

/// Instruction encoding format.
enum class Format : std::uint8_t { kR, kI, kU, kB, kS, kN };

/// One operand as written in assembly text, and the Insn field it fills.
enum class Operand : std::uint8_t {
  kRd, kRs1, kRs2,  ///< integer register in that field
  kFd, kFs1, kFs2,  ///< FP register in the rd / rs1 / rs2 field
  kImm16,           ///< imm: -32768..32767
  kUimm20,          ///< imm: 0..0xFFFFF (LUI/AUIPC upper bits)
  kNum16,           ///< imm: -32768..65535, stored as its low 16 bits
  kMem,             ///< "off(base)": off (an imm16) in imm, base in rs1
  kTarget,          ///< code label; imm = word offset from the next pc
};

/// How an opcode's operands are written. The text assembler parses
/// exactly these operands and the disassembler prints them, so every
/// disassembled instruction assembles back to itself.
enum class Syntax : std::uint8_t {
  kNone,           ///< fence
  kRdRs1Rs2,       ///< add rd, rs1, rs2 (integer R-type, sc)
  kRdRs1Imm,       ///< addi rd, rs1, imm16 (integer I-type, jalr)
  kRdMem,          ///< lw rd, off(base) (integer loads, ll)
  kRs2Mem,         ///< sw src, off(base)
  kFdMem,          ///< fld fd, off(base)
  kFs2Mem,         ///< fsd fs, off(base)
  kRs1Rs2Target,   ///< beq rs1, rs2, label
  kRdTarget,       ///< jal rd, label
  kRdUimm20,       ///< lui rd, imm20
  kNum16,          ///< syscall n, hint group
  kFdFs1Fs2,       ///< fadd fd, fs1, fs2
  kFdFs1,          ///< fneg fd, fs1
  kFdRs1,          ///< fcvt.d.w fd, rs1
  kRdFs1,          ///< fcvt.w.d rd, fs1
  kRdFs1Fs2,       ///< flt rd, fs1, fs2
};

/// The operands `syntax` names, in written order.
[[nodiscard]] std::span<const Operand> operands(Syntax syntax);

/// Opcodes. Values are the wire encoding and must stay stable.
enum class Opcode : std::uint8_t {
  // R-type integer ALU.
  kAdd = 0x01, kSub, kMul, kDiv, kDivu, kRem, kRemu,
  kAnd, kOr, kXor, kSll, kSrl, kSra, kSlt, kSltu,
  // I-type integer ALU.
  kAddi = 0x10, kAndi, kOri, kXori, kSlli, kSrli, kSrai, kSlti, kSltiu,
  // U-type.
  kLui = 0x1A, kAuipc,
  // Loads (I-format: rd = mem[rs1 + imm]).
  kLb = 0x20, kLbu, kLh, kLhu, kLw,
  // Stores (S-format: mem[rs1 + imm] = rs2).
  kSb = 0x28, kSh, kSw,
  // Branches (B-format).
  kBeq = 0x30, kBne, kBlt, kBge, kBltu, kBgeu,
  // Jumps.
  kJal = 0x38,   ///< U-format: rd = pc+4; pc += imm20*4
  kJalr = 0x39,  ///< I-format: rd = pc+4; pc = (rs1 + imm) & ~3
  // Atomics & ordering.
  kLl = 0x40,    ///< I-format: rd = mem[rs1 + imm]; open monitor
  kSc = 0x41,    ///< R-format: mem[rs1] = rs2; rd = 0 ok / 1 fail
  kFence = 0x42, ///< N-format: full barrier
  // System.
  kSyscall = 0x48,  ///< N-format: imm16 = syscall number; args in a0..a3
  kHint = 0x49,     ///< N-format: no-op; imm16 = locality group id (5.3)
  // FP loads/stores (same formats, FP register in rd / rs2 slot).
  kFld = 0x50, kFsd = 0x51,
  // FP arithmetic (R-format on FP registers).
  kFadd = 0x58, kFsub, kFmul, kFdiv, kFmin, kFmax,
  kFneg = 0x5E,  ///< fd = -fs1
  kFabs = 0x5F,
  kFmov = 0x60,  ///< fd = fs1
  // FP <-> int conversion and moves (mixed register files).
  kFcvtdw = 0x61,  ///< fd = (double)(int32)rs1
  kFcvtwd = 0x62,  ///< rd = (int32)trunc(fs1)
  // FP comparisons (integer rd).
  kFlt = 0x63, kFle = 0x64, kFeq = 0x65,
  // FP "libm-class" ops: stand-ins for statically linked math routines.
  kFsqrt = 0x68, kFexp, kFlog, kFpow, kFerf, kFsin, kFcos,
};

/// Decoded instruction.
struct Insn {
  Opcode op = Opcode::kAdd;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;  ///< sign-extended; imm20 for U-format

  friend bool operator==(const Insn&, const Insn&) = default;
};

/// Static properties of an opcode, driving the assembler, the DBT's block
/// former and the cost model.
struct InsnInfo {
  std::string_view mnemonic;
  Format format = Format::kR;
  Syntax syntax = Syntax::kNone;
  bool is_load = false;
  bool is_store = false;
  bool ends_block = false;    ///< branch/jump/syscall: terminates a TB
  bool is_fp = false;         ///< touches the FP register file
  bool is_fp_special = false; ///< libm-class cost
  /// Memory access width in bytes for loads/stores (0 otherwise).
  std::uint8_t mem_bytes = 0;
};

/// Metadata for `op`; invalid opcodes return a null mnemonic.
[[nodiscard]] const InsnInfo& insn_info(Opcode op);

/// True if the byte is an assigned opcode value.
[[nodiscard]] bool is_valid_opcode(std::uint8_t raw);

/// Encodes to the 4-byte wire format. Immediates out of range for the
/// format are a programming error (asserted); the assembler range-checks
/// user input before calling this.
[[nodiscard]] std::uint32_t encode(const Insn& insn);

/// Decodes a wire word; nullopt for invalid opcodes.
[[nodiscard]] std::optional<Insn> decode(std::uint32_t word);

/// Register names for the disassembler ("zero", "a0", ... "sp").
[[nodiscard]] std::string_view gpr_name(unsigned index);
[[nodiscard]] std::string_view fpr_name(unsigned index);

/// Renders `insn` in its Syntax, e.g. "addi sp, sp, -16". `pc` resolves
/// branch and JAL targets to absolute addresses.
[[nodiscard]] std::string disassemble(const Insn& insn, GuestAddr pc = 0);

/// Immediate range checks per format.
[[nodiscard]] constexpr bool fits_imm16(std::int64_t v) {
  return v >= -32768 && v <= 32767;
}
[[nodiscard]] constexpr bool fits_imm20(std::int64_t v) {
  return v >= -(1 << 19) && v < (1 << 19);
}

}  // namespace dqemu::isa
