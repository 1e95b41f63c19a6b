// Programmatic GA32 assembler.
//
// Workload generators and tests build guest programs through this API: one
// method per instruction, label-based control flow with two-pass fixups, a
// separate data stream (placed on the page after the code at finalize), and
// the usual pseudo-instructions (li/la/mov/call/ret, FP constant loads via
// an automatic literal pool). A text front-end lives in text_asm.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "isa/isa.hpp"
#include "isa/program.hpp"

namespace dqemu::isa {

/// FP register designators (separate file from the integer Reg enum).
enum FReg : std::uint8_t {
  kF0 = 0, kF1, kF2, kF3, kF4, kF5, kF6, kF7,
  kF8, kF9, kF10, kF11, kF12, kF13, kF14, kF15,
};

class Assembler {
 public:
  /// Label handle. Valid only for the Assembler that created it.
  struct Label {
    std::uint32_t id = 0;
  };

  explicit Assembler(GuestAddr code_origin = kDefaultCodeOrigin);

  // ----- labels ---------------------------------------------------------
  /// Creates an unbound label; `name` (if non-empty) is exported in the
  /// program's symbol table.
  Label make_label(std::string name = {});
  /// Binds `label` to the current code position.
  void bind(Label label);
  /// Binds `label` to the current data position.
  void bind_data(Label label);
  /// Creates a label already bound to the current code position.
  Label here(std::string name = {});

  // ----- raw emit -------------------------------------------------------
  void emit(const Insn& insn);
  /// Emits a B-format branch or a JAL whose offset finalize() resolves to
  /// `target`.
  void emit(const Insn& insn, Label target);

  // ----- integer R-type -------------------------------------------------
  void add(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kAdd, rd, rs1, rs2); }
  void sub(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kSub, rd, rs1, rs2); }
  void mul(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kMul, rd, rs1, rs2); }
  void div(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kDiv, rd, rs1, rs2); }
  void divu(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kDivu, rd, rs1, rs2); }
  void rem(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kRem, rd, rs1, rs2); }
  void remu(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kRemu, rd, rs1, rs2); }
  void and_(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kAnd, rd, rs1, rs2); }
  void or_(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kOr, rd, rs1, rs2); }
  void xor_(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kXor, rd, rs1, rs2); }
  void sll(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kSll, rd, rs1, rs2); }
  void srl(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kSrl, rd, rs1, rs2); }
  void sra(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kSra, rd, rs1, rs2); }
  void slt(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kSlt, rd, rs1, rs2); }
  void sltu(Reg rd, Reg rs1, Reg rs2) { emit_r(Opcode::kSltu, rd, rs1, rs2); }

  // ----- integer I-type -------------------------------------------------
  void addi(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kAddi, rd, rs1, imm); }
  void andi(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kAndi, rd, rs1, imm); }
  void ori(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kOri, rd, rs1, imm); }
  void xori(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kXori, rd, rs1, imm); }
  void slli(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kSlli, rd, rs1, imm); }
  void srli(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kSrli, rd, rs1, imm); }
  void srai(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kSrai, rd, rs1, imm); }
  void slti(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kSlti, rd, rs1, imm); }
  void sltiu(Reg rd, Reg rs1, std::int32_t imm) { emit_i(Opcode::kSltiu, rd, rs1, imm); }
  void lui(Reg rd, std::int32_t imm20) { emit_u(Opcode::kLui, rd, imm20); }
  void auipc(Reg rd, std::int32_t imm20) { emit_u(Opcode::kAuipc, rd, imm20); }

  // ----- memory ---------------------------------------------------------
  void lb(Reg rd, Reg base, std::int32_t off) { emit_i(Opcode::kLb, rd, base, off); }
  void lbu(Reg rd, Reg base, std::int32_t off) { emit_i(Opcode::kLbu, rd, base, off); }
  void lh(Reg rd, Reg base, std::int32_t off) { emit_i(Opcode::kLh, rd, base, off); }
  void lhu(Reg rd, Reg base, std::int32_t off) { emit_i(Opcode::kLhu, rd, base, off); }
  void lw(Reg rd, Reg base, std::int32_t off) { emit_i(Opcode::kLw, rd, base, off); }
  void sb(Reg base, Reg src, std::int32_t off) { emit_s(Opcode::kSb, base, src, off); }
  void sh(Reg base, Reg src, std::int32_t off) { emit_s(Opcode::kSh, base, src, off); }
  void sw(Reg base, Reg src, std::int32_t off) { emit_s(Opcode::kSw, base, src, off); }

  // ----- control flow ---------------------------------------------------
  void beq(Reg rs1, Reg rs2, Label target) { emit_b(Opcode::kBeq, rs1, rs2, target); }
  void bne(Reg rs1, Reg rs2, Label target) { emit_b(Opcode::kBne, rs1, rs2, target); }
  void blt(Reg rs1, Reg rs2, Label target) { emit_b(Opcode::kBlt, rs1, rs2, target); }
  void bge(Reg rs1, Reg rs2, Label target) { emit_b(Opcode::kBge, rs1, rs2, target); }
  void bltu(Reg rs1, Reg rs2, Label target) { emit_b(Opcode::kBltu, rs1, rs2, target); }
  void bgeu(Reg rs1, Reg rs2, Label target) { emit_b(Opcode::kBgeu, rs1, rs2, target); }
  void jal(Reg rd, Label target);
  void jalr(Reg rd, Reg rs1, std::int32_t imm = 0) { emit_i(Opcode::kJalr, rd, rs1, imm); }
  /// Unconditional jump.
  void j(Label target) { jal(kZero, target); }
  /// Call: ra = pc + 4, jump to target.
  void call(Label target) { jal(kRa, target); }
  /// Return through ra.
  void ret() { jalr(kZero, kRa, 0); }

  // ----- atomics / system -----------------------------------------------
  void ll(Reg rd, Reg addr) { emit_i(Opcode::kLl, rd, addr, 0); }
  void sc(Reg rd, Reg addr, Reg src) { emit_r(Opcode::kSc, rd, addr, src); }
  void fence() { emit_n(Opcode::kFence, 0); }
  void syscall(std::int32_t number) { emit_n(Opcode::kSyscall, number); }
  void hint(std::int32_t group) { emit_n(Opcode::kHint, group); }

  // ----- FP -------------------------------------------------------------
  void fld(FReg fd, Reg base, std::int32_t off) { emit_fi(Opcode::kFld, fd, base, off); }
  void fsd(Reg base, FReg src, std::int32_t off) { emit_fs(Opcode::kFsd, base, src, off); }
  void fadd(FReg fd, FReg fs1, FReg fs2) { emit_f(Opcode::kFadd, fd, fs1, fs2); }
  void fsub(FReg fd, FReg fs1, FReg fs2) { emit_f(Opcode::kFsub, fd, fs1, fs2); }
  void fmul(FReg fd, FReg fs1, FReg fs2) { emit_f(Opcode::kFmul, fd, fs1, fs2); }
  void fdiv(FReg fd, FReg fs1, FReg fs2) { emit_f(Opcode::kFdiv, fd, fs1, fs2); }
  void fmin(FReg fd, FReg fs1, FReg fs2) { emit_f(Opcode::kFmin, fd, fs1, fs2); }
  void fmax(FReg fd, FReg fs1, FReg fs2) { emit_f(Opcode::kFmax, fd, fs1, fs2); }
  void fneg(FReg fd, FReg fs1) { emit_f(Opcode::kFneg, fd, fs1, kF0); }
  void fabs_(FReg fd, FReg fs1) { emit_f(Opcode::kFabs, fd, fs1, kF0); }
  void fmov(FReg fd, FReg fs1) { emit_f(Opcode::kFmov, fd, fs1, kF0); }
  void fcvt_d_w(FReg fd, Reg rs1) {
    emit({Opcode::kFcvtdw, std::uint8_t(fd), std::uint8_t(rs1), 0, 0});
  }
  void fcvt_w_d(Reg rd, FReg fs1) {
    emit({Opcode::kFcvtwd, std::uint8_t(rd), std::uint8_t(fs1), 0, 0});
  }
  void flt(Reg rd, FReg fs1, FReg fs2) {
    emit({Opcode::kFlt, std::uint8_t(rd), std::uint8_t(fs1), std::uint8_t(fs2), 0});
  }
  void fle(Reg rd, FReg fs1, FReg fs2) {
    emit({Opcode::kFle, std::uint8_t(rd), std::uint8_t(fs1), std::uint8_t(fs2), 0});
  }
  void feq(Reg rd, FReg fs1, FReg fs2) {
    emit({Opcode::kFeq, std::uint8_t(rd), std::uint8_t(fs1), std::uint8_t(fs2), 0});
  }
  void fsqrt(FReg fd, FReg fs1) { emit_f(Opcode::kFsqrt, fd, fs1, kF0); }
  void fexp(FReg fd, FReg fs1) { emit_f(Opcode::kFexp, fd, fs1, kF0); }
  void flog(FReg fd, FReg fs1) { emit_f(Opcode::kFlog, fd, fs1, kF0); }
  void fpow(FReg fd, FReg fs1, FReg fs2) { emit_f(Opcode::kFpow, fd, fs1, fs2); }
  void ferf(FReg fd, FReg fs1) { emit_f(Opcode::kFerf, fd, fs1, kF0); }
  void fsin(FReg fd, FReg fs1) { emit_f(Opcode::kFsin, fd, fs1, kF0); }
  void fcos(FReg fd, FReg fs1) { emit_f(Opcode::kFcos, fd, fs1, kF0); }

  // ----- pseudo-instructions ---------------------------------------------
  /// Loads a 32-bit constant (1 or 2 instructions).
  void li(Reg rd, std::int64_t value);
  /// Loads the absolute address of a label (always 2 instructions).
  void la(Reg rd, Label target);
  /// Loads an absolute address known at emit time.
  void la(Reg rd, GuestAddr addr);
  void mov(Reg rd, Reg rs) { add(rd, rs, kZero); }
  void nop() { addi(kZero, kZero, 0); }
  /// Loads a double constant from the automatic literal pool (3 insns;
  /// clobbers `scratch`).
  void fli(FReg fd, double value, Reg scratch = kT4);

  // ----- data stream ------------------------------------------------------
  void d_align(std::uint32_t alignment);
  void d_byte(std::uint8_t v);
  void d_half(std::uint16_t v);
  void d_word(std::uint32_t v);
  void d_double(double v);
  void d_space(std::uint32_t n);
  void d_bytes(std::span<const std::uint8_t> bytes);
  void d_asciz(std::string_view s);

  // ----- finalize -----------------------------------------------------------
  /// Overrides the entry point (defaults to the code origin).
  void set_entry(Label label);

  /// Resolves labels and fixups and produces the program image. Fails on
  /// unbound labels and out-of-range branch offsets.
  [[nodiscard]] Result<Program> finalize();

 private:
  enum class FixupKind { kBranch16, kJal20, kLuiOriPair };
  struct Fixup {
    std::uint32_t code_offset;  ///< first patched instruction
    std::uint32_t label_id;
    FixupKind kind;
  };
  struct LabelInfo {
    std::string name;
    bool bound = false;
    bool in_data = false;
    std::uint32_t offset = 0;  ///< within code or data stream
  };

  void emit_r(Opcode op, Reg rd, Reg rs1, Reg rs2) {
    emit({op, std::uint8_t(rd), std::uint8_t(rs1), std::uint8_t(rs2), 0});
  }
  void emit_i(Opcode op, Reg rd, Reg rs1, std::int32_t imm) {
    emit({op, std::uint8_t(rd), std::uint8_t(rs1), 0, imm});
  }
  void emit_u(Opcode op, Reg rd, std::int32_t imm20) {
    emit({op, std::uint8_t(rd), 0, 0, imm20});
  }
  void emit_s(Opcode op, Reg base, Reg src, std::int32_t imm) {
    emit({op, 0, std::uint8_t(base), std::uint8_t(src), imm});
  }
  void emit_b(Opcode op, Reg rs1, Reg rs2, Label target);
  void emit_n(Opcode op, std::int32_t imm) { emit({op, 0, 0, 0, imm}); }
  void emit_f(Opcode op, FReg fd, FReg fs1, FReg fs2) {
    emit({op, std::uint8_t(fd), std::uint8_t(fs1), std::uint8_t(fs2), 0});
  }
  void emit_fi(Opcode op, FReg fd, Reg base, std::int32_t imm) {
    emit({op, std::uint8_t(fd), std::uint8_t(base), 0, imm});
  }
  void emit_fs(Opcode op, Reg base, FReg src, std::int32_t imm) {
    emit({op, 0, std::uint8_t(base), std::uint8_t(src), imm});
  }

  void patch_word(std::uint32_t code_offset, std::uint32_t word);
  [[nodiscard]] std::uint32_t read_word(std::uint32_t code_offset) const;

  GuestAddr code_origin_;
  std::vector<std::uint8_t> code_;
  std::vector<std::uint8_t> data_;
  std::vector<LabelInfo> labels_;
  std::vector<Fixup> fixups_;
  std::map<std::uint64_t, Label> literal_pool_;  ///< double bits -> label
  std::uint32_t entry_label_ = UINT32_MAX;
  Status first_error_;
};

}  // namespace dqemu::isa
