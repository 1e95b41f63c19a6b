// Traces: the DBT's one executor (DESIGN.md section 15).
//
// Every translation block is executed as a trace of pre-decoded ops: at
// translation it gets its own one-block trace, and when a block crosses
// its hot threshold the translation cache stitches the chain of blocks it
// heads into a superblock — one straight-line trace across the recorded
// taken/fall-through/indirect edges, with guards where the live path may
// leave the trace. The op builder picks each op's kind once, at build
// time: a single instruction's kind names its opcode, and the one fused
// shape, addi + the terminal conditional branch that tests its result,
// has one kind per branch condition. A block cut by length or page gets a
// Boundary op after its last instruction. Memory ops carry their own TLB
// line. So the threaded dispatch in ExecEngine runs each op with exactly
// one indirect jump and decodes nothing at run time.
//
// Retirement is per block: every op carries the instructions and cycles
// of its block up to and including itself, and only the op that ends the
// block (a branch or jump, a syscall, a Boundary) adds them. A faulting op
// retires the ops before it in its block from its predecessor's counts.
//
// Everything here is host-side only: a fused op charges exactly the
// virtual-time cost of its two instructions, guards stop at the same
// block boundaries whatever was stitched, and a superblock never outlives
// any of its constituent blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/isa.hpp"

namespace dqemu::dbt {

/// Never a valid page-aligned tag, instruction address or branch target
/// (instruction addresses are 4-byte aligned).
inline constexpr GuestAddr kSbNoPc = ~GuestAddr{0};

/// "Leave the trace" marker for SbOp::next_index.
inline constexpr std::uint32_t kSbExitIndex = ~std::uint32_t{0};

/// Every trace op kind, in one list. INSN(Name) is the single-instruction
/// kind of isa::Opcode::kName, so each of its handlers runs exactly one
/// instruction. FUSED(Branch) is addi followed by the block's terminal
/// conditional branch isa::Opcode::kBranch reading the addi's rd, kind
/// kAddiBranch. TRACE(Name) runs no guest instruction: kBoundary ends a
/// block cut by length or page. SbOpKind, op_kind(), addi_branch_kind()
/// and the trace loop's label table (src/dbt/exec.cpp) are all built from
/// this list, so a kind without a handler label, a handler label without a
/// kind, and an opcode without a kind (op_kind()'s switch, -Wswitch) each
/// fail the build.
#define DQEMU_SB_OP_KINDS(INSN, FUSED, TRACE)                                \
  /* Integer ALU, multiply and divide. */                                    \
  INSN(Add) INSN(Sub) INSN(And) INSN(Or) INSN(Xor) INSN(Sll) INSN(Srl)      \
  INSN(Sra) INSN(Slt) INSN(Sltu) INSN(Addi) INSN(Andi) INSN(Ori) INSN(Xori) \
  INSN(Slli) INSN(Srli) INSN(Srai) INSN(Slti) INSN(Sltiu) INSN(Lui)         \
  INSN(Auipc) INSN(Mul) INSN(Div) INSN(Divu) INSN(Rem) INSN(Remu)           \
  /* Loads and stores; LL/SC. */                                             \
  INSN(Lb) INSN(Lbu) INSN(Lh) INSN(Lhu) INSN(Lw) INSN(Fld) INSN(Sb)         \
  INSN(Sh) INSN(Sw) INSN(Fsd) INSN(Ll) INSN(Sc)                             \
  /* System. */                                                              \
  INSN(Fence) INSN(Hint) INSN(Syscall)                                       \
  /* Floating point. */                                                      \
  INSN(Fadd) INSN(Fsub) INSN(Fmul) INSN(Fdiv) INSN(Fmin) INSN(Fmax)         \
  INSN(Fneg) INSN(Fabs) INSN(Fmov) INSN(Fcvtdw) INSN(Fcvtwd) INSN(Flt)      \
  INSN(Fle) INSN(Feq) INSN(Fsqrt) INSN(Fexp) INSN(Flog) INSN(Fpow)          \
  INSN(Ferf) INSN(Fsin) INSN(Fcos)                                           \
  /* Control transfer. */                                                    \
  INSN(Beq) INSN(Bne) INSN(Blt) INSN(Bge) INSN(Bltu) INSN(Bgeu) INSN(Jal)   \
  INSN(Jalr)                                                                 \
  /* addi + terminal branch on its result. */                                \
  FUSED(Beq) FUSED(Bne) FUSED(Blt) FUSED(Bge) FUSED(Bltu) FUSED(Bgeu)       \
  /* Cut-block boundary. */                                                  \
  TRACE(Boundary)

/// Dispatch kind of a trace op: the index of its handler in the trace
/// loop's label table. kUnset is a default-constructed op's kind, which the
/// builder never leaves in a trace; its handler asserts.
enum class SbOpKind : std::uint8_t {
  kUnset,
#define DQEMU_SB_INSN_KIND(name) k##name,
#define DQEMU_SB_FUSED_KIND(branch) kAddi##branch,
  DQEMU_SB_OP_KINDS(DQEMU_SB_INSN_KIND, DQEMU_SB_FUSED_KIND,
                    DQEMU_SB_INSN_KIND)
#undef DQEMU_SB_INSN_KIND
#undef DQEMU_SB_FUSED_KIND
};

#define DQEMU_SB_NO_CASE(name)

/// Kind of a single-instruction op.
[[nodiscard]] constexpr SbOpKind op_kind(isa::Opcode op) {
#define DQEMU_SB_INSN_CASE(name) \
  case isa::Opcode::k##name:     \
    return SbOpKind::k##name;
  switch (op) {
    DQEMU_SB_OP_KINDS(DQEMU_SB_INSN_CASE, DQEMU_SB_NO_CASE, DQEMU_SB_NO_CASE)
  }
#undef DQEMU_SB_INSN_CASE
  return SbOpKind::kUnset;  // not an opcode
}

/// Kind of addi fused with the conditional branch `branch`.
[[nodiscard]] constexpr SbOpKind addi_branch_kind(isa::Opcode branch) {
#define DQEMU_SB_FUSED_CASE(name) \
  case isa::Opcode::k##name:      \
    return SbOpKind::kAddi##name;
  switch (branch) {
    DQEMU_SB_OP_KINDS(DQEMU_SB_NO_CASE, DQEMU_SB_FUSED_CASE, DQEMU_SB_NO_CASE)
    default:
      return SbOpKind::kUnset;  // not a conditional branch
  }
#undef DQEMU_SB_FUSED_CASE
}

#undef DQEMU_SB_NO_CASE

/// One op of a trace: a single guest instruction, a fused addi+branch, or
/// a cut block's Boundary.
///
/// Cost accounting: `through_insns`/`through_cycles` sum the instructions
/// and the MicroOp costs of this op's block from its first op up to and
/// including this one, so the block-ending op carries the block's totals
/// and a fused op charges exactly the virtual-time cost of its two
/// instructions. Neither half of a fused op can fault, so it always
/// retires both.
struct SbOp {
  SbOpKind kind{};
  std::uint8_t n_insns = 1;      ///< guest instructions run (0, 1 or 2)
  bool block_head = false;       ///< first op of its block
  isa::Insn a;                   ///< first (or only) guest instruction
  isa::Insn b;                   ///< fused companion (valid when n_insns == 2)
  GuestAddr pc = 0;              ///< guest pc of `a`; companion is at pc + 4
  std::uint32_t through_insns = 0;   ///< block's instructions up to here
  std::uint32_t through_cycles = 0;  ///< block's cycles up to here
  GuestAddr taken_pc = 0;        ///< branch/jal taken target
  GuestAddr fall_pc = 0;         ///< branch fall-through target
  /// Successor start pc that keeps execution on the trace (kSbNoPc when the
  /// trace ends after this op regardless of direction).
  GuestAddr on_trace_pc = kSbNoPc;
  /// Trace index to continue at when staying on-trace (kSbExitIndex: leave).
  std::uint32_t next_index = kSbExitIndex;
  /// Resume pc of a Boundary op: the cut block's end.
  GuestAddr boundary_pc = 0;
  /// Pre-resolved TLB line of a load or store: page-aligned guest address
  /// proven identity-mapped, in bounds and accessible for this op's access
  /// type. Reset (kSbNoPc) whenever the engine's trace memory epoch moves
  /// past Superblock::mem_epoch.
  GuestAddr tlb_tag = kSbNoPc;
  /// Host base of that page (AddressSpace page storage is never freed, so
  /// the pointer is stable; only read when `tlb_tag` matches). Adopted only
  /// for stores or already-materialized pages — a load must never force
  /// materialization, which is protocol-observable.
  std::uint8_t* host_page = nullptr;
};
static_assert(sizeof(SbOp) == 64, "a trace op is 64 bytes");

/// A trace. Either a block's own one-block trace (a member of its
/// TranslationBlock), or a stitched superblock: owned by the
/// TranslationCache, keyed by entry pc, pointed to by its head block, and
/// dead with any constituent block (see TranslationCache::invalidate_page).
struct Superblock {
  GuestAddr entry_pc = 0;
  std::vector<SbOp> ops;
  /// Stitched only: constituent block start pcs, in trace order
  /// (census/debugging).
  std::vector<GuestAddr> block_pcs;
  /// Stitched only: unique code pages of the constituent blocks
  /// (invalidation: a block never spans a page, so page membership exactly
  /// captures "contains a block that invalidate_page(page) drops").
  std::vector<std::uint32_t> pages;
  std::uint32_t guest_insns = 0;
  std::uint32_t fused_pairs = 0;
  bool loops = false;  ///< last block continues at entry_pc

  // Host-side census of a stitched superblock, maintained by the engine.
  std::uint64_t exec_count = 0;
  std::uint64_t side_exits = 0;
  /// Engine memory epoch at which the per-op TLB tags were last valid.
  std::uint64_t mem_epoch = 0;
};

}  // namespace dqemu::dbt
