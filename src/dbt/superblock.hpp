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
// has one kind per branch condition. Memory ops carry their own TLB line.
// So the dispatch loop in ExecEngine runs each op with exactly one
// dispatch and decodes nothing at run time.
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

/// Dispatch kind of a trace op: the case of the trace loop's one switch.
/// A single guest instruction's kind is its opcode value (op_kind(), a
/// cast), so every case runs exactly one instruction. The fused kinds sit
/// above the last opcode: addi followed by the block's terminal conditional
/// branch reading the addi's rd, one kind per branch condition.
enum class SbOpKind : std::uint8_t {
  kAddiBeq = static_cast<std::uint8_t>(isa::Opcode::kFcos) + 1,
  kAddiBne,
  kAddiBlt,
  kAddiBge,
  kAddiBltu,
  kAddiBgeu,
};

/// Kind of a single-instruction op.
[[nodiscard]] constexpr SbOpKind op_kind(isa::Opcode op) {
  return static_cast<SbOpKind>(op);
}

/// Kind of addi fused with the conditional branch `branch`.
[[nodiscard]] constexpr SbOpKind addi_branch_kind(isa::Opcode branch) {
  return static_cast<SbOpKind>(static_cast<unsigned>(SbOpKind::kAddiBeq) +
                               static_cast<unsigned>(branch) -
                               static_cast<unsigned>(isa::Opcode::kBeq));
}

static_assert(addi_branch_kind(isa::Opcode::kBgeu) == SbOpKind::kAddiBgeu);

/// One op of a trace: a single guest instruction, or a fused addi+branch.
///
/// Cost accounting: `cost_a`/`cost_b` are copied verbatim from the
/// constituent MicroOps, so a fused op charges exactly the virtual-time
/// cost of its two instructions. Neither half of a fused op can fault, so
/// it always retires both.
struct SbOp {
  SbOpKind kind{};
  std::uint8_t n_insns = 1;      ///< guest instructions covered (1 or 2)
  bool boundary = false;         ///< cut-block boundary follows this op
  isa::Insn a;                   ///< first (or only) guest instruction
  isa::Insn b;                   ///< fused companion (valid when n_insns == 2)
  GuestAddr pc = 0;              ///< guest pc of `a`; companion is at pc + 4
  std::uint32_t cost_a = 0;      ///< virtual cost of `a` (== its MicroOp)
  std::uint32_t cost_b = 0;      ///< virtual cost of `b` (0 if single)
  GuestAddr taken_pc = 0;        ///< branch/jal taken target
  GuestAddr fall_pc = 0;         ///< branch fall-through target
  /// Successor start pc that keeps execution on the trace (kSbNoPc when the
  /// trace ends after this op regardless of direction).
  GuestAddr on_trace_pc = kSbNoPc;
  /// Trace index to continue at when staying on-trace (kSbExitIndex: leave).
  std::uint32_t next_index = kSbExitIndex;
  /// Resume pc for a cut-block boundary (valid when `boundary`).
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
