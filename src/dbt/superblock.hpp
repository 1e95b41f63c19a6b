// Superblock traces: the DBT's IR-less hot-path tier (DESIGN.md section 15).
//
// When a TranslationBlock crosses its hot threshold, the translation cache
// stitches the chain of blocks it heads into a superblock — one straight-line
// trace across the recorded taken/fall-through/indirect edges, with guards
// where the live path may leave the trace. A micro-op fusion pass combines
// adjacent guest instructions (compare+branch, load+ALU, ALU+store) and
// pre-resolves immediate-address memory ops to their TLB line, so the
// specialized dispatch loop in ExecEngine executes hot straight-line guest
// code with one dense switch per (possibly fused) op instead of per-op
// dispatch through the full interpreter switch.
//
// Everything here is host-side only: a fused op charges exactly the
// virtual-time cost of its unfused sequence, guards reproduce the block
// engine's quantum stop points, and a superblock never outlives any of its
// constituent blocks, so virtual-time results are byte-identical with
// superblocks disabled (DbtConfig::enable_superblocks = false).
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

/// Dispatch kinds for the specialized trace loop. The fused kinds cover the
/// pairs the fusion pass recognizes; the k*Fast kinds are single guest
/// instructions with an inlined fast-path implementation; kSimple falls back
/// to the shared interpreter switch (never a control-flow op: formation
/// keeps those in their dedicated guarded kinds).
enum class SbOpKind : std::uint8_t {
  kAluFast,    ///< single-cycle integer ALU op, inlined mini-switch
  kMemLoad,    ///< load (incl. fld) with a pre-resolved per-op TLB line
  kMemStore,   ///< store (incl. fsd) with a pre-resolved per-op TLB line
  kLoadAlu,    ///< fused: integer load + ALU op consuming the loaded rd
  kAluStore,   ///< fused: ALU op + store of the produced rd
  kCmpBranch,  ///< fused: ALU op + terminal branch testing the produced rd
  kBranch,     ///< terminal conditional branch (guard)
  kJal,        ///< terminal direct call/jump (static target)
  kJalr,       ///< terminal indirect jump (guard on the recorded target)
  kSimple,     ///< anything else: mul/div, LL/SC, FP, fence, hint
};

/// One (possibly fused) op of a superblock trace.
///
/// Cost accounting: `cost_a`/`cost_b` are copied verbatim from the
/// constituent MicroOps, so a fused op charges exactly the virtual-time cost
/// of its unfused sequence and partial retirement on a fault (the load half
/// of kLoadAlu faulting retires nothing; the store half of kAluStore
/// faulting retires only the ALU op) matches the block engine insn-for-insn.
struct SbOp {
  SbOpKind kind = SbOpKind::kSimple;
  std::uint8_t n_insns = 1;      ///< guest instructions covered (1 or 2)
  std::uint8_t mem_bytes = 0;    ///< access width for the mem half (0 if none)
  bool boundary = false;         ///< cut-block boundary follows this op
  isa::Insn a;                   ///< first (or only) guest instruction
  isa::Insn b;                   ///< fused companion (valid when n_insns == 2)
  GuestAddr pc = 0;              ///< guest pc of `a`; companion is at pc + 4
  std::uint32_t cost_a = 0;      ///< virtual cost of `a` (== its MicroOp)
  std::uint32_t cost_b = 0;      ///< virtual cost of `b`
  GuestAddr taken_pc = 0;        ///< branch/jal taken target
  GuestAddr fall_pc = 0;         ///< branch fall-through target
  /// Successor start pc that keeps execution on the trace (kSbNoPc when the
  /// trace ends after this op regardless of direction).
  GuestAddr on_trace_pc = kSbNoPc;
  /// Trace index to continue at when staying on-trace (kSbExitIndex: leave).
  std::uint32_t next_index = kSbExitIndex;
  /// Resume pc for a cut-block boundary (valid when `boundary`).
  GuestAddr boundary_pc = 0;
  /// Pre-resolved TLB line for the mem half: page-aligned guest address
  /// proven identity-mapped, in bounds and accessible for this op's access
  /// type. Reset (kSbNoPc) whenever the engine's superblock memory epoch
  /// moves past Superblock::mem_epoch.
  GuestAddr tlb_tag = kSbNoPc;
  /// Host base of that page (AddressSpace page storage is never freed, so
  /// the pointer is stable; only read when `tlb_tag` matches). Adopted only
  /// for stores or already-materialized pages — a load must never force
  /// materialization, which is protocol-observable.
  std::uint8_t* host_page = nullptr;
};

/// A formed trace. Owned by the TranslationCache, keyed by entry pc, and
/// pointed to by its head block; dies with any constituent block (see
/// TranslationCache::invalidate_page).
struct Superblock {
  GuestAddr entry_pc = 0;
  std::vector<SbOp> ops;
  /// Constituent block start pcs, in trace order (census/debugging).
  std::vector<GuestAddr> block_pcs;
  /// Unique code pages of the constituent blocks (invalidation: a block
  /// never spans a page, so page membership exactly captures "contains a
  /// block that invalidate_page(page) drops").
  std::vector<std::uint32_t> pages;
  std::uint32_t guest_insns = 0;
  std::uint32_t fused_pairs = 0;
  bool loops = false;  ///< last block continues at entry_pc

  // Host-side census, maintained by the engine.
  std::uint64_t exec_count = 0;
  std::uint64_t side_exits = 0;
  /// Engine memory epoch at which the per-op TLB tags were last valid.
  std::uint64_t mem_epoch = 0;
};

}  // namespace dqemu::dbt
