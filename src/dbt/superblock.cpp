// Trace building (DESIGN.md section 15): the op builder every trace is made
// of, and superblock formation on top of it.
//
// append_trace_ops() turns one block's MicroOps into trace ops: kind
// selection (a single instruction's kind names its opcode; addi + terminal
// conditional branch fuse into one op), the block's through-counts, and
// terminal wiring (a cut block gets a Boundary op). translate()
// calls it once per block to build the block's own one-block trace, and
// maybe_form_superblock() once per constituent block of a stitched trace.
//
// Trace selection walks the chain of already-translated blocks headed by the
// hot block, following each block's recorded control-flow outcome
// (last_taken for branches, last_indirect_target for jalr, the static
// target for jal, fall-through for cut blocks). The walk stops at unknown
// or untranslated successors, at blocks already in the trace (except the
// head, which closes a loop), at syscall-terminated blocks, and at the
// size limits. Formation is host-side only: it uses the raw block map (not
// lookup(), which counts cache hits/misses) and charges no virtual time.

#include "dbt/translation.hpp"

#include <algorithm>

namespace dqemu::dbt {

namespace {

using isa::Opcode;

constexpr std::uint32_t to_unsigned(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

bool is_cond_branch(Opcode op) {
  switch (op) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
      return true;
    default:
      return false;
  }
}

/// Taken target of a branch/jal MicroOp (offsets are words past next pc).
GuestAddr taken_target(const MicroOp& mop) {
  return mop.pc + 4 + to_unsigned(mop.insn.imm) * 4u;
}

/// Successor start pc the trace walk should follow out of `tb`, or kSbNoPc
/// when unknown (indirect target never observed, or syscall).
GuestAddr successor_pc(const TranslationBlock* tb) {
  const MicroOp& last = tb->ops.back();
  if (!isa::insn_info(last.insn.op).ends_block) {
    return tb->end_pc();  // block cut by length/page limit: falls through
  }
  switch (last.insn.op) {
    case Opcode::kJal:
      return taken_target(last);
    case Opcode::kJalr:
      return tb->last_indirect_target != 0 ? tb->last_indirect_target
                                           : kSbNoPc;
    default:
      break;
  }
  if (is_cond_branch(last.insn.op)) {
    return tb->last_taken ? taken_target(last) : last.pc + 4;
  }
  return kSbNoPc;  // syscall
}

}  // namespace

void append_trace_ops(const TranslationBlock& block, GuestAddr next_start,
                      Superblock& trace) {
  const std::size_t n = block.ops.size();
  // The block's cycles through the op being built; `j` counts its
  // instructions (one MicroOp each).
  std::uint32_t cycles = 0;
  std::size_t j = 0;
  while (j < n) {
    const MicroOp& m = block.ops[j];
    SbOp op;
    op.kind = op_kind(m.insn.op);
    op.block_head = j == 0;
    op.pc = m.pc;
    op.a = m.insn;
    cycles += m.cost_cycles;

    // Fusion: addi followed by the block's terminal conditional branch
    // that tests the addi's result (the loop-closing decrement-and-test).
    // Costs are summed from the MicroOps, never recomputed, so the fused
    // op charges its two instructions exactly.
    if (m.insn.op == Opcode::kAddi && m.insn.rd != 0 && j + 2 == n) {
      const MicroOp& br = block.ops[j + 1];
      if (is_cond_branch(br.insn.op) &&
          (br.insn.rs1 == m.insn.rd || br.insn.rs2 == m.insn.rd)) {
        op.kind = addi_branch_kind(br.insn.op);
        op.n_insns = 2;
        op.b = br.insn;
        cycles += br.cost_cycles;
        ++trace.fused_pairs;
      }
    }
    j += op.n_insns;
    op.through_insns = static_cast<std::uint32_t>(j);
    op.through_cycles = cycles;

    // Terminal wiring: the op consuming a branch or jump terminal is
    // guarded, with on-trace target `next_start`.
    if (j >= n) {
      const MicroOp& last = block.ops.back();
      const Opcode lop = last.insn.op;
      if (is_cond_branch(lop)) {
        op.fall_pc = last.pc + 4;
        op.taken_pc = taken_target(last);
        op.on_trace_pc = next_start;
      } else if (lop == Opcode::kJal) {
        op.taken_pc = taken_target(last);
        op.on_trace_pc = next_start;
      } else if (lop == Opcode::kJalr) {
        op.on_trace_pc = next_start;
      }
    }
    trace.ops.push_back(op);
  }
  // A block cut by length or page falls through to its end: a Boundary op
  // retires it there, a quantum guard point like any branch.
  if (!isa::insn_info(block.ops.back().insn.op).ends_block) {
    SbOp boundary;
    boundary.kind = SbOpKind::kBoundary;
    boundary.n_insns = 0;
    boundary.through_insns = block.insn_count();
    boundary.through_cycles = cycles;
    boundary.boundary_pc = block.end_pc();
    trace.ops.push_back(boundary);
  }
  trace.guest_insns += block.insn_count();
}

Superblock* TranslationCache::maybe_form_superblock(TranslationBlock* head) {
  if (head->sb != nullptr) return head->sb;

  // ---- trace selection: walk the recorded chain ------------------------
  std::vector<const TranslationBlock*> chain;
  std::uint32_t total_insns = 0;
  bool loops = false;
  const TranslationBlock* cur = head;
  for (;;) {
    chain.push_back(cur);
    total_insns += cur->insn_count();
    if (chain.size() >= kMaxTraceBlocks) break;
    const GuestAddr next_pc = successor_pc(cur);
    if (next_pc == kSbNoPc) break;
    if (next_pc == head->start_pc) {
      loops = true;
      break;
    }
    const auto it = blocks_.find(next_pc);
    if (it == blocks_.end()) break;  // successor not (or no longer) cached
    const TranslationBlock* next = it->second.get();
    if (next->ops.back().insn.op == Opcode::kSyscall) break;
    if (std::find(chain.begin(), chain.end(), next) != chain.end()) break;
    if (total_insns + next->insn_count() > kMaxTraceInsns) break;
    cur = next;
  }
  if (head->ops.back().insn.op == Opcode::kSyscall) return nullptr;
  if (!loops && chain.size() < 2) return nullptr;  // nothing to stitch

  // ---- build the op trace ---------------------------------------------
  auto sb = std::make_unique<Superblock>();
  sb->entry_pc = head->start_pc;
  sb->loops = loops;
  std::vector<std::uint32_t> block_first(chain.size());
  std::vector<std::uint32_t> block_last(chain.size());

  for (std::size_t bi = 0; bi < chain.size(); ++bi) {
    block_first[bi] = static_cast<std::uint32_t>(sb->ops.size());
    const GuestAddr next_start = bi + 1 < chain.size()
                                     ? chain[bi + 1]->start_pc
                                     : (loops ? head->start_pc : kSbNoPc);
    append_trace_ops(*chain[bi], next_start, *sb);
    block_last[bi] = static_cast<std::uint32_t>(sb->ops.size()) - 1;
  }

  // Patch continuation indices now that every block's first op is placed.
  for (std::size_t bi = 0; bi < chain.size(); ++bi) {
    sb->ops[block_last[bi]].next_index =
        bi + 1 < chain.size() ? block_first[bi + 1]
                              : (loops ? 0u : kSbExitIndex);
  }

  sb->block_pcs.reserve(chain.size());
  for (const TranslationBlock* b : chain) {
    sb->block_pcs.push_back(b->start_pc);
    const std::uint32_t page = space_.page_of(b->start_pc);
    if (std::find(sb->pages.begin(), sb->pages.end(), page) ==
        sb->pages.end()) {
      sb->pages.push_back(page);
    }
  }

  Superblock* raw = sb.get();
  superblocks_[head->start_pc] = std::move(sb);
  head->sb = raw;
  stats_.add("dbt.sb_formed");
  stats_.add("dbt.sb_blocks", raw->block_pcs.size());
  stats_.add("dbt.sb_insns", raw->guest_insns);
  stats_.add("dbt.fused_pairs", raw->fused_pairs);
  if (sb_event_hook_) sb_event_hook_(SbEvent::kFormed, *raw);
  return raw;
}

}  // namespace dqemu::dbt
