// Superblock formation and the micro-op fusion pass (DESIGN.md section 15).
//
// Trace selection walks the chain of already-translated blocks headed by the
// hot block, following each block's recorded control-flow outcome
// (last_taken for branches, last_indirect_target for jalr, the static
// target for jal, fall-through for cut blocks). The walk stops at unknown
// or untranslated successors, at blocks already in the trace (except the
// head, which closes a loop), at syscall-terminated blocks, and at the
// configured size limits. Formation is host-side only: it uses the raw
// block map (not lookup(), which counts cache hits/misses) and charges no
// virtual time, so results are byte-identical with the tier disabled.

#include "dbt/translation.hpp"

#include <algorithm>

namespace dqemu::dbt {

namespace {

using isa::Opcode;

constexpr std::uint32_t to_unsigned(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

/// Single-cycle integer ALU ops the trace loop inlines (and the fusion pass
/// accepts as the ALU half of a fused pair). Excludes mul/div/rem, whose
/// less common semantics stay on the shared interpreter switch.
bool is_fast_alu(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kSll:
    case Opcode::kSrl:
    case Opcode::kSra:
    case Opcode::kSlt:
    case Opcode::kSltu:
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kSlti:
    case Opcode::kSltiu:
    case Opcode::kLui:
    case Opcode::kAuipc:
      return true;
    default:
      return false;
  }
}

/// True if the R/I/U-type ALU instruction reads integer register `reg`.
bool alu_reads(const isa::Insn& in, unsigned reg) {
  if (reg == 0) return false;  // r0 is hardwired; no dependence
  switch (isa::insn_info(in.op).format) {
    case isa::Format::kR:
      return in.rs1 == reg || in.rs2 == reg;
    case isa::Format::kI:
      return in.rs1 == reg;
    default:
      return false;  // U-type (lui/auipc) reads no register
  }
}

bool is_int_load(Opcode op) {
  switch (op) {
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kLw:
      return true;
    default:
      return false;
  }
}

bool is_int_store(Opcode op) {
  return op == Opcode::kSb || op == Opcode::kSh || op == Opcode::kSw;
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

Superblock* TranslationCache::maybe_form_superblock(TranslationBlock* head) {
  if (!config_.enable_superblocks) return nullptr;
  if (head->sb != nullptr) return head->sb;

  // ---- trace selection: walk the recorded chain ------------------------
  std::vector<const TranslationBlock*> chain;
  std::uint32_t total_insns = 0;
  bool loops = false;
  const TranslationBlock* cur = head;
  for (;;) {
    chain.push_back(cur);
    total_insns += cur->insn_count();
    if (chain.size() >= config_.sb_max_blocks) break;
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
    if (total_insns + next->insn_count() > config_.sb_max_insns) break;
    cur = next;
  }
  if (head->ops.back().insn.op == Opcode::kSyscall) return nullptr;
  if (!loops && chain.size() < 2) return nullptr;  // nothing to stitch

  // ---- build the op trace with micro-op fusion -------------------------
  auto sb = std::make_unique<Superblock>();
  sb->entry_pc = head->start_pc;
  sb->loops = loops;
  sb->guest_insns = total_insns;
  std::vector<std::uint32_t> block_first(chain.size());
  std::vector<std::uint32_t> block_last(chain.size());

  for (std::size_t bi = 0; bi < chain.size(); ++bi) {
    const TranslationBlock* b = chain[bi];
    block_first[bi] = static_cast<std::uint32_t>(sb->ops.size());
    const bool has_next = bi + 1 < chain.size() || loops;
    const GuestAddr next_start = bi + 1 < chain.size()
                                     ? chain[bi + 1]->start_pc
                                     : (loops ? head->start_pc : kSbNoPc);
    const std::size_t n = b->ops.size();
    std::size_t j = 0;
    while (j < n) {
      const MicroOp& m = b->ops[j];
      SbOp op;
      op.pc = m.pc;
      op.a = m.insn;
      op.cost_a = m.cost_cycles;
      const Opcode aop = m.insn.op;

      // Fusion: pair `m` with its successor when the pair matches one of
      // the recognized shapes. Costs are copied from the MicroOps, never
      // recomputed, so the fused op charges its unfused sequence exactly.
      bool fused = false;
      if (config_.sb_fusion && j + 1 < n) {
        const MicroOp& m2 = b->ops[j + 1];
        const Opcode bop = m2.insn.op;
        if (is_fast_alu(aop) && m.insn.rd != 0 && is_cond_branch(bop) &&
            (m2.insn.rs1 == m.insn.rd || m2.insn.rs2 == m.insn.rd)) {
          op.kind = SbOpKind::kCmpBranch;  // branches only appear last
          fused = true;
        } else if (is_int_load(aop) && m.insn.rd != 0 &&
                   is_fast_alu(bop) && alu_reads(m2.insn, m.insn.rd)) {
          op.kind = SbOpKind::kLoadAlu;
          op.mem_bytes = isa::insn_info(aop).mem_bytes;
          fused = true;
        } else if (is_fast_alu(aop) && m.insn.rd != 0 &&
                   is_int_store(bop) && m2.insn.rs2 == m.insn.rd) {
          op.kind = SbOpKind::kAluStore;
          op.mem_bytes = isa::insn_info(bop).mem_bytes;
          fused = true;
        }
        if (fused) {
          op.n_insns = 2;
          op.b = m2.insn;
          op.cost_b = m2.cost_cycles;
          ++sb->fused_pairs;
        }
      }
      if (!fused) {
        if (is_cond_branch(aop)) {
          op.kind = SbOpKind::kBranch;
        } else if (aop == Opcode::kJal) {
          op.kind = SbOpKind::kJal;
        } else if (aop == Opcode::kJalr) {
          op.kind = SbOpKind::kJalr;
        } else if (is_fast_alu(aop)) {
          op.kind = SbOpKind::kAluFast;
        } else if (is_int_load(aop) || aop == Opcode::kFld) {
          op.kind = SbOpKind::kMemLoad;
          op.mem_bytes = isa::insn_info(aop).mem_bytes;
        } else if (is_int_store(aop) || aop == Opcode::kFsd) {
          op.kind = SbOpKind::kMemStore;
          op.mem_bytes = isa::insn_info(aop).mem_bytes;
        } else {
          // mul/div/rem, LL/SC, FP, fence, hint. Never a control op: those
          // all take the dedicated guarded kinds above, so the trace loop's
          // kSimple fallback needs no chain-slot access.
          op.kind = SbOpKind::kSimple;
        }
      }
      j += op.n_insns;

      // Terminal wiring: the op consuming the block's last instruction
      // either branches (guarded kinds, with on-trace target `next_start`)
      // or falls through a cut-block boundary.
      if (j >= n) {
        switch (op.kind) {
          case SbOpKind::kBranch:
          case SbOpKind::kCmpBranch: {
            const isa::Insn& br =
                op.kind == SbOpKind::kCmpBranch ? op.b : op.a;
            const GuestAddr bpc =
                op.kind == SbOpKind::kCmpBranch ? op.pc + 4 : op.pc;
            op.fall_pc = bpc + 4;
            op.taken_pc = bpc + 4 + to_unsigned(br.imm) * 4u;
            op.on_trace_pc = has_next ? next_start : kSbNoPc;
            break;
          }
          case SbOpKind::kJal:
            op.taken_pc = taken_target(b->ops.back());
            op.on_trace_pc = has_next ? next_start : kSbNoPc;
            break;
          case SbOpKind::kJalr:
            op.on_trace_pc = has_next ? next_start : kSbNoPc;
            break;
          default:
            // Cut block: plain fall-through boundary (quantum guard point).
            op.boundary = true;
            op.boundary_pc = b->end_pc();
            break;
        }
      }
      sb->ops.push_back(op);
    }
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
  if (stats_ != nullptr) {
    stats_->add("dbt.sb_formed");
    stats_->add("dbt.sb_blocks", raw->block_pcs.size());
    stats_->add("dbt.sb_insns", raw->guest_insns);
    stats_->add("dbt.fused_pairs", raw->fused_pairs);
  }
  if (sb_event_hook_) sb_event_hook_(SbEvent::kFormed, *raw);
  return raw;
}

}  // namespace dqemu::dbt
