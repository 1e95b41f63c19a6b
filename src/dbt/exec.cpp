#include "dbt/exec.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <limits>

namespace dqemu::dbt {
namespace {

std::string format_addr_error(const char* what, GuestAddr addr, GuestAddr pc) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s at guest addr 0x%08x (pc 0x%08x)", what,
                addr, pc);
  return buf;
}

constexpr std::int32_t to_signed(std::uint32_t v) {
  return static_cast<std::int32_t>(v);
}
constexpr std::uint32_t to_unsigned(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

/// double -> int32 with saturation (avoids UB on out-of-range casts).
std::int32_t fp_to_int(double v) {
  if (std::isnan(v)) return 0;
  if (v >= 2147483647.0) return std::numeric_limits<std::int32_t>::max();
  if (v <= -2147483648.0) return std::numeric_limits<std::int32_t>::min();
  return static_cast<std::int32_t>(v);
}

}  // namespace

ExecEngine::ExecEngine(mem::AddressSpace& space, const mem::ShadowMap& shadow,
                       LlscTable& llsc, TranslationCache& cache,
                       const DbtConfig& config, StatsRegistry& stats)
    : space_(space),
      shadow_(shadow),
      llsc_(llsc),
      cache_(cache),
      config_(config),
      stats_(stats) {}

void ExecEngine::sync_fast_caches() {
  // Nothing mutates protections, the shadow map or the translation cache
  // while run() is on the stack (sequential DES: DSM messages are handled
  // in other event callbacks), so one check per quantum suffices.
  const std::uint64_t protection = space_.protection_generation();
  const std::uint64_t shadow = shadow_.generation();
  if (protection != seen_protection_gen_ || shadow != seen_shadow_gen_) {
    tlb_.fill(TlbEntry{});
    ++trace_mem_epoch_;  // and every trace's per-op TLB lines with it
    seen_protection_gen_ = protection;
    seen_shadow_gen_ = shadow;
  }
  const std::uint64_t tcache = cache_.generation();
  if (tcache != seen_tcache_gen_) {
    jmp_cache_.fill(JmpCacheEntry{});
    seen_tcache_gen_ = tcache;
  }
}

void ExecEngine::invalidate_fast_caches() {
  tlb_.fill(TlbEntry{});
  jmp_cache_.fill(JmpCacheEntry{});
  ++trace_mem_epoch_;
}

ExecResult ExecEngine::run(CpuContext& ctx, std::uint64_t max_insns) {
  sync_fast_caches();
  HotCounters hot;
  ExecResult result = run_loop(ctx, max_insns, hot);
  if (hot.hints != 0) stats_.add("dbt.hints", hot.hints);
  if (hot.tlb_hit != 0) stats_.add("dbt.tlb_hit", hot.tlb_hit);
  if (hot.tlb_miss != 0) stats_.add("dbt.tlb_miss", hot.tlb_miss);
  if (hot.jmp_cache_hit != 0) {
    stats_.add("dbt.jmp_cache_hit", hot.jmp_cache_hit);
  }
  if (hot.llsc_fastpath != 0) {
    stats_.add("dbt.llsc_fastpath", hot.llsc_fastpath);
  }
  if (hot.sb_exec != 0) stats_.add("dbt.sb_exec", hot.sb_exec);
  if (hot.sb_side_exit != 0) {
    stats_.add("dbt.sb_side_exit", hot.sb_side_exit);
  }
  if (hot.fused_ops != 0) stats_.add("dbt.fused_ops", hot.fused_ops);
  if (hot.llsc_ll != 0) stats_.add("llsc.ll", hot.llsc_ll);
  if (hot.llsc_sc_success != 0) {
    stats_.add("llsc.sc_success", hot.llsc_sc_success);
  }
  if (hot.llsc_sc_fail != 0) stats_.add("llsc.sc_fail", hot.llsc_sc_fail);
  return result;
}

ExecResult ExecEngine::run_loop(CpuContext& ctx, std::uint64_t max_insns,
                                HotCounters& hot) {
  ExecResult result;

  auto& gpr = ctx.gpr;
  auto& fpr = ctx.fpr;
  auto write_gpr = [&](unsigned rd, std::uint32_t value) {
    if (rd != 0) gpr[rd] = value;
  };

  const GuestAddr page_mask = space_.page_size() - 1;

  // Validates a data access; on failure fills `result` and returns false.
  // `addr` is already shadow-resolved.
  auto check_access = [&](GuestAddr addr, unsigned bytes, bool write,
                          GuestAddr pc) -> bool {
    if (static_cast<std::uint64_t>(addr) + bytes > space_.size()) {
      result.reason = StopReason::kGuestError;
      result.error = format_addr_error("out-of-bounds access", addr, pc);
      return false;
    }
    if ((addr & (bytes - 1)) != 0) {
      result.reason = StopReason::kGuestError;
      result.error = format_addr_error("misaligned access", addr, pc);
      return false;
    }
    const mem::PageAccess access = space_.access(space_.page_of(addr));
    const bool ok = write ? access == mem::PageAccess::kReadWrite
                          : access != mem::PageAccess::kNone;
    if (!ok) {
      result.reason = StopReason::kPageFault;
      result.fault_addr = addr;
      result.fault_is_write = write;
      return false;
    }
    return true;
  };

  // Resolves `vaddr` through the shadow map and validates the access; the
  // resolved address lands in `out`. On failure fills `result` and returns
  // false. Fast path: a software-TLB hit proves the page is unsplit
  // (identity mapping), in bounds and sufficiently accessible, so the
  // whole shadow-resolve + page-table walk collapses to one tag compare.
  auto mem_access = [&](GuestAddr vaddr, unsigned bytes, bool write,
                        GuestAddr pc, GuestAddr& out) -> bool {
    const TlbEntry& hit = tlb_slot(vaddr);
    if (hit.tag == (vaddr & ~page_mask) &&
        (write ? hit.allow_write : hit.allow_read) &&
        (vaddr & (bytes - 1)) == 0) {
      ++hot.tlb_hit;
      out = vaddr;
      return true;
    }
    const GuestAddr addr = shadow_.translate(vaddr);
    if (!check_access(addr, bytes, write, pc)) return false;
    ++hot.tlb_miss;
    if (addr == vaddr) {
      // Identity resolution == the page is unsplit (split shards never map
      // to their own page), so the whole page is cacheable; a successful
      // in-bounds access proves the page-aligned tag covers only in-bounds
      // addresses (the space is page-granular).
      TlbEntry& entry = tlb_slot(vaddr);
      entry.tag = vaddr & ~page_mask;
      const mem::PageAccess access = space_.access(space_.page_of(vaddr));
      entry.allow_read = access != mem::PageAccess::kNone;
      entry.allow_write = access == mem::PageAccess::kReadWrite;
    }
    out = addr;
    return true;
  };

  // Store snoop of the LL/SC table. Fast path: the table's line filter
  // proves most stores cannot break any reservation without a hash probe.
  auto snoop_store = [&](GuestAddr addr) {
    if (llsc_.may_match(addr)) {
      llsc_.on_store(addr, ctx.tid);
    } else {
      ++hot.llsc_fastpath;
    }
  };

  // ---- trace dispatch (DESIGN.md section 15) -----------------------------
  // Every guest instruction executes here: a block's own one-block trace
  // or a stitched multi-block superblock, through direct-threaded
  // dispatch. Each op kind has a handler label in one table, and every
  // handler ends by fetching the next op and jumping through that table
  // itself: no shared switch, bounds check or case-offset decode. (GCC
  // cross-jumps the identical handler tails back into a few shared jumps;
  // keeping one jump per handler measured slower, DESIGN.md section 15.)
  // The builder picked each kind when it built the trace, so a handler
  // runs exactly one instruction (or one fused addi+branch) with operands
  // read straight from the op, and nothing is decoded again. A block's
  // instructions retire together, at the op that ends it (a branch or
  // jump, a syscall, a Boundary), from that op's through-counts; a
  // straight-line handler only steps to the next op. The quantum is
  // checked only between blocks — at the top of the entry loop below and,
  // inside a trace, where a block retires — so stop points, and with them
  // virtual time, do not depend on how blocks were stitched or fused.

  // Slow path of a trace load or store whose own TLB line missed: resolves
  // `vaddr` through mem_access and adopts the page as the op's line when it
  // can. On success `host` points at the access bytes when the page's
  // storage was adopted, else null — `addr` then holds the resolved guest
  // address for the generic AddressSpace path. On a fault fills `result`
  // and returns false.
  auto resolve_miss = [&](SbOp& op, GuestAddr vaddr, unsigned bytes,
                          bool write, std::uint8_t*& host,
                          GuestAddr& addr) -> bool {
    if (!mem_access(vaddr, bytes, write, op.pc, addr)) return false;
    host = nullptr;
    if (addr == vaddr) {
      const std::uint32_t page = space_.page_of(vaddr);
      // Host page storage is stable once materialized, so the line can
      // cache a raw pointer. Stores materialize the page anyway; loads
      // must not (whether a page was ever touched is protocol-observable),
      // so a load only adopts a page that already has storage.
      if (write || space_.page_materialized(page)) {
        op.tlb_tag = vaddr & ~page_mask;
        op.host_page = space_.page_data(page).data();
        host = op.host_page + (vaddr & page_mask);
      }
    }
    return true;
  };

  // A load or store of a `T` at rs1 + imm: the access width is the type's,
  // fixed per case. A hit on the op's TLB line proves the page is
  // identity-mapped, in bounds and accessible for this access type
  // (resolve_miss verified all of that when it adopted the line, and the
  // epoch check on trace entry drops stale lines); alignment still needs
  // its per-access check since the base register varies. Both return
  // false on a fault, with `result` filled.
  auto load = [&]<typename T>(SbOp& op, T& value) -> bool {
    const GuestAddr vaddr = gpr[op.a.rs1] + to_unsigned(op.a.imm);
    std::uint8_t* host = nullptr;
    GuestAddr addr = vaddr;
    if (op.tlb_tag == (vaddr & ~page_mask) && (vaddr & (sizeof(T) - 1)) == 0) {
      host = op.host_page + (vaddr & page_mask);
    } else if (!resolve_miss(op, vaddr, sizeof(T), /*write=*/false, host,
                             addr)) {
      return false;
    } else if (host == nullptr) {
      value = static_cast<T>(space_.load(addr, sizeof(T)));
      return true;
    }
    std::memcpy(&value, host, sizeof(T));
    return true;
  };
  auto store = [&]<typename T>(SbOp& op, T value) -> bool {
    const GuestAddr vaddr = gpr[op.a.rs1] + to_unsigned(op.a.imm);
    std::uint8_t* host = nullptr;
    GuestAddr addr = vaddr;
    if (op.tlb_tag == (vaddr & ~page_mask) && (vaddr & (sizeof(T) - 1)) == 0) {
      host = op.host_page + (vaddr & page_mask);
    } else if (!resolve_miss(op, vaddr, sizeof(T), /*write=*/true, host,
                             addr)) {
      return false;
    }
    if (host != nullptr) {
      std::memcpy(host, &value, sizeof(T));
    } else {
      space_.store(addr, value, sizeof(T));
    }
    snoop_store(addr);
    return true;
  };

  // The label table: handler `op_<Kind>` of every SbOpKind, in the enum's
  // order, built from the list the enum is built from.
#define DQEMU_INSN_HANDLER(name) &&op_##name,
#define DQEMU_FUSED_HANDLER(branch) &&op_Addi##branch,
  static void* const kHandlers[] = {
      &&op_Unset, DQEMU_SB_OP_KINDS(DQEMU_INSN_HANDLER, DQEMU_FUSED_HANDLER,
                                    DQEMU_INSN_HANDLER)};
#undef DQEMU_INSN_HANDLER
#undef DQEMU_FUSED_HANDLER

#define DQEMU_DISPATCH() goto* kHandlers[static_cast<unsigned>(op->kind)]
  // The tail of every non-control handler: its block has not ended (a cut
  // block ends at a Boundary op), so the handler dispatches the next op
  // itself.
#define DQEMU_NEXT()  \
  do {                \
    ++op;             \
    DQEMU_DISPATCH(); \
  } while (false)
  // The guard tail of every branch and jump, fused or not: the block
  // retires, and when control goes where the trace continues (a block
  // boundary, so the quantum is checked), the handler dispatches that op
  // itself; otherwise control leaves the trace.
#define DQEMU_GUARD_NEXT()                     \
  do {                                         \
    insns += op->through_insns;                \
    cycles += op->through_cycles;              \
    if (target != op->on_trace_pc) goto leave; \
    if (insns >= max_insns) goto quantum;      \
    op = ops + op->next_index;                 \
    DQEMU_DISPATCH();                          \
  } while (false)

  // Retirement counters accumulate in locals and flush to `result`/`hot`
  // once, at `stop`: read-modify-writes through `result` at every block
  // would dominate the dispatch this loop exists to shrink.
  std::uint64_t insns = 0;
  std::uint64_t cycles = 0;
  std::uint64_t fused = 0;

  // Block entry: the indirect-jump cache, then the translation cache's
  // hash map, then translation. A stitched superblock headed by the block
  // runs in its place; otherwise the block's own one-block trace runs and
  // its exit edge is recorded for trace selection.
  for (;;) {
    if (insns >= max_insns) {
      result.reason = StopReason::kQuantum;
      goto stop;
    }

    TranslationBlock* tb;
    JmpCacheEntry& entry = jmp_slot(ctx.pc);
    if (entry.pc == ctx.pc) {
      ++hot.jmp_cache_hit;
      tb = entry.tb;
    } else {
      tb = cache_.lookup(ctx.pc);
      if (tb == nullptr) {
        TranslateResult tr = cache_.translate(ctx.pc);
        result.translate_cycles += tr.translate_cycles;
        if (tr.code_fault) {
          result.reason = StopReason::kPageFault;
          result.fault_addr = tr.fault_addr;
          result.fault_is_write = false;
          result.fault_is_ifetch = true;
          goto stop;
        }
        if (tr.decode_error) {
          result.reason = StopReason::kGuestError;
          result.error =
              format_addr_error("invalid instruction fetch", tr.fault_addr,
                                ctx.pc);
          goto stop;
        }
        tb = tr.tb;
      }
      entry.pc = ctx.pc;
      entry.tb = tb;
    }

    Superblock* trace = tb->sb;
    if (trace == nullptr) {
      // Host-side hot counting; formation charges no virtual time.
      if (++tb->hot_count >= tb->next_hot_trigger) {
        tb->next_hot_trigger = tb->hot_count + config_.sb_hot_threshold;
        trace = cache_.maybe_form_superblock(tb);
      }
    }
    if (trace != nullptr) {
      ++hot.sb_exec;
      ++trace->exec_count;
    } else {
      trace = &tb->trace;
    }
    if (trace->mem_epoch != trace_mem_epoch_) {
      for (SbOp& line : trace->ops) line.tlb_tag = kSbNoPc;
      trace->mem_epoch = trace_mem_epoch_;
    }

    SbOp* const ops = trace->ops.data();
    SbOp* op = ops;
    GuestAddr target = 0;  // where control goes when the op ends its block
    DQEMU_DISPATCH();

  op_Unset:
    assert(false && "every trace op has a kind");
    DQEMU_NEXT();

  // Integer ALU.
  op_Add:
    write_gpr(op->a.rd, gpr[op->a.rs1] + gpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Sub:
    write_gpr(op->a.rd, gpr[op->a.rs1] - gpr[op->a.rs2]);
    DQEMU_NEXT();
  op_And:
    write_gpr(op->a.rd, gpr[op->a.rs1] & gpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Or:
    write_gpr(op->a.rd, gpr[op->a.rs1] | gpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Xor:
    write_gpr(op->a.rd, gpr[op->a.rs1] ^ gpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Sll:
    write_gpr(op->a.rd, gpr[op->a.rs1] << (gpr[op->a.rs2] & 31));
    DQEMU_NEXT();
  op_Srl:
    write_gpr(op->a.rd, gpr[op->a.rs1] >> (gpr[op->a.rs2] & 31));
    DQEMU_NEXT();
  op_Sra:
    write_gpr(op->a.rd, to_unsigned(to_signed(gpr[op->a.rs1]) >>
                                    (gpr[op->a.rs2] & 31)));
    DQEMU_NEXT();
  op_Slt:
    write_gpr(op->a.rd,
              to_signed(gpr[op->a.rs1]) < to_signed(gpr[op->a.rs2]));
    DQEMU_NEXT();
  op_Sltu:
    write_gpr(op->a.rd, gpr[op->a.rs1] < gpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Addi:
    write_gpr(op->a.rd, gpr[op->a.rs1] + to_unsigned(op->a.imm));
    DQEMU_NEXT();
  op_Andi:
    write_gpr(op->a.rd, gpr[op->a.rs1] & to_unsigned(op->a.imm));
    DQEMU_NEXT();
  op_Ori:
    write_gpr(op->a.rd, gpr[op->a.rs1] | to_unsigned(op->a.imm));
    DQEMU_NEXT();
  op_Xori:
    write_gpr(op->a.rd, gpr[op->a.rs1] ^ to_unsigned(op->a.imm));
    DQEMU_NEXT();
  op_Slli:
    write_gpr(op->a.rd, gpr[op->a.rs1] << (op->a.imm & 31));
    DQEMU_NEXT();
  op_Srli:
    write_gpr(op->a.rd, gpr[op->a.rs1] >> (op->a.imm & 31));
    DQEMU_NEXT();
  op_Srai:
    write_gpr(op->a.rd,
              to_unsigned(to_signed(gpr[op->a.rs1]) >> (op->a.imm & 31)));
    DQEMU_NEXT();
  op_Slti:
    write_gpr(op->a.rd, to_signed(gpr[op->a.rs1]) < op->a.imm);
    DQEMU_NEXT();
  op_Sltiu:
    write_gpr(op->a.rd, gpr[op->a.rs1] < to_unsigned(op->a.imm));
    DQEMU_NEXT();
  op_Lui:
    write_gpr(op->a.rd, to_unsigned(op->a.imm) << 12);
    DQEMU_NEXT();
  op_Auipc:
    write_gpr(op->a.rd, op->pc + (to_unsigned(op->a.imm) << 12));
    DQEMU_NEXT();

  // Multiply and divide.
  op_Mul:
    write_gpr(op->a.rd, gpr[op->a.rs1] * gpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Div: {
    const std::int32_t a = to_signed(gpr[op->a.rs1]);
    const std::int32_t b = to_signed(gpr[op->a.rs2]);
    std::int32_t q;
    if (b == 0) {
      q = -1;  // RISC-style: division by zero yields all ones
    } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
      q = a;  // overflow wraps
    } else {
      q = a / b;
    }
    write_gpr(op->a.rd, to_unsigned(q));
    DQEMU_NEXT();
  }
  op_Divu: {
    const std::uint32_t b = gpr[op->a.rs2];
    write_gpr(op->a.rd, b == 0 ? ~0u : gpr[op->a.rs1] / b);
    DQEMU_NEXT();
  }
  op_Rem: {
    const std::int32_t a = to_signed(gpr[op->a.rs1]);
    const std::int32_t b = to_signed(gpr[op->a.rs2]);
    std::int32_t r;
    if (b == 0) {
      r = a;
    } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
      r = 0;
    } else {
      r = a % b;
    }
    write_gpr(op->a.rd, to_unsigned(r));
    DQEMU_NEXT();
  }
  op_Remu: {
    const std::uint32_t b = gpr[op->a.rs2];
    write_gpr(op->a.rd, b == 0 ? gpr[op->a.rs1] : gpr[op->a.rs1] % b);
    DQEMU_NEXT();
  }

  // Loads and stores through the op's TLB line.
  op_Lb: {
    std::int8_t v = 0;
    if (!load(*op, v)) goto fault;
    write_gpr(op->a.rd, static_cast<std::uint32_t>(v));
    DQEMU_NEXT();
  }
  op_Lbu: {
    std::uint8_t v = 0;
    if (!load(*op, v)) goto fault;
    write_gpr(op->a.rd, v);
    DQEMU_NEXT();
  }
  op_Lh: {
    std::int16_t v = 0;
    if (!load(*op, v)) goto fault;
    write_gpr(op->a.rd, static_cast<std::uint32_t>(v));
    DQEMU_NEXT();
  }
  op_Lhu: {
    std::uint16_t v = 0;
    if (!load(*op, v)) goto fault;
    write_gpr(op->a.rd, v);
    DQEMU_NEXT();
  }
  op_Lw: {
    std::uint32_t v = 0;
    if (!load(*op, v)) goto fault;
    write_gpr(op->a.rd, v);
    DQEMU_NEXT();
  }
  op_Fld: {
    std::uint64_t raw = 0;
    if (!load(*op, raw)) goto fault;
    fpr[op->a.rd] = std::bit_cast<double>(raw);
    DQEMU_NEXT();
  }
  op_Sb:
    if (!store(*op, static_cast<std::uint8_t>(gpr[op->a.rs2]))) goto fault;
    DQEMU_NEXT();
  op_Sh:
    if (!store(*op, static_cast<std::uint16_t>(gpr[op->a.rs2]))) goto fault;
    DQEMU_NEXT();
  op_Sw:
    if (!store(*op, gpr[op->a.rs2])) goto fault;
    DQEMU_NEXT();
  op_Fsd:
    if (!store(*op, std::bit_cast<std::uint64_t>(fpr[op->a.rs2]))) {
      goto fault;
    }
    DQEMU_NEXT();

  // LL/SC go through the shared TLB: no per-op line.
  op_Ll: {
    GuestAddr addr = 0;
    if (!mem_access(gpr[op->a.rs1] + to_unsigned(op->a.imm), 4,
                    /*write=*/false, op->pc, addr)) {
      goto fault;
    }
    write_gpr(op->a.rd, static_cast<std::uint32_t>(space_.load(addr, 4)));
    llsc_.on_ll(addr, ctx.tid);
    ++hot.llsc_ll;
    DQEMU_NEXT();
  }
  op_Sc: {
    GuestAddr addr = 0;
    if (!mem_access(gpr[op->a.rs1], 4, /*write=*/true, op->pc, addr)) {
      goto fault;
    }
    if (llsc_.on_sc(addr, ctx.tid)) {
      space_.store(addr, gpr[op->a.rs2], 4);
      write_gpr(op->a.rd, 0);
      ++hot.llsc_sc_success;
    } else {
      write_gpr(op->a.rd, 1);
      ++hot.llsc_sc_fail;
    }
    DQEMU_NEXT();
  }

  op_Fence:
    DQEMU_NEXT();  // sequential DES: ordering is already total
  op_Hint:
    // 0xFFFF is the "no group" sentinel (N-format immediates are
    // zero-extended on decode).
    ctx.hint_group = op->a.imm == 0xFFFF ? -1 : op->a.imm;
    ++hot.hints;
    DQEMU_NEXT();
  op_Syscall:
    insns += op->through_insns;
    cycles += op->through_cycles;
    result.reason = StopReason::kSyscall;
    result.syscall_num = op->a.imm;
    ctx.pc = op->pc + 4;
    goto stop;

  // Floating point.
  op_Fadd:
    fpr[op->a.rd] = fpr[op->a.rs1] + fpr[op->a.rs2];
    DQEMU_NEXT();
  op_Fsub:
    fpr[op->a.rd] = fpr[op->a.rs1] - fpr[op->a.rs2];
    DQEMU_NEXT();
  op_Fmul:
    fpr[op->a.rd] = fpr[op->a.rs1] * fpr[op->a.rs2];
    DQEMU_NEXT();
  op_Fdiv:
    fpr[op->a.rd] = fpr[op->a.rs1] / fpr[op->a.rs2];
    DQEMU_NEXT();
  op_Fmin:
    fpr[op->a.rd] = std::fmin(fpr[op->a.rs1], fpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Fmax:
    fpr[op->a.rd] = std::fmax(fpr[op->a.rs1], fpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Fneg:
    fpr[op->a.rd] = -fpr[op->a.rs1];
    DQEMU_NEXT();
  op_Fabs:
    fpr[op->a.rd] = std::fabs(fpr[op->a.rs1]);
    DQEMU_NEXT();
  op_Fmov:
    fpr[op->a.rd] = fpr[op->a.rs1];
    DQEMU_NEXT();
  op_Fcvtdw:
    fpr[op->a.rd] = static_cast<double>(to_signed(gpr[op->a.rs1]));
    DQEMU_NEXT();
  op_Fcvtwd:
    write_gpr(op->a.rd, to_unsigned(fp_to_int(fpr[op->a.rs1])));
    DQEMU_NEXT();
  op_Flt:
    write_gpr(op->a.rd, fpr[op->a.rs1] < fpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Fle:
    write_gpr(op->a.rd, fpr[op->a.rs1] <= fpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Feq:
    write_gpr(op->a.rd, fpr[op->a.rs1] == fpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Fsqrt:
    fpr[op->a.rd] = std::sqrt(fpr[op->a.rs1]);
    DQEMU_NEXT();
  op_Fexp:
    fpr[op->a.rd] = std::exp(fpr[op->a.rs1]);
    DQEMU_NEXT();
  op_Flog:
    fpr[op->a.rd] = std::log(fpr[op->a.rs1]);
    DQEMU_NEXT();
  op_Fpow:
    fpr[op->a.rd] = std::pow(fpr[op->a.rs1], fpr[op->a.rs2]);
    DQEMU_NEXT();
  op_Ferf:
    fpr[op->a.rd] = std::erf(fpr[op->a.rs1]);
    DQEMU_NEXT();
  op_Fsin:
    fpr[op->a.rd] = std::sin(fpr[op->a.rs1]);
    DQEMU_NEXT();
  op_Fcos:
    fpr[op->a.rd] = std::cos(fpr[op->a.rs1]);
    DQEMU_NEXT();

  // Control transfer: each handler picks `target`, then takes the guard
  // tail.
  op_Beq:
    target = gpr[op->a.rs1] == gpr[op->a.rs2] ? op->taken_pc : op->fall_pc;
    DQEMU_GUARD_NEXT();
  op_Bne:
    target = gpr[op->a.rs1] != gpr[op->a.rs2] ? op->taken_pc : op->fall_pc;
    DQEMU_GUARD_NEXT();
  op_Blt:
    target = to_signed(gpr[op->a.rs1]) < to_signed(gpr[op->a.rs2])
                 ? op->taken_pc
                 : op->fall_pc;
    DQEMU_GUARD_NEXT();
  op_Bge:
    target = to_signed(gpr[op->a.rs1]) >= to_signed(gpr[op->a.rs2])
                 ? op->taken_pc
                 : op->fall_pc;
    DQEMU_GUARD_NEXT();
  op_Bltu:
    target = gpr[op->a.rs1] < gpr[op->a.rs2] ? op->taken_pc : op->fall_pc;
    DQEMU_GUARD_NEXT();
  op_Bgeu:
    target = gpr[op->a.rs1] >= gpr[op->a.rs2] ? op->taken_pc : op->fall_pc;
    DQEMU_GUARD_NEXT();
  op_Jal:
    write_gpr(op->a.rd, op->pc + 4);
    target = op->taken_pc;
    DQEMU_GUARD_NEXT();
  op_Jalr:
    target = (gpr[op->a.rs1] + to_unsigned(op->a.imm)) & ~3u;
    write_gpr(op->a.rd, op->pc + 4);
    DQEMU_GUARD_NEXT();

  // addi + terminal branch on its result. The builder only fuses an addi
  // with rd != 0, so rd is written without the r0 test.
  op_AddiBeq:
    gpr[op->a.rd] = gpr[op->a.rs1] + to_unsigned(op->a.imm);
    target = gpr[op->b.rs1] == gpr[op->b.rs2] ? op->taken_pc : op->fall_pc;
    ++fused;
    DQEMU_GUARD_NEXT();
  op_AddiBne:
    gpr[op->a.rd] = gpr[op->a.rs1] + to_unsigned(op->a.imm);
    target = gpr[op->b.rs1] != gpr[op->b.rs2] ? op->taken_pc : op->fall_pc;
    ++fused;
    DQEMU_GUARD_NEXT();
  op_AddiBlt:
    gpr[op->a.rd] = gpr[op->a.rs1] + to_unsigned(op->a.imm);
    target = to_signed(gpr[op->b.rs1]) < to_signed(gpr[op->b.rs2])
                 ? op->taken_pc
                 : op->fall_pc;
    ++fused;
    DQEMU_GUARD_NEXT();
  op_AddiBge:
    gpr[op->a.rd] = gpr[op->a.rs1] + to_unsigned(op->a.imm);
    target = to_signed(gpr[op->b.rs1]) >= to_signed(gpr[op->b.rs2])
                 ? op->taken_pc
                 : op->fall_pc;
    ++fused;
    DQEMU_GUARD_NEXT();
  op_AddiBltu:
    gpr[op->a.rd] = gpr[op->a.rs1] + to_unsigned(op->a.imm);
    target = gpr[op->b.rs1] < gpr[op->b.rs2] ? op->taken_pc : op->fall_pc;
    ++fused;
    DQEMU_GUARD_NEXT();
  op_AddiBgeu:
    gpr[op->a.rd] = gpr[op->a.rs1] + to_unsigned(op->a.imm);
    target = gpr[op->b.rs1] >= gpr[op->b.rs2] ? op->taken_pc : op->fall_pc;
    ++fused;
    DQEMU_GUARD_NEXT();

  op_Boundary:
    // The end of a cut block: the block retires, and the quantum is
    // checked, as at a branch, so every trace stops at the same insn counts.
    insns += op->through_insns;
    cycles += op->through_cycles;
    target = op->boundary_pc;
    if (insns >= max_insns) goto quantum;
    if (op->next_index == kSbExitIndex) goto exit_trace;
    op = ops + op->next_index;
    DQEMU_DISPATCH();

  leave:
    // A branch or jump left the trace: a side exit when the trace had
    // somewhere else to go.
    if (op->next_index != kSbExitIndex) {
      ++hot.sb_side_exit;
      ++trace->side_exits;
    }
  exit_trace:
    // The entry loop resumes at `target`, re-checking the quantum first.
    ctx.pc = target;
    if (trace == &tb->trace) {
      // The block's exit edge: trace selection follows it. Only the
      // terminal's kind decides which field is read back (a branch's
      // direction, a jalr's target).
      tb->last_taken = ctx.pc != tb->end_pc();
      tb->last_indirect_target = ctx.pc;
    }
    continue;

  quantum:
    // The budget is spent at a block boundary inside the trace.
    result.reason = StopReason::kQuantum;
    ctx.pc = target;
    goto stop;

  fault:
    // The op at `op` faulted (`result` says how): it re-executes once the
    // fault is serviced, and the ops before it in its block retire — its
    // predecessor's through-counts, unless it opens the block.
    if (!op->block_head) {
      insns += op[-1].through_insns;
      cycles += op[-1].through_cycles;
    }
    ctx.pc = op->pc;
    goto stop;
  }
#undef DQEMU_DISPATCH
#undef DQEMU_NEXT
#undef DQEMU_GUARD_NEXT

stop:
  // `result` is final and ctx.pc is where execution resumes.
  result.insns = insns;
  result.exec_cycles = cycles;
  hot.fused_ops += fused;
  return result;
}

}  // namespace dqemu::dbt
