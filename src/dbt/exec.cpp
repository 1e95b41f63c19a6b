#include "dbt/exec.hpp"

#include <cmath>
#include <cstring>
#include <cstdio>
#include <limits>

namespace dqemu::dbt {
namespace {

using isa::Opcode;

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

ExecEngine::ExecEngine(mem::AddressSpace& space, const mem::ShadowMap* shadow,
                       LlscTable& llsc, TranslationCache& cache,
                       const DbtConfig& config, bool check_protection,
                       StatsRegistry* stats)
    : space_(space),
      shadow_(shadow),
      llsc_(llsc),
      cache_(cache),
      config_(config),
      check_protection_(check_protection),
      stats_(stats) {}

void ExecEngine::sync_fast_caches() {
  // Nothing mutates protections, the shadow map or the translation cache
  // while run() is on the stack (sequential DES: DSM messages are handled
  // in other event callbacks), so one check per quantum suffices.
  const std::uint64_t protection = space_.protection_generation();
  const std::uint64_t shadow = shadow_ != nullptr ? shadow_->generation() : 0;
  if (protection != seen_protection_gen_ || shadow != seen_shadow_gen_) {
    tlb_.fill(TlbEntry{});
    seen_protection_gen_ = protection;
    seen_shadow_gen_ = shadow;
  }
  const std::uint64_t tcache = cache_.generation();
  if (tcache != seen_tcache_gen_) {
    jmp_cache_.fill(JmpCacheEntry{});
    seen_tcache_gen_ = tcache;
  }
}

void ExecEngine::sync_sb_epoch() {
  // Same invariant as sync_fast_caches(): protections and the shadow map
  // are stable for the duration of one run(), so traces entered this
  // quantum may keep their per-op TLB lines until the next epoch move.
  const std::uint64_t protection = space_.protection_generation();
  const std::uint64_t shadow = shadow_ != nullptr ? shadow_->generation() : 0;
  if (protection != sb_seen_protection_gen_ ||
      shadow != sb_seen_shadow_gen_) {
    ++sb_mem_epoch_;
    sb_seen_protection_gen_ = protection;
    sb_seen_shadow_gen_ = shadow;
  }
}

void ExecEngine::invalidate_fast_caches() {
  tlb_.fill(TlbEntry{});
  jmp_cache_.fill(JmpCacheEntry{});
  ++sb_mem_epoch_;  // orphan every superblock's per-op TLB lines
}

ExecResult ExecEngine::run(CpuContext& ctx, std::uint64_t max_insns) {
  if (config_.enable_fastpath) sync_fast_caches();
  if (config_.enable_superblocks) sync_sb_epoch();
  HotCounters hot;
  ExecResult result = run_loop(ctx, max_insns, hot);
  if (stats_ != nullptr) {
    if (hot.chain_hit != 0) stats_->add("dbt.chain_hit", hot.chain_hit);
    if (hot.hints != 0) stats_->add("dbt.hints", hot.hints);
    if (hot.tlb_hit != 0) stats_->add("dbt.tlb_hit", hot.tlb_hit);
    if (hot.tlb_miss != 0) stats_->add("dbt.tlb_miss", hot.tlb_miss);
    if (hot.jmp_cache_hit != 0) {
      stats_->add("dbt.jmp_cache_hit", hot.jmp_cache_hit);
    }
    if (hot.llsc_fastpath != 0) {
      stats_->add("dbt.llsc_fastpath", hot.llsc_fastpath);
    }
    if (hot.sb_exec != 0) stats_->add("dbt.sb_exec", hot.sb_exec);
    if (hot.sb_side_exit != 0) {
      stats_->add("dbt.sb_side_exit", hot.sb_side_exit);
    }
    if (hot.fused_ops != 0) stats_->add("dbt.fused_ops", hot.fused_ops);
  }
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

  const bool fast = config_.enable_fastpath;
  const bool sb_on = config_.enable_superblocks;
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
    if (check_protection_) {
      const mem::PageAccess access = space_.access(space_.page_of(addr));
      const bool ok = write ? access == mem::PageAccess::kReadWrite
                            : access != mem::PageAccess::kNone;
      if (!ok) {
        result.reason = StopReason::kPageFault;
        result.fault_addr = addr;
        result.fault_is_write = write;
        return false;
      }
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
    if (fast) {
      const TlbEntry& entry = tlb_slot(vaddr);
      if (entry.tag == (vaddr & ~page_mask) &&
          (write ? entry.allow_write : entry.allow_read) &&
          (vaddr & (bytes - 1)) == 0) {
        ++hot.tlb_hit;
        out = vaddr;
        return true;
      }
    }
    const GuestAddr addr =
        shadow_ != nullptr ? shadow_->translate(vaddr) : vaddr;
    if (!check_access(addr, bytes, write, pc)) return false;
    if (fast) {
      ++hot.tlb_miss;
      if (addr == vaddr) {
        // Identity resolution == the page is unsplit (split shards never
        // map to their own page), so the whole page is cacheable; a
        // successful in-bounds access proves the page-aligned tag covers
        // only in-bounds addresses (the space is page-granular).
        TlbEntry& entry = tlb_slot(vaddr);
        entry.tag = vaddr & ~page_mask;
        if (check_protection_) {
          const mem::PageAccess access =
              space_.access(space_.page_of(vaddr));
          entry.allow_read = access != mem::PageAccess::kNone;
          entry.allow_write = access == mem::PageAccess::kReadWrite;
        } else {
          entry.allow_read = true;
          entry.allow_write = true;
        }
      }
    }
    out = addr;
    return true;
  };

  // Store snoop of the LL/SC table. Fast path: the table's line filter
  // proves most stores cannot break any reservation without a hash probe.
  auto snoop_store = [&](GuestAddr addr) {
    if (fast) {
      if (llsc_.may_match(addr)) {
        llsc_.on_store(addr, ctx.tid);
      } else {
        ++hot.llsc_fastpath;
      }
      return;
    }
    llsc_.on_store(addr, ctx.tid);
  };

  // Direct-jump chaining with the indirect-jump cache as a second level:
  // a chain hit skips everything; a chain miss consults the jump cache
  // before falling back to the translation-cache hash lookup.
  auto chain_to = [&](TranslationBlock*& slot,
                      GuestAddr target) -> TranslationBlock* {
    if (slot != nullptr && slot->start_pc == target) {
      ++hot.chain_hit;
      return slot;
    }
    if (fast) {
      const JmpCacheEntry& entry = jmp_slot(target);
      if (entry.pc == target) {
        ++hot.jmp_cache_hit;
        slot = entry.tb;
        return entry.tb;
      }
    }
    TranslationBlock* found = cache_.lookup(target);
    if (found != nullptr) slot = found;
    return found;
  };

  // The interpreter switch, shared by the block loop (every op) and the
  // superblock trace loop (kSimple fallback only, always with cur ==
  // nullptr — formation keeps control flow out of kSimple, so the chain
  // slots are never touched there). Plain ops return kNext and the caller
  // charges insns/cycles; control ops set ctx.pc (and next_tb via `cur`)
  // and return kEnd; faults and syscalls finalize `result` and return
  // kReturn (syscall does its own accounting, faults retire nothing).
  enum class OpOut : std::uint8_t { kNext, kEnd, kReturn };
  TranslationBlock* next_tb = nullptr;

  auto exec_op = [&](const isa::Insn& in, GuestAddr pc, std::uint32_t cost,
                     TranslationBlock* cur) -> OpOut {
    switch (in.op) {
      // ---- integer R-type ------------------------------------------
      case Opcode::kAdd: write_gpr(in.rd, gpr[in.rs1] + gpr[in.rs2]); break;
      case Opcode::kSub: write_gpr(in.rd, gpr[in.rs1] - gpr[in.rs2]); break;
      case Opcode::kMul: write_gpr(in.rd, gpr[in.rs1] * gpr[in.rs2]); break;
      case Opcode::kDiv: {
        const std::int32_t a = to_signed(gpr[in.rs1]);
        const std::int32_t b = to_signed(gpr[in.rs2]);
        std::int32_t q;
        if (b == 0) {
          q = -1;  // RISC-style: division by zero yields all ones
        } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
          q = a;   // overflow wraps
        } else {
          q = a / b;
        }
        write_gpr(in.rd, to_unsigned(q));
        break;
      }
      case Opcode::kDivu: {
        const std::uint32_t b = gpr[in.rs2];
        write_gpr(in.rd, b == 0 ? ~0u : gpr[in.rs1] / b);
        break;
      }
      case Opcode::kRem: {
        const std::int32_t a = to_signed(gpr[in.rs1]);
        const std::int32_t b = to_signed(gpr[in.rs2]);
        std::int32_t r;
        if (b == 0) {
          r = a;
        } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
          r = 0;
        } else {
          r = a % b;
        }
        write_gpr(in.rd, to_unsigned(r));
        break;
      }
      case Opcode::kRemu: {
        const std::uint32_t b = gpr[in.rs2];
        write_gpr(in.rd, b == 0 ? gpr[in.rs1] : gpr[in.rs1] % b);
        break;
      }
      case Opcode::kAnd: write_gpr(in.rd, gpr[in.rs1] & gpr[in.rs2]); break;
      case Opcode::kOr: write_gpr(in.rd, gpr[in.rs1] | gpr[in.rs2]); break;
      case Opcode::kXor: write_gpr(in.rd, gpr[in.rs1] ^ gpr[in.rs2]); break;
      case Opcode::kSll: write_gpr(in.rd, gpr[in.rs1] << (gpr[in.rs2] & 31)); break;
      case Opcode::kSrl: write_gpr(in.rd, gpr[in.rs1] >> (gpr[in.rs2] & 31)); break;
      case Opcode::kSra:
        write_gpr(in.rd, to_unsigned(to_signed(gpr[in.rs1]) >>
                                     (gpr[in.rs2] & 31)));
        break;
      case Opcode::kSlt:
        write_gpr(in.rd, to_signed(gpr[in.rs1]) < to_signed(gpr[in.rs2]) ? 1 : 0);
        break;
      case Opcode::kSltu:
        write_gpr(in.rd, gpr[in.rs1] < gpr[in.rs2] ? 1 : 0);
        break;

      // ---- integer I-type ------------------------------------------
      case Opcode::kAddi:
        write_gpr(in.rd, gpr[in.rs1] + to_unsigned(in.imm));
        break;
      case Opcode::kAndi:
        write_gpr(in.rd, gpr[in.rs1] & to_unsigned(in.imm));
        break;
      case Opcode::kOri:
        write_gpr(in.rd, gpr[in.rs1] | to_unsigned(in.imm));
        break;
      case Opcode::kXori:
        write_gpr(in.rd, gpr[in.rs1] ^ to_unsigned(in.imm));
        break;
      case Opcode::kSlli:
        write_gpr(in.rd, gpr[in.rs1] << (in.imm & 31));
        break;
      case Opcode::kSrli:
        write_gpr(in.rd, gpr[in.rs1] >> (in.imm & 31));
        break;
      case Opcode::kSrai:
        write_gpr(in.rd, to_unsigned(to_signed(gpr[in.rs1]) >> (in.imm & 31)));
        break;
      case Opcode::kSlti:
        write_gpr(in.rd, to_signed(gpr[in.rs1]) < in.imm ? 1 : 0);
        break;
      case Opcode::kSltiu:
        write_gpr(in.rd, gpr[in.rs1] < to_unsigned(in.imm) ? 1 : 0);
        break;
      case Opcode::kLui:
        write_gpr(in.rd, to_unsigned(in.imm) << 12);
        break;
      case Opcode::kAuipc:
        write_gpr(in.rd, pc + (to_unsigned(in.imm) << 12));
        break;

      // ---- loads ----------------------------------------------------
      case Opcode::kLb:
      case Opcode::kLbu:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLw:
      case Opcode::kLl: {
        const unsigned bytes = isa::insn_info(in.op).mem_bytes;
        GuestAddr addr;
        if (!mem_access(gpr[in.rs1] + to_unsigned(in.imm), bytes,
                        /*write=*/false, pc, addr)) {
          ctx.pc = pc;  // re-execute after the fault is serviced
          return OpOut::kReturn;
        }
        const std::uint64_t raw = space_.load(addr, bytes);
        std::uint32_t value = 0;
        switch (in.op) {
          case Opcode::kLb:
            value = to_unsigned(static_cast<std::int8_t>(raw));
            break;
          case Opcode::kLbu: value = static_cast<std::uint8_t>(raw); break;
          case Opcode::kLh:
            value = to_unsigned(static_cast<std::int16_t>(raw));
            break;
          case Opcode::kLhu: value = static_cast<std::uint16_t>(raw); break;
          default: value = static_cast<std::uint32_t>(raw); break;
        }
        write_gpr(in.rd, value);
        if (in.op == Opcode::kLl) llsc_.on_ll(addr, ctx.tid);
        break;
      }
      case Opcode::kFld: {
        GuestAddr addr;
        if (!mem_access(gpr[in.rs1] + to_unsigned(in.imm), 8,
                        /*write=*/false, pc, addr)) {
          ctx.pc = pc;
          return OpOut::kReturn;
        }
        const std::uint64_t raw = space_.load(addr, 8);
        double value;
        static_assert(sizeof value == 8);
        std::memcpy(&value, &raw, 8);
        fpr[in.rd] = value;
        break;
      }

      // ---- stores ---------------------------------------------------
      case Opcode::kSb:
      case Opcode::kSh:
      case Opcode::kSw: {
        const unsigned bytes = isa::insn_info(in.op).mem_bytes;
        GuestAddr addr;
        if (!mem_access(gpr[in.rs1] + to_unsigned(in.imm), bytes,
                        /*write=*/true, pc, addr)) {
          ctx.pc = pc;
          return OpOut::kReturn;
        }
        space_.store(addr, gpr[in.rs2], bytes);
        snoop_store(addr);
        break;
      }
      case Opcode::kFsd: {
        GuestAddr addr;
        if (!mem_access(gpr[in.rs1] + to_unsigned(in.imm), 8,
                        /*write=*/true, pc, addr)) {
          ctx.pc = pc;
          return OpOut::kReturn;
        }
        std::uint64_t raw;
        std::memcpy(&raw, &fpr[in.rs2], 8);
        space_.store(addr, raw, 8);
        snoop_store(addr);
        break;
      }
      case Opcode::kSc: {
        GuestAddr addr;
        if (!mem_access(gpr[in.rs1], 4, /*write=*/true, pc, addr)) {
          ctx.pc = pc;
          return OpOut::kReturn;
        }
        if (llsc_.on_sc(addr, ctx.tid)) {
          space_.store(addr, gpr[in.rs2], 4);
          write_gpr(in.rd, 0);
        } else {
          write_gpr(in.rd, 1);
        }
        break;
      }

      // ---- control flow ---------------------------------------------
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu: {
        bool taken = false;
        switch (in.op) {
          case Opcode::kBeq: taken = gpr[in.rs1] == gpr[in.rs2]; break;
          case Opcode::kBne: taken = gpr[in.rs1] != gpr[in.rs2]; break;
          case Opcode::kBlt:
            taken = to_signed(gpr[in.rs1]) < to_signed(gpr[in.rs2]);
            break;
          case Opcode::kBge:
            taken = to_signed(gpr[in.rs1]) >= to_signed(gpr[in.rs2]);
            break;
          case Opcode::kBltu: taken = gpr[in.rs1] < gpr[in.rs2]; break;
          default: taken = gpr[in.rs1] >= gpr[in.rs2]; break;
        }
        const GuestAddr target =
            taken ? pc + 4 + to_unsigned(in.imm) * 4u : pc + 4;
        ctx.pc = target;
        cur->last_taken = taken;  // trace selection follows this edge
        // Direct-jump chaining (targets are static).
        next_tb = chain_to(taken ? cur->next_taken : cur->next_fall, target);
        return OpOut::kEnd;
      }
      case Opcode::kJal: {
        const GuestAddr target = pc + 4 + to_unsigned(in.imm) * 4u;
        write_gpr(in.rd, pc + 4);
        ctx.pc = target;
        next_tb = chain_to(cur->next_taken, target);
        return OpOut::kEnd;
      }
      case Opcode::kJalr: {
        const GuestAddr target = (gpr[in.rs1] + to_unsigned(in.imm)) & ~3u;
        write_gpr(in.rd, pc + 4);
        ctx.pc = target;  // indirect: no chain slot
        cur->last_indirect_target = target;
        if (fast) {
          const JmpCacheEntry& entry = jmp_slot(target);
          if (entry.pc == target) {
            ++hot.jmp_cache_hit;
            next_tb = entry.tb;
          }
        }
        return OpOut::kEnd;
      }

      // ---- system ----------------------------------------------------
      case Opcode::kFence:
        break;  // sequential DES: ordering is already total
      case Opcode::kSyscall:
        ctx.pc = pc + 4;
        ++result.insns;
        result.exec_cycles += cost;
        result.reason = StopReason::kSyscall;
        result.syscall_num = in.imm;
        return OpOut::kReturn;
      case Opcode::kHint:
        // 0xFFFF is the "no group" sentinel (N-format immediates are
        // zero-extended on decode).
        ctx.hint_group = in.imm == 0xFFFF ? -1 : in.imm;
        ++hot.hints;
        break;

      // ---- FP ---------------------------------------------------------
      case Opcode::kFadd: fpr[in.rd] = fpr[in.rs1] + fpr[in.rs2]; break;
      case Opcode::kFsub: fpr[in.rd] = fpr[in.rs1] - fpr[in.rs2]; break;
      case Opcode::kFmul: fpr[in.rd] = fpr[in.rs1] * fpr[in.rs2]; break;
      case Opcode::kFdiv: fpr[in.rd] = fpr[in.rs1] / fpr[in.rs2]; break;
      case Opcode::kFmin: fpr[in.rd] = std::fmin(fpr[in.rs1], fpr[in.rs2]); break;
      case Opcode::kFmax: fpr[in.rd] = std::fmax(fpr[in.rs1], fpr[in.rs2]); break;
      case Opcode::kFneg: fpr[in.rd] = -fpr[in.rs1]; break;
      case Opcode::kFabs: fpr[in.rd] = std::fabs(fpr[in.rs1]); break;
      case Opcode::kFmov: fpr[in.rd] = fpr[in.rs1]; break;
      case Opcode::kFcvtdw:
        fpr[in.rd] = static_cast<double>(to_signed(gpr[in.rs1]));
        break;
      case Opcode::kFcvtwd:
        write_gpr(in.rd, to_unsigned(fp_to_int(fpr[in.rs1])));
        break;
      case Opcode::kFlt:
        write_gpr(in.rd, fpr[in.rs1] < fpr[in.rs2] ? 1 : 0);
        break;
      case Opcode::kFle:
        write_gpr(in.rd, fpr[in.rs1] <= fpr[in.rs2] ? 1 : 0);
        break;
      case Opcode::kFeq:
        write_gpr(in.rd, fpr[in.rs1] == fpr[in.rs2] ? 1 : 0);
        break;
      case Opcode::kFsqrt: fpr[in.rd] = std::sqrt(fpr[in.rs1]); break;
      case Opcode::kFexp: fpr[in.rd] = std::exp(fpr[in.rs1]); break;
      case Opcode::kFlog: fpr[in.rd] = std::log(fpr[in.rs1]); break;
      case Opcode::kFpow: fpr[in.rd] = std::pow(fpr[in.rs1], fpr[in.rs2]); break;
      case Opcode::kFerf: fpr[in.rd] = std::erf(fpr[in.rs1]); break;
      case Opcode::kFsin: fpr[in.rd] = std::sin(fpr[in.rs1]); break;
      case Opcode::kFcos: fpr[in.rd] = std::cos(fpr[in.rs1]); break;
    }
    return OpOut::kNext;
  };

  // ---- superblock trace dispatch (DESIGN.md section 15) ----------------
  // The specialized loop below is the hot-path payoff: fused ops and
  // inlined ALU/mem fast kinds dispatch through one dense switch, and the
  // quantum is re-checked only at the original block boundaries (so stop
  // points — and therefore virtual time — are identical to the block
  // engine's top-of-loop check).

  auto alu_eval = [&](const isa::Insn& in, GuestAddr pc) -> std::uint32_t {
    switch (in.op) {
      case Opcode::kAdd: return gpr[in.rs1] + gpr[in.rs2];
      case Opcode::kSub: return gpr[in.rs1] - gpr[in.rs2];
      case Opcode::kAnd: return gpr[in.rs1] & gpr[in.rs2];
      case Opcode::kOr: return gpr[in.rs1] | gpr[in.rs2];
      case Opcode::kXor: return gpr[in.rs1] ^ gpr[in.rs2];
      case Opcode::kSll: return gpr[in.rs1] << (gpr[in.rs2] & 31);
      case Opcode::kSrl: return gpr[in.rs1] >> (gpr[in.rs2] & 31);
      case Opcode::kSra:
        return to_unsigned(to_signed(gpr[in.rs1]) >> (gpr[in.rs2] & 31));
      case Opcode::kSlt:
        return to_signed(gpr[in.rs1]) < to_signed(gpr[in.rs2]) ? 1u : 0u;
      case Opcode::kSltu: return gpr[in.rs1] < gpr[in.rs2] ? 1u : 0u;
      case Opcode::kAddi: return gpr[in.rs1] + to_unsigned(in.imm);
      case Opcode::kAndi: return gpr[in.rs1] & to_unsigned(in.imm);
      case Opcode::kOri: return gpr[in.rs1] | to_unsigned(in.imm);
      case Opcode::kXori: return gpr[in.rs1] ^ to_unsigned(in.imm);
      case Opcode::kSlli: return gpr[in.rs1] << (in.imm & 31);
      case Opcode::kSrli: return gpr[in.rs1] >> (in.imm & 31);
      case Opcode::kSrai:
        return to_unsigned(to_signed(gpr[in.rs1]) >> (in.imm & 31));
      case Opcode::kSlti: return to_signed(gpr[in.rs1]) < in.imm ? 1u : 0u;
      case Opcode::kSltiu:
        return gpr[in.rs1] < to_unsigned(in.imm) ? 1u : 0u;
      case Opcode::kLui: return to_unsigned(in.imm) << 12;
      default: return pc + (to_unsigned(in.imm) << 12);  // kAuipc
    }
  };

  auto branch_taken = [&](const isa::Insn& in) -> bool {
    switch (in.op) {
      case Opcode::kBeq: return gpr[in.rs1] == gpr[in.rs2];
      case Opcode::kBne: return gpr[in.rs1] != gpr[in.rs2];
      case Opcode::kBlt:
        return to_signed(gpr[in.rs1]) < to_signed(gpr[in.rs2]);
      case Opcode::kBge:
        return to_signed(gpr[in.rs1]) >= to_signed(gpr[in.rs2]);
      case Opcode::kBltu: return gpr[in.rs1] < gpr[in.rs2];
      default: return gpr[in.rs1] >= gpr[in.rs2];  // kBgeu
    }
  };

  // Resolves the mem half of a trace op. A per-op TLB-line hit proves the
  // page is identity-mapped, in bounds and accessible for this op's access
  // type (mem_access verified all of that when the tag was adopted, and the
  // epoch check on trace entry drops stale tags); alignment still needs its
  // per-access check since the base register varies. On success, `host`
  // points straight at the access bytes when the page's storage could be
  // adopted, else null — `out` then holds the resolved guest address for
  // the generic AddressSpace path.
  auto sb_resolve = [&](SbOp& op, const isa::Insn& in, GuestAddr pc,
                        bool write, std::uint8_t*& host,
                        GuestAddr& out) -> bool {
    const GuestAddr vaddr = gpr[in.rs1] + to_unsigned(in.imm);
    if (op.tlb_tag == (vaddr & ~page_mask) &&
        (vaddr & (op.mem_bytes - 1u)) == 0) {
      out = vaddr;
      host = op.host_page + (vaddr & page_mask);
      return true;
    }
    if (!mem_access(vaddr, op.mem_bytes, write, pc, out)) return false;
    host = nullptr;
    if (out == vaddr) {
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

  // Size-specialized accessors: constant sizes fold the memcpy into a
  // single move, where the generic block path pays a real memcpy call per
  // access. The *_host variants run against an adopted TLB line; the
  // guest-address variants are the fallback for unadopted pages.
  auto load_host = [&](const isa::Insn& in,
                       const std::uint8_t* host) -> std::uint32_t {
    std::uint8_t v8;
    std::uint16_t v16;
    std::uint32_t v32;
    switch (in.op) {
      case Opcode::kLb:
        std::memcpy(&v8, host, 1);
        return to_unsigned(static_cast<std::int8_t>(v8));
      case Opcode::kLbu:
        std::memcpy(&v8, host, 1);
        return v8;
      case Opcode::kLh:
        std::memcpy(&v16, host, 2);
        return to_unsigned(static_cast<std::int16_t>(v16));
      case Opcode::kLhu:
        std::memcpy(&v16, host, 2);
        return v16;
      default:
        std::memcpy(&v32, host, 4);
        return v32;
    }
  };

  auto store_host = [&](std::uint8_t* host, std::uint32_t value,
                        std::uint8_t bytes) {
    switch (bytes) {
      case 1: {
        const std::uint8_t v = static_cast<std::uint8_t>(value);
        std::memcpy(host, &v, 1);
        break;
      }
      case 2: {
        const std::uint16_t v = static_cast<std::uint16_t>(value);
        std::memcpy(host, &v, 2);
        break;
      }
      default:
        std::memcpy(host, &value, 4);
        break;
    }
  };

  auto load_value = [&](const isa::Insn& in, GuestAddr addr) -> std::uint32_t {
    switch (in.op) {
      case Opcode::kLb:
        return to_unsigned(static_cast<std::int8_t>(space_.load(addr, 1)));
      case Opcode::kLbu:
        return static_cast<std::uint8_t>(space_.load(addr, 1));
      case Opcode::kLh:
        return to_unsigned(static_cast<std::int16_t>(space_.load(addr, 2)));
      case Opcode::kLhu:
        return static_cast<std::uint16_t>(space_.load(addr, 2));
      default:
        return static_cast<std::uint32_t>(space_.load(addr, 4));
    }
  };

  auto store_sized = [&](GuestAddr addr, std::uint32_t value,
                         std::uint8_t bytes) {
    switch (bytes) {
      case 1: space_.store(addr, value, 1); break;
      case 2: space_.store(addr, value, 2); break;
      default: space_.store(addr, value, 4); break;
    }
  };

  enum class TraceOut : std::uint8_t { kExit, kReturn };

  // Returns kReturn when `result` is final (fault/quantum/syscall) and
  // kExit when execution left the trace with ctx.pc holding the off-trace
  // continuation (the block loop resumes there, re-checking the quantum at
  // its top exactly where the block engine would).
  //
  // Retirement counters accumulate in locals (registers) and flush to
  // `result`/`hot` through sync() at every exit — two memory RMWs per op
  // would dominate the dispatch this loop exists to shrink.
  auto run_trace = [&](Superblock* sb) -> TraceOut {
    SbOp* const ops = sb->ops.data();
    std::uint64_t insns = result.insns;
    std::uint64_t cycles = result.exec_cycles;
    std::uint64_t fused = 0;
    auto sync = [&] {
      result.insns = insns;
      result.exec_cycles = cycles;
      hot.fused_ops += fused;
      fused = 0;
    };
    std::uint32_t i = 0;
    for (;;) {
      SbOp& op = ops[i];
      switch (op.kind) {
        case SbOpKind::kAluFast:
          write_gpr(op.a.rd, alu_eval(op.a, op.pc));
          ++insns;
          cycles += op.cost_a;
          break;

        case SbOpKind::kMemLoad: {
          std::uint8_t* host;
          GuestAddr addr;
          if (!sb_resolve(op, op.a, op.pc, /*write=*/false, host, addr)) {
            ctx.pc = op.pc;
            sync();
            return TraceOut::kReturn;
          }
          if (op.a.op == Opcode::kFld) {
            std::uint64_t raw;
            if (host != nullptr) {
              std::memcpy(&raw, host, 8);
            } else {
              raw = space_.load(addr, 8);
            }
            double value;
            std::memcpy(&value, &raw, 8);
            fpr[op.a.rd] = value;
          } else {
            write_gpr(op.a.rd, host != nullptr ? load_host(op.a, host)
                                               : load_value(op.a, addr));
          }
          ++insns;
          cycles += op.cost_a;
          break;
        }

        case SbOpKind::kMemStore: {
          std::uint8_t* host;
          GuestAddr addr;
          if (!sb_resolve(op, op.a, op.pc, /*write=*/true, host, addr)) {
            ctx.pc = op.pc;
            sync();
            return TraceOut::kReturn;
          }
          if (op.a.op == Opcode::kFsd) {
            std::uint64_t raw;
            std::memcpy(&raw, &fpr[op.a.rs2], 8);
            if (host != nullptr) {
              std::memcpy(host, &raw, 8);
            } else {
              space_.store(addr, raw, 8);
            }
          } else if (host != nullptr) {
            store_host(host, gpr[op.a.rs2], op.mem_bytes);
          } else {
            store_sized(addr, gpr[op.a.rs2], op.mem_bytes);
          }
          snoop_store(addr);
          ++insns;
          cycles += op.cost_a;
          break;
        }

        case SbOpKind::kLoadAlu: {
          std::uint8_t* host;
          GuestAddr addr;
          if (!sb_resolve(op, op.a, op.pc, /*write=*/false, host, addr)) {
            ctx.pc = op.pc;  // the load faults first: nothing retires
            sync();
            return TraceOut::kReturn;
          }
          write_gpr(op.a.rd, host != nullptr ? load_host(op.a, host)
                                             : load_value(op.a, addr));
          write_gpr(op.b.rd, alu_eval(op.b, op.pc + 4));
          insns += 2;
          cycles += op.cost_a + op.cost_b;
          ++fused;
          break;
        }

        case SbOpKind::kAluStore: {
          write_gpr(op.a.rd, alu_eval(op.a, op.pc));
          ++insns;
          cycles += op.cost_a;  // the ALU half retires even if
          std::uint8_t* host;   // the store half faults below
          GuestAddr addr;
          if (!sb_resolve(op, op.b, op.pc + 4, /*write=*/true, host, addr)) {
            ctx.pc = op.pc + 4;
            sync();
            return TraceOut::kReturn;
          }
          if (host != nullptr) {
            store_host(host, gpr[op.b.rs2], op.mem_bytes);
          } else {
            store_sized(addr, gpr[op.b.rs2], op.mem_bytes);
          }
          snoop_store(addr);
          ++insns;
          cycles += op.cost_b;
          ++fused;
          break;
        }

        case SbOpKind::kCmpBranch: {
          write_gpr(op.a.rd, alu_eval(op.a, op.pc));
          const GuestAddr target =
              branch_taken(op.b) ? op.taken_pc : op.fall_pc;
          insns += 2;
          cycles += op.cost_a + op.cost_b;
          ++fused;
          if (target == op.on_trace_pc) {
            if (insns >= max_insns) {
              ctx.pc = target;
              result.reason = StopReason::kQuantum;
              sync();
              return TraceOut::kReturn;
            }
            i = op.next_index;
            continue;
          }
          ctx.pc = target;
          if (op.next_index != kSbExitIndex) {
            ++hot.sb_side_exit;
            ++sb->side_exits;
          }
          sync();
          return TraceOut::kExit;
        }

        case SbOpKind::kBranch: {
          const GuestAddr target =
              branch_taken(op.a) ? op.taken_pc : op.fall_pc;
          ++insns;
          cycles += op.cost_a;
          if (target == op.on_trace_pc) {
            if (insns >= max_insns) {
              ctx.pc = target;
              result.reason = StopReason::kQuantum;
              sync();
              return TraceOut::kReturn;
            }
            i = op.next_index;
            continue;
          }
          ctx.pc = target;
          if (op.next_index != kSbExitIndex) {
            ++hot.sb_side_exit;
            ++sb->side_exits;
          }
          sync();
          return TraceOut::kExit;
        }

        case SbOpKind::kJal: {
          write_gpr(op.a.rd, op.pc + 4);
          ++insns;
          cycles += op.cost_a;
          if (op.next_index != kSbExitIndex) {
            if (insns >= max_insns) {
              ctx.pc = op.taken_pc;
              result.reason = StopReason::kQuantum;
              sync();
              return TraceOut::kReturn;
            }
            i = op.next_index;
            continue;
          }
          ctx.pc = op.taken_pc;
          sync();
          return TraceOut::kExit;
        }

        case SbOpKind::kJalr: {
          const GuestAddr target =
              (gpr[op.a.rs1] + to_unsigned(op.a.imm)) & ~3u;
          write_gpr(op.a.rd, op.pc + 4);
          ++insns;
          cycles += op.cost_a;
          if (target == op.on_trace_pc) {
            if (insns >= max_insns) {
              ctx.pc = target;
              result.reason = StopReason::kQuantum;
              sync();
              return TraceOut::kReturn;
            }
            i = op.next_index;
            continue;
          }
          ctx.pc = target;
          if (op.next_index != kSbExitIndex) {
            ++hot.sb_side_exit;
            ++sb->side_exits;
          }
          sync();
          return TraceOut::kExit;
        }

        case SbOpKind::kSimple: {
          // exec_op reads/writes `result` directly (syscall accounting),
          // so the locals flush first and reload after.
          sync();
          const OpOut out = exec_op(op.a, op.pc, op.cost_a, nullptr);
          if (out == OpOut::kReturn) return TraceOut::kReturn;
          insns = result.insns + 1;
          cycles = result.exec_cycles + op.cost_a;
          break;
        }
      }

      // Straight-line advance. Cut-block boundaries are quantum guard
      // points: the block engine re-checks the budget between any two
      // blocks, so the trace must stop at exactly the same insn counts.
      if (op.boundary) {
        if (insns >= max_insns) {
          ctx.pc = op.boundary_pc;
          result.reason = StopReason::kQuantum;
          sync();
          return TraceOut::kReturn;
        }
        if (op.next_index == kSbExitIndex) {
          ctx.pc = op.boundary_pc;
          sync();
          return TraceOut::kExit;
        }
        i = op.next_index;
      } else {
        ++i;
      }
    }
  };

  TranslationBlock* tb = nullptr;
  while (true) {
    if (result.insns >= max_insns) {
      result.reason = StopReason::kQuantum;
      return result;
    }

    if (tb == nullptr) {
      tb = cache_.lookup(ctx.pc);
      if (tb == nullptr) {
        TranslateResult tr = cache_.translate(ctx.pc);
        result.translate_cycles += tr.translate_cycles;
        if (tr.code_fault) {
          result.reason = StopReason::kPageFault;
          result.fault_addr = tr.fault_addr;
          result.fault_is_write = false;
          result.fault_is_ifetch = true;
          return result;
        }
        if (tr.decode_error) {
          result.reason = StopReason::kGuestError;
          result.error =
              format_addr_error("invalid instruction fetch", tr.fault_addr,
                                ctx.pc);
          return result;
        }
        tb = tr.tb;
      }
      if (fast) {
        // Fill the indirect-jump cache on the slow entry path so the next
        // jalr (or cold chain miss) to this pc skips the hash lookup.
        JmpCacheEntry& entry = jmp_slot(ctx.pc);
        entry.pc = ctx.pc;
        entry.tb = tb;
      }
    }

    if (sb_on) {
      if (tb->sb == nullptr) {
        // Host-side hot counting; formation charges no virtual time.
        if (++tb->hot_count >= tb->next_hot_trigger) {
          tb->next_hot_trigger = tb->hot_count + config_.sb_hot_threshold;
          cache_.maybe_form_superblock(tb);
        }
      }
      if (Superblock* sb = tb->sb; sb != nullptr) {
        ++hot.sb_exec;
        ++sb->exec_count;
        if (sb->mem_epoch != sb_mem_epoch_) {
          for (SbOp& op : sb->ops) op.tlb_tag = kSbNoPc;
          sb->mem_epoch = sb_mem_epoch_;
        }
        if (run_trace(sb) == TraceOut::kReturn) return result;
        tb = nullptr;  // ctx.pc holds the off-trace continuation
        continue;
      }
    }

    // Execute the block.
    next_tb = nullptr;
    for (const MicroOp& mop : tb->ops) {
      const OpOut out = exec_op(mop.insn, mop.pc, mop.cost_cycles, tb);
      if (out == OpOut::kReturn) return result;
      ++result.insns;
      result.exec_cycles += mop.cost_cycles;
      if (out == OpOut::kEnd) break;
    }

    if (next_tb == nullptr && !isa::insn_info(tb->ops.back().insn.op).ends_block) {
      // Block was cut by the length/page limit: fall through.
      ctx.pc = tb->end_pc();
    }
    tb = next_tb;  // nullptr -> re-lookup / translate at top of loop
  }
}

}  // namespace dqemu::dbt
