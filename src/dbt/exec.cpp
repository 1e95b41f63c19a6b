#include "dbt/exec.hpp"

#include <bit>
#include <cassert>
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

/// Case label of a trace op kind. The trace loop switches on the raw
/// value: single-instruction kinds are opcode values, not SbOpKind
/// enumerators.
constexpr unsigned kind(Opcode op) { return static_cast<unsigned>(op); }
constexpr unsigned kind(SbOpKind k) { return static_cast<unsigned>(k); }

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
  if (stats_ != nullptr) {
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
    if (hot.llsc_ll != 0) stats_->add("llsc.ll", hot.llsc_ll);
    if (hot.llsc_sc_success != 0) {
      stats_->add("llsc.sc_success", hot.llsc_sc_success);
    }
    if (hot.llsc_sc_fail != 0) stats_->add("llsc.sc_fail", hot.llsc_sc_fail);
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
    const TlbEntry& hit = tlb_slot(vaddr);
    if (hit.tag == (vaddr & ~page_mask) &&
        (write ? hit.allow_write : hit.allow_read) &&
        (vaddr & (bytes - 1)) == 0) {
      ++hot.tlb_hit;
      out = vaddr;
      return true;
    }
    const GuestAddr addr =
        shadow_ != nullptr ? shadow_->translate(vaddr) : vaddr;
    if (!check_access(addr, bytes, write, pc)) return false;
    ++hot.tlb_miss;
    if (addr == vaddr) {
      // Identity resolution == the page is unsplit (split shards never map
      // to their own page), so the whole page is cacheable; a successful
      // in-bounds access proves the page-aligned tag covers only in-bounds
      // addresses (the space is page-granular).
      TlbEntry& entry = tlb_slot(vaddr);
      entry.tag = vaddr & ~page_mask;
      if (check_protection_) {
        const mem::PageAccess access = space_.access(space_.page_of(vaddr));
        entry.allow_read = access != mem::PageAccess::kNone;
        entry.allow_write = access == mem::PageAccess::kReadWrite;
      } else {
        entry.allow_read = true;
        entry.allow_write = true;
      }
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
  // or a stitched multi-block superblock, through one switch on the op
  // kind. The builder picked each kind when it built the trace, so a case
  // runs exactly one instruction (or one fused addi+branch) with operands
  // read straight from the op, and nothing is decoded again. The quantum
  // is checked only between blocks — at the top of the entry loop below
  // and, inside a trace, at its block boundaries — so stop points, and
  // with them virtual time, do not depend on how blocks were stitched or
  // fused.

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

  enum class TraceOut : std::uint8_t { kExit, kReturn };

  // Returns kReturn when `result` is final (fault/quantum/syscall) and
  // kExit when execution left the trace with ctx.pc holding the off-trace
  // continuation (the entry loop resumes there, re-checking the quantum
  // first).
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
    };
    // Leaves with `result` final and execution to resume at `pc`.
    auto stop_at = [&](GuestAddr pc) {
      ctx.pc = pc;
      sync();
      return TraceOut::kReturn;
    };
    std::uint32_t i = 0;
    GuestAddr target = 0;  // the guard tail's input: where control goes next
    for (;;) {
      SbOp& op = ops[i];
      const isa::Insn& in = op.a;
      switch (static_cast<unsigned>(op.kind)) {
        // Integer ALU.
        case kind(Opcode::kAdd):
          write_gpr(in.rd, gpr[in.rs1] + gpr[in.rs2]);
          break;
        case kind(Opcode::kSub):
          write_gpr(in.rd, gpr[in.rs1] - gpr[in.rs2]);
          break;
        case kind(Opcode::kAnd):
          write_gpr(in.rd, gpr[in.rs1] & gpr[in.rs2]);
          break;
        case kind(Opcode::kOr):
          write_gpr(in.rd, gpr[in.rs1] | gpr[in.rs2]);
          break;
        case kind(Opcode::kXor):
          write_gpr(in.rd, gpr[in.rs1] ^ gpr[in.rs2]);
          break;
        case kind(Opcode::kSll):
          write_gpr(in.rd, gpr[in.rs1] << (gpr[in.rs2] & 31));
          break;
        case kind(Opcode::kSrl):
          write_gpr(in.rd, gpr[in.rs1] >> (gpr[in.rs2] & 31));
          break;
        case kind(Opcode::kSra):
          write_gpr(in.rd,
                    to_unsigned(to_signed(gpr[in.rs1]) >> (gpr[in.rs2] & 31)));
          break;
        case kind(Opcode::kSlt):
          write_gpr(in.rd, to_signed(gpr[in.rs1]) < to_signed(gpr[in.rs2]));
          break;
        case kind(Opcode::kSltu):
          write_gpr(in.rd, gpr[in.rs1] < gpr[in.rs2]);
          break;
        case kind(Opcode::kAddi):
          write_gpr(in.rd, gpr[in.rs1] + to_unsigned(in.imm));
          break;
        case kind(Opcode::kAndi):
          write_gpr(in.rd, gpr[in.rs1] & to_unsigned(in.imm));
          break;
        case kind(Opcode::kOri):
          write_gpr(in.rd, gpr[in.rs1] | to_unsigned(in.imm));
          break;
        case kind(Opcode::kXori):
          write_gpr(in.rd, gpr[in.rs1] ^ to_unsigned(in.imm));
          break;
        case kind(Opcode::kSlli):
          write_gpr(in.rd, gpr[in.rs1] << (in.imm & 31));
          break;
        case kind(Opcode::kSrli):
          write_gpr(in.rd, gpr[in.rs1] >> (in.imm & 31));
          break;
        case kind(Opcode::kSrai):
          write_gpr(in.rd,
                    to_unsigned(to_signed(gpr[in.rs1]) >> (in.imm & 31)));
          break;
        case kind(Opcode::kSlti):
          write_gpr(in.rd, to_signed(gpr[in.rs1]) < in.imm);
          break;
        case kind(Opcode::kSltiu):
          write_gpr(in.rd, gpr[in.rs1] < to_unsigned(in.imm));
          break;
        case kind(Opcode::kLui):
          write_gpr(in.rd, to_unsigned(in.imm) << 12);
          break;
        case kind(Opcode::kAuipc):
          write_gpr(in.rd, op.pc + (to_unsigned(in.imm) << 12));
          break;

        // Multiply and divide.
        case kind(Opcode::kMul):
          write_gpr(in.rd, gpr[in.rs1] * gpr[in.rs2]);
          break;
        case kind(Opcode::kDiv): {
          const std::int32_t a = to_signed(gpr[in.rs1]);
          const std::int32_t b = to_signed(gpr[in.rs2]);
          std::int32_t q;
          if (b == 0) {
            q = -1;  // RISC-style: division by zero yields all ones
          } else if (a == std::numeric_limits<std::int32_t>::min() &&
                     b == -1) {
            q = a;  // overflow wraps
          } else {
            q = a / b;
          }
          write_gpr(in.rd, to_unsigned(q));
          break;
        }
        case kind(Opcode::kDivu): {
          const std::uint32_t b = gpr[in.rs2];
          write_gpr(in.rd, b == 0 ? ~0u : gpr[in.rs1] / b);
          break;
        }
        case kind(Opcode::kRem): {
          const std::int32_t a = to_signed(gpr[in.rs1]);
          const std::int32_t b = to_signed(gpr[in.rs2]);
          std::int32_t r;
          if (b == 0) {
            r = a;
          } else if (a == std::numeric_limits<std::int32_t>::min() &&
                     b == -1) {
            r = 0;
          } else {
            r = a % b;
          }
          write_gpr(in.rd, to_unsigned(r));
          break;
        }
        case kind(Opcode::kRemu): {
          const std::uint32_t b = gpr[in.rs2];
          write_gpr(in.rd, b == 0 ? gpr[in.rs1] : gpr[in.rs1] % b);
          break;
        }

        // Loads and stores through the op's TLB line.
        case kind(Opcode::kLb): {
          std::int8_t v = 0;
          if (!load(op, v)) return stop_at(op.pc);
          write_gpr(in.rd, static_cast<std::uint32_t>(v));
          break;
        }
        case kind(Opcode::kLbu): {
          std::uint8_t v = 0;
          if (!load(op, v)) return stop_at(op.pc);
          write_gpr(in.rd, v);
          break;
        }
        case kind(Opcode::kLh): {
          std::int16_t v = 0;
          if (!load(op, v)) return stop_at(op.pc);
          write_gpr(in.rd, static_cast<std::uint32_t>(v));
          break;
        }
        case kind(Opcode::kLhu): {
          std::uint16_t v = 0;
          if (!load(op, v)) return stop_at(op.pc);
          write_gpr(in.rd, v);
          break;
        }
        case kind(Opcode::kLw): {
          std::uint32_t v = 0;
          if (!load(op, v)) return stop_at(op.pc);
          write_gpr(in.rd, v);
          break;
        }
        case kind(Opcode::kFld): {
          std::uint64_t raw = 0;
          if (!load(op, raw)) return stop_at(op.pc);
          fpr[in.rd] = std::bit_cast<double>(raw);
          break;
        }
        case kind(Opcode::kSb):
          if (!store(op, static_cast<std::uint8_t>(gpr[in.rs2]))) {
            return stop_at(op.pc);
          }
          break;
        case kind(Opcode::kSh):
          if (!store(op, static_cast<std::uint16_t>(gpr[in.rs2]))) {
            return stop_at(op.pc);
          }
          break;
        case kind(Opcode::kSw):
          if (!store(op, gpr[in.rs2])) return stop_at(op.pc);
          break;
        case kind(Opcode::kFsd):
          if (!store(op, std::bit_cast<std::uint64_t>(fpr[in.rs2]))) {
            return stop_at(op.pc);
          }
          break;

        // LL/SC go through the shared TLB: no per-op line.
        case kind(Opcode::kLl): {
          GuestAddr addr = 0;
          if (!mem_access(gpr[in.rs1] + to_unsigned(in.imm), 4,
                          /*write=*/false, op.pc, addr)) {
            return stop_at(op.pc);  // re-execute after the fault is serviced
          }
          write_gpr(in.rd, static_cast<std::uint32_t>(space_.load(addr, 4)));
          llsc_.on_ll(addr, ctx.tid);
          ++hot.llsc_ll;
          break;
        }
        case kind(Opcode::kSc): {
          GuestAddr addr = 0;
          if (!mem_access(gpr[in.rs1], 4, /*write=*/true, op.pc, addr)) {
            return stop_at(op.pc);
          }
          if (llsc_.on_sc(addr, ctx.tid)) {
            space_.store(addr, gpr[in.rs2], 4);
            write_gpr(in.rd, 0);
            ++hot.llsc_sc_success;
          } else {
            write_gpr(in.rd, 1);
            ++hot.llsc_sc_fail;
          }
          break;
        }

        case kind(Opcode::kFence):
          break;  // sequential DES: ordering is already total
        case kind(Opcode::kHint):
          // 0xFFFF is the "no group" sentinel (N-format immediates are
          // zero-extended on decode).
          ctx.hint_group = in.imm == 0xFFFF ? -1 : in.imm;
          ++hot.hints;
          break;
        case kind(Opcode::kSyscall):
          ++insns;
          cycles += op.cost_a;
          result.reason = StopReason::kSyscall;
          result.syscall_num = in.imm;
          return stop_at(op.pc + 4);

        // Floating point.
        case kind(Opcode::kFadd): fpr[in.rd] = fpr[in.rs1] + fpr[in.rs2]; break;
        case kind(Opcode::kFsub): fpr[in.rd] = fpr[in.rs1] - fpr[in.rs2]; break;
        case kind(Opcode::kFmul): fpr[in.rd] = fpr[in.rs1] * fpr[in.rs2]; break;
        case kind(Opcode::kFdiv): fpr[in.rd] = fpr[in.rs1] / fpr[in.rs2]; break;
        case kind(Opcode::kFmin):
          fpr[in.rd] = std::fmin(fpr[in.rs1], fpr[in.rs2]);
          break;
        case kind(Opcode::kFmax):
          fpr[in.rd] = std::fmax(fpr[in.rs1], fpr[in.rs2]);
          break;
        case kind(Opcode::kFneg): fpr[in.rd] = -fpr[in.rs1]; break;
        case kind(Opcode::kFabs): fpr[in.rd] = std::fabs(fpr[in.rs1]); break;
        case kind(Opcode::kFmov): fpr[in.rd] = fpr[in.rs1]; break;
        case kind(Opcode::kFcvtdw):
          fpr[in.rd] = static_cast<double>(to_signed(gpr[in.rs1]));
          break;
        case kind(Opcode::kFcvtwd):
          write_gpr(in.rd, to_unsigned(fp_to_int(fpr[in.rs1])));
          break;
        case kind(Opcode::kFlt):
          write_gpr(in.rd, fpr[in.rs1] < fpr[in.rs2]);
          break;
        case kind(Opcode::kFle):
          write_gpr(in.rd, fpr[in.rs1] <= fpr[in.rs2]);
          break;
        case kind(Opcode::kFeq):
          write_gpr(in.rd, fpr[in.rs1] == fpr[in.rs2]);
          break;
        case kind(Opcode::kFsqrt): fpr[in.rd] = std::sqrt(fpr[in.rs1]); break;
        case kind(Opcode::kFexp): fpr[in.rd] = std::exp(fpr[in.rs1]); break;
        case kind(Opcode::kFlog): fpr[in.rd] = std::log(fpr[in.rs1]); break;
        case kind(Opcode::kFpow):
          fpr[in.rd] = std::pow(fpr[in.rs1], fpr[in.rs2]);
          break;
        case kind(Opcode::kFerf): fpr[in.rd] = std::erf(fpr[in.rs1]); break;
        case kind(Opcode::kFsin): fpr[in.rd] = std::sin(fpr[in.rs1]); break;
        case kind(Opcode::kFcos): fpr[in.rd] = std::cos(fpr[in.rs1]); break;

        // Control transfer: each case picks `target`, then the guard tail
        // below decides between staying on the trace and leaving it.
        case kind(Opcode::kBeq):
          target = gpr[in.rs1] == gpr[in.rs2] ? op.taken_pc : op.fall_pc;
          goto guard;
        case kind(Opcode::kBne):
          target = gpr[in.rs1] != gpr[in.rs2] ? op.taken_pc : op.fall_pc;
          goto guard;
        case kind(Opcode::kBlt):
          target = to_signed(gpr[in.rs1]) < to_signed(gpr[in.rs2])
                       ? op.taken_pc
                       : op.fall_pc;
          goto guard;
        case kind(Opcode::kBge):
          target = to_signed(gpr[in.rs1]) >= to_signed(gpr[in.rs2])
                       ? op.taken_pc
                       : op.fall_pc;
          goto guard;
        case kind(Opcode::kBltu):
          target = gpr[in.rs1] < gpr[in.rs2] ? op.taken_pc : op.fall_pc;
          goto guard;
        case kind(Opcode::kBgeu):
          target = gpr[in.rs1] >= gpr[in.rs2] ? op.taken_pc : op.fall_pc;
          goto guard;
        case kind(Opcode::kJal):
          write_gpr(in.rd, op.pc + 4);
          target = op.taken_pc;
          goto guard;
        case kind(Opcode::kJalr):
          target = (gpr[in.rs1] + to_unsigned(in.imm)) & ~3u;
          write_gpr(in.rd, op.pc + 4);
          goto guard;

        // addi + terminal branch on its result. The builder only fuses an
        // addi with rd != 0, so rd is written without the r0 test.
        case kind(SbOpKind::kAddiBeq):
          gpr[in.rd] = gpr[in.rs1] + to_unsigned(in.imm);
          target = gpr[op.b.rs1] == gpr[op.b.rs2] ? op.taken_pc : op.fall_pc;
          ++fused;
          goto guard;
        case kind(SbOpKind::kAddiBne):
          gpr[in.rd] = gpr[in.rs1] + to_unsigned(in.imm);
          target = gpr[op.b.rs1] != gpr[op.b.rs2] ? op.taken_pc : op.fall_pc;
          ++fused;
          goto guard;
        case kind(SbOpKind::kAddiBlt):
          gpr[in.rd] = gpr[in.rs1] + to_unsigned(in.imm);
          target = to_signed(gpr[op.b.rs1]) < to_signed(gpr[op.b.rs2])
                       ? op.taken_pc
                       : op.fall_pc;
          ++fused;
          goto guard;
        case kind(SbOpKind::kAddiBge):
          gpr[in.rd] = gpr[in.rs1] + to_unsigned(in.imm);
          target = to_signed(gpr[op.b.rs1]) >= to_signed(gpr[op.b.rs2])
                       ? op.taken_pc
                       : op.fall_pc;
          ++fused;
          goto guard;
        case kind(SbOpKind::kAddiBltu):
          gpr[in.rd] = gpr[in.rs1] + to_unsigned(in.imm);
          target = gpr[op.b.rs1] < gpr[op.b.rs2] ? op.taken_pc : op.fall_pc;
          ++fused;
          goto guard;
        case kind(SbOpKind::kAddiBgeu):
          gpr[in.rd] = gpr[in.rs1] + to_unsigned(in.imm);
          target = gpr[op.b.rs1] >= gpr[op.b.rs2] ? op.taken_pc : op.fall_pc;
          ++fused;
          goto guard;

        default:
          assert(false && "every trace op kind has a case");
          break;
      }

      // A single non-control instruction retired. Cut-block boundaries are
      // quantum guard points: the budget is checked between any two
      // blocks, inside a trace or not, so every trace stops at the same
      // insn counts.
      ++insns;
      cycles += op.cost_a;
      if (!op.boundary) {
        ++i;
        continue;
      }
      if (insns >= max_insns) {
        result.reason = StopReason::kQuantum;
        return stop_at(op.boundary_pc);
      }
      if (op.next_index == kSbExitIndex) {
        ctx.pc = op.boundary_pc;
        sync();
        return TraceOut::kExit;
      }
      i = op.next_index;
      continue;

    guard:
      // The guard tail of every branch and jump, fused or not: stay on the
      // trace when control goes where the trace continues (a block
      // boundary, so the quantum is checked), else leave it — a side exit
      // when the trace had somewhere else to go.
      insns += op.n_insns;
      cycles += op.cost_a + op.cost_b;
      if (target == op.on_trace_pc) {
        if (insns >= max_insns) {
          result.reason = StopReason::kQuantum;
          return stop_at(target);
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
  };

  // Block entry: the indirect-jump cache, then the translation cache's
  // hash map, then translation. A stitched superblock headed by the block
  // runs in its place; otherwise the block's own one-block trace runs and
  // its exit edge is recorded for trace selection.
  while (true) {
    if (result.insns >= max_insns) {
      result.reason = StopReason::kQuantum;
      return result;
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
      for (SbOp& op : trace->ops) op.tlb_tag = kSbNoPc;
      trace->mem_epoch = trace_mem_epoch_;
    }
    if (run_trace(trace) == TraceOut::kReturn) return result;
    if (trace == &tb->trace) {
      // The block's exit edge: trace selection follows it. Only the
      // terminal's kind decides which field is read back (a branch's
      // direction, a jalr's target).
      tb->last_taken = ctx.pc != tb->end_pc();
      tb->last_indirect_target = ctx.pc;
    }
  }
}

}  // namespace dqemu::dbt
