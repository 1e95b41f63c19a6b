// DBT execution engine.
//
// Runs a guest thread's translated blocks until its scheduling quantum is
// exhausted or it hits an event the node must handle: a page-protection
// fault (handed to the DSM layer), a SYSCALL (handed to the delegation
// layer), or a guest error. Every load/store goes through the shadow-map
// translation and the page-protection check — the interception point that
// real DQEMU gets from mprotect + SIGSEGV.
//
// One executor (DESIGN.md sections 10 and 15): every block runs as a trace
// of pre-decoded ops — its own one-block trace, or a stitched multi-block
// superblock once its chain is hot. Memory ops try their per-op TLB line,
// then a direct-mapped software TLB caching the per-page outcome of
// shadow-resolve + bounds + protection, then the full check. Block entry
// probes a direct-mapped indirect-jump cache (QEMU's tb_jmp_cache) before
// the translation cache's hash map. All of it is host-side only: virtual
// time is what the per-instruction semantics charge. Invalidation is
// generation-based: AddressSpace protection changes, ShadowMap splits and
// TranslationCache drops each bump a counter that run() compares on entry;
// nothing mutates those structures while run() is on the stack
// (sequential DES).
#pragma once

#include <array>
#include <string>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "dbt/cpu_context.hpp"
#include "dbt/llsc_table.hpp"
#include "dbt/translation.hpp"
#include "mem/address_space.hpp"
#include "mem/shadow_map.hpp"

namespace dqemu::dbt {

enum class StopReason {
  kQuantum,    ///< ran out of instruction budget (at a block boundary)
  kPageFault,  ///< fault_addr/fault_is_write/fault_is_ifetch describe it
  kSyscall,    ///< syscall_num is set; pc already advanced past SYSCALL
  kGuestError, ///< error holds a diagnostic; the guest is wedged
};

struct ExecResult {
  StopReason reason = StopReason::kQuantum;
  std::uint64_t insns = 0;            ///< guest instructions retired
  std::uint64_t exec_cycles = 0;      ///< execution cost (host cycles)
  std::uint64_t translate_cycles = 0; ///< one-time translation cost incurred
  GuestAddr fault_addr = 0;
  bool fault_is_write = false;
  bool fault_is_ifetch = false;
  std::int32_t syscall_num = 0;
  std::string error;
};

class ExecEngine {
 public:
  /// All references must outlive the engine. `shadow` may be null (no page
  /// splitting). `check_protection` is false only in the single-node
  /// baseline, where every page is resident and writable.
  ExecEngine(mem::AddressSpace& space, const mem::ShadowMap* shadow,
             LlscTable& llsc, TranslationCache& cache, const DbtConfig& config,
             bool check_protection, StatsRegistry* stats = nullptr);

  /// Executes `ctx` for at most ~max_insns guest instructions (quantum is
  /// checked at block boundaries, so it can overshoot by one block).
  ExecResult run(CpuContext& ctx, std::uint64_t max_insns);

  /// Drops the software TLB, the indirect-jump cache and every trace's
  /// per-op TLB lines unconditionally.
  /// Normally unnecessary — run() revalidates against the generation
  /// counters of AddressSpace / ShadowMap / TranslationCache — but
  /// embedders mutating those structures behind the generations (tests)
  /// can force a flush here.
  void invalidate_fast_caches();

 private:
  /// Hot counters accumulated in locals during a quantum and flushed to
  /// the stats registry once per run() call: a per-event string-keyed map
  /// lookup would dominate the dispatch loop it is measuring.
  struct HotCounters {
    std::uint64_t hints = 0;
    std::uint64_t tlb_hit = 0;
    std::uint64_t tlb_miss = 0;
    std::uint64_t jmp_cache_hit = 0;
    std::uint64_t llsc_fastpath = 0;
    std::uint64_t sb_exec = 0;       ///< stitched superblock entries
    std::uint64_t sb_side_exit = 0;  ///< guarded exits off a live trace
    std::uint64_t fused_ops = 0;     ///< fused addi+branch ops executed
    std::uint64_t llsc_ll = 0;          ///< llsc.ll
    std::uint64_t llsc_sc_success = 0;  ///< llsc.sc_success
    std::uint64_t llsc_sc_fail = 0;     ///< llsc.sc_fail
  };

  ExecResult run_loop(CpuContext& ctx, std::uint64_t max_insns,
                      HotCounters& hot);

  mem::AddressSpace& space_;
  const mem::ShadowMap* shadow_;
  LlscTable& llsc_;
  TranslationCache& cache_;
  DbtConfig config_;
  bool check_protection_;
  StatsRegistry* stats_;

  /// Never a valid page-aligned tag or instruction address (low bits set).
  static constexpr GuestAddr kNoTag = ~GuestAddr{0};

  /// Software TLB entry: caches, for one unsplit guest page, the fact
  /// that accesses resolve to themselves (identity shadow mapping), are
  /// in bounds, and carry these permissions. Split pages are never
  /// cached — their shard-granular redirection takes the slow path.
  struct TlbEntry {
    GuestAddr tag = kNoTag;  ///< page-aligned guest address
    bool allow_read = false;
    bool allow_write = false;
  };
  /// Indirect-jump cache entry (QEMU's tb_jmp_cache): pc -> block.
  struct JmpCacheEntry {
    GuestAddr pc = kNoTag;
    TranslationBlock* tb = nullptr;
  };

  static constexpr std::uint32_t kTlbEntries = 256;
  static constexpr std::uint32_t kJmpCacheEntries = 1024;

  [[nodiscard]] TlbEntry& tlb_slot(GuestAddr addr) {
    return tlb_[(addr >> space_.page_shift()) & (kTlbEntries - 1)];
  }
  [[nodiscard]] JmpCacheEntry& jmp_slot(GuestAddr pc) {
    return jmp_cache_[(pc >> 2) & (kJmpCacheEntries - 1)];
  }

  /// Revalidates both caches against the generation counters; called on
  /// entry to run(). A software-TLB flush also advances the trace memory
  /// epoch, which orphans every trace's per-op TLB lines.
  void sync_fast_caches();

  std::array<TlbEntry, kTlbEntries> tlb_{};
  std::array<JmpCacheEntry, kJmpCacheEntries> jmp_cache_{};
  std::uint64_t seen_protection_gen_ = ~std::uint64_t{0};
  std::uint64_t seen_shadow_gen_ = ~std::uint64_t{0};
  std::uint64_t seen_tcache_gen_ = ~std::uint64_t{0};

  /// Traces whose per-op TLB lines were filled under an older epoch reset
  /// them lazily on entry. 0 is "never valid" (fresh traces).
  std::uint64_t trace_mem_epoch_ = 1;
};

}  // namespace dqemu::dbt
