// Translation blocks and the per-node translation cache.
//
// The DBT decodes guest basic blocks once into micro-op traces and caches
// them keyed by guest pc — QEMU's translate-once / execute-many structure.
// Blocks end at control transfers (branch/jump/syscall) or at kMaxBlockInsns.
// Direct-jump chaining links a block to its taken/fall-through successors
// so steady-state execution skips the hash lookup, as in TCG.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "dbt/superblock.hpp"
#include "isa/isa.hpp"
#include "mem/address_space.hpp"

namespace dqemu::dbt {

/// Maximum guest instructions per translation block.
inline constexpr std::uint32_t kMaxBlockInsns = 64;

/// One translated guest instruction.
struct MicroOp {
  isa::Insn insn;
  GuestAddr pc = 0;            ///< guest address of this instruction
  std::uint32_t cost_cycles = 0;  ///< per-execution cost from DbtConfig
};

/// A translated basic block.
struct TranslationBlock {
  GuestAddr start_pc = 0;
  std::vector<MicroOp> ops;
  /// Chained successors (nullptr until first taken); cleared on cache flush.
  TranslationBlock* next_taken = nullptr;
  TranslationBlock* next_fall = nullptr;

  /// Superblock headed by this block, owned by the cache (nullptr until
  /// formed; cleared when the superblock dies).
  Superblock* sb = nullptr;
  /// Host-side hot counter: executions of this block in block (non-trace)
  /// mode. Cumulative, for the census; formation triggers each time it
  /// crosses `next_hot_trigger` (seeded with DbtConfig::sb_hot_threshold
  /// at translation, re-armed on every attempt).
  std::uint64_t hot_count = 0;
  std::uint64_t next_hot_trigger = 0;
  /// Last observed control-flow outcome, recorded by the engine; trace
  /// selection follows these edges.
  bool last_taken = false;
  GuestAddr last_indirect_target = 0;

  [[nodiscard]] std::uint32_t insn_count() const {
    return static_cast<std::uint32_t>(ops.size());
  }
  /// Guest address just past the block.
  [[nodiscard]] GuestAddr end_pc() const {
    return start_pc + insn_count() * 4;
  }
};

/// Outcome of a translation attempt.
struct TranslateResult {
  TranslationBlock* tb = nullptr;  ///< nullptr on fault/error
  bool code_fault = false;         ///< code page not readable locally
  GuestAddr fault_addr = 0;        ///< page-granular faulting code address
  bool decode_error = false;       ///< invalid opcode encountered
  std::uint64_t translate_cycles = 0;  ///< one-time cost charged to caller
};

/// Census rows for `--dump-hot` and the superblock tests.
struct HotBlockInfo {
  GuestAddr pc = 0;
  std::uint32_t insns = 0;
  std::uint64_t hot_count = 0;
  bool has_sb = false;
};
struct SuperblockInfo {
  GuestAddr entry_pc = 0;
  std::uint32_t blocks = 0;
  std::uint32_t insns = 0;
  std::uint32_t fused_pairs = 0;
  bool loops = false;
  std::uint64_t exec_count = 0;
  std::uint64_t side_exits = 0;
};

/// Superblock lifecycle events, surfaced to the embedder (Node) which
/// stamps them into the trace flight recorder under Cat::kDbt.
enum class SbEvent : std::uint8_t { kFormed, kInvalidated };

/// Per-node translation cache.
class TranslationCache {
 public:
  /// `space` must outlive the cache. `check_protection` is false in the
  /// single-node baseline (no DSM; code is always resident).
  TranslationCache(const mem::AddressSpace& space, const DbtConfig& config,
                   bool check_protection, StatsRegistry* stats = nullptr);

  /// Cached block at `pc`, or nullptr.
  [[nodiscard]] TranslationBlock* lookup(GuestAddr pc);

  /// Translates (and caches) the block at `pc`. If the block's code page
  /// is not locally readable the result reports a code fault and nothing
  /// is cached. Blocks never span a page boundary, so one fetched page
  /// always suffices.
  TranslateResult translate(GuestAddr pc);

  /// Drops every cached block whose code lies in `page` (guest code was
  /// invalidated/overwritten). Chain pointers referencing a dropped block
  /// are cleared; chains between surviving blocks are preserved.
  void invalidate_page(std::uint32_t page);

  /// Drops everything.
  void flush();

  [[nodiscard]] std::size_t size() const { return blocks_.size(); }

  /// Bumped whenever cached TranslationBlock pointers may have died
  /// (invalidate_page that dropped something, flush). Consumers holding
  /// raw block pointers outside the chain fields (the DBT's indirect-jump
  /// cache) compare against their snapshot and drop them on mismatch.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// True if `tb` is a currently-cached block (pointer identity; never
  /// dereferences `tb`). Test hook for chain-invalidation regressions.
  [[nodiscard]] bool contains_block(const TranslationBlock* tb) const;

  /// Per-execution virtual-time cost of one guest instruction — the single
  /// source the block translator and the superblock fusion pass both charge
  /// from, so fused ops cost exactly their unfused sequence.
  [[nodiscard]] std::uint32_t op_cost(const isa::Insn& insn) const;

  // ---- superblock tier (DESIGN.md section 15) --------------------------

  /// Attempts to stitch the chain headed by `head` into a superblock
  /// (implemented in superblock.cpp). Returns the superblock now heading
  /// `head`, or nullptr if no viable trace exists. Host-side only: charges
  /// no virtual time and perturbs no counters shared with the block path.
  Superblock* maybe_form_superblock(TranslationBlock* head);

  /// True if `sb` is a currently-live superblock (pointer identity).
  [[nodiscard]] bool contains_superblock(const Superblock* sb) const;

  [[nodiscard]] std::size_t superblock_count() const;

  /// Live superblock entered at `entry_pc`, or nullptr. Test hook.
  [[nodiscard]] const Superblock* superblock_at(GuestAddr entry_pc) const;

  /// Census snapshots for --dump-hot (unsorted; callers order them).
  [[nodiscard]] std::vector<HotBlockInfo> hot_census() const;
  [[nodiscard]] std::vector<SuperblockInfo> superblock_census() const;

  /// Installs a superblock lifecycle observer (formation/invalidation).
  void set_sb_event_hook(std::function<void(SbEvent, const Superblock&)> hook);

 private:
  const mem::AddressSpace& space_;
  DbtConfig config_;
  bool check_protection_;
  StatsRegistry* stats_;
  std::uint64_t generation_ = 0;
  std::unordered_map<GuestAddr, std::unique_ptr<TranslationBlock>> blocks_;
  std::unordered_map<GuestAddr, std::unique_ptr<Superblock>> superblocks_;
  std::function<void(SbEvent, const Superblock&)> sb_event_hook_;
};

}  // namespace dqemu::dbt
