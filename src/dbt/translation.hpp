// Translation blocks and the per-node translation cache.
//
// The DBT decodes guest basic blocks once and caches them keyed by guest
// pc — QEMU's translate-once / execute-many structure. Blocks end at
// control transfers (branch/jump/syscall), at kMaxBlockInsns or at a page
// boundary. Each block carries its decoded MicroOps and, built from them
// at translation, the one-block trace the engine executes.
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
/// Limits of a stitched superblock: constituent blocks and guest
/// instructions.
inline constexpr std::uint32_t kMaxTraceBlocks = 16;
inline constexpr std::uint32_t kMaxTraceInsns = 256;

/// One translated guest instruction.
struct MicroOp {
  isa::Insn insn;
  GuestAddr pc = 0;            ///< guest address of this instruction
  std::uint32_t cost_cycles = 0;  ///< per-execution cost from DbtConfig
};

/// A translated basic block.
struct TranslationBlock {
  GuestAddr start_pc = 0;
  /// The decoded instructions; superblock formation stitches from these.
  std::vector<MicroOp> ops;
  /// This block alone as a trace, built at translation. The engine runs it
  /// whenever no stitched superblock heads the block.
  Superblock trace;

  /// Stitched superblock headed by this block, owned by the cache (nullptr
  /// until formed; cleared when the superblock dies).
  Superblock* sb = nullptr;
  /// Host-side hot counter: entries of this block while no superblock
  /// heads it. Cumulative, for the census; formation triggers each time it
  /// crosses `next_hot_trigger` (seeded with DbtConfig::sb_hot_threshold at
  /// translation, re-armed on every attempt).
  std::uint64_t hot_count = 0;
  std::uint64_t next_hot_trigger = 0;
  /// Exit edge of the last run of this block's own trace, recorded by the
  /// engine; trace selection follows it.
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

/// Appends `block`'s trace ops to `trace` (superblock.cpp): per-op kind
/// selection, intra-block fusion and terminal wiring. `next_start` is the
/// start pc of the block that follows on the trace, or kSbNoPc when the
/// trace ends after this block. The last op's SbOp::next_index is left for
/// the caller to patch (kSbExitIndex: leave the trace).
void append_trace_ops(const TranslationBlock& block, GuestAddr next_start,
                      Superblock& trace);

/// Superblock lifecycle events, surfaced to the embedder (Node) which
/// stamps them into the trace flight recorder under Cat::kDbt.
enum class SbEvent : std::uint8_t { kFormed, kInvalidated };

/// Per-node translation cache.
class TranslationCache {
 public:
  /// Observer of every superblock formation and invalidation.
  using SbEventHook = std::function<void(SbEvent, const Superblock&)>;

  /// `space` and `stats` must outlive the cache; `sb_event_hook` may be
  /// empty.
  TranslationCache(const mem::AddressSpace& space, const DbtConfig& config,
                   StatsRegistry& stats, SbEventHook sb_event_hook = {});

  /// Cached block at `pc`, or nullptr.
  [[nodiscard]] TranslationBlock* lookup(GuestAddr pc);

  /// Translates (and caches) the block at `pc`. If the block's code page
  /// is not locally readable the result reports a code fault and nothing
  /// is cached. Blocks never span a page boundary, so one fetched page
  /// always suffices.
  TranslateResult translate(GuestAddr pc);

  /// Drops every cached block whose code lies in `page` (guest code was
  /// invalidated/overwritten), and every superblock stitched through one.
  void invalidate_page(std::uint32_t page);

  /// Drops everything.
  void flush();

  [[nodiscard]] std::size_t size() const { return blocks_.size(); }

  /// Bumped whenever cached TranslationBlock pointers may have died
  /// (invalidate_page that dropped something, flush). Consumers holding
  /// raw block pointers (the DBT's indirect-jump cache) compare against
  /// their snapshot and drop them on mismatch.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// True if `tb` is a currently-cached block (pointer identity; never
  /// dereferences `tb`). Test hook.
  [[nodiscard]] bool contains_block(const TranslationBlock* tb) const;

  /// Per-execution virtual-time cost of one guest instruction — the single
  /// source every trace op charges from (SbOp::cost_a/cost_b copy it), so
  /// fused ops cost exactly their unfused sequence.
  [[nodiscard]] std::uint32_t op_cost(const isa::Insn& insn) const;

  // ---- superblock tier (DESIGN.md section 15) --------------------------

  /// Attempts to stitch the chain headed by `head` into a superblock
  /// (implemented in superblock.cpp). Returns the superblock now heading
  /// `head`, or nullptr if no viable trace exists. Host-side only: charges
  /// no virtual time and touches no virtual-time counter.
  Superblock* maybe_form_superblock(TranslationBlock* head);

  [[nodiscard]] std::size_t superblock_count() const;

  /// Live superblock entered at `entry_pc`, or nullptr. Test hook.
  [[nodiscard]] const Superblock* superblock_at(GuestAddr entry_pc) const;

  /// Census snapshots for --dump-hot (unsorted; callers order them).
  [[nodiscard]] std::vector<HotBlockInfo> hot_census() const;
  [[nodiscard]] std::vector<SuperblockInfo> superblock_census() const;

 private:
  const mem::AddressSpace& space_;
  DbtConfig config_;
  StatsRegistry& stats_;
  std::uint64_t generation_ = 0;
  std::unordered_map<GuestAddr, std::unique_ptr<TranslationBlock>> blocks_;
  std::unordered_map<GuestAddr, std::unique_ptr<Superblock>> superblocks_;
  SbEventHook sb_event_hook_;
};

}  // namespace dqemu::dbt
