#include "dbt/translation.hpp"

#include <algorithm>

namespace dqemu::dbt {

TranslationCache::TranslationCache(const mem::AddressSpace& space,
                                   const DbtConfig& config,
                                   StatsRegistry& stats,
                                   SbEventHook sb_event_hook)
    : space_(space),
      config_(config),
      stats_(stats),
      sb_event_hook_(std::move(sb_event_hook)) {}

TranslationBlock* TranslationCache::lookup(GuestAddr pc) {
  auto it = blocks_.find(pc);
  if (it == blocks_.end()) {
    stats_.add("dbt.tcache_miss");
    return nullptr;
  }
  stats_.add("dbt.tcache_hit");
  return it->second.get();
}

std::uint32_t TranslationCache::op_cost(const isa::Insn& insn) const {
  const isa::InsnInfo& info = isa::insn_info(insn.op);
  std::uint32_t cost = config_.cycles_per_op;
  if (info.is_load || info.is_store) cost += config_.cycles_per_mem_op;
  if (info.is_fp_special) cost += config_.cycles_per_fp_special;
  return cost;
}

TranslateResult TranslationCache::translate(GuestAddr pc) {
  TranslateResult result;
  if ((pc & 3u) != 0 || !space_.contains(pc)) {
    result.decode_error = true;
    result.fault_addr = pc;
    return result;
  }

  const std::uint32_t page = space_.page_of(pc);
  if (space_.access(page) == mem::PageAccess::kNone) {
    result.code_fault = true;
    result.fault_addr = pc;
    return result;
  }

  auto tb = std::make_unique<TranslationBlock>();
  tb->start_pc = pc;
  tb->next_hot_trigger = config_.sb_hot_threshold;
  GuestAddr at = pc;
  // Blocks end at control transfers, at kMaxBlockInsns, or at a page
  // boundary (so a block's code always lives on one locally-present page).
  while (tb->ops.size() < kMaxBlockInsns) {
    const std::uint32_t word =
        static_cast<std::uint32_t>(space_.load(at, 4));
    const auto insn = isa::decode(word);
    if (!insn.has_value()) {
      if (tb->ops.empty()) {
        result.decode_error = true;
        result.fault_addr = at;
        return result;
      }
      break;  // let execution reach and report the bad word precisely
    }
    tb->ops.push_back(MicroOp{*insn, at, op_cost(*insn)});
    at += 4;
    if (isa::insn_info(insn->op).ends_block) break;
    if (space_.page_of(at) != page) break;
  }

  tb->trace.entry_pc = pc;
  append_trace_ops(*tb, kSbNoPc, tb->trace);

  result.translate_cycles =
      std::uint64_t(config_.translate_cycles_per_insn) * tb->ops.size();
  stats_.add("dbt.blocks_translated");
  stats_.add("dbt.insns_translated", tb->ops.size());
  TranslationBlock* raw = tb.get();
  blocks_[pc] = std::move(tb);
  result.tb = raw;
  return result;
}

void TranslationCache::invalidate_page(std::uint32_t page) {
  const std::size_t dropped = std::erase_if(blocks_, [&](const auto& entry) {
    return space_.page_of(entry.first) == page;
  });
  if (dropped == 0) return;
  // A superblock dies with any constituent block. Blocks never span a page,
  // so "some constituent block lives in `page`" is exactly "the
  // superblock's page set contains `page`". Surviving head blocks have
  // their superblock pointer cleared; they run their own traces again and
  // may re-form later.
  std::uint64_t sb_dropped = 0;
  for (auto it = superblocks_.begin(); it != superblocks_.end();) {
    Superblock& sb = *it->second;
    if (std::find(sb.pages.begin(), sb.pages.end(), page) != sb.pages.end()) {
      if (sb_event_hook_) sb_event_hook_(SbEvent::kInvalidated, sb);
      const auto head = blocks_.find(sb.entry_pc);
      if (head != blocks_.end()) head->second->sb = nullptr;
      it = superblocks_.erase(it);
      ++sb_dropped;
    } else {
      ++it;
    }
  }
  if (sb_dropped != 0) {
    stats_.add("dbt.sb_invalidated", sb_dropped);
  }
  ++generation_;
  stats_.add("dbt.tcache_page_invalidations");
}

void TranslationCache::flush() {
  if (sb_event_hook_) {
    for (const auto& [pc, sb] : superblocks_) {
      sb_event_hook_(SbEvent::kInvalidated, *sb);
    }
  }
  if (!superblocks_.empty()) {
    stats_.add("dbt.sb_invalidated", superblocks_.size());
  }
  superblocks_.clear();  // heads die with blocks_ below
  blocks_.clear();
  ++generation_;
}

bool TranslationCache::contains_block(const TranslationBlock* tb) const {
  for (const auto& [pc, block] : blocks_) {
    if (block.get() == tb) return true;
  }
  return false;
}

std::size_t TranslationCache::superblock_count() const {
  return superblocks_.size();
}

const Superblock* TranslationCache::superblock_at(GuestAddr entry_pc) const {
  const auto it = superblocks_.find(entry_pc);
  return it != superblocks_.end() ? it->second.get() : nullptr;
}

std::vector<HotBlockInfo> TranslationCache::hot_census() const {
  std::vector<HotBlockInfo> rows;
  rows.reserve(blocks_.size());
  for (const auto& [pc, tb] : blocks_) {
    rows.push_back(HotBlockInfo{pc, tb->insn_count(), tb->hot_count,
                                tb->sb != nullptr});
  }
  return rows;
}

std::vector<SuperblockInfo> TranslationCache::superblock_census() const {
  std::vector<SuperblockInfo> rows;
  rows.reserve(superblocks_.size());
  for (const auto& [pc, sb] : superblocks_) {
    rows.push_back(SuperblockInfo{
        sb->entry_pc, static_cast<std::uint32_t>(sb->block_pcs.size()),
        sb->guest_insns, sb->fused_pairs, sb->loops, sb->exec_count,
        sb->side_exits});
  }
  return rows;
}

}  // namespace dqemu::dbt
