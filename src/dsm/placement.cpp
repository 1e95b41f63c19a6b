#include "dsm/placement.hpp"

#include <algorithm>
#include <cassert>

#include "common/hash.hpp"

namespace dqemu::dsm {

HomeLayout home_layout(const ClusterConfig& config) {
  // Shadow pool: top of the guest space, at most 32 MiB or 1/8 of guest
  // memory, page-aligned.
  constexpr std::uint32_t kMaxShadowPoolBytes = 32u << 20;
  const std::uint32_t page = config.machine.page_size;
  const std::uint32_t pool_bytes =
      std::min<std::uint32_t>(kMaxShadowPoolBytes,
                              config.guest_mem_bytes / 8) /
      page * page;
  HomeLayout layout;
  layout.slave_count = config.single_node_baseline ? 0 : config.slave_nodes;
  layout.shadow_first_page = (config.guest_mem_bytes - pool_bytes) / page;
  layout.shadow_page_count = pool_bytes / page;
  return layout;
}

NodeId HomeLayout::shadow_home(std::uint64_t page) const {
  assert(is_shadow(page) && slave_count > 0);
  const std::uint64_t size = slice_size();
  if (size == 0) return static_cast<NodeId>(slave_count);
  std::uint64_t idx = (page - shadow_first_page) / size;
  if (idx >= slave_count) idx = slave_count - 1;
  return static_cast<NodeId>(idx + 1);
}

NodeId HomeLayout::hash_home(std::uint64_t page) const {
  assert(slave_count > 0);
  std::uint64_t state = page;
  return static_cast<NodeId>(1 + splitmix64(state) % slave_count);
}

HomeMap::HomeMap(const DsmConfig& dsm, const HomeLayout& layout)
    : sharded_(dsm.enable_home_sharding && layout.slave_count > 0),
      placement_(dsm.home_placement),
      layout_(layout) {}

NodeId HomeMap::home_for(std::uint64_t page, NodeId requester) {
  if (!sharded_) return kMasterNode;
  if (layout_.is_shadow(page)) return layout_.shadow_home(page);
  if (placement_ == HomePlacement::kHash) return layout_.hash_home(page);
  const auto it = assigned_.find(page);
  if (it != assigned_.end()) return it->second;
  assigned_.emplace(page, requester);
  return requester;
}

std::uint64_t HomeMap::repoint_dead_home(NodeId dead) {
  if (!sharded_ || placement_ != HomePlacement::kFirstTouch) return 0;
  std::uint64_t moved = 0;
  for (auto& [page, home] : assigned_) {
    if (home == dead) {
      home = kMasterNode;
      ++moved;
    }
  }
  return moved;
}

NodeId HomeMap::home_of(std::uint64_t page) const {
  if (!sharded_) return kMasterNode;
  if (layout_.is_shadow(page)) return layout_.shadow_home(page);
  if (placement_ == HomePlacement::kHash) return layout_.hash_home(page);
  const auto it = assigned_.find(page);
  return it != assigned_.end() ? it->second : kMasterNode;
}

HomeView::HomeView(const DsmConfig& dsm, const HomeLayout& layout)
    : sharded_(dsm.enable_home_sharding && layout.slave_count > 0),
      placement_(dsm.home_placement),
      layout_(layout) {}

NodeId HomeView::home_of(std::uint64_t page) const {
  if (!sharded_) return kMasterNode;
  if (layout_.is_shadow(page)) return layout_.shadow_home(page);
  if (placement_ == HomePlacement::kHash) return layout_.hash_home(page);
  const auto it = learned_.find(page);
  return it != learned_.end() ? it->second : kMasterNode;
}

void HomeView::learn(std::uint64_t page, NodeId home) {
  if (!sharded_ || placement_ != HomePlacement::kFirstTouch) return;
  if (layout_.is_shadow(page)) return;
  // Never (re-)learn a route to a dead home: traffic it sent before dying
  // can arrive after the kNodeDead notice (different link, no cross-link
  // order), and caching it would send the next request into a black hole.
  if (dead_.count(home) != 0) return;
  learned_[page] = home;
}

void HomeView::invalidate_home(NodeId dead) {
  if (!sharded_ || placement_ != HomePlacement::kFirstTouch) return;
  dead_.insert(dead);
  for (auto it = learned_.begin(); it != learned_.end();) {
    it = it->second == dead ? learned_.erase(it) : ++it;
  }
}

}  // namespace dqemu::dsm
