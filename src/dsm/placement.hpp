// Home-node placement (DESIGN.md §17).
//
// With home sharding enabled, every guest page — and every futex address,
// via its containing page — has a deterministic *home node* that runs the
// directory / lease / recall state machines for it. Placement comes in two
// flavors:
//
//   kHash        home = 1 + splitmix64(page) % slave_count. A pure function
//                every node computes locally; no request is ever
//                misdirected and the master serves no pages at all (the
//                "thin master" keeps boot, run control and serving).
//   kFirstTouch  the master assigns the first requester of a page as its
//                home. Only the master holds the authoritative map
//                (HomeMap); other nodes keep a learned cache (HomeView)
//                that defaults to the master, and the master relays
//                misdirected requests to the true home (<= 2 hops — a home
//                never moves once assigned).
//
// Shadow-pool pages (page splitting, §5.1) are placed by a static slice
// layout instead of the hash: the pool is divided into one contiguous
// slice per home and each directory shard allocates split shadows from its
// own slice, so home_of stays a pure function of the page number for both
// policies.
//
// With DsmConfig::enable_home_sharding off every function here returns
// kMasterNode and the protocol is bit-for-bit the single-master one.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/config.hpp"
#include "common/types.hpp"
#include "dsm/wire.hpp"

namespace dqemu::dsm {

/// Static placement geometry shared by the master authority and every
/// per-node cache: which nodes serve as homes and how the shadow pool is
/// sliced among them.
struct HomeLayout {
  std::uint32_t slave_count = 0;        ///< homes are nodes 1..slave_count
  std::uint64_t shadow_first_page = 0;  ///< shadow pool bounds (page numbers)
  std::uint64_t shadow_page_count = 0;

  [[nodiscard]] bool is_shadow(std::uint64_t page) const {
    return shadow_page_count != 0 && page >= shadow_first_page &&
           page < shadow_first_page + shadow_page_count;
  }
  /// Even split of the shadow pool; the last home absorbs the remainder.
  [[nodiscard]] std::uint64_t slice_size() const {
    return slave_count == 0 ? 0 : shadow_page_count / slave_count;
  }
  [[nodiscard]] std::uint64_t slice_first(NodeId home) const {
    return shadow_first_page +
           (static_cast<std::uint64_t>(home) - 1) * slice_size();
  }
  [[nodiscard]] std::uint64_t slice_count(NodeId home) const {
    if (home == slave_count) {
      return shadow_page_count -
             (static_cast<std::uint64_t>(slave_count) - 1) * slice_size();
    }
    return slice_size();
  }
  /// Owner of a shadow page under the slice layout.
  [[nodiscard]] NodeId shadow_home(std::uint64_t page) const;
  /// Hash placement for a regular page.
  [[nodiscard]] NodeId hash_home(std::uint64_t page) const;
};

/// The cluster's placement geometry: homes are the slave nodes and the
/// shadow pool occupies the top of guest memory (the single source of the
/// pool math — the Cluster derives its memory layout from this too).
[[nodiscard]] HomeLayout home_layout(const ClusterConfig& config);

/// Master-side placement authority. Under hash placement it is the same
/// pure function every HomeView computes; under first-touch it owns the
/// one true page->home assignment table, built in master processing order
/// (deterministic at every --host-threads count).
class HomeMap {
 public:
  HomeMap() = default;
  HomeMap(const DsmConfig& dsm, const HomeLayout& layout);

  [[nodiscard]] bool sharded() const { return sharded_; }
  [[nodiscard]] const HomeLayout& layout() const { return layout_; }

  /// Authoritative home of `page`; under first-touch, assigns `requester`
  /// as the home on the first call for an unassigned page.
  [[nodiscard]] NodeId home_for(std::uint64_t page, NodeId requester);

  /// Lookup without assignment: kMasterNode for a page first-touch has not
  /// assigned yet (the master fields it and assigns then).
  [[nodiscard]] NodeId home_of(std::uint64_t page) const;

  /// Crash recovery (DESIGN.md §18): re-points every first-touch assignment
  /// held by `dead` to the master, which adopted the shard. A home never
  /// moves while alive, so this is the only mutation of an existing
  /// assignment. Returns how many pages moved. kHash placement cannot
  /// re-home (config validation rejects that combination with crashes).
  std::uint64_t repoint_dead_home(NodeId dead);

 private:
  bool sharded_ = false;
  HomePlacement placement_ = HomePlacement::kHash;
  HomeLayout layout_;
  /// First-touch assignments. Keyed lookups only — never iterated — so the
  /// unordered map cannot perturb determinism.
  std::unordered_map<std::uint64_t, NodeId> assigned_;
};

/// Per-node view of the placement. Hash placement is computed locally;
/// first-touch homes are learned from the `src` of authoritative protocol
/// traffic (grants, retries, recalls, syscall responses) and default to
/// the master, which relays. With sharding off, home_of is kMasterNode.
class HomeView {
 public:
  HomeView() = default;
  HomeView(const DsmConfig& dsm, const HomeLayout& layout);

  [[nodiscard]] bool sharded() const { return sharded_; }
  [[nodiscard]] NodeId home_of(std::uint64_t page) const;
  /// Records that authoritative traffic for `page` came from `home`.
  void learn(std::uint64_t page, NodeId home);

  /// Crash recovery (DESIGN.md §18): drops every learned route that points
  /// at `dead`, falling back to the master (which adopted the shard and
  /// answers authoritatively). Without this a request to a dead home would
  /// black-hole and the re-issue watchdog would ping-pong to it forever.
  void invalidate_home(NodeId dead);

 private:
  bool sharded_ = false;
  HomePlacement placement_ = HomePlacement::kHash;
  HomeLayout layout_;
  std::unordered_map<std::uint64_t, NodeId> learned_;
  /// Homes declared dead; learn() refuses routes to them (late in-flight
  /// traffic from a dying home must not resurrect the stale route).
  std::unordered_set<NodeId> dead_;
};

}  // namespace dqemu::dsm
