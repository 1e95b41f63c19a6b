// Page-level coherence directory (paper section 4.2; DESIGN.md §17).
//
// Classically this lives on the master node; with home sharding enabled it
// is instantiated once per home node, each instance running the same state
// machines for the pages the placement policy assigns to it (the master is
// then one shard among many, mostly idle under hash placement). The
// per-slave manager threads of the paper are modeled as the directory's
// message handlers plus a service delay. For every guest page the
// directory tracks one of:
//   kHome     - content only in home storage (master's memory), no caches
//   kShared   - home fresh; `sharers` nodes hold read-only copies
//   kModified - `owner` holds the only fresh, writable copy
//   kSplit    - page was split for false sharing; accesses are redirected
// Transactions over a page are serialized with a busy flag and a pending
// queue. The directory also hosts the two section-5 optimizations: the
// false-sharing detector + page splitting, and the stream detector + data
// forwarding.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "dsm/stream_detector.hpp"
#include "dsm/wire.hpp"
#include "mem/address_space.hpp"
#include "mem/page_diff.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "trace/tracer.hpp"

namespace dqemu::dsm {

class Directory {
 public:
  enum class PageState : std::uint8_t { kHome, kShared, kModified, kSplit };

  struct Params {
    DsmConfig dsm;
    MachineConfig machine;
    std::uint32_t node_count = 0;
    /// Reserved guest region for shadow pages (never used by applications).
    /// With sharding on, this is the hosting node's *slice* of the pool.
    std::uint32_t shadow_pool_first_page = 0;
    std::uint32_t shadow_pool_page_count = 0;
    /// Node hosting this directory instance: the master classically, the
    /// home node for a shard (DESIGN.md §17).
    NodeId self = kMasterNode;
    /// True for a home shard. A shard does not claim the whole address
    /// space at boot (entries still default to "the master's client owns
    /// the boot content") and only forwards pages it has already served.
    bool sharded = false;
  };

  /// `home` is the hosting node's address space (= home storage for the
  /// pages this instance homes). Unsharded, the directory boots with the
  /// master owning every page except the shadow pool, which starts kHome
  /// with no access anywhere; a shard only claims its shadow slice.
  Directory(net::Network& network, sim::EventQueue& queue,
            mem::AddressSpace& home, Params params,
            StatsRegistry* stats = nullptr, trace::Tracer* tracer = nullptr);

  /// Dispatches a request/ack addressed to this home.
  void handle_message(const net::Message& msg);

  // ---- introspection (tests / reports) ---------------------------------
  [[nodiscard]] PageState state(std::uint32_t page) const {
    return entries_[page].state;
  }
  [[nodiscard]] NodeId owner(std::uint32_t page) const {
    return entries_[page].owner;
  }
  /// Sharer set of nodes 0-31 as a bitmask (test shorthand; nodes 32 and
  /// up are not shown).
  [[nodiscard]] std::uint32_t sharer_mask(std::uint32_t page) const {
    std::uint32_t mask = 0;
    for (NodeId n = 0; n < 32 && n < params_.node_count; ++n) {
      if (entries_[page].sharers.contains(n)) mask |= 1u << n;
    }
    return mask;
  }
  [[nodiscard]] bool busy(std::uint32_t page) const {
    return entries_[page].busy;
  }
  [[nodiscard]] std::uint64_t splits_performed() const { return splits_; }

  /// True when the diff data plane is enabled for this run.
  [[nodiscard]] bool diff_enabled() const {
    return params_.dsm.enable_diff_transfers;
  }
  /// Sentinel for "this node's retained copy has no known version".
  static constexpr std::uint64_t kNoEpoch = ~0ull;
  /// Current content version of `page`'s home copy (0 = boot content).
  [[nodiscard]] std::uint64_t epoch(std::uint32_t page) const;
  /// Version of the copy `node` retains, or kNoEpoch.
  [[nodiscard]] std::uint64_t node_epoch(std::uint32_t page,
                                         NodeId node) const;

  // ---- whole-node fault plane (DESIGN.md §18) --------------------------

  /// kCrashFlush from a dying owner's last gasp: a full-page writeback of a
  /// kReadWrite copy. Applied iff this directory still records the sender
  /// as the Modified owner (otherwise the protocol already moved on and the
  /// flush is stale). When the page is mid-transaction waiting on the dying
  /// owner's recall ack, the flush *is* that writeback and completes the
  /// transaction; otherwise the page is reclaimed home.
  void on_crash_flush(const net::Message& msg);

  /// Dead-node sweep, run in this home's context on kNodeDead (the master
  /// applies it directly at kCrashReport): purges the dead node's queued
  /// requests, removes it from sharer sets, completes transactions stuck
  /// waiting on its acks (the last-gasp flush normally got here first — one
  /// hop beats two), and reclaims any page it still appears to own. Pages
  /// reclaimed without a flush keep their stale home bytes: a crash without
  /// a last gasp loses unflushed writes, deterministically.
  void on_node_dead(NodeId dead);

  /// Sorted list of pages this shard services (the last-gasp kHomeHandoff
  /// set). Empty for an unsharded directory — the master never crashes.
  [[nodiscard]] std::vector<std::uint32_t> handoff_pages() const;

  /// Serializes one page's entry for a kHomeHandoff payload: the stable
  /// fields only (state, owner, sharers, shadow list) plus the home bytes
  /// when the home copy is authoritative (kHome / kShared). Transient state
  /// (busy flag, current transaction, pending queue, diff versions, stream
  /// and false-sharing detectors) is deliberately dropped: requesters'
  /// watchdogs re-issue anything in flight against the adopting home, and
  /// dropped diff state just means the first post-crash transfer is full.
  void serialize_entry(std::uint32_t page,
                       std::vector<std::uint8_t>& out) const;

  /// Master-side adoption of one kHomeHandoff payload: installs the entry
  /// verbatim, copies authoritative content into home storage, and marks
  /// the page as serviced here so relays stop.
  void adopt_entry(std::uint32_t page, std::span<const std::uint8_t> data);

  /// FNV-1a fingerprint of the directory's page state (checkpoint
  /// component, DESIGN.md §18): per serviced page, the coherence fields in
  /// page order. Page *content* is not folded here — the nodes' address
  /// spaces carry it, and they are digested separately.
  [[nodiscard]] std::uint64_t digest() const;

  /// Structural invariants: Modified pages have no sharers, split pages
  /// are fully drained, shadow allocations stay in the pool. Returns false
  /// and logs on violation.
  [[nodiscard]] bool check_invariants() const;

 private:
  struct Request {
    NodeId node = kInvalidNode;
    bool write = false;
    std::uint32_t offset = 0;
    GuestTid tid = 0;
    std::uint64_t flow = 0;  ///< causal chain of the originating fault
  };

  struct Entry {
    PageState state = PageState::kModified;
    NodeId owner = kMasterNode;
    NodeSet sharers;  ///< nodes holding read-only copies
    bool busy = false;
    bool splitting = false;
    std::uint32_t acks_outstanding = 0;
    Request current;
    std::deque<Request> queue;
    // False-sharing detector (section 5.1).
    NodeId fs_last_node = kInvalidNode;
    std::uint8_t fs_last_shard = 0xFF;
    std::uint16_t fs_count = 0;
  };

  /// Per-page version bookkeeping for the diff data plane (DESIGN.md §12).
  /// Sparse: allocated the first time a page's content actually moves, so
  /// untouched pages cost nothing. `epoch` counts home-content versions;
  /// `history` holds the dirty-line masks of the most recent transitions
  /// (newest at the back: history.back() took the home copy to `epoch`);
  /// `node_epoch[n]` is the version node n's retained bytes correspond to
  /// (kNoEpoch = never sent / untracked).
  struct DiffState {
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> node_epoch;
    std::vector<std::uint64_t> history;  ///< bounded by diff_history_depth
  };

  void on_request(const net::Message& msg, bool write);
  void on_inv_ack(const net::Message& msg);
  void on_downgrade_ack(const net::Message& msg);
  /// Applies a diff-encoded writeback to the home copy and advances the
  /// page's epoch/history. Shared tail of the InvAckDiff/DowngradeAckDiff
  /// handlers; returns the decoded dirty mask.
  std::uint64_t apply_writeback_diff(const net::Message& msg);

  // ---- diff data plane ---------------------------------------------------
  [[nodiscard]] DiffState& diff_state(std::uint32_t page);
  /// Records a home-content change: `known_mask` when the changed lines
  /// are exactly known (diff writeback), or unknown (full-page writeback,
  /// in-place master downgrade), which clears the history so every stale
  /// copy falls back to a full transfer.
  void record_home_update(std::uint32_t page, std::uint64_t mask, bool known);
  /// Records that `node`'s retained copy now equals the current epoch.
  void record_node_copy(std::uint32_t page, NodeId node);
  /// Builds the content-carrying part of a grant/forward to `dst`: a
  /// kPageDiff/kForwardDiff against the version `dst` retains when the
  /// history covers it, else the full-page kPageData/kForwardData.
  [[nodiscard]] net::Message make_data_message(NodeId dst, std::uint32_t page,
                                               std::uint64_t access,
                                               bool forward);

  /// Begins servicing `req` on an idle entry (sets busy, sends recalls or
  /// completes immediately).
  void start_transaction(std::uint32_t page, const Request& req);
  /// Called when all recalls have been acknowledged.
  void complete_transaction(std::uint32_t page);
  /// Grants the page to the current requester and finishes the entry.
  void grant_and_finish(std::uint32_t page);
  /// Pops the next queued request, if any.
  void finish_entry(std::uint32_t page);

  // Page splitting.
  [[nodiscard]] bool should_split(const Entry& entry, std::uint32_t page) const;
  void note_write_pattern(Entry& entry, NodeId node, std::uint32_t offset);
  void perform_split(std::uint32_t page);

  // Data forwarding.
  void maybe_forward(NodeId requester, std::uint32_t page);

  void send(net::Message msg);
  /// send() with the message stamped into causal chain `flow`.
  void send_chained(net::Message msg, std::uint64_t flow);
  [[nodiscard]] net::Message make(NodeId dst, DsmMsg type,
                                  std::uint64_t a = 0, std::uint64_t b = 0) const;
  [[nodiscard]] bool in_shadow_pool(std::uint32_t page) const {
    return page >= params_.shadow_pool_first_page &&
           page < params_.shadow_pool_first_page +
                      params_.shadow_pool_page_count;
  }

  net::Network& network_;
  sim::EventQueue& queue_;
  mem::AddressSpace& home_;
  Params params_;
  StatsRegistry* stats_;
  trace::Site trace_;  ///< kDsm records on this home's manager track
  std::vector<Entry> entries_;
  std::vector<StreamDetector> streams_;  ///< per requesting node
  /// Per-slave manager thread occupancy (serializes demand replies).
  std::vector<TimePs> manager_free_;
  std::vector<std::vector<std::uint32_t>> shadow_of_;  ///< page -> shadows
  std::uint32_t shadow_next_;  ///< next unallocated shadow page
  std::uint64_t splits_ = 0;
  /// Sharded only: pages this instance has serviced a request for. The
  /// forwarding window is restricted to them so a shard never speculates
  /// on pages homed elsewhere (for first-touch this doubles as the learned
  /// "assigned to me" set; the master relays until it is populated).
  std::vector<bool> homed_;
  /// Per-shard protocol-message counter name ("dsm.home_msgs.<self>") for
  /// the directory-load-evenness report.
  std::string home_msgs_counter_;
  /// page -> version bookkeeping (diff data plane only, lazily created).
  std::unordered_map<std::uint32_t, DiffState> diff_;
  /// Nodes declared dead (DESIGN.md §18): their requests are dropped and
  /// no page is ever granted to them.
  std::unordered_set<NodeId> dead_nodes_;
  /// Shadow pages adopted from a dead home's pool slice: outside this
  /// instance's own slice, but legitimate split targets all the same.
  std::unordered_set<std::uint32_t> foreign_shadow_;
};

}  // namespace dqemu::dsm
