// Distributed futex wait-queue table (paper section 4.4).
//
// Lives on the master. FUTEX_WAIT enqueues a (node, tid) waiter under the
// guest address; FUTEX_WAKE dequeues up to `count` waiters in FIFO order.
// The value re-check happens on the *waiting node* while it still holds a
// read copy of the futex page; the coherence protocol guarantees any
// subsequent write (and hence any wake) is ordered after the wait request
// on the master, so no wakeup can be lost (see DESIGN.md §7).
//
// Hierarchical locking (section 5, DESIGN.md §11) adds a per-address
// *lease*: the master may hand the wait queue of one address to a node's
// lock agent (kGranted), which then services wait/wake for that address
// locally. While a recall is in flight (kRecalling) the master buffers
// delegated ops; when the owner returns its queue, the returned waiters
// are spliced to the FRONT (they were enqueued before anything buffered
// during the recall), the buffer is replayed, and the lease moves on.
#pragma once

#include <algorithm>
#include <cassert>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/le_bytes.hpp"
#include "common/types.hpp"

namespace dqemu::sys {

class FutexTable {
 public:
  struct Waiter {
    NodeId node = kInvalidNode;
    GuestTid tid = kInvalidTid;
    /// Causal chain of the FUTEX_WAIT delegation; carried so the deferred
    /// wake response closes the waiter's chain, not the waker's.
    std::uint64_t flow = 0;
    friend bool operator==(const Waiter& a, const Waiter& b) {
      return a.node == b.node && a.tid == b.tid;
    }
  };

  /// Where an address's wait queue currently lives.
  enum class LeasePhase {
    kNone,       ///< master-owned: wait/wake served from `queues_`
    kGranted,    ///< a node's lock agent owns the queue
    kRecalling,  ///< recall in flight; delegated ops are buffered by caller
  };

  /// Enqueues a waiter blocked on `addr`.
  void wait(GuestAddr addr, Waiter waiter) { queues_[addr].push_back(waiter); }

  /// Dequeues up to `count` waiters of `addr`, FIFO.
  [[nodiscard]] std::vector<Waiter> wake(GuestAddr addr, std::uint32_t count) {
    std::vector<Waiter> woken;
    auto it = queues_.find(addr);
    if (it == queues_.end()) return woken;
    auto& queue = it->second;
    while (!queue.empty() && woken.size() < count) {
      woken.push_back(queue.front());
      queue.pop_front();
    }
    if (queue.empty()) queues_.erase(it);
    return woken;
  }

  [[nodiscard]] std::size_t waiters(GuestAddr addr) const {
    auto it = queues_.find(addr);
    return it == queues_.end() ? 0 : it->second.size();
  }

  [[nodiscard]] std::size_t total_waiters() const {
    std::size_t n = 0;
    for (const auto& [addr, queue] : queues_) n += queue.size();
    return n;
  }

  // ---- lease state machine ----------------------------------------------

  [[nodiscard]] LeasePhase lease_phase(GuestAddr addr) const {
    auto it = leases_.find(addr);
    return it == leases_.end() ? LeasePhase::kNone : it->second.phase;
  }

  /// Owner while kGranted, or the owner being recalled while kRecalling.
  [[nodiscard]] NodeId lease_owner(GuestAddr addr) const {
    auto it = leases_.find(addr);
    return it == leases_.end() ? kInvalidNode : it->second.owner;
  }

  [[nodiscard]] TimePs lease_granted_at(GuestAddr addr) const {
    auto it = leases_.find(addr);
    return it == leases_.end() ? 0 : it->second.granted_at;
  }

  /// Node waiting for the lease currently being recalled (kRecalling only).
  [[nodiscard]] NodeId lease_pending_requester(GuestAddr addr) const {
    auto it = leases_.find(addr);
    return it == leases_.end() ? kInvalidNode : it->second.pending_requester;
  }

  /// Grants `addr`'s lease to `owner`, detaching the master's wait queue
  /// (FIFO order preserved) so it can travel in the kLeaseGrant message.
  [[nodiscard]] std::vector<Waiter> grant_lease(GuestAddr addr, NodeId owner,
                                                TimePs now) {
    assert(lease_phase(addr) == LeasePhase::kNone);
    leases_[addr] = LeaseInfo{owner, LeasePhase::kGranted, kInvalidNode, now};
    std::vector<Waiter> queue;
    auto it = queues_.find(addr);
    if (it != queues_.end()) {
      queue.assign(it->second.begin(), it->second.end());
      queues_.erase(it);
    }
    return queue;
  }

  /// Marks `addr` as being recalled on behalf of `requester`.
  void begin_recall(GuestAddr addr, NodeId requester) {
    auto it = leases_.find(addr);
    assert(it != leases_.end() && it->second.phase == LeasePhase::kGranted);
    it->second.phase = LeasePhase::kRecalling;
    it->second.pending_requester = requester;
  }

  /// Ends `addr`'s lease in any phase — a completed recall, a crash
  /// revocation of a granted lease, a dying home's own — and splices the
  /// owner's `returned` queue to the front of the home queue (its waiters
  /// were enqueued before anything the home buffered during a recall).
  /// Returns the node a recall was pending for (kInvalidNode if none), so
  /// the caller can grant it the lease next.
  NodeId end_lease(GuestAddr addr, const std::vector<Waiter>& returned) {
    NodeId requester = kInvalidNode;
    if (auto it = leases_.find(addr); it != leases_.end()) {
      requester = it->second.pending_requester;
      leases_.erase(it);
    }
    if (!returned.empty()) {
      auto& queue = queues_[addr];
      queue.insert(queue.begin(), returned.begin(), returned.end());
    }
    return requester;
  }

  [[nodiscard]] std::size_t leases_out() const { return leases_.size(); }

  // ---- crash recovery / handoff (DESIGN.md §18) --------------------------

  /// Addresses with an outstanding lease record, in sorted order (crash
  /// sweeps need a deterministic iteration order).
  [[nodiscard]] std::vector<GuestAddr> lease_addrs() const {
    std::vector<GuestAddr> addrs;
    addrs.reserve(leases_.size());
    for (const auto& [addr, lease] : leases_) addrs.push_back(addr);
    std::sort(addrs.begin(), addrs.end());
    return addrs;
  }

  /// Dead-node sweep: drops every waiter from `dead` out of every queue.
  /// A dead node's threads re-issue their waits from wherever they re-home;
  /// the stale entries would otherwise eat wakes meant for live waiters.
  /// Lease records are swept by the owning service, which runs the recall
  /// protocol. Returns the number of waiters dropped.
  std::size_t drop_node(NodeId dead) {
    std::size_t dropped = 0;
    for (auto it = queues_.begin(); it != queues_.end();) {
      auto& queue = it->second;
      for (auto w = queue.begin(); w != queue.end();) {
        if (w->node == dead) {
          w = queue.erase(w);
          ++dropped;
        } else {
          ++w;
        }
      }
      it = queue.empty() ? queues_.erase(it) : std::next(it);
    }
    return dropped;
  }

  /// Deterministic whole-table serialization (addresses in sorted order,
  /// little-endian fields) for the crash handoff (kFutexHandoff), which
  /// keeps every waiter's flow id so causal chains survive it, and for
  /// digest(), which writes 0 in place of each flow id. Layout: u64 queue
  /// count, then per queue {u64 addr, u64 n, n packed waiters}; u64 lease
  /// count, then per lease {u64 addr, u32 owner, u32 phase, u32
  /// pending_requester, u32 pad, u64 granted_at}.
  void serialize(std::vector<std::uint8_t>& out, bool keep_flows = true) const {
    std::vector<GuestAddr> addrs;
    addrs.reserve(queues_.size());
    for (const auto& [addr, queue] : queues_) addrs.push_back(addr);
    std::sort(addrs.begin(), addrs.end());
    le::put_u64(out, addrs.size());
    for (const GuestAddr addr : addrs) {
      const auto& queue = queues_.at(addr);
      le::put_u64(out, addr);
      le::put_u64(out, queue.size());
      for (const Waiter& w : queue) put_waiter(out, w, keep_flows);
    }
    addrs.clear();
    for (const auto& [addr, lease] : leases_) addrs.push_back(addr);
    std::sort(addrs.begin(), addrs.end());
    le::put_u64(out, addrs.size());
    for (const GuestAddr addr : addrs) {
      const LeaseInfo& lease = leases_.at(addr);
      le::put_u64(out, addr);
      le::put_u32(out, lease.owner);
      le::put_u32(out, static_cast<std::uint32_t>(lease.phase));
      le::put_u32(out, lease.pending_requester);
      le::put_u32(out, 0);
      le::put_u64(out, lease.granted_at);
    }
  }

  /// Checkpoint digest. Flow ids exist only for the tracer (0 when tracing
  /// is off), so they are left out: a traced run digests exactly like an
  /// untraced one.
  [[nodiscard]] std::uint64_t digest() const {
    std::vector<std::uint8_t> bytes;
    serialize(bytes, /*keep_flows=*/false);
    return fnv1a(bytes);
  }

  /// Installs a serialized table into this one (crash handoff adoption).
  /// The handed-off addresses were homed at the dead node, so this table
  /// has no state for them; queues are appended if one somehow exists.
  void merge_from(std::span<const std::uint8_t> data) {
    le::Reader in(data);
    const std::uint64_t nqueues = in.u64();
    for (std::uint64_t i = 0; i < nqueues; ++i) {
      const auto addr = static_cast<GuestAddr>(in.u64());
      const std::uint64_t n = in.u64();
      auto& queue = queues_[addr];
      for (std::uint64_t j = 0; j < n; ++j) queue.push_back(read_waiter(in));
      if (queue.empty()) queues_.erase(addr);
    }
    const std::uint64_t nleases = in.u64();
    for (std::uint64_t i = 0; i < nleases; ++i) {
      const auto addr = static_cast<GuestAddr>(in.u64());
      LeaseInfo lease;
      lease.owner = static_cast<NodeId>(in.u32());
      lease.phase = static_cast<LeasePhase>(in.u32());
      lease.pending_requester = static_cast<NodeId>(in.u32());
      (void)in.u32();  // pad
      lease.granted_at = in.u64();
      leases_[addr] = lease;
    }
    assert(in.remaining() == 0);
  }

  // ---- wire packing ------------------------------------------------------

  /// 16 bytes per waiter: u32 node, u32 tid, u64 flow (little-endian).
  static constexpr std::size_t kWaiterWireBytes = 16;

  static void pack_waiters(const std::vector<Waiter>& waiters,
                           std::vector<std::uint8_t>& out) {
    out.clear();
    out.reserve(waiters.size() * kWaiterWireBytes);
    for (const Waiter& w : waiters) put_waiter(out, w);
  }

  [[nodiscard]] static std::vector<Waiter> unpack_waiters(
      std::span<const std::uint8_t> data) {
    assert(data.size() % kWaiterWireBytes == 0);
    std::vector<Waiter> waiters;
    waiters.reserve(data.size() / kWaiterWireBytes);
    le::Reader in(data);
    while (in.remaining() != 0) waiters.push_back(read_waiter(in));
    return waiters;
  }

 private:
  static void put_waiter(std::vector<std::uint8_t>& out, const Waiter& w,
                         bool keep_flow = true) {
    le::put_u32(out, w.node);
    le::put_u32(out, w.tid);
    le::put_u64(out, keep_flow ? w.flow : 0);
  }
  static Waiter read_waiter(le::Reader& in) {
    Waiter w;
    w.node = static_cast<NodeId>(in.u32());
    w.tid = in.u32();
    w.flow = in.u64();
    return w;
  }

  struct LeaseInfo {
    NodeId owner = kInvalidNode;
    LeasePhase phase = LeasePhase::kNone;
    NodeId pending_requester = kInvalidNode;
    TimePs granted_at = 0;
  };

  std::unordered_map<GuestAddr, std::deque<Waiter>> queues_;
  std::unordered_map<GuestAddr, LeaseInfo> leases_;
};

}  // namespace dqemu::sys
