// Per-node lock agent: the node half of hierarchical distributed locking
// (paper section 5, DESIGN.md section 11).
//
// Every node owns one agent. While the agent holds the master-granted
// ownership lease for a futex address, FUTEX_WAIT parks the thread in the
// agent's local queue and FUTEX_WAKE grants the lock to a parked thread
// without any master round trip — the dominant cost of the fig6
// global-mutex scenario. For addresses it does not own, the agent merely
// counts delegated traffic and requests the lease once the address proves
// hot (lease_request_threshold).
//
// Wake policy (lock cohorting): a wake prefers the oldest *local* waiter
// for up to `lock_cohort_limit` consecutive local grants, then must serve
// the oldest waiter overall. This keeps lock handoff on-node (the whole
// point of the lease) while bounding cross-node starvation. With
// SysConfig::enable_hierarchical_locking off no agent ever asks for a
// lease, and every futex op takes the master-delegation path.
//
// The agent builds the node-side protocol messages: kLeaseReq, kLeaseReturn,
// kWakeBatch, the kSyscallResp of a remote waiter (respond) and
// the kCrashLeaseReturn of the fault plane (crash_return).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "common/stats.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sys/futex_table.hpp"
#include "sys/wire.hpp"
#include "trace/tracer.hpp"

namespace dqemu::sys {

class LockAgent {
 public:
  /// Unblocks a locally-parked thread: the core layer completes the
  /// thread's pending FUTEX_WAIT with result 0 (after charging the agent's
  /// local service cost). `flow` is the waiter's causal chain.
  using WakeLocalFn = std::function<void(GuestTid tid, std::uint64_t flow)>;

  /// Maps a futex address to the node whose FutexService arbitrates its
  /// lease: the master unless home sharding is on (DESIGN.md §17). Lease
  /// *returns* go to whichever home sent the recall, so they need none.
  using HomeResolver = std::function<NodeId(GuestAddr)>;

  /// `keep_returns` keeps a copy of each lease return sent, which the
  /// fault plane replays to the master if the recalling home dies with the
  /// return in flight (DESIGN.md §18); off on a fault-free network.
  LockAgent(NodeId id, sim::EventQueue& queue, net::Network& network,
            StatsRegistry& stats, trace::Tracer* tracer, HomeResolver home_of,
            WakeLocalFn wake_local, bool keep_returns);

  /// True when this agent holds the lease for `addr`.
  [[nodiscard]] bool owns(GuestAddr addr) const {
    return owned_.contains(addr);
  }

  /// Parks a local thread on an owned address (the caller already did the
  /// section-4.4 value re-check).
  void local_wait(GuestAddr addr, GuestTid tid, std::uint64_t flow);

  /// Wakes up to `count` waiters of an owned address; returns the number
  /// woken. Local waiters complete via WakeLocalFn; remote waiters get a
  /// direct kSyscallResp, or one kWakeBatch per node when several wake at
  /// once.
  std::uint32_t local_wake(GuestAddr addr, std::uint32_t count);

  /// Notes one futex op on a non-owned address that is being delegated to
  /// the master; sends a kLeaseReq once the address crosses the request
  /// threshold.
  void note_delegated(GuestAddr addr);

  /// True for message types this agent consumes (lease grant/recall and
  /// cross-node handoffs).
  [[nodiscard]] static bool handles(std::uint32_t type) {
    switch (static_cast<SysMsg>(type)) {
      case SysMsg::kLeaseGrant:
      case SysMsg::kLeaseRecall:
      case SysMsg::kWaitHandoff:
      case SysMsg::kWakeHandoff:
        return true;
      default:
        return false;
    }
  }

  void handle_message(const net::Message& msg);

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------

  /// Delivers a returned queue to a home service hosted on this same node
  /// (a loopback message would arrive after the dying shard is serialized).
  using LocalRevokeFn =
      std::function<void(GuestAddr, const std::vector<FutexTable::Waiter>&)>;

  /// Crash last gasp, run in this node's own execution context: returns
  /// every owned lease — queue included, so no waiter dies with the node —
  /// to its home as a kCrashLeaseReturn ("reliable by fiat"; a droppable
  /// kLeaseReturn would strand the queue, because the retransmit timer dies
  /// with the node). Self-homed leases go through `local_revoke` instead.
  /// Addresses are processed in sorted order for run-to-run determinism.
  void return_all(const LocalRevokeFn& local_revoke);

  /// Survivor-side reaction to a kNodeDead notice, run in this node's own
  /// context: drops the dead node's waiters from owned queues (granting
  /// them the lock would lose it forever) and re-sends, to the master that
  /// adopted the dead home, any lease return this agent had in flight to
  /// it — the original was black-holed at the silenced node.
  void on_peer_dead(NodeId dead);

 private:
  struct Entry {
    std::deque<FutexTable::Waiter> queue;
    /// Consecutive wakes served to local waiters out of FIFO order.
    std::uint32_t local_streak = 0;
  };

  void on_lease_grant(const net::Message& msg);
  void on_lease_recall(const net::Message& msg);
  void on_wait_handoff(const net::Message& msg);
  void on_wake_handoff(const net::Message& msg);

  /// Dequeues up to `count` waiters of `entry` under the cohorting policy
  /// and delivers their wakes. Returns the number woken.
  std::uint32_t wake_from_entry(GuestAddr addr, Entry& entry,
                                std::uint32_t count);
  /// Sends the kSyscallResp that completes `tid`'s futex call on `node`.
  void respond(NodeId node, GuestTid tid, std::int64_t result,
               std::uint64_t flow);
  /// Sends `home` a kCrashLeaseReturn of `addr` carrying `queue`.
  void crash_return(NodeId home, GuestAddr addr,
                    const std::vector<FutexTable::Waiter>& queue);

  NodeId id_;
  sim::EventQueue& queue_;
  net::Network& network_;
  StatsRegistry& stats_;
  trace::Site trace_;  ///< kSys records on this node's track
  HomeResolver home_of_;
  WakeLocalFn wake_local_;
  bool keep_returns_;

  std::unordered_map<GuestAddr, Entry> owned_;
  /// Delegated-op counts for addresses we do not own (reset on request).
  std::unordered_map<GuestAddr, std::uint32_t> delegated_ops_;
  /// Last lease return sent per address (kept only with keep_returns_):
  /// destination home + the returned queue, so a return lost to a
  /// crashing home can be re-sent to the master that adopted it. Replaced
  /// by the next recall's return; cleared when the lease comes back.
  struct SentReturn {
    NodeId home = kInvalidNode;
    std::vector<FutexTable::Waiter> queue;
  };
  std::unordered_map<GuestAddr, SentReturn> sent_returns_;
};

}  // namespace dqemu::sys
