// Per-home futex + lease service (paper section 4.3; DESIGN.md §11, §17).
//
// The futex wait/wake arbitration and the hierarchical-locking lease
// protocol of one home. The master, home 0, always hosts one; with home
// sharding every node hosts one and serves the futex addresses whose
// containing *page* it homes. Keeping the futex home equal to the page's
// DSM home is what preserves the no-lost-wakeup argument (§7/§11) per
// home: the waiter's value re-check, the racing writer's invalidation and
// the wait request all serialize through one node's FIFO channels.
//
// The service builds the home side of the plane: kLeaseGrant (grant),
// kLeaseRecall (send_recall), the wait/wake handoffs, and every
// kSyscallResp the home sends (send_response). Home 0's send_response
// also answers everything the master's syscall engine and serving plane
// serve. A lease ends only through FutexTable::end_lease.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/timer.hpp"
#include "sys/futex_table.hpp"
#include "sys/wire.hpp"
#include "trace/tracer.hpp"

namespace dqemu::sys {

struct SyscallRequest;  // sys/master_syscalls.hpp

class FutexService {
 public:
  /// `self` is the hosting node (kMasterNode classically); responses and
  /// protocol messages are sent from it, and its event `queue` carries the
  /// service delays and recall watchdogs (the node's own queue under the
  /// parallel kernel). A lease younger than `lease_min_hold` is never
  /// recalled. With a non-zero `recall_timeout` every outstanding recall
  /// gets a watchdog that re-sends the kLeaseRecall (DESIGN.md §13); pass 0
  /// over a fault-free network, where a recall cannot get lost.
  FutexService(NodeId self, net::Network& network, sim::EventQueue& queue,
               MachineConfig machine, DurationPs lease_min_hold,
               DurationPs recall_timeout, StatsRegistry& stats,
               trace::Tracer* tracer = nullptr);

  [[nodiscard]] FutexTable& table() { return futexes_; }
  [[nodiscard]] NodeId self() const { return self_; }

  /// True for the home-plane messages this service consumes: kSyscallReq
  /// (futex only), kLeaseReq, kLeaseReturn. On the master a kSyscallReq
  /// stops at the syscall engine first, which calls do_futex itself.
  [[nodiscard]] static bool handles(std::uint32_t type) {
    switch (static_cast<SysMsg>(type)) {
      case SysMsg::kSyscallReq:
      case SysMsg::kLeaseReq:
      case SysMsg::kLeaseReturn:
        return true;
      default:
        return false;
    }
  }

  /// Dispatches a home-plane message (see handles()). kSyscallReq bodies
  /// must decode to a futex call; the requester is the wire-level sender
  /// unless the master relay-marked the message (dsm::relay_mark).
  void handle_message(const net::Message& msg);

  /// Serves a decoded futex call (wait/wake/lease fast paths; DESIGN.md
  /// §11). Responses are deferred for waits.
  void do_futex(const SyscallRequest& req);

  /// kExit ctid wake: wakes every joiner parked on `ctid`, routing through
  /// the lease state exactly like a wake with nobody awaiting the count.
  void exit_wake(const SyscallRequest& req, GuestAddr ctid);

  /// Sends the kSyscallResp that unblocks (dst, tid) after the manager
  /// service delay, the same delay every response pays, so per-channel
  /// FIFO order follows home processing order. Home 0 also answers every
  /// syscall the master serves: MasterSyscalls and the serving plane
  /// reply through it.
  void send_response(NodeId dst, GuestTid tid, std::int64_t result,
                     std::uint64_t flow,
                     std::span<const std::uint8_t> payload = {});

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------

  /// A kCrashLeaseReturn from `src`: a dying owner's unsolicited return of
  /// a kGranted lease (revocation), a crashed-or-surviving agent's replay
  /// of a return lost to a dead home (completes the kRecalling lease), or
  /// stale (the protocol already moved on — dropped by the phase/owner
  /// check, exactly like a duplicate watchdog return).
  void on_crash_lease_return(NodeId src, GuestAddr addr,
                             const std::vector<FutexTable::Waiter>& returned);

  /// Crash revocation on the *dying node's own* home, called synchronously
  /// from the last gasp before the shard is serialized for handoff: drops
  /// the lease record whatever its phase and splices the returned queue
  /// back in. Buffered mid-recall ops stay buffered and ride the handoff;
  /// the master replays them at adoption.
  void crash_revoke_local(GuestAddr addr,
                          const std::vector<FutexTable::Waiter>& returned);

  /// Dead-node sweep, run in this home's own context on kNodeDead: drops
  /// the dead node's waiters and buffered ops, revokes leases it still
  /// appears to own (fallback — its last gasp normally got here first, one
  /// hop beats two), and completes recalls stuck on it.
  void on_node_dead(NodeId dead);

  /// Serializes this home's futex/lease state (table + recall buffers) for
  /// the kFutexHandoff message and cancels the recall watchdogs; part of
  /// the last gasp. Layout: u64 table length, serialized table, then the
  /// recall buffers in sorted address order.
  void serialize_for_handoff(std::vector<std::uint8_t>& out);

  /// Master-side adoption of a dead home's handoff: merges the table,
  /// installs the recall buffers (replaying those whose address is now
  /// home-owned) and re-arms recall watchdogs for adopted in-flight
  /// recalls — the dead home's watchdogs died with it.
  void adopt_handoff(std::span<const std::uint8_t> data);

  /// Crash teardown: cancels every pending recall watchdog so nothing
  /// fires into a dead node's protocol state.
  void cancel_watchdogs() { recall_watchdogs_.clear(); }

 private:
  /// A futex op that arrived while its address's lease was being recalled;
  /// replayed against the home queue when the owner returns the lease.
  struct BufferedFutexOp {
    NodeId src = kInvalidNode;
    GuestTid tid = kInvalidTid;
    std::uint32_t op = 0;
    std::uint32_t count = 0;
    std::uint64_t flow = 0;
  };

  /// Wakes up to `count` waiters of a home-owned address and sends the
  /// deferred responses; returns the number woken.
  std::uint32_t home_wake(GuestAddr addr, std::uint32_t count);
  /// Forwards a wait/wake on a leased address to its owner agent. Nobody
  /// awaits a forwarded wake's count (kWakeHandoff).
  void forward_wait(const SyscallRequest& req);
  void forward_wake(GuestAddr addr, std::uint32_t count, std::uint64_t flow);
  void on_lease_request(const net::Message& msg);
  void on_lease_return(const net::Message& msg);
  /// Grants `addr`'s lease to `owner`: detaches the home queue and ships it
  /// in the kLeaseGrant.
  void grant(GuestAddr addr, NodeId owner, std::uint64_t flow);
  /// Sends `owner` the kLeaseRecall for `addr` (first recall or watchdog
  /// re-send).
  void send_recall(GuestAddr addr, NodeId owner, std::uint64_t flow);
  /// Crash revocation of a kGranted lease: the owner is dead or dying, and
  /// `returned` (possibly empty) becomes the front of the home queue.
  void revoke(GuestAddr addr, const std::vector<FutexTable::Waiter>& returned);
  /// Shared tail of a completed recall (normal return or crash replay):
  /// stop the watchdog, splice the returned queue, replay the buffered
  /// ops, grant to the pending requester — unless that requester is dead,
  /// in which case the queue stays home-owned.
  void complete_recall(GuestAddr addr,
                       const std::vector<FutexTable::Waiter>& returned,
                       std::uint64_t fallback_flow);
  /// Replays (and clears) `addr`'s buffered mid-recall ops against the
  /// home-owned queue, in arrival order.
  void replay_buffered(GuestAddr addr);
  /// Arms (or re-arms after backoff) the recall watchdog for `addr`.
  void arm_recall_watchdog(GuestAddr addr, DurationPs timeout);
  /// Watchdog fire: the recall (or its return) is presumed stuck somewhere
  /// on the lossy wire — re-send the kLeaseRecall. Safe because the lock
  /// agent treats a recall for a lease it no longer owns as a no-op.
  void on_recall_timeout(GuestAddr addr);
  /// Lease-protocol messages hit the wire at processing time — see the
  /// ordering comment in futex_home.cpp.
  void send_protocol(net::Message msg);

  NodeId self_;
  net::Network& network_;
  sim::EventQueue& queue_;
  MachineConfig machine_;
  DurationPs lease_min_hold_;
  DurationPs recall_timeout_;
  StatsRegistry& stats_;
  trace::Site trace_;  ///< kSys records on this home's manager track
  FutexTable futexes_;
  /// Ops buffered per address while a recall is in flight (arrival order).
  std::unordered_map<GuestAddr, std::vector<BufferedFutexOp>> recall_buffer_;
  /// Causal chain of the lease request that triggered the pending recall.
  std::unordered_map<GuestAddr, std::uint64_t> pending_lease_flow_;
  /// Per-address recall watchdog (fault model only): timer + current
  /// backed-off period. Erased when the lease comes home.
  struct RecallWatchdog {
    std::unique_ptr<sim::Timer> timer;
    DurationPs timeout = 0;
  };
  std::unordered_map<GuestAddr, RecallWatchdog> recall_watchdogs_;
  /// Nodes declared dead (DESIGN.md §18): their late-arriving ops are
  /// dropped and no lease or wake is ever granted to them.
  std::unordered_set<NodeId> dead_nodes_;
  /// "sys.futex_home_msgs.<self>": per-home futex-plane message counter.
  std::string home_msgs_counter_;
};

}  // namespace dqemu::sys
