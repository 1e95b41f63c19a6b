#include "sys/futex_home.hpp"

#include <algorithm>
#include <cassert>

#include "common/le_bytes.hpp"
#include "common/log.hpp"
#include "isa/syscall_abi.hpp"
#include "sys/master_syscalls.hpp"

namespace dqemu::sys {

FutexService::FutexService(NodeId self, net::Network& network,
                           sim::EventQueue& queue, MachineConfig machine,
                           DurationPs lease_min_hold, DurationPs recall_timeout,
                           StatsRegistry* stats, trace::Tracer* tracer)
    : self_(self),
      network_(network),
      queue_(queue),
      machine_(machine),
      lease_min_hold_(lease_min_hold),
      recall_timeout_(recall_timeout),
      stats_(stats),
      trace_{tracer, trace::Cat::kSys, self, trace::kTrackManager},
      home_msgs_counter_("sys.futex_home_msgs." + std::to_string(self)) {}

// Lease-protocol messages must hit the wire at processing time, not after a
// modeled service delay: the no-lost-wakeup argument (DESIGN.md §11) needs
// home *send* order to equal home *processing* order across every component
// resident on the home node. The DSM directory (of this home) shares the
// home->node FIFO channels; if a wait handoff lingered for the service delay
// while the directory released the write grant that lets the lease owner
// complete its unlock store, the owner's wake could run against a queue
// that does not yet hold the handed-off waiter. The per-endpoint network
// overhead already charges the software cost of these messages.
void FutexService::send_protocol(net::Message msg) {
  network_.send(std::move(msg));
}

void FutexService::send_response(NodeId dst, GuestTid tid, std::int64_t result,
                                 std::uint64_t flow,
                                 std::span<const std::uint8_t> payload) {
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = static_cast<std::uint32_t>(SysMsg::kSyscallResp);
  msg.a = static_cast<std::uint64_t>(result);
  msg.b = tid;
  msg.data.assign(payload.begin(), payload.end());
  msg.flow = flow;
  queue_.schedule_in(machine_.cycles(DbtConfig::syscall_service_cycles),
                     [this, m = std::move(msg)]() mutable {
                       network_.send(std::move(m));
                     });
}

void FutexService::handle_message(const net::Message& msg) {
  // Per-home load counter; only slave-hosted homes tick it so the master's
  // stats are untouched when sharding is off.
  if (stats_ != nullptr && self_ != kMasterNode) {
    stats_->add(home_msgs_counter_);
  }
  switch (static_cast<SysMsg>(msg.type)) {
    case SysMsg::kLeaseReq:
      on_lease_request(msg);
      return;
    case SysMsg::kLeaseReturn:
      on_lease_return(msg);
      return;
    case SysMsg::kSyscallReq:
      break;  // decoded below
    default:
      assert(false && "not a futex-home sys message");
      return;
  }
  SyscallRequest req = parse_syscall_request(msg);
  req.src = relayed_requester(msg, msg.c);
  assert(req.num == isa::Sys::kFutex &&
         "only futex syscalls are homed off-master");
  if (stats_ != nullptr) stats_->add("sys.delegated");
  trace_.step(queue_.now(), "sys.service", req.flow, msg.a, req.tid);
  do_futex(req);
}

std::uint32_t FutexService::home_wake(GuestAddr addr, std::uint32_t count) {
  const auto woken = futexes_.wake(addr, count);
  for (const FutexTable::Waiter& waiter : woken) {
    // The deferred response rides the *waiter's* chain: the trace shows
    // wait -> (this wake) -> response as one causal arc.
    trace_.step(queue_.now(), "sys.futex_wake", waiter.flow, addr, waiter.tid);
    send_response(waiter.node, waiter.tid, 0, waiter.flow);
  }
  return static_cast<std::uint32_t>(woken.size());
}

void FutexService::forward_wait(const SyscallRequest& req) {
  const GuestAddr addr = req.args[0];
  net::Message msg;
  msg.src = self_;
  msg.dst = futexes_.lease_owner(addr);
  msg.type = static_cast<std::uint32_t>(SysMsg::kWaitHandoff);
  msg.a = addr;
  msg.b = req.tid;
  msg.c = req.src;
  msg.flow = req.flow;
  if (stats_ != nullptr) stats_->add("sys.lease_handoffs");
  trace_.step(queue_.now(), "sys.lock_handoff", req.flow, addr, req.tid);
  send_protocol(std::move(msg));
}

void FutexService::forward_wake(GuestAddr addr, std::uint32_t count,
                                NodeId requester, GuestTid requester_tid,
                                std::uint64_t flow) {
  net::Message msg;
  msg.src = self_;
  msg.dst = futexes_.lease_owner(addr);
  msg.type = static_cast<std::uint32_t>(SysMsg::kWakeHandoff);
  msg.a = addr;
  msg.b = count;
  const std::uint64_t who =
      requester == kInvalidNode ? kNoWakeResponse : requester;
  msg.c = (who << 32) | requester_tid;
  msg.flow = flow;
  if (stats_ != nullptr) stats_->add("sys.lease_handoffs");
  trace_.step(queue_.now(), "sys.lock_handoff", flow, addr, count);
  send_protocol(std::move(msg));
}

void FutexService::do_futex(const SyscallRequest& req) {
  // A dead requester's op can still arrive (it was in flight, or relayed,
  // when the crash hit). Enqueueing it would eat a wake meant for a live
  // waiter; answering it would be black-holed anyway.
  if (dead_nodes_.count(req.src) != 0) {
    if (stats_ != nullptr) stats_->add("sys.dead_ops_dropped");
    return;
  }
  const GuestAddr addr = req.args[0];
  const std::uint32_t op = req.args[1];
  const FutexTable::LeasePhase phase = futexes_.lease_phase(addr);
  if (op == isa::kFutexWait) {
    if (phase == FutexTable::LeasePhase::kGranted) {
      forward_wait(req);
      return;  // deferred response, now owed by the lease owner
    }
    if (phase == FutexTable::LeasePhase::kRecalling) {
      recall_buffer_[addr].push_back(BufferedFutexOp{
          req.src, req.tid, op, 0, req.flow, /*respond=*/true});
      return;
    }
    // The caller's node already verified *addr == expected while holding a
    // read copy; the protocol orders any racing write (and its wake) after
    // this request, so enqueueing unconditionally cannot lose a wakeup.
    futexes_.wait(addr, FutexTable::Waiter{req.src, req.tid, req.flow});
    if (stats_ != nullptr) stats_->add("sys.futex_waits");
    trace_.step(queue_.now(), "sys.futex_wait", req.flow, addr,
                futexes_.waiters(addr));
    return;  // deferred response
  }
  if (op == isa::kFutexWake) {
    // The hierarchical path marks wakes fire-and-forget (kFutexAsyncWake):
    // the waker's agent already acknowledged the syscall, nobody awaits
    // the count.
    const bool respond = (req.args[3] & kFutexAsyncWake) == 0;
    if (phase == FutexTable::LeasePhase::kGranted) {
      forward_wake(addr, req.args[2], respond ? req.src : kInvalidNode,
                   req.tid, req.flow);
      return;  // the owner answers the requester directly (if anyone does)
    }
    if (phase == FutexTable::LeasePhase::kRecalling) {
      recall_buffer_[addr].push_back(BufferedFutexOp{
          req.src, req.tid, op, req.args[2], req.flow, respond});
      return;
    }
    const std::uint32_t woken = home_wake(addr, req.args[2]);
    if (stats_ != nullptr) stats_->add("sys.futex_wakes", woken);
    if (respond) send_response(req.src, req.tid, woken, req.flow);
    return;
  }
  send_response(req.src, req.tid, -isa::kEINVAL, req.flow);
}

void FutexService::exit_wake(const SyscallRequest& req, GuestAddr ctid) {
  // The exiting thread never awaits a count, hence no response either way.
  switch (futexes_.lease_phase(ctid)) {
    case FutexTable::LeasePhase::kGranted:
      forward_wake(ctid, UINT32_MAX, kInvalidNode, 0, req.flow);
      break;
    case FutexTable::LeasePhase::kRecalling:
      recall_buffer_[ctid].push_back(BufferedFutexOp{
          req.src, req.tid, isa::kFutexWake, UINT32_MAX, req.flow,
          /*respond=*/false});
      break;
    case FutexTable::LeasePhase::kNone:
      (void)home_wake(ctid, UINT32_MAX);
      break;
  }
}

// ---------------------------------------------------------------------------
// Lease protocol (hierarchical locking, DESIGN.md section 11)
// ---------------------------------------------------------------------------

void FutexService::on_lease_request(const net::Message& msg) {
  const auto addr = static_cast<GuestAddr>(msg.a);
  const NodeId requester = relayed_requester(msg, msg.c);
  if (dead_nodes_.count(requester) != 0) {
    if (stats_ != nullptr) stats_->add("sys.dead_ops_dropped");
    return;  // never grant a lease to a dead node
  }
  switch (futexes_.lease_phase(addr)) {
    case FutexTable::LeasePhase::kNone:
      grant(addr, requester, msg.flow);
      return;
    case FutexTable::LeasePhase::kGranted: {
      const NodeId owner = futexes_.lease_owner(addr);
      if (owner == requester) return;  // crossed its own grant in flight
      if (queue_.now() - futexes_.lease_granted_at(addr) < lease_min_hold_) {
        return;  // too young to recall; the requester retries when still hot
      }
      futexes_.begin_recall(addr, requester);
      pending_lease_flow_[addr] = msg.flow;
      if (stats_ != nullptr) stats_->add("sys.lease_recalls");
      trace_.step(queue_.now(), "sys.lease_recall", msg.flow, addr, owner);
      send_recall(addr, owner, msg.flow);
      if (recall_timeout_ > 0 && network_.faults_active()) {
        arm_recall_watchdog(addr, recall_timeout_);
      }
      return;
    }
    case FutexTable::LeasePhase::kRecalling:
      return;  // already moving; the loser re-requests if still interested
  }
}

void FutexService::on_lease_return(const net::Message& msg) {
  const auto addr = static_cast<GuestAddr>(msg.a);
  if (futexes_.lease_phase(addr) != FutexTable::LeasePhase::kRecalling) {
    // Not recalling this address: a stale return (the fault model's
    // watchdog can make the agent and home race). Dropping it is safe —
    // whatever state the return carried was already applied.
    if (stats_ != nullptr) stats_->add("sys.stale_lease_returns");
    return;
  }
  complete_recall(addr, FutexTable::unpack_waiters(msg.data), msg.flow);
}

void FutexService::grant(GuestAddr addr, NodeId owner, std::uint64_t flow) {
  const auto queue = futexes_.grant_lease(addr, owner, queue_.now());
  if (stats_ != nullptr) stats_->add("sys.lease_grants");
  trace_.step(queue_.now(), "sys.lease_grant", flow, addr, queue.size());
  net::Message msg;
  msg.src = self_;
  msg.dst = owner;
  msg.type = static_cast<std::uint32_t>(SysMsg::kLeaseGrant);
  msg.a = addr;
  msg.flow = flow;
  FutexTable::pack_waiters(queue, msg.data);
  send_protocol(std::move(msg));
}

void FutexService::send_recall(GuestAddr addr, NodeId owner,
                               std::uint64_t flow) {
  net::Message msg;
  msg.src = self_;
  msg.dst = owner;
  msg.type = static_cast<std::uint32_t>(SysMsg::kLeaseRecall);
  msg.a = addr;
  msg.flow = flow;
  send_protocol(std::move(msg));
}

void FutexService::complete_recall(
    GuestAddr addr, const std::vector<FutexTable::Waiter>& returned,
    std::uint64_t fallback_flow) {
  recall_watchdogs_.erase(addr);
  const NodeId next_owner = futexes_.end_lease(addr, returned);

  // Replay everything that arrived mid-recall, in arrival order, against
  // the home-owned queue (returned waiters were spliced to its front).
  replay_buffered(addr);

  // Hand the lease (and whatever the queue now holds) to the recaller.
  std::uint64_t flow = fallback_flow;
  auto pending = pending_lease_flow_.find(addr);
  if (pending != pending_lease_flow_.end()) {
    flow = pending->second;
    pending_lease_flow_.erase(pending);
  }
  if (dead_nodes_.count(next_owner) != 0) {
    // The requester died while its recall was in flight: the queue stays
    // home-owned and survivors re-request if the address is still hot.
    if (stats_ != nullptr) stats_->add("sys.dead_grants_skipped");
    return;
  }
  grant(addr, next_owner, flow);
}

void FutexService::arm_recall_watchdog(GuestAddr addr, DurationPs timeout) {
  RecallWatchdog& wd = recall_watchdogs_[addr];
  if (wd.timer == nullptr) wd.timer = std::make_unique<sim::Timer>(queue_);
  wd.timeout = timeout;
  wd.timer->arm(timeout, [this, addr] { on_recall_timeout(addr); });
}

void FutexService::on_recall_timeout(GuestAddr addr) {
  if (futexes_.lease_phase(addr) != FutexTable::LeasePhase::kRecalling) {
    recall_watchdogs_.erase(addr);  // lease came home since the arm
    return;
  }
  const NodeId owner = futexes_.lease_owner(addr);
  std::uint64_t flow = 0;
  auto pending = pending_lease_flow_.find(addr);
  if (pending != pending_lease_flow_.end()) flow = pending->second;
  if (stats_ != nullptr) stats_->add("sys.recall_timeouts");
  trace_.step(queue_.now(), "sys.recall_timeout", flow, addr, owner);
  // Re-send the recall. The agent ignores a recall for a lease it already
  // returned, so a crossed-in-flight return stays harmless.
  send_recall(addr, owner, flow);
  const DurationPs next = std::min<DurationPs>(
      recall_watchdogs_[addr].timeout * 2, recall_timeout_ * 8);
  arm_recall_watchdog(addr, next);
}

// ---------------------------------------------------------------------------
// Whole-node fault plane (DESIGN.md §18)
// ---------------------------------------------------------------------------

void FutexService::replay_buffered(GuestAddr addr) {
  auto buffered = recall_buffer_.find(addr);
  if (buffered == recall_buffer_.end()) return;
  for (const BufferedFutexOp& op : buffered->second) {
    if (op.op == isa::kFutexWait) {
      futexes_.wait(addr, FutexTable::Waiter{op.src, op.tid, op.flow});
      if (stats_ != nullptr) stats_->add("sys.futex_waits");
    } else {
      const std::uint32_t woken = home_wake(addr, op.count);
      if (op.respond) {
        if (stats_ != nullptr) stats_->add("sys.futex_wakes", woken);
        send_response(op.src, op.tid, woken, op.flow);
      }
    }
  }
  recall_buffer_.erase(buffered);
}

void FutexService::on_crash_lease_return(
    NodeId src, GuestAddr addr,
    const std::vector<FutexTable::Waiter>& returned) {
  switch (futexes_.lease_phase(addr)) {
    case FutexTable::LeasePhase::kGranted:
      if (futexes_.lease_owner(addr) != src) break;  // stale
      // A dying owner's unsolicited return: revoke the lease wholesale.
      // The dead node's own waiters in the queue are swept when the
      // kNodeDead notice lands (it trails this by one hop).
      revoke(addr, returned);
      return;
    case FutexTable::LeasePhase::kRecalling:
      if (futexes_.lease_owner(addr) != src) break;  // stale
      // The return the recall was waiting for — the original was lost with
      // a crash (either the owner died, or the home it was sent to did and
      // this is the agent's replay to the adopting master).
      complete_recall(addr, returned, 0);
      return;
    case FutexTable::LeasePhase::kNone:
      break;  // stale: the original return made it before the crash
  }
  if (stats_ != nullptr) stats_->add("sys.stale_lease_returns");
}

void FutexService::revoke(GuestAddr addr,
                          const std::vector<FutexTable::Waiter>& returned) {
  futexes_.end_lease(addr, returned);
  if (stats_ != nullptr) stats_->add("sys.leases_revoked");
  trace_.step(queue_.now(), "sys.lease_revoked", 0, addr, returned.size());
}

void FutexService::crash_revoke_local(
    GuestAddr addr, const std::vector<FutexTable::Waiter>& returned) {
  // Stale-safe like on_crash_lease_return: a replayed return whose lease
  // already came home (and may since belong to someone else) is a no-op.
  if (futexes_.lease_phase(addr) == FutexTable::LeasePhase::kNone ||
      futexes_.lease_owner(addr) != self_) {
    if (stats_ != nullptr) stats_->add("sys.stale_lease_returns");
    return;
  }
  recall_watchdogs_.erase(addr);
  pending_lease_flow_.erase(addr);
  futexes_.end_lease(addr, returned);
  if (stats_ != nullptr) stats_->add("sys.leases_revoked");
  // Buffered mid-recall ops stay in recall_buffer_ on purpose: they ride
  // the handoff and the master replays them at adoption.
}

void FutexService::on_node_dead(NodeId dead) {
  dead_nodes_.insert(dead);
  const std::size_t dropped = futexes_.drop_node(dead);
  if (dropped != 0 && stats_ != nullptr) {
    stats_->add("sys.dead_waiters_dropped", dropped);
  }
  // Drop the dead node's buffered ops: a buffered wait would eat a wake, a
  // buffered wake's response would be black-holed.
  for (auto it = recall_buffer_.begin(); it != recall_buffer_.end();) {
    auto& ops = it->second;
    ops.erase(std::remove_if(ops.begin(), ops.end(),
                             [dead](const BufferedFutexOp& op) {
                               return op.src == dead;
                             }),
              ops.end());
    it = ops.empty() ? recall_buffer_.erase(it) : std::next(it);
  }
  // Lease sweep, in sorted address order. These are fallbacks: the dying
  // node's last gasp (one hop) normally beat this notice (two hops), so
  // finding a lease still pinned on the dead node means its crash return
  // was never sent (e.g. the give-up detector declared it dead).
  for (const GuestAddr addr : futexes_.lease_addrs()) {
    if (futexes_.lease_owner(addr) != dead) continue;
    switch (futexes_.lease_phase(addr)) {
      case FutexTable::LeasePhase::kGranted:
        revoke(addr, {});
        break;
      case FutexTable::LeasePhase::kRecalling:
        complete_recall(addr, {}, 0);
        break;
      case FutexTable::LeasePhase::kNone:
        break;
    }
  }
}

void FutexService::serialize_for_handoff(std::vector<std::uint8_t>& out) {
  cancel_watchdogs();  // nothing may fire into a dead node's state
  std::vector<std::uint8_t> table;
  futexes_.serialize(table);
  le::put_u64(out, table.size());
  out.insert(out.end(), table.begin(), table.end());
  // Recall buffers, sorted by address; ops keep their arrival order.
  std::vector<GuestAddr> addrs;
  addrs.reserve(recall_buffer_.size());
  for (const auto& [addr, ops] : recall_buffer_) addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  le::put_u64(out, addrs.size());
  for (const GuestAddr addr : addrs) {
    const auto& ops = recall_buffer_.at(addr);
    le::put_u64(out, addr);
    le::put_u64(out, ops.size());
    for (const BufferedFutexOp& op : ops) {
      le::put_u32(out, op.src);
      le::put_u32(out, op.tid);
      le::put_u32(out, op.op);
      le::put_u32(out, op.count);
      le::put_u64(out, op.flow);
      le::put_u32(out, op.respond ? 1 : 0);
      le::put_u32(out, 0);
    }
  }
  // pending_lease_flow_ is trace-only causality; it does not survive the
  // handoff (the adopting master opens fresh chains).
}

void FutexService::adopt_handoff(std::span<const std::uint8_t> data) {
  le::Reader in(data);
  const std::uint64_t table_len = in.u64();
  futexes_.merge_from(in.bytes(table_len));
  const std::uint64_t naddrs = in.u64();
  std::vector<GuestAddr> adopted;
  for (std::uint64_t i = 0; i < naddrs; ++i) {
    const auto addr = static_cast<GuestAddr>(in.u64());
    const std::uint64_t nops = in.u64();
    auto& ops = recall_buffer_[addr];
    for (std::uint64_t j = 0; j < nops; ++j) {
      BufferedFutexOp op;
      op.src = static_cast<NodeId>(in.u32());
      op.tid = static_cast<GuestTid>(in.u32());
      op.op = in.u32();
      op.count = in.u32();
      op.flow = in.u64();
      op.respond = in.u32() != 0;
      (void)in.u32();  // pad
      ops.push_back(op);
    }
    adopted.push_back(addr);
  }
  assert(in.remaining() == 0);
  // Addresses whose lease the dying node revoked locally before the
  // handoff are home-owned now: replay their buffered ops immediately.
  for (const GuestAddr addr : adopted) {
    if (futexes_.lease_phase(addr) == FutexTable::LeasePhase::kNone) {
      replay_buffered(addr);
    }
  }
  // Adopted in-flight recalls lost their watchdog with the dead home;
  // re-arm so a recall (or return) lost on the wire is re-driven from
  // here. The owner's own kNodeDead replay usually completes it first.
  if (recall_timeout_ > 0 && network_.faults_active()) {
    for (const GuestAddr addr : futexes_.lease_addrs()) {
      if (futexes_.lease_phase(addr) == FutexTable::LeasePhase::kRecalling &&
          recall_watchdogs_.find(addr) == recall_watchdogs_.end()) {
        arm_recall_watchdog(addr, recall_timeout_);
      }
    }
  }
  if (stats_ != nullptr) stats_->add("sys.futex_handoffs_adopted");
}

}  // namespace dqemu::sys
