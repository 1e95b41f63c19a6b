#include "sys/lock_agent.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

#include "core/wire.hpp"

namespace dqemu::sys {

LockAgent::LockAgent(NodeId id, const SysConfig& config,
                     sim::EventQueue& queue, net::Network& network,
                     StatsRegistry* stats, trace::Tracer* tracer,
                     WakeLocalFn wake_local)
    : id_(id),
      config_(config),
      queue_(queue),
      network_(network),
      stats_(stats),
      tracer_(tracer),
      wake_local_(std::move(wake_local)) {}

void LockAgent::note(const char* name, trace::Kind kind, std::uint64_t flow,
                     std::uint64_t a, std::uint64_t b) {
  if (!trace::wants(tracer_, trace::Cat::kSys)) return;
  trace::Record r;
  r.time = queue_.now();
  r.name = name;
  r.kind = kind;
  r.cat = trace::Cat::kSys;
  r.node = id_;
  r.track = trace::kTrackNode;
  r.flow = flow;
  r.a = a;
  r.b = b;
  tracer_->record(r);
}

std::size_t LockAgent::parked_waiters() const {
  std::size_t n = 0;
  for (const auto& [addr, entry] : owned_) n += entry.queue.size();
  return n;
}

void LockAgent::return_all(const LocalRevokeFn& local_revoke) {
  std::vector<GuestAddr> addrs;
  addrs.reserve(owned_.size());
  for (const auto& [addr, entry] : owned_) addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  for (const GuestAddr addr : addrs) {
    Entry& entry = owned_[addr];
    const std::vector<FutexTable::Waiter> queue(entry.queue.begin(),
                                                entry.queue.end());
    const NodeId home = home_resolver_ ? home_resolver_(addr) : kMasterNode;
    if (stats_ != nullptr) stats_->add("sys.crash_lease_returns");
    if (home == id_) {
      // This node hosts the home shard too; a loopback message would land
      // after the shard is serialized for handoff. Revoke synchronously so
      // the handed-off table already contains the queue.
      local_revoke(addr, queue);
      continue;
    }
    net::Message ret;
    ret.src = id_;
    ret.dst = home;
    ret.type = static_cast<std::uint32_t>(core::CoreMsg::kCrashLeaseReturn);
    ret.a = addr;
    ret.b = queue.size();
    FutexTable::pack_waiters(queue, ret.data);
    network_.send(std::move(ret));
  }
  // Replay the normal returns still in flight: silence() is about to wipe
  // this node's retransmission state, so a kLeaseReturn the wire has not
  // delivered yet would vanish with us — and its waiters with it. The
  // crash-plane duplicate is stale-safe at the home (phase/owner check).
  std::vector<GuestAddr> pending;
  pending.reserve(sent_returns_.size());
  for (const auto& [addr, sent] : sent_returns_) pending.push_back(addr);
  std::sort(pending.begin(), pending.end());
  for (const GuestAddr addr : pending) {
    const SentReturn& sent = sent_returns_[addr];
    if (stats_ != nullptr) stats_->add("sys.crash_lease_returns");
    if (sent.home == id_) {
      local_revoke(addr, sent.queue);
      continue;
    }
    net::Message ret;
    ret.src = id_;
    ret.dst = sent.home;
    ret.type = static_cast<std::uint32_t>(core::CoreMsg::kCrashLeaseReturn);
    ret.a = addr;
    ret.b = sent.queue.size();
    FutexTable::pack_waiters(sent.queue, ret.data);
    network_.send(std::move(ret));
  }
  owned_.clear();
  delegated_ops_.clear();
  sent_returns_.clear();
}

void LockAgent::on_peer_dead(NodeId dead) {
  // Drop the dead node's waiters from every owned queue: granting them the
  // lock would lose it forever (its threads re-issue waits after re-homing).
  for (auto& [addr, entry] : owned_) {
    auto& queue = entry.queue;
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->node == dead) {
        it = queue.erase(it);
        if (stats_ != nullptr) stats_->add("sys.dead_waiters_dropped");
      } else {
        ++it;
      }
    }
  }
  // Re-send lease returns that were in flight to the dead home: the master
  // adopted its lease records (still kRecalling, owner = this agent) and
  // completes the recall on our behalf. Stale copies — the home processed
  // the original before dying — are dropped by the receiver's phase check.
  std::vector<GuestAddr> addrs;
  for (const auto& [addr, sent] : sent_returns_) {
    if (sent.home == dead) addrs.push_back(addr);
  }
  std::sort(addrs.begin(), addrs.end());
  for (const GuestAddr addr : addrs) {
    SentReturn& sent = sent_returns_[addr];
    net::Message ret;
    ret.src = id_;
    ret.dst = kMasterNode;
    ret.type = static_cast<std::uint32_t>(core::CoreMsg::kCrashLeaseReturn);
    ret.a = addr;
    ret.b = sent.queue.size();
    FutexTable::pack_waiters(sent.queue, ret.data);
    if (stats_ != nullptr) stats_->add("sys.crash_lease_returns");
    network_.send(std::move(ret));
    sent_returns_.erase(addr);
  }
}

void LockAgent::local_wait(GuestAddr addr, GuestTid tid, std::uint64_t flow) {
  assert(owns(addr));
  owned_[addr].queue.push_back(FutexTable::Waiter{id_, tid, flow});
  if (stats_ != nullptr) stats_->add("sys.lock_local_waits");
  note("sys.lock_local_wait", trace::Kind::kFlowStep, flow, addr, tid);
}

std::uint32_t LockAgent::local_wake(GuestAddr addr, std::uint32_t count) {
  assert(owns(addr));
  if (stats_ != nullptr) stats_->add("sys.lock_local_wakes");
  return wake_from_entry(addr, owned_[addr], count);
}

std::uint32_t LockAgent::wake_from_entry(GuestAddr addr, Entry& entry,
                                         std::uint32_t count) {
  std::uint32_t woken = 0;
  // Deterministic send order: remote wakes grouped per node, ascending.
  std::map<NodeId, std::vector<FutexTable::Waiter>> remote;
  while (woken < count && !entry.queue.empty()) {
    // Cohorting: prefer the oldest local waiter while the streak budget
    // lasts, then fall back to strict FIFO (which resets the streak as
    // soon as the front is remote).
    std::size_t pick = 0;
    if (entry.queue.front().node != id_ && config_.lock_cohort_limit > 0 &&
        entry.local_streak < config_.lock_cohort_limit) {
      for (std::size_t i = 0; i < entry.queue.size(); ++i) {
        if (entry.queue[i].node == id_) {
          pick = i;
          break;
        }
      }
    }
    const FutexTable::Waiter w = entry.queue[pick];
    entry.queue.erase(entry.queue.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    ++woken;
    if (w.node == id_) {
      ++entry.local_streak;
      if (stats_ != nullptr) stats_->add("sys.lock_local_grants");
      note("sys.lock_local_grant", trace::Kind::kFlowStep, w.flow, addr,
           w.tid);
      wake_local_(w.tid, w.flow);
    } else {
      entry.local_streak = 0;
      if (stats_ != nullptr) stats_->add("sys.lock_remote_grants");
      remote[w.node].push_back(w);
    }
  }

  for (const auto& [node, waiters] : remote) {
    if (waiters.size() == 1) {
      // Single wake: a plain syscall response straight to the waiter's
      // node, exactly what the master would have sent.
      net::Message resp;
      resp.src = id_;
      resp.dst = node;
      resp.type = static_cast<std::uint32_t>(SysMsg::kSyscallResp);
      resp.a = 0;
      resp.b = waiters.front().tid;
      resp.flow = waiters.front().flow;
      network_.send(std::move(resp));
      continue;
    }
    net::Message batch;
    batch.src = id_;
    batch.dst = node;
    batch.type = static_cast<std::uint32_t>(SysMsg::kWakeBatch);
    batch.a = addr;
    batch.b = waiters.size();
    FutexTable::pack_waiters(waiters, batch.data);
    if (stats_ != nullptr) stats_->add("sys.wake_batches");
    note("sys.wake_batched", trace::Kind::kInstant, 0, addr,
         waiters.size());
    network_.send(std::move(batch));
  }
  return woken;
}

void LockAgent::note_delegated(GuestAddr addr) {
  const std::uint32_t ops = ++delegated_ops_[addr];
  if (ops < config_.lease_request_threshold) return;
  delegated_ops_[addr] = 0;  // back off until the address proves hot again

  net::Message req;
  req.src = id_;
  req.dst = home_resolver_ ? home_resolver_(addr) : kMasterNode;
  req.type = static_cast<std::uint32_t>(SysMsg::kLeaseReq);
  req.a = addr;
  if (stats_ != nullptr) stats_->add("sys.lease_requests");
  if (trace::wants(tracer_, trace::Cat::kSys)) {
    req.flow = tracer_->new_flow();
    note("sys.lease_acquire", trace::Kind::kFlowBegin, req.flow, addr, 0);
  }
  network_.send(std::move(req));
}

void LockAgent::handle_message(const net::Message& msg) {
  switch (static_cast<SysMsg>(msg.type)) {
    case SysMsg::kLeaseGrant: return on_lease_grant(msg);
    case SysMsg::kLeaseRecall: return on_lease_recall(msg);
    case SysMsg::kWaitHandoff: return on_wait_handoff(msg);
    case SysMsg::kWakeHandoff: return on_wake_handoff(msg);
    default:
      assert(false && "message not handled by the lock agent");
  }
}

void LockAgent::on_lease_grant(const net::Message& msg) {
  const auto addr = static_cast<GuestAddr>(msg.a);
  assert(!owns(addr));
  Entry entry;
  const auto handed = FutexTable::unpack_waiters(msg.data);
  entry.queue.assign(handed.begin(), handed.end());
  owned_.emplace(addr, std::move(entry));
  delegated_ops_.erase(addr);
  sent_returns_.erase(addr);  // the protocol moved past the last return
  if (msg.flow != 0 && (msg.flow & trace::kAutoFlowBit) == 0) {
    note("sys.lease_acquire", trace::Kind::kFlowEnd, msg.flow, addr,
         handed.size());
  }
}

void LockAgent::on_lease_recall(const net::Message& msg) {
  const auto addr = static_cast<GuestAddr>(msg.a);
  auto it = owned_.find(addr);
  if (it == owned_.end()) {
    // Duplicate recall: the master's recall watchdog (DESIGN.md §13) fired
    // while our lease return was still crossing the wire. The return is
    // already on its way, so there is nothing left to hand back.
    if (stats_ != nullptr) stats_->add("sys.dup_recalls_ignored");
    note("sys.dup_recall", trace::Kind::kInstant, msg.flow, addr, 0);
    return;
  }
  // Hand the whole queue (locals included, tagged with this node's id)
  // back to the recalling home (the master classically); waiters parked
  // here stay blocked until the home or the next owner wakes them.
  std::vector<FutexTable::Waiter> queue(it->second.queue.begin(),
                                        it->second.queue.end());
  owned_.erase(it);

  net::Message ret;
  ret.src = id_;
  ret.dst = msg.src;
  ret.type = static_cast<std::uint32_t>(SysMsg::kLeaseReturn);
  ret.a = addr;
  ret.flow = msg.flow;  // keep riding the recalling requester's chain
  FutexTable::pack_waiters(queue, ret.data);
  if (msg.flow != 0 && (msg.flow & trace::kAutoFlowBit) == 0) {
    note("sys.lease_return", trace::Kind::kFlowStep, msg.flow, addr,
         queue.size());
  }
  network_.send(std::move(ret));
  if (network_.faults_active()) {
    // Keep a copy so the return can be replayed to the master if the
    // recalling home dies with it in flight (DESIGN.md §18).
    sent_returns_[addr] = SentReturn{msg.src, std::move(queue)};
  }
}

void LockAgent::on_wait_handoff(const net::Message& msg) {
  const auto addr = static_cast<GuestAddr>(msg.a);
  // Guaranteed by the master->owner FIFO link: a recall sent after this
  // handoff cannot overtake it, so the lease is still here.
  assert(owns(addr));
  owned_[addr].queue.push_back(FutexTable::Waiter{
      static_cast<NodeId>(msg.c), static_cast<GuestTid>(msg.b), msg.flow});
  note("sys.lock_handoff_wait", trace::Kind::kFlowStep, msg.flow, addr,
       msg.b);
}

void LockAgent::on_wake_handoff(const net::Message& msg) {
  const auto addr = static_cast<GuestAddr>(msg.a);
  assert(owns(addr));
  const std::uint32_t woken =
      wake_from_entry(addr, owned_[addr], static_cast<std::uint32_t>(msg.b));
  const auto requester = static_cast<std::uint32_t>(msg.c >> 32);
  if (requester == kNoWakeResponse) return;  // e.g. thread-exit wakes
  net::Message resp;
  resp.src = id_;
  resp.dst = static_cast<NodeId>(requester);
  resp.type = static_cast<std::uint32_t>(SysMsg::kSyscallResp);
  resp.a = woken;
  resp.b = static_cast<std::uint32_t>(msg.c);
  resp.flow = msg.flow;
  network_.send(std::move(resp));
}

}  // namespace dqemu::sys
