#include "net/reliable/reliable_channel.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace dqemu::net {

ReliableChannel::ReliableChannel(std::vector<sim::EventQueue*> queues,
                                 const FaultConfig& config,
                                 StatsRegistry& stats, trace::Tracer* tracer,
                                 TransmitFn transmit, DeliverFn deliver,
                                 PeerDeadFn peer_dead)
    : queues_(std::move(queues)),
      config_(config),
      stats_(stats),
      tracer_(tracer),
      transmit_(std::move(transmit)),
      deliver_(std::move(deliver)),
      peer_dead_(std::move(peer_dead)),
      silenced_(queues_.size(), 0) {
  for (sim::EventQueue* src : queues_) {
    for (sim::EventQueue* dst : queues_) {
      links_.emplace_back(*src, *dst, config_.retrans_timeout);
    }
  }
}

void ReliableChannel::trace_step(const Message& msg, const char* name,
                                 NodeId node) {
  if (msg.flow == 0) return;
  nic_site(tracer_, node).emit(queues_[node]->now(), name,
                               trace::Kind::kFlowStep, msg.flow, msg.seq,
                               msg.type);
}

void ReliableChannel::send(Message msg) {
  Link& out = link(msg.src, msg.dst);
  if (out.gone || silenced(msg.src)) {
    // The peer is dead (or the sender itself is): queueing would retransmit
    // into a void forever. Drop without consuming a sequence number so the
    // link's seq space stays gapless for any later traffic audit.
    stats_.add("net.dead_dropped");
    return;
  }
  msg.seq = out.next_seq++;
  // Piggyback the cumulative ack for traffic flowing the other way; that
  // makes the pure ack the reverse receiver half owes redundant.
  Link& rev = link(msg.dst, msg.src);
  msg.ack = rev.last_in_order;
  rev.ack_due.cancel();

  out.unacked.push_back(msg);
  if (!out.retrans.armed()) {
    const NodeId src = msg.src, dst = msg.dst;
    out.retrans.arm(out.rto, [this, src, dst] { retransmit_all(src, dst); });
  }
  transmit_(std::move(msg), TxKind::kData);
}

void ReliableChannel::process_ack(NodeId from, NodeId to, std::uint64_t ack) {
  Link& l = link(from, to);
  bool progress = false;
  while (!l.unacked.empty() && l.unacked.front().seq <= ack) {
    l.unacked.pop_front();
    progress = true;
  }
  if (!progress) return;
  // New data was acknowledged: the path is alive, so restart the timer at
  // the base timeout instead of whatever backoff a loss burst built up,
  // and reset the give-up stall counter.
  l.rto = config_.retrans_timeout;
  l.stall_rounds = 0;
  if (l.unacked.empty()) {
    l.retrans.cancel();
  } else {
    l.retrans.arm(l.rto, [this, from, to] { retransmit_all(from, to); });
  }
}

void ReliableChannel::retransmit_all(NodeId src, NodeId dst) {
  Link& l = link(src, dst);
  if (l.unacked.empty()) return;
  // Bounded give-up (DESIGN.md §18): after giveup_retrans consecutive
  // zero-progress rounds the sender declares the peer dead, abandons the
  // backlog and stops re-arming — a crashed peer must not keep generating
  // wire traffic forever. Opt-in (0 = retry forever, the pre-§18 behaviour)
  // because a long pause-and-rejoin straggler would otherwise false-trip it.
  if (config_.giveup_retrans > 0 && ++l.stall_rounds >= config_.giveup_retrans) {
    stats_.add("net.peer_dead");
    stats_.add("net.dead_dropped", l.unacked.size());
    l.unacked.clear();
    l.gone = true;
    peer_dead_(src, dst);
    return;
  }
  stats_.add("net.retrans", l.unacked.size());
  Link& rev = link(dst, src);
  rev.ack_due.cancel();  // every retransmission re-advertises the ack
  for (const Message& stored : l.unacked) {
    Message copy = stored;
    copy.ack = rev.last_in_order;
    transmit_(std::move(copy), TxKind::kRetrans);
  }
  // Exponential backoff, capped: a dead peer must not melt the simulated
  // switch, and the cap bounds recovery latency once it comes back.
  l.rto = std::min<DurationPs>(l.rto * 2, config_.retrans_cap);
  l.retrans.arm(l.rto, [this, src, dst] { retransmit_all(src, dst); });
}

void ReliableChannel::schedule_ack(NodeId data_src, NodeId data_dst) {
  Link& in = link(data_src, data_dst);
  if (in.ack_due.armed()) return;
  in.ack_due.arm(config_.ack_delay, [this, data_src, data_dst] {
    Message ack;
    ack.src = data_dst;
    ack.dst = data_src;
    ack.type = kNetAck;
    ack.seq = 0;  // pure acks are unsequenced and never retransmitted
    ack.ack = link(data_src, data_dst).last_in_order;
    stats_.add("net.acks");
    transmit_(std::move(ack), TxKind::kAck);
  });
}

void ReliableChannel::silence(NodeId dead) {
  silenced_[dead] = 1;
  // Cancel every timer the dead node's context owns: retransmits on its
  // outgoing links (sender halves) and delayed acks on its incoming ones
  // (receiver halves). Touching only dead-owned halves keeps this safe to
  // run inside a parallel window — the other half of each link belongs to
  // the peer.
  const auto n = static_cast<NodeId>(queues_.size());
  for (NodeId peer = 0; peer < n; ++peer) {
    Link& out = link(dead, peer);
    out.retrans.cancel();
    out.unacked.clear();
    out.gone = true;
    Link& in = link(peer, dead);
    in.ack_due.cancel();
    in.held.clear();
  }
}

void ReliableChannel::on_peer_dead(NodeId self, NodeId dead) {
  Link& out = link(self, dead);
  if (!out.unacked.empty()) {
    stats_.add("net.dead_dropped", out.unacked.size());
  }
  out.retrans.cancel();
  out.unacked.clear();
  out.gone = true;
  Link& in = link(dead, self);
  in.ack_due.cancel();
  in.held.clear();
}

void ReliableChannel::on_wire_arrival(Message msg) {
  // A silenced (crashed) node acks nothing and delivers nothing: black-hole
  // anything still in flight toward it, including retransmissions and acks.
  if (silenced(msg.dst)) {
    stats_.add("net.dead_black_holed");
    return;
  }

  process_ack(msg.dst, msg.src, msg.ack);

  if (msg.type == kNetAck) {
    // A pure ack carries no payload to deliver; close its trace flow.
    if (msg.flow != 0) {
      nic_site(tracer_, msg.dst)
          .emit(queues_[msg.dst]->now(), "net.msg", trace::Kind::kFlowEnd,
                msg.flow, msg.ack, msg.type);
    }
    return;
  }
  DQEMU_CHECK(msg.seq != 0,
              "net: unsequenced non-ack message type=0x%x on reliable link "
              "%u->%u",
              msg.type, unsigned(msg.src), unsigned(msg.dst));

  Link& in = link(msg.src, msg.dst);
  if (msg.seq <= in.last_in_order) {
    // Duplicate (wire dup, or a retransmission racing our lost ack).
    // Suppress it, but make sure a fresh cumulative ack goes back so the
    // sender stops retransmitting.
    stats_.add("net.dup_suppressed");
    trace_step(msg, "net.dup.drop", msg.dst);
    schedule_ack(msg.src, msg.dst);
    return;
  }

  if (msg.seq == in.last_in_order + 1) {
    const NodeId src = msg.src, dst = msg.dst;
    in.last_in_order = msg.seq;
    // Arm the ack before delivering: if the handler answers with reverse
    // traffic the piggyback cancels this timer again.
    schedule_ack(src, dst);
    deliver_(std::move(msg));
    // The gap may have been the only thing holding back later arrivals.
    auto it = in.held.begin();
    while (it != in.held.end() && it->first == in.last_in_order + 1) {
      in.last_in_order = it->first;
      deliver_(std::move(it->second));
      it = in.held.erase(it);
    }
    return;
  }

  // Gap: an earlier message on this link is missing (dropped or delayed).
  // Hold this one back — delivering it now would break the per-channel FIFO
  // order the protocol correctness arguments need.
  if (in.held.emplace(msg.seq, msg).second) {
    stats_.add("net.ooo_held");
    trace_step(msg, "net.held", msg.dst);
  } else {
    stats_.add("net.dup_suppressed");
  }
  schedule_ack(msg.src, msg.dst);
}

}  // namespace dqemu::net
