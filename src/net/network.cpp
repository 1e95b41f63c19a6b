#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "net/fault/node_faults.hpp"

namespace dqemu::net {

Network::Network(std::vector<sim::EventQueue*> queues, NetworkConfig config,
                 StatsRegistry& stats, trace::Tracer* tracer,
                 FaultConfig faults)
    : queues_(std::move(queues)),
      config_(config),
      stats_(stats),
      tracer_(tracer),
      handlers_(queues_.size()),
      egress_free_(queues_.size(), 0),
      channel_last_(queues_.size() * queues_.size(), 0),
      node_count_(static_cast<std::uint32_t>(queues_.size())),
      post_order_(queues_.size(), 0),
      faults_(std::move(faults)),
      peer_dead_(queues_.size() * queues_.size(), 0) {
  if (faults_.enabled) {
    injector_ = std::make_unique<FaultInjector>(faults_, node_count_);
    // Bounded give-up: the declaring node stops sending to the suspect
    // through its own dead filter.
    reliable_ = std::make_unique<ReliableChannel>(
        queues_, faults_, stats_, tracer_,
        [this](Message m, TxKind kind) { transmit(std::move(m), kind); },
        [this](Message m) { deliver(std::move(m)); },
        [this](NodeId self, NodeId peer) {
          peer_dead_[static_cast<std::size_t>(self) * node_count_ + peer] = 1;
        });
  }
}

void Network::schedule_into(NodeId src, NodeId dst, TimePs when,
                            sim::EventQueue::Callback fn) {
  sim::EventQueue& dst_queue = queue_for(dst);
  if (&queue_for(src) == &dst_queue) {
    dst_queue.schedule_at(when, std::move(fn));
  } else {
    dst_queue.post(when, src, post_order_[src]++, std::move(fn));
  }
}

void Network::attach(NodeId node, Handler handler) {
  DQEMU_CHECK(node < handlers_.size(),
              "net: attach for out-of-range node %u (cluster has %zu nodes)",
              unsigned(node), handlers_.size());
  handlers_[node] = std::move(handler);
}

void Network::send(Message msg) {
  DQEMU_CHECK(msg.src < node_count_ && msg.dst < node_count_,
              "net: send type=0x%x with out-of-range endpoint %u->%u "
              "(cluster has %u nodes)",
              msg.type, unsigned(msg.src), unsigned(msg.dst), node_count_);
  // A sender that has seen a kNodeDead notice for the destination drops the
  // message instead of feeding the reliable channel a backlog it would
  // retransmit into a void. Crash-plane messages are exempt: the recovery
  // protocol itself must still flow (net/fault/node_faults.hpp).
  if (peer_dead(msg.src, msg.dst) && !is_crash_plane(msg.type)) {
    stats_.add("net.dead_dropped");
    return;
  }
  // send() always runs in the source's execution context.
  const TimePs now = queue_for(msg.src).now();

  if (reliable_ != nullptr && msg.src != msg.dst) {
    // Lossy-wire path. Assign the net-owned trace flow up front so the
    // retransmit copies the channel stores share it.
    if (msg.flow == 0 && trace::wants(tracer_, trace::Cat::kNet)) {
      msg.flow = tracer_->new_flow() | trace::kAutoFlowBit;
    }
    reliable_->send(std::move(msg));
    return;
  }

  // Flight recorder: every message is an edge in some causal chain. A
  // message already stamped by a higher layer (DSM fault, delegated
  // syscall) records a step in that chain; an unchained one opens its own.
  if (const trace::Site nic = nic_site(tracer_, msg.src); nic.on()) {
    const bool opens = msg.flow == 0;
    if (opens) msg.flow = tracer_->new_flow() | trace::kAutoFlowBit;
    nic.record(now, opens ? "net.msg" : "net.send",
               opens ? trace::Kind::kFlowBegin : trace::Kind::kFlowStep,
               msg.flow, msg.wire_bytes(), msg.type);
  }

  TimePs delivery;
  if (msg.src == msg.dst) {
    delivery = now + config_.loopback_latency;
    // Loopback skips the wire model, so net.messages/net.bytes stay
    // untouched; this counter is what lets trace flows and wire stats
    // reconcile (every send-side flow record is one of the two).
    stats_.add("net.loopback");
  } else {
    delivery = egress(msg.src, now, msg.wire_bytes());
  }

  // FIFO per channel: never deliver before an earlier message on the same
  // (src, dst) stream.
  TimePs& last = channel_last_[static_cast<std::size_t>(msg.src) * node_count_ +
                               msg.dst];
  delivery = std::max(delivery, last);
  last = delivery;

  const NodeId src = msg.src, dst = msg.dst;
  schedule_into(src, dst, delivery, [this, m = std::move(msg)]() mutable {
    deliver(std::move(m));
  });
}

TimePs Network::egress(NodeId src, TimePs now, std::uint64_t bytes) {
  stats_.add("net.messages");
  stats_.add("net.bytes", bytes + config_.header_bytes);
  // Sender-side software path, then wait for the egress link.
  const TimePs tx_ready = now + config_.endpoint_overhead;
  const TimePs tx_start = std::max(tx_ready, egress_free_[src]);
  const TimePs tx_end = tx_start + config_.wire_time(bytes);
  egress_free_[src] = tx_end;
  return tx_end + config_.one_way_latency + config_.endpoint_overhead;
}

void Network::transmit(Message msg, TxKind kind) {
  // Initial transmissions, retransmit-timer fires and pure-ack fires all
  // happen in the source's execution context.
  const TimePs now = queue_for(msg.src).now();
  const std::uint64_t bytes = msg.wire_bytes();

  // One send-side record per physical transmission: retransmissions show
  // up as extra "net.retrans" steps on the same flow, so a Chrome trace of
  // a lossy run shows the recovery, not just the eventual delivery.
  const trace::Site nic = nic_site(tracer_, msg.src);
  if (nic.on()) {
    // Only channel-internal messages (pure acks) reach the wire
    // unchained; data messages got their flow in Network::send. A
    // net-owned flow opens at its first transmission.
    const bool opens = msg.flow == 0 ||
                       ((msg.flow & trace::kAutoFlowBit) != 0 &&
                        kind == TxKind::kData);
    if (msg.flow == 0) msg.flow = tracer_->new_flow() | trace::kAutoFlowBit;
    const char* step = kind == TxKind::kRetrans ? "net.retrans" : "net.send";
    nic.record(now, opens ? "net.msg" : step,
               opens ? trace::Kind::kFlowBegin : trace::Kind::kFlowStep,
               msg.flow, bytes, msg.type);
  }

  // Same egress model as the reliable path: the packet leaves the NIC and
  // occupies the link whether or not the switch then loses it.
  TimePs arrival = egress(msg.src, now, bytes);

  // Crash-plane messages are "reliable by fiat": they skip the injector
  // entirely (no per-link counter is consumed, so every other message's
  // fault fate is unchanged by their presence) and arrive first try.
  const WireFate fate =
      is_crash_plane(msg.type) ? WireFate{} : injector_->decide(msg);
  if (fate.drop) {
    stats_.add("net.dropped");
    if (msg.flow != 0) {
      nic.emit(now, "net.drop", trace::Kind::kFlowStep, msg.flow, msg.seq,
               msg.type);
    }
    DQEMU_TRACE("net: drop type=0x%x %u->%u seq=%llu", msg.type,
                unsigned(msg.src), unsigned(msg.dst),
                static_cast<unsigned long long>(msg.seq));
    return;  // no arrival; recovery is the sender's retransmit timer's job
  }
  arrival += fate.extra_delay;

  // No FIFO clamp here: jitter and reorder delays are the whole point, and
  // the receive-side sequence check restores delivery order.
  const NodeId src = msg.src, dst = msg.dst;
  if (fate.duplicate) {
    stats_.add("net.wire_dup");
    const TimePs dup_at = arrival + fate.dup_extra_delay;
    schedule_into(src, dst, dup_at, [this, m = msg]() mutable {
      reliable_->on_wire_arrival(std::move(m));
    });
  }
  schedule_into(src, dst, arrival, [this, m = std::move(msg)]() mutable {
    reliable_->on_wire_arrival(std::move(m));
  });
}

void Network::note_peer_dead(NodeId observer, NodeId dead) {
  peer_dead_[static_cast<std::size_t>(observer) * node_count_ + dead] = 1;
  if (reliable_ != nullptr) reliable_->on_peer_dead(observer, dead);
}

void Network::deliver(Message msg) {
  DQEMU_CHECK(msg.dst < handlers_.size() &&
                  static_cast<bool>(handlers_[msg.dst]),
              "net: message type=0x%x %u->%u delivered to a node with no "
              "handler attached",
              msg.type, unsigned(msg.src), unsigned(msg.dst));
  const auto& handler = handlers_[msg.dst];
  DQEMU_TRACE("net: deliver type=%u %u->%u (%llu bytes)", msg.type,
              unsigned(msg.src), unsigned(msg.dst),
              static_cast<unsigned long long>(msg.wire_bytes()));
  if (const trace::Site nic = nic_site(tracer_, msg.dst);
      msg.flow != 0 && nic.on()) {
    const bool net_owned = (msg.flow & trace::kAutoFlowBit) != 0;
    nic.record(queue_for(msg.dst).now(), net_owned ? "net.msg" : "net.deliver",
               net_owned ? trace::Kind::kFlowEnd : trace::Kind::kFlowStep,
               msg.flow, msg.wire_bytes(), msg.type);
  }
  handler(std::move(msg));
}

}  // namespace dqemu::net
