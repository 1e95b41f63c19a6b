// Go-back-N reliable delivery sublayer (DESIGN.md §13).
//
// Sits between Network::send and the lossy wire when fault injection is
// active. Every directed (src, dst) link carries its own sequence-number
// space; the receive side suppresses duplicates and holds out-of-order
// arrivals back until the gap fills, so the layer above observes exactly
// the per-channel FIFO, exactly-once delivery the §7/§11 no-lost-wakeup
// arguments assume. Acks are cumulative and piggybacked on reverse traffic,
// with a delayed pure ack (kNetAck) when no reverse traffic shows up; the
// sender retransmits every unacked message on a timer with exponential
// backoff capped at FaultConfig::retrans_cap.
//
// The class is wire-agnostic: the owning Network supplies a transmit hook
// (wire model + fault injection) and a deliver hook (handler dispatch), so
// unit tests can run the protocol over a toy wire.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "net/message.hpp"
#include "sim/event_queue.hpp"
#include "sim/timer.hpp"
#include "trace/tracer.hpp"

namespace dqemu::net {

/// Why a physical transmission is happening, for trace naming and stats.
enum class TxKind {
  kData,     ///< first transmission of an application message
  kRetrans,  ///< go-back-N retransmission after an RTO
  kAck,      ///< pure cumulative acknowledgement (unsequenced)
};

/// The NIC lane of `node`, where every net-category record sits.
[[nodiscard]] inline trace::Site nic_site(trace::Tracer* tracer, NodeId node) {
  return {tracer, trace::Cat::kNet, node, trace::kTrackNic};
}

class ReliableChannel {
 public:
  /// Puts one physical copy of the message on the (lossy) wire.
  using TransmitFn = std::function<void(Message, TxKind)>;
  /// Hands one in-order, deduplicated message to the destination node.
  using DeliverFn = std::function<void(Message)>;
  /// Bounded give-up fired in `self`'s execution context: after
  /// FaultConfig::giveup_retrans consecutive zero-progress retransmit
  /// rounds, `self` suspects `peer` is dead and abandons the link.
  using PeerDeadFn = std::function<void(NodeId self, NodeId peer)>;

  /// `queues[n]` is node n's event queue (the same queue for every node in
  /// the serial kernel). Every directed link is created here, its
  /// retransmit timer on the sender's queue and its delayed-ack timer on
  /// the receiver's, so the link table never changes while partitioned
  /// windows run (DESIGN.md §16). `peer_dead` runs on a bounded give-up.
  ReliableChannel(std::vector<sim::EventQueue*> queues,
                  const FaultConfig& config, StatsRegistry& stats,
                  trace::Tracer* tracer, TransmitFn transmit,
                  DeliverFn deliver, PeerDeadFn peer_dead);

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Application-level send: assigns the next sequence number on the
  /// (src, dst) link, piggybacks the reverse channel's cumulative ack,
  /// stores the message for retransmission and transmits the first copy.
  void send(Message msg);

  /// Called by the wire for every physical arrival at msg.dst (including
  /// duplicates, retransmissions and pure acks). Runs the receive-side
  /// state machine; may invoke the deliver hook zero or more times.
  void on_wire_arrival(Message msg);

  /// Crash teardown, run in `dead`'s own execution context (DESIGN.md §18):
  /// cancels every timer the dead node owns — the retransmit timers of its
  /// outgoing links and the delayed-ack timers of its incoming ones — and
  /// drops its send/held state so nothing fires into a dead node's handler.
  /// After this the node neither transmits, retransmits, nor acks: arrivals
  /// addressed to it are black-holed in on_wire_arrival.
  void silence(NodeId dead);

  /// Survivor-side link teardown, run in `self`'s own execution context on
  /// a kNodeDead notification: abandons the self->dead sender half (cancel
  /// retransmits, drop unacked — the peer will never ack) and the dead->self
  /// receiver half (cancel the pending pure ack, drop held-back arrivals).
  void on_peer_dead(NodeId self, NodeId dead);

 private:
  /// State of one directed link. The sender half tracks messages this link
  /// originated; the receiver half tracks what arrived on it — each half
  /// is touched only by its owning end's execution context. The receiver
  /// half's ack timer emits the reverse-direction pure ack.
  struct Link {
    Link(sim::EventQueue& sender_queue, sim::EventQueue& receiver_queue,
         DurationPs rto0)
        : rto(rto0), retrans(sender_queue), ack_due(receiver_queue) {}

    // Sender half.
    std::uint64_t next_seq = 1;
    std::deque<Message> unacked;  ///< in seq order; front = oldest
    DurationPs rto;               ///< current timeout (backed off on fire)
    sim::Timer retrans;
    /// Consecutive retransmit rounds with zero ack progress; reset whenever
    /// process_ack pops anything. Drives the bounded give-up.
    std::uint32_t stall_rounds = 0;
    /// Set once the sender has given up on (or been told about) a dead
    /// peer: sends on this link are dropped instead of queued forever.
    bool gone = false;

    // Receiver half.
    std::uint64_t last_in_order = 0;  ///< cumulative ack we advertise
    std::map<std::uint64_t, Message> held;  ///< out-of-order, by seq
    sim::Timer ack_due;
  };

  [[nodiscard]] Link& link(NodeId src, NodeId dst) {
    return links_[static_cast<std::size_t>(src) * queues_.size() + dst];
  }
  void process_ack(NodeId from, NodeId to, std::uint64_t ack);
  void retransmit_all(NodeId src, NodeId dst);
  void schedule_ack(NodeId from, NodeId to);
  [[nodiscard]] bool silenced(NodeId node) const {
    return silenced_[node] != 0;
  }
  void trace_step(const Message& msg, const char* name, NodeId node);

  /// queues_[n] is node n's event queue.
  std::vector<sim::EventQueue*> queues_;
  const FaultConfig& config_;
  StatsRegistry& stats_;
  trace::Tracer* tracer_;
  TransmitFn transmit_;
  DeliverFn deliver_;
  PeerDeadFn peer_dead_;
  /// Nodes silenced by a crash. Written only in the silenced node's own
  /// execution context and read only on that node's links, so partitioned
  /// windows never race on an entry.
  std::vector<std::uint8_t> silenced_;
  /// Directed link src->dst at [src * node count + dst]; the src == dst
  /// entries stay unused (loopback skips the channel). A deque keeps Link
  /// addresses stable, which the embedded (non-movable) timers require.
  std::deque<Link> links_;
};

}  // namespace dqemu::net
