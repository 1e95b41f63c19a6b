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
#include <utility>
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
  /// rounds, `self` suspects `peer` is dead and abandons the link. The
  /// fault plane uses this to report the suspected crash.
  using PeerDeadFn = std::function<void(NodeId self, NodeId peer)>;

  ReliableChannel(sim::EventQueue& queue, const FaultConfig& config,
                  StatsRegistry* stats, trace::Tracer* tracer,
                  TransmitFn transmit, DeliverFn deliver)
      : queue_(queue),
        config_(config),
        stats_(stats),
        tracer_(tracer),
        transmit_(std::move(transmit)),
        deliver_(std::move(deliver)) {}

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

  /// Parallel scheduler (DESIGN.md §16): gives every node its own event
  /// queue and eagerly creates all n^2 links with their timers bound to
  /// the owning ends — the retransmit timer fires in the sender's context,
  /// the delayed-ack timer in the receiver's — so the link map is never
  /// mutated while windows execute concurrently. Call before any traffic.
  void bind_queues(const std::vector<sim::EventQueue*>& queues);

  /// Installs the bounded give-up callback (see PeerDeadFn). No-op unless
  /// FaultConfig::giveup_retrans > 0.
  void set_peer_dead_hook(PeerDeadFn fn) { peer_dead_ = std::move(fn); }

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

  Link& link(NodeId src, NodeId dst);
  /// Event queue of `node`'s execution context (the shared queue unless
  /// bind_queues was called).
  [[nodiscard]] sim::EventQueue& queue_for(NodeId node) {
    return queues_.empty() ? queue_ : *queues_[node];
  }
  void process_ack(NodeId from, NodeId to, std::uint64_t ack);
  void retransmit_all(NodeId src, NodeId dst);
  void schedule_ack(NodeId from, NodeId to);
  [[nodiscard]] bool silenced(NodeId node) const {
    return node < silenced_.size() && silenced_[node] != 0;
  }
  void bump(const char* counter, std::uint64_t delta = 1);
  void trace_step(const Message& msg, const char* name, NodeId node);

  sim::EventQueue& queue_;
  const FaultConfig& config_;
  StatsRegistry* stats_;
  trace::Tracer* tracer_;
  TransmitFn transmit_;
  DeliverFn deliver_;
  PeerDeadFn peer_dead_;
  /// Nodes silenced by a crash. Written only in the silenced node's own
  /// execution context and read only on that node's links, so partitioned
  /// windows never race on an entry. Sized by bind_queues in the parallel
  /// kernel; grown lazily (single context, safe) in the serial one.
  std::vector<std::uint8_t> silenced_;
  /// Per-node queues when running partitioned; empty in the serial kernel.
  std::vector<sim::EventQueue*> queues_;
  /// Directed links, created on first use (serial) or all at bind_queues
  /// time (parallel). std::map keeps Link addresses stable, which the
  /// embedded (non-movable) timers require.
  std::map<std::pair<NodeId, NodeId>, Link> links_;
};

}  // namespace dqemu::net
