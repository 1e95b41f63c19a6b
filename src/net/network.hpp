// Simulated cluster interconnect.
//
// Models the paper's testbed: nodes on a store-and-forward Gigabit switch.
// Each node has a full-duplex NIC; a message occupies the sender's egress
// link for its serialization time (so concurrent page pushes queue behind
// each other — this is what bounds data-forwarding throughput in Table 1),
// then takes the one-way propagation latency, then pays the receiver-side
// software overhead. Messages between a given (src, dst) pair are delivered
// FIFO, like a TCP stream.
//
// With fault injection active (FaultConfig::enabled), non-loopback traffic
// instead runs over a lossy wire: a deterministic injector may
// drop/duplicate/delay each physical transmission and a go-back-N reliable
// channel restores exactly-once FIFO delivery above it (DESIGN.md §13).
// With it off, the original perfectly reliable path runs unchanged,
// bit-for-bit.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "net/fault/fault_injector.hpp"
#include "net/message.hpp"
#include "net/reliable/reliable_channel.hpp"
#include "sim/event_queue.hpp"
#include "trace/tracer.hpp"

namespace dqemu::net {

/// The switch + all NICs. Owned by the Cluster; nodes attach handlers.
class Network {
 public:
  using Handler = std::function<void(Message)>;

  /// `queues[n]` is node n's event queue, where its deliveries land and its
  /// link timers live: one queue for every node in the serial kernel, one
  /// per node in the parallel one (DESIGN.md §16), where a delivery to
  /// another queue becomes a barrier-drained post ordered by (time, src,
  /// send order). The queues and `stats` must outlive the Network;
  /// `tracer` may be null.
  Network(std::vector<sim::EventQueue*> queues, NetworkConfig config,
          StatsRegistry& stats, trace::Tracer* tracer = nullptr,
          FaultConfig faults = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the delivery callback for `node`. Must be called before any
  /// message addressed to that node is delivered.
  void attach(NodeId node, Handler handler);

  /// Queues `msg` for delivery. Loopback (src == dst) messages skip the
  /// wire and pay only `loopback_latency`.
  void send(Message msg);

  /// Earliest time a new message from `node` could start serializing.
  [[nodiscard]] TimePs egress_free_at(NodeId node) const {
    return egress_free_[node];
  }

  /// `node`'s own event queue: every send, delivery and timer of `node`
  /// runs in its context.
  [[nodiscard]] sim::EventQueue& queue_for(NodeId node) {
    return *queues_[node];
  }

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------

  /// Crash teardown, run in `dead`'s own execution context: cancels every
  /// channel timer the dead node owns and black-holes future arrivals to
  /// it. Part of Node::crash's last gasp.
  void silence(NodeId dead) {
    if (reliable_ != nullptr) reliable_->silence(dead);
  }

  /// Survivor-side reaction to a kNodeDead notice, run in `observer`'s own
  /// execution context: future sends observer->dead are dropped (except
  /// crash-plane messages) and the observer's halves of both links are
  /// torn down. Each (observer, dead) entry is written only by observer's
  /// context and read only on observer's own sends — race-free under the
  /// partitioned kernel.
  void note_peer_dead(NodeId observer, NodeId dead);

  /// True when `observer` has been told `node` is dead, or gave up on it
  /// (FaultConfig::giveup_retrans).
  [[nodiscard]] bool peer_dead(NodeId observer, NodeId node) const {
    return peer_dead_[static_cast<std::size_t>(observer) * node_count_ +
                      node] != 0;
  }

 private:
  void deliver(Message msg);
  /// The egress model of every message that crosses the wire: `src`'s
  /// sender-side software path, the wait for its egress link, the
  /// serialization of `bytes`, propagation and the receiver-side overhead.
  /// Occupies the link, charges net.messages/net.bytes and returns the
  /// arrival time.
  TimePs egress(NodeId src, TimePs now, std::uint64_t bytes);
  /// Puts one physical copy on the lossy wire: charges the egress model,
  /// consults the fault injector, and schedules the arrival(s) into the
  /// reliable channel. Fault path only.
  void transmit(Message msg, TxKind kind);
  /// Schedules `fn` at `when` in dst's context, from src's context: a
  /// plain schedule_at when both share a queue, a deterministic cross-queue
  /// post otherwise. `when` is always >= the conservative window bound
  /// (NetworkConfig::lookahead) past src's clock, which is what makes the
  /// post invisible until the next window barrier safe.
  void schedule_into(NodeId src, NodeId dst, TimePs when,
                     sim::EventQueue::Callback fn);

  /// queues_[n] is node n's event queue.
  std::vector<sim::EventQueue*> queues_;
  NetworkConfig config_;
  StatsRegistry& stats_;
  trace::Tracer* tracer_;
  std::vector<Handler> handlers_;
  /// Per-node egress link occupancy (bandwidth serialization point).
  std::vector<TimePs> egress_free_;
  /// Per (src,dst) channel: last scheduled delivery time, for FIFO order.
  /// Reliable-path traffic skips this clamp — the receive-side sequence
  /// check supersedes it.
  std::vector<TimePs> channel_last_;
  std::uint32_t node_count_;
  /// Per src node: cross-queue posts issued, the deterministic order key
  /// for posts at equal times. Owned by src's execution context.
  std::vector<std::uint64_t> post_order_;

  FaultConfig faults_;
  std::unique_ptr<FaultInjector> injector_;   ///< non-null iff faults active
  std::unique_ptr<ReliableChannel> reliable_; ///< non-null iff faults active
  /// Per-observer dead-peer bitmap, [observer * node_count_ + node]. All
  /// zero unless the node-fault plane declares a crash or a sender gives up
  /// on a peer (see note_peer_dead for the context-ownership argument).
  std::vector<std::uint8_t> peer_dead_;
};

}  // namespace dqemu::net
