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

  /// `stats` and `tracer` may be null; `queue` must outlive the Network.
  Network(sim::EventQueue& queue, NetworkConfig config,
          std::uint32_t node_count, StatsRegistry* stats = nullptr,
          trace::Tracer* tracer = nullptr, FaultConfig faults = {});

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

  /// Current virtual time (convenience for layers that hold only the
  /// network reference).
  [[nodiscard]] TimePs now() const { return queue_.now(); }

  /// The event queue driving this network. Protocol watchdogs (DSM fault /
  /// lease-recall timeouts) arm their timers here.
  [[nodiscard]] sim::EventQueue& queue() { return queue_; }

  /// `node`'s own event queue — where that node's timers must live so
  /// they fire in its execution context. The shared queue unless
  /// bind_queues was called.
  [[nodiscard]] sim::EventQueue& queue_for(NodeId node) {
    return queues_.empty() ? queue_ : *queues_[node];
  }

  /// Parallel scheduler (DESIGN.md §16): gives every node its own event
  /// queue. Deliveries then cross queues as barrier-drained posts ordered
  /// by (time, src, send order); the reliable channel rebinds its per-link
  /// timers to the owning ends. Call once, before any traffic.
  void bind_queues(const std::vector<sim::EventQueue*>& queues);

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// True when the lossy-wire + reliable-channel path is active
  /// (FaultConfig::enabled).
  [[nodiscard]] bool faults_active() const { return reliable_ != nullptr; }

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------

  /// Installs the bounded give-up callback (fires in the suspecting node's
  /// context when FaultConfig::giveup_retrans trips). The network's own
  /// dead filter for that (observer, peer) pair is set before the hook
  /// runs, so the observer is already quiet when the hook fires.
  void set_peer_dead_hook(ReliableChannel::PeerDeadFn fn) {
    user_peer_dead_ = std::move(fn);
  }

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

  /// True when `observer` has been told `node` is dead.
  [[nodiscard]] bool peer_dead(NodeId observer, NodeId node) const {
    return peer_dead_[static_cast<std::size_t>(observer) * node_count_ +
                      node] != 0;
  }

 private:
  void deliver(Message msg);
  /// Puts one physical copy on the lossy wire: charges the egress model,
  /// consults the fault injector, and schedules the arrival(s) into the
  /// reliable channel. Fault path only.
  void transmit(Message msg, TxKind kind);
  /// Schedules `fn` at `when` in dst's context, from src's context: a
  /// plain schedule_at on a shared queue, a deterministic cross-queue post
  /// otherwise. `when` is always >= the conservative window bound
  /// (NetworkConfig::lookahead) past src's clock, which is what makes the
  /// post invisible until the next window barrier safe.
  void schedule_into(NodeId src, NodeId dst, TimePs when,
                     sim::EventQueue::Callback fn);

  sim::EventQueue& queue_;
  NetworkConfig config_;
  StatsRegistry* stats_;
  trace::Tracer* tracer_;
  std::vector<Handler> handlers_;
  /// Per-node egress link occupancy (bandwidth serialization point).
  std::vector<TimePs> egress_free_;
  /// Per (src,dst) channel: last scheduled delivery time, for FIFO order.
  /// Reliable-path traffic skips this clamp — the receive-side sequence
  /// check supersedes it.
  std::vector<TimePs> channel_last_;
  std::uint32_t node_count_;
  /// Per-node queues when running partitioned; empty in the serial kernel.
  std::vector<sim::EventQueue*> queues_;
  /// Per src node: cross-queue posts issued, the deterministic order key
  /// for posts at equal times. Owned by src's execution context.
  std::vector<std::uint64_t> post_order_;

  FaultConfig faults_;
  std::unique_ptr<FaultInjector> injector_;   ///< non-null iff faults active
  std::unique_ptr<ReliableChannel> reliable_; ///< non-null iff faults active
  /// Per-observer dead-peer bitmap, [observer * node_count_ + node]. All
  /// zero unless the node-fault plane declares a crash (see note_peer_dead
  /// for the context-ownership argument).
  std::vector<std::uint8_t> peer_dead_;
  /// Embedder's give-up callback, run after the dead filter is set.
  ReliableChannel::PeerDeadFn user_peer_dead_;
};

}  // namespace dqemu::net
