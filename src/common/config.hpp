// Cluster-wide configuration.
//
// Defaults model the paper's testbed (section 6.1): 7 workstations with
// Intel i5-6500 quad-core CPUs at 3.3 GHz, connected by a Gigabit switch
// with an average TCP round-trip latency of 55 microseconds. The costs
// some caller sets (a bench sweep, a CLI flag, a test) are fields; the rest
// are `static constexpr` members, read the same way, so a write to one
// fails to compile instead of silently configuring nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace dqemu {

/// Per-node hardware model.
struct MachineConfig {
  double cpu_ghz = 3.3;            ///< core frequency (i5-6500)
  std::uint32_t cores_per_node = 4;
  std::uint32_t page_size = 4096;  ///< guest/host page size in bytes

  /// Converts core cycles to simulated picoseconds.
  [[nodiscard]] DurationPs cycles(std::uint64_t n) const {
    return cycles_to_ps(n, cpu_ghz);
  }
};

/// Interconnect model (section 6.1: 1 Gb/s switch, 55 us TCP RTT).
struct NetworkConfig {
  double bandwidth_gbps = 1.0;  ///< link bandwidth, gigabits per second

  /// One-way propagation + switching latency. Half the measured 55 us RTT.
  DurationPs one_way_latency = 27'500 * time_literals::kNs;

  /// Per-message software cost on EACH endpoint (TCP stack, serialization,
  /// communicator/manager thread wakeup, SIGSEGV handler hand-off). The
  /// paper measures a 410.5 us average remote-page cost against a 55 us
  /// RTT + ~33 us page transmission; the difference is this software path.
  DurationPs endpoint_overhead = 52'500 * time_literals::kNs;

  /// Fixed per-message header bytes added to every payload.
  static constexpr std::uint32_t header_bytes = 64;

  /// Delivery latency for node-local (loopback) messages, e.g. a master
  /// guest thread talking to the directory. Models a function call plus
  /// lock hand-off rather than the TCP stack.
  static constexpr DurationPs loopback_latency = 500 * time_literals::kNs;

  /// Serialization (wire) time for `bytes` on this link.
  [[nodiscard]] DurationPs wire_time(std::uint64_t bytes) const {
    // bits / (gigabits per second) = nanoseconds; keep integer math in ps.
    const double ns = static_cast<double>((bytes + header_bytes) * 8ULL) /
                      bandwidth_gbps;
    return static_cast<DurationPs>(ns * 1000.0 + 0.5);
  }

  /// Conservative-simulation lookahead (DESIGN.md §16): a lower bound on
  /// (delivery time - send time) for every cross-node message. The send
  /// path charges endpoint_overhead on each side plus propagation plus at
  /// least the zero-payload wire time; fault injection and egress queueing
  /// only ever add delay. Loopback traffic is faster but stays inside one
  /// node's event queue, so it does not bound the cross-queue window.
  [[nodiscard]] DurationPs lookahead() const {
    return 2 * endpoint_overhead + one_way_latency + wire_time(0);
  }
};

/// DBT engine cost model.
struct DbtConfig {
  /// Host cycles charged per executed guest ALU/branch micro-op. QEMU's
  /// TCG expands a guest instruction to roughly this many host cycles.
  static constexpr std::uint32_t cycles_per_op = 6;
  /// Extra cycles for a guest memory access (guest->host address
  /// translation + the software load/store path).
  static constexpr std::uint32_t cycles_per_mem_op = 8;
  /// Extra cycles for FP "libm-class" ops (exp/log/pow/sqrt...).
  static constexpr std::uint32_t cycles_per_fp_special = 40;
  /// One-time translation cost per guest instruction in a block.
  static constexpr std::uint32_t translate_cycles_per_insn = 800;
  /// Cost of taking a page-protection trap into the DSM layer
  /// (the paper cites ~2000 cycles for a page-fault trap).
  static constexpr std::uint32_t fault_trap_cycles = 2000;
  /// Cost of entering the syscall emulation path.
  static constexpr std::uint32_t syscall_trap_cycles = 400;
  /// Home-side service cost of a delegated syscall (manager thread work).
  static constexpr std::uint32_t syscall_service_cycles = 1500;
  /// Maximum guest instructions executed per scheduling quantum.
  std::uint32_t quantum_insns = 20'000;
  /// Executions of a block's own trace between attempts to stitch the
  /// chain it heads into a superblock (DESIGN.md section 15). Low = eager
  /// trace selection, high = long one-block stretches. Host-side only:
  /// virtual-time results do not depend on it.
  std::uint32_t sb_hot_threshold = 64;
};

/// Placement policy mapping guest pages (and futex addresses, via their
/// containing page) to home nodes when home sharding is on (DESIGN.md §17).
enum class HomePlacement : std::uint8_t {
  kHash,        ///< deterministic hash of the page number over the slaves
  kFirstTouch,  ///< master assigns the first requester as the page's home
};

/// DSM protocol + optimizations (sections 4.2, 5.1, 5.2).
struct DsmConfig {
  /// Directory lookup / state machine cost per request — on the master,
  /// or on a page's home node when home sharding is on.
  static constexpr std::uint32_t directory_cycles = 600;

  /// Per-message service time of a slave's manager thread at the directory
  /// host (paper Fig. 2: one manager thread per slave). Demand traffic to
  /// a node serializes on its manager; this is the dominant software cost
  /// inside the paper's 410 us remote-page figure.
  DurationPs manager_service = 100 * time_literals::kUs;
  /// Manager cost of emitting one speculative forward push (no request
  /// parsing, no fault hand-off: a batched stream operation).
  static constexpr DurationPs forward_service = 5 * time_literals::kUs;

  /// Page splitting (5.1): enabled + trigger threshold. A page is split
  /// after it has been requested by different nodes at different offsets
  /// more than `split_threshold` times (paper: 10).
  bool enable_splitting = false;
  std::uint32_t split_threshold = 10;
  /// Number of shadow pages a false-sharing page is split into (paper
  /// figure 4 shows 4).
  std::uint32_t split_shards = 4;

  /// Diff-encoded page transfers (DESIGN.md §12): writebacks, downgrades,
  /// grants and forwards ship a per-line dirty bitmap + the changed lines
  /// instead of the full page whenever the receiver provably holds a known
  /// older version (twin/diff, TreadMarks-style). Virtual-time
  /// optimization: guest results are identical, transfer bytes and
  /// sim_seconds improve.
  bool enable_diff_transfers = false;
  /// Per-page dirty-mask history depth the directory retains; a requester
  /// whose copy is more than this many content versions old falls back to
  /// a full-page transfer.
  std::uint32_t diff_history_depth = 16;

  /// Data forwarding (5.2): enabled + sequential-stream trigger. Page
  /// forwarding starts after `forward_trigger` sequential page requests
  /// (paper: 4) and pushes `forward_depth` pages ahead in Shared state.
  bool enable_forwarding = false;
  std::uint32_t forward_trigger = 4;
  std::uint32_t forward_depth = 32;
  /// Concurrent streams tracked per node (Linux readahead keeps a table
  /// too); must cover the threads-per-node that walk disjoint regions.
  static constexpr std::uint32_t forward_streams = 48;

  /// Home-node sharding (DESIGN.md §17): distribute the coherence
  /// directory and the futex/lease tables across per-page home nodes
  /// instead of funneling every protocol action through the master. The
  /// thin master keeps boot, placement authority, run control and the
  /// serving plane. With this off every protocol message is addressed to
  /// node 0 — bit-for-bit the single-master protocol.
  bool enable_home_sharding = false;
  HomePlacement home_placement = HomePlacement::kHash;
};

/// Deterministic network fault injection + the reliable-delivery sublayer
/// (DESIGN.md section 13). With `enabled` false the interconnect is the
/// original perfectly reliable FIFO wire, bit-for-bit. With it on,
/// non-loopback messages may be dropped, duplicated, delay-jittered or
/// reordered — all decided by a counter-based SplitMix64 stream keyed by
/// `seed` and the transmission number, never by host randomness — and a
/// go-back-N reliable channel (per-link sequence numbers, cumulative acks
/// piggybacked on reverse traffic, retransmit timers with exponential
/// backoff, receive-side duplicate suppression and reorder hold-back)
/// restores exactly-once per-channel FIFO delivery above the lossy wire.
struct FaultConfig {
  bool enabled = false;
  /// Seed of the fault decision stream. Same seed + same workload = same
  /// drops, same retransmits, same virtual times, run after run.
  std::uint64_t seed = 1;

  // Baseline per-transmission fault probabilities, in percent [0, 100].
  double drop_pct = 0.0;    ///< message lost on the wire
  double dup_pct = 0.0;     ///< switch delivers a second copy
  double jitter_pct = 0.0;  ///< extra delay drawn uniform in [0, jitter_max]
  static constexpr DurationPs jitter_max = 200 * time_literals::kUs;
  /// Probability that a message is held long enough to slip behind later
  /// traffic on the same link (a deterministic reorder: the receive side
  /// restores sequence order before delivery).
  double reorder_pct = 0.0;
  DurationPs reorder_delay = 300 * time_literals::kUs;

  /// Per-type / per-link override: the first matching rule replaces the
  /// baseline percentages for that transmission. `max_matches` lets tests
  /// target e.g. exactly the first kPageData grant on one link.
  struct Rule {
    static constexpr std::uint32_t kAny = 0xFFFFFFFFu;
    std::uint32_t type = kAny;  ///< exact message type, or kAny
    std::uint32_t src = kAny;   ///< sender node, or kAny
    std::uint32_t dst = kAny;   ///< receiver node, or kAny
    double drop_pct = -1.0;     ///< < 0 inherits the baseline value
    double dup_pct = -1.0;
    double jitter_pct = -1.0;
    double reorder_pct = -1.0;
    std::uint32_t max_matches = 0;  ///< 0 = unlimited
  };
  std::vector<Rule> rules;

  /// Whole-node fault plane (DESIGN.md §18). A crash kills the node at a
  /// seeded virtual time: its threads are captured and re-homed, its leases
  /// and copysets revoked, and a hosted home shard handed to the master. A
  /// pause freezes the node and buffers its inbound messages until it
  /// rejoins (Node::pause). node == 0 / at == 0 draw the target node and
  /// fault time from the same counter-based SplitMix64 stream as the wire
  /// faults, so same-seed runs fail identically. With the vector empty
  /// every code path is bit-for-bit the lossy-wire-only plane.
  struct NodeFault {
    enum class Kind : std::uint8_t { kCrash, kPause };
    Kind kind = Kind::kCrash;
    std::uint32_t node = 0;   ///< slave node id, or 0 = drawn from the seed
    TimePs at = 0;            ///< fault time, or 0 = drawn in fault_window
    DurationPs pause_for = 0; ///< kPause: how long the node stays frozen
  };
  std::vector<NodeFault> node_faults;
  /// Draw window for NodeFault::at == 0: the fault time lands uniformly in
  /// [fault_window/4, fault_window).
  static constexpr DurationPs fault_window = 2 * time_literals::kMs;
  /// Bounded retransmission give-up (the dead-peer backstop): after this
  /// many consecutive zero-progress retransmit rounds on one link, the
  /// sender declares the peer dead (`net.peer_dead`), reports it to the
  /// fault plane and stops retransmitting. 0 = never give up (the pre-§18
  /// behavior; a paused-not-dead peer must not be abandoned).
  std::uint32_t giveup_retrans = 0;

  // Reliable-channel tuning.
  DurationPs retrans_timeout = 1 * time_literals::kMs;  ///< initial RTO
  DurationPs retrans_cap = 16 * time_literals::kMs;     ///< backoff ceiling
  /// Delayed pure ack.
  static constexpr DurationPs ack_delay = 100 * time_literals::kUs;
  /// Protocol watchdogs: outstanding DSM faults and lease recalls re-issue
  /// their request after this long without progress (then back off 2x,
  /// capped at 8x). 0 disables the watchdogs even with faults enabled.
  DurationPs request_timeout = 100 * time_literals::kMs;
};

/// Delegated-syscall layer: hierarchical distributed locking (the third
/// section-5 scalability optimization; DESIGN.md section 11). A per-node
/// lock agent services FUTEX_WAIT/WAKE locally while it holds a
/// master-granted ownership lease for the futex address; everything else
/// falls back to master delegation. Virtual-time optimization: guest
/// results are identical, sim_seconds improves.
struct SysConfig {
  bool enable_hierarchical_locking = false;
  /// Delegated futex ops a node observes on one address between lease
  /// requests: low = aggressive lease migration, high = sticky master.
  static constexpr std::uint32_t lease_request_threshold = 2;
  /// Minimum time the master lets a lease age before recalling it for a
  /// competing node (anti-ping-pong hysteresis).
  DurationPs lease_min_hold = 5 * time_literals::kMs;
  /// Consecutive wakes the agent may hand to same-node waiters before it
  /// must serve the oldest cross-node waiter (lock cohorting; bounds
  /// cross-node starvation).
  static constexpr std::uint32_t lock_cohort_limit = 64;
  /// Agent service cost per locally-served futex op (cycles): the local
  /// kernel's futex path instead of a master RPC.
  static constexpr std::uint32_t lock_agent_cycles = 300;
};

/// How the serving plane's load generator times request injections.
enum class ArrivalProcess : std::uint8_t {
  kPoisson,  ///< open-loop: exponential inter-arrival times at `rate`
  kUniform,  ///< open-loop: constant spacing 1/rate
  kClosed,   ///< closed-loop: `clients` issue, wait for the reply, think
};

/// Request-serving workload plane (DESIGN.md §14): a virtual-time load
/// generator on the master injects requests that guest worker pools pull
/// via the serve syscalls, with log-bucketed latency accounting. Every
/// draw (inter-arrival gap, service class, think time) comes from a
/// counter-based SplitMix64 stream keyed by `seed` and the request number
/// — never host randomness — so same seed + same config reproduces every
/// arrival time and latency sample byte-for-byte. With `enabled` false the
/// batch workloads are bit-identical to a build without this subsystem.
struct ServeConfig {
  bool enabled = false;
  /// Seed of the serving decision stream (arrivals, mix, think times).
  std::uint64_t seed = 7;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// Offered load for the open-loop processes, requests per virtual second.
  double rate = 2000.0;
  /// Total requests injected over the run.
  std::uint32_t requests = 2000;
  /// Closed-loop client population (each has one request in flight).
  std::uint32_t clients = 16;
  /// Closed-loop mean think time between a reply and the next request
  /// (exponentially distributed).
  DurationPs think_mean = 2 * time_literals::kMs;
  /// Executions dispatched per request (>= 2 = request cloning: the first
  /// reply retires the request, the rest are redundant work).
  std::uint32_t clones = 1;
  /// Guest worker-pool size the driver synthesizes (workloads::serve_pool).
  std::uint32_t workers = 32;

  // Service-time mix: relative weights of the three request classes and
  // the mean work units (guest loop iterations) each class costs. Work is
  // jittered ±50% per request, also seed-keyed.
  static constexpr std::uint32_t mix_cheap = 70;
  static constexpr std::uint32_t mix_medium = 25;
  static constexpr std::uint32_t mix_heavy = 5;
  /// Pure ALU loop.
  static constexpr std::uint32_t work_cheap = 300;
  /// Walks a read-shared table (DSM reads).
  static constexpr std::uint32_t work_medium = 2000;
  /// Adds a global-mutex critical section.
  static constexpr std::uint32_t work_heavy = 1000;
  // The work descriptor rides in 28 bits of the syscall result, and the
  // per-request jitter scales it up to 1.5x.
  static_assert(work_cheap >= 1 && work_cheap <= (1u << 27) &&
                    work_medium >= 1 && work_medium <= (1u << 27) &&
                    work_heavy >= 1 && work_heavy <= (1u << 27),
                "serve work units must be in [1, 2^27]");
};

/// Host-side simulation kernel tuning (DESIGN.md §16). With host_threads
/// == 1 the cluster runs on the original single global event queue,
/// bit-for-bit. With N > 1, the kernel is partitioned into one event
/// queue per simulated node and executed on a pool of N host threads under
/// conservative (CMB-style) synchronization, with the modeled cross-node
/// link latency as the lookahead window. Host-side only: virtual-time
/// results are byte-identical for every N.
struct SimConfig {
  std::uint32_t host_threads = 1;
};

/// Guest-thread placement policy (sections 4.1, 5.3).
enum class SchedPolicy {
  kRoundRobin,     ///< spread threads evenly over slave nodes
  kHintLocality,   ///< group threads by their HINT group id (section 5.3)
};

struct SchedConfig {
  SchedPolicy policy = SchedPolicy::kRoundRobin;
};

/// Top-level cluster description.
struct ClusterConfig {
  /// Number of slave nodes (the paper sweeps 1..6). The master node is
  /// additional and hosts the main thread, directory and global syscalls.
  std::uint32_t slave_nodes = 1;

  /// Single-node baseline mode: run everything on the master with direct
  /// (uninstrumented) memory access and host atomics. This models the
  /// "QEMU 4.2.0" baseline used throughout section 6.
  bool single_node_baseline = false;

  /// Total guest address space reserved per node, bytes (32-bit guest).
  std::uint32_t guest_mem_bytes = 256u * 1024 * 1024;

  MachineConfig machine;
  /// Heterogeneous clusters (the paper's introduction motivates DBT
  /// clusters with "different kinds of physical cores"): when non-empty,
  /// one entry per node (index 0 = master) overrides `machine` for that
  /// node. Round-robin placement becomes capacity-weighted.
  std::vector<MachineConfig> node_machines;
  NetworkConfig net;
  DbtConfig dbt;
  DsmConfig dsm;
  SysConfig sys;
  SchedConfig sched;
  FaultConfig faults;
  ServeConfig serve;
  SimConfig sim;

  /// Basic sanity validation; returns the first problem found.
  [[nodiscard]] Status validate() const {
    using S = Status;
    if (slave_nodes == 0 && !single_node_baseline)
      return S::invalid_argument("slave_nodes must be >= 1");
    if (!single_node_baseline && total_nodes() > 256)
      return S::invalid_argument(
          "at most 255 slave_nodes (the sharer set covers 256 nodes)");
    if (dsm.enable_home_sharding && single_node_baseline)
      return S::invalid_argument(
          "home sharding needs a DSM cluster (not single_node_baseline)");
    if (machine.cores_per_node == 0)
      return S::invalid_argument("cores_per_node must be >= 1");
    if (machine.cpu_ghz <= 0.0)
      return S::invalid_argument("cpu_ghz must be positive");
    if (machine.page_size == 0 ||
        (machine.page_size & (machine.page_size - 1)) != 0)
      return S::invalid_argument("page_size must be a power of two");
    if (net.bandwidth_gbps <= 0.0)
      return S::invalid_argument("bandwidth_gbps must be positive");
    if (dsm.split_shards < 2)
      return S::invalid_argument("split_shards must be >= 2");
    if (dsm.enable_diff_transfers && dsm.diff_history_depth == 0)
      return S::invalid_argument("diff_history_depth must be >= 1");
    if ((machine.page_size % dsm.split_shards) != 0)
      return S::invalid_argument("split_shards must divide page_size");
    if (dbt.quantum_insns == 0)
      return S::invalid_argument("quantum_insns must be >= 1");
    if (dbt.sb_hot_threshold == 0)
      return S::invalid_argument("sb_hot_threshold must be >= 1");
    if (faults.enabled) {
      const double pcts[] = {faults.drop_pct, faults.dup_pct,
                             faults.jitter_pct, faults.reorder_pct};
      for (const double pct : pcts) {
        if (pct < 0.0 || pct >= 100.0)
          return S::invalid_argument("fault percentages must be in [0, 100)");
      }
      if (faults.retrans_timeout == 0 ||
          faults.retrans_cap < faults.retrans_timeout)
        return S::invalid_argument(
            "retrans_timeout must be >= 1 and <= retrans_cap");
    }
    if (!faults.node_faults.empty()) {
      if (!faults.enabled)
        return S::invalid_argument(
            "node faults need faults.enabled (the reliable channel and the "
            "protocol watchdogs are the recovery transport)");
      if (single_node_baseline)
        return S::invalid_argument(
            "node faults need a DSM cluster (not single_node_baseline)");
      if (faults.request_timeout == 0)
        return S::invalid_argument(
            "node faults need request_timeout > 0 (orphaned requests are "
            "recovered by re-issue)");
      for (const FaultConfig::NodeFault& nf : faults.node_faults) {
        // The master is the cluster's root of authority (it adopts a dead
        // home's shard); it never crashes or pauses.
        if (nf.node != 0 && (nf.node < 1 || nf.node > slave_nodes))
          return S::invalid_argument(
              "node fault target must be a slave node (1..slave_nodes) or 0 "
              "to draw one");
        if (nf.kind == FaultConfig::NodeFault::Kind::kPause &&
            nf.pause_for == 0)
          return S::invalid_argument("node pause needs pause_for > 0");
        if (nf.kind == FaultConfig::NodeFault::Kind::kCrash &&
            dsm.enable_home_sharding &&
            dsm.home_placement == HomePlacement::kHash)
          return S::invalid_argument(
              "node crashes need first-touch placement (or sharding off): "
              "hash placement cannot re-home a dead home's pages");
      }
    }
    if (serve.enabled) {
      if (serve.requests == 0)
        return S::invalid_argument("serve.requests must be >= 1");
      if (serve.clones == 0)
        return S::invalid_argument("serve.clones must be >= 1");
      if (serve.workers == 0)
        return S::invalid_argument("serve.workers must be >= 1");
      if (serve.arrival != ArrivalProcess::kClosed && serve.rate <= 0.0)
        return S::invalid_argument("serve.rate must be positive (open loop)");
      if (serve.arrival == ArrivalProcess::kClosed && serve.clients == 0)
        return S::invalid_argument("serve.clients must be >= 1 (closed loop)");
    }
    if (sim.host_threads == 0)
      return S::invalid_argument("sim.host_threads must be >= 1");
    if (sim.host_threads > 1 && net.lookahead() == 0)
      return S::invalid_argument(
          "sim.host_threads > 1 needs a nonzero network lookahead "
          "(endpoint_overhead, one_way_latency and wire time all zero)");
    if (guest_mem_bytes < 16u * 1024 * 1024)
      return S::invalid_argument("guest_mem_bytes too small (< 16 MiB)");
    if (!node_machines.empty()) {
      if (node_machines.size() != total_nodes())
        return S::invalid_argument(
            "node_machines must have one entry per node (incl. master)");
      for (const MachineConfig& m : node_machines) {
        if (m.cores_per_node == 0 || m.cpu_ghz <= 0.0)
          return S::invalid_argument("invalid per-node machine override");
        if (m.page_size != machine.page_size)
          return S::invalid_argument(
              "per-node page_size must match the cluster page_size");
      }
    }
    if ((guest_mem_bytes % machine.page_size) != 0)
      return S::invalid_argument("guest_mem_bytes must be page aligned");
    return S::ok();
  }

  /// Number of nodes including the master.
  [[nodiscard]] std::uint32_t total_nodes() const {
    return single_node_baseline ? 1 : slave_nodes + 1;
  }

  /// Hardware model of `node` (per-node override or the cluster default).
  [[nodiscard]] const MachineConfig& machine_for(NodeId node) const {
    if (node < node_machines.size()) return node_machines[node];
    return machine;
  }
};

}  // namespace dqemu
