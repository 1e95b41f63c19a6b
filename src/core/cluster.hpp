// DQEMU public API: a cluster of DQEMU instances (paper figure 2).
//
// Typical embedding:
//
//     dqemu::ClusterConfig config;
//     config.slave_nodes = 4;
//     config.dsm.enable_forwarding = true;
//     dqemu::core::Cluster cluster(config);
//     auto status = cluster.load(program);       // master loads the image
//     auto result = cluster.run();               // event loop to completion
//     // result.value().sim_time is the virtual wall-clock of the guest run
//
// The master node (node 0) hosts the main thread, the delegated-syscall
// engine and home 0 — the coherence directory and futex table, which under
// home sharding every slave hosts a shard of too (DESIGN.md §17); guest
// threads created by clone() are placed on slave nodes by the configured
// scheduling policy.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/checkpoint.hpp"
#include "core/node.hpp"
#include "dsm/directory.hpp"
#include "dsm/placement.hpp"
#include "isa/program.hpp"
#include "net/network.hpp"
#include "serve/load_generator.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sys/master_syscalls.hpp"
#include "trace/tracer.hpp"

namespace dqemu::core {

class Cluster {
 public:
  /// Guardrails for run(): a guest bug (deadlock/livelock) fails the run
  /// instead of hanging the host process.
  struct RunLimits {
    TimePs max_sim_time = 7200 * time_literals::kSec;
    std::uint64_t max_events = 2'000'000'000ULL;
  };

  struct RunResult {
    std::uint32_t exit_code = 0;
    /// Virtual time from boot to guest completion — the quantity every
    /// benchmark in the paper reports ratios of.
    TimePs sim_time = 0;
    std::uint64_t guest_insns = 0;
    /// Per guest thread time breakdown (Fig. 8's execute/pagefault/syscall).
    std::map<GuestTid, TimeBreakdown> per_thread;
    TimeBreakdown total;
    std::string guest_stdout;
  };

  /// `tracer`, when non-null, must outlive the cluster; it is threaded
  /// through every layer (event queue, network, DSM, syscalls, nodes) and
  /// the run loop takes periodic counter snapshots into it.
  explicit Cluster(ClusterConfig config, trace::Tracer* tracer = nullptr);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Loads a program image on the master and creates the main thread.
  [[nodiscard]] Status load(const isa::Program& program);

  /// Runs the event loop until the guest exits (exit_group or last thread
  /// exit), a guest error occurs, or a limit trips.
  [[nodiscard]] Result<RunResult> run(RunLimits limits);
  [[nodiscard]] Result<RunResult> run() { return run(RunLimits{}); }

  // ---- introspection ------------------------------------------------------
  [[nodiscard]] StatsRegistry& stats() { return stats_; }
  [[nodiscard]] sim::EventQueue& queue() { return queue_; }
  [[nodiscard]] sys::Vfs& vfs() { return syscalls_->vfs(); }
  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  /// Directory hosted by node `id` (DESIGN.md §17). Home 0, the master's,
  /// homes the whole page space unless sharding is on; slaves are homes
  /// only under sharding. Null where no directory runs (a slave when
  /// sharding is off, every node in single-node baseline mode).
  [[nodiscard]] dsm::Directory* home(NodeId id) { return node(id).directory(); }
  /// Home 0's directory; null in single-node baseline mode (no DSM).
  [[nodiscard]] dsm::Directory* directory() { return home(kMasterNode); }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  /// Placement authority (DESIGN.md §17). sharded() is false — and every
  /// home is the master — unless home sharding is enabled.
  [[nodiscard]] const dsm::HomeMap& homes() const { return home_map_; }
  /// Serving-plane load generator; null unless ServeConfig::enabled.
  [[nodiscard]] serve::LoadGenerator* serving() {
    return serving_.has_value() ? &*serving_ : nullptr;
  }
  /// Node currently hosting `tid` (master bookkeeping), or kInvalidNode.
  [[nodiscard]] NodeId thread_node(GuestTid tid) const;

  /// Requests migration of a live guest thread to `target` (section 4.1's
  /// remote thread migration); takes effect at the thread's next dispatch.
  [[nodiscard]] Status migrate_thread(GuestTid tid, NodeId target);

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------

  /// Arms a cooperative checkpoint: when the simulation reaches the clean
  /// cut at virtual time `at` (every event strictly before it fired, none
  /// at-or-after started), the cluster state is fingerprinted into
  /// checkpoint_image(). Call before run(); one checkpoint per run.
  void arm_checkpoint(TimePs at) { checkpoint_at_ = at; }
  /// The captured image; empty until the armed cut is reached (and forever
  /// if the guest exits first — the CLI reports that as an error).
  [[nodiscard]] const std::optional<CheckpointImage>& checkpoint_image()
      const {
    return checkpoint_;
  }
  /// Digest fingerprint of the current (quiescent) cluster state. Public
  /// for tests; run() calls it at the armed cut.
  [[nodiscard]] CheckpointImage capture_checkpoint();
  /// Nodes that crashed during the run, in death order.
  [[nodiscard]] const std::vector<NodeId>& dead_nodes() const {
    return dead_nodes_;
  }

 private:
  [[nodiscard]] NodeId pick_node(std::int32_t hint_group);
  void master_handler(const net::Message& msg);
  /// First-touch relay (DESIGN.md §17): a request for a page/futex homed on
  /// a slave that arrived at the master (the sender's placement view had
  /// not learned the home yet) is re-addressed to the true home, tagged
  /// with the original requester via relay_mark. Returns true when the
  /// message was relayed (and must not be handled here).
  [[nodiscard]] bool relay_if_misdirected(const net::Message& msg);
  std::int32_t on_clone(const sys::SyscallRequest& req);
  void on_thread_exit(const sys::SyscallRequest& req);
  /// Samples every stats counter plus the aggregate time breakdown into the
  /// tracer (kCounter records) — the timeline form of the Fig. 8 data.
  /// `at` is the virtual timestamp stamped on the sample: the event time in
  /// the serial loop, the window horizon at a parallel barrier.
  void snapshot_counters(TimePs at);
  /// Node i's event queue at [i]: queue_ for every node in the serial
  /// kernel; in the parallel one queue_ for node 0 and a slave queue, made
  /// here, for each slave.
  [[nodiscard]] std::vector<sim::EventQueue*> make_queue_table();
  /// Conservative-window scheduler (DESIGN.md §16): one event queue per
  /// node on a host thread pool. Taken by run() in the parallel kernel.
  [[nodiscard]] Result<RunResult> run_parallel(RunLimits limits);
  /// Shared end-of-run path: fatal error, guest-deadlock diagnosis, or the
  /// assembled RunResult. Runs single-threaded after the event loop stops.
  [[nodiscard]] Result<RunResult> epilogue();
  /// Routes this thread's trace records, flow ids and stats increments to
  /// queue `index`'s private shard while a window executes.
  void bind_execution_shard(std::size_t index);
  void unbind_execution_shard();
  /// fatal_ can be set from any worker (node fatal hooks run inside slave
  /// windows), so all access goes through the mutex.
  [[nodiscard]] bool fatal_set() const;

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------
  /// Resolves each node-fault rule's drawn fields (node = 0, at = 0) from
  /// the fault seed (counter-based, per-rule streams) and schedules the
  /// kCrashCmd for every rule on the master-plane queue.
  void schedule_node_faults();
  /// kCrashReport: the terminal step of a node's last gasp. Marks the node
  /// dead, repoints its homes at the master, sweeps node 0 like every
  /// survivor, broadcasts kNodeDead, re-homes the captured threads, and
  /// patches the serving plane's bookkeeping.
  void on_crash_report(const net::Message& msg);
  /// Lowest-id surviving slave (the master if none remain): where a dead
  /// node's threads land and where dead-slave placements are redirected.
  [[nodiscard]] NodeId replacement_node() const;
  [[nodiscard]] bool is_dead(NodeId id) const;
  /// Captures the armed checkpoint if the clean cut has been reached
  /// (`horizon` = earliest unfired event anywhere; nullopt = drained).
  void capture_if_due(std::optional<TimePs> horizon);

  ClusterConfig config_;
  trace::Tracer* tracer_ = nullptr;
  /// The kernel, picked once from the config: partitioned (DESIGN.md §16)
  /// when there are host threads to spare and nodes to spread over them.
  bool parallel_;
  StatsRegistry stats_;
  sim::EventQueue queue_;
  /// Parallel kernel only: one private event queue per slave node (the
  /// master plane — node 0 with home 0, the syscall engine, serving —
  /// keeps queue_). Declared before network_: the reliable channel's
  /// per-link timers cancel into these queues on destruction, so they must
  /// outlive it.
  std::vector<std::unique_ptr<sim::EventQueue>> slave_queues_;
  /// Holds the node-to-queue table (make_queue_table).
  net::Network network_;
  /// Placement authority; lives on the master plane (first-touch assignment
  /// happens in master_handler, so it needs no locking).
  dsm::HomeMap home_map_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::optional<serve::LoadGenerator> serving_;
  /// Borrows node 0's futex service, home 0's.
  std::optional<sys::MasterSyscalls> syscalls_;

  // Master-side global thread table.
  GuestTid next_tid_ = 1;
  std::map<GuestTid, NodeId> thread_node_;
  std::uint32_t alive_threads_ = 0;
  NodeId rr_next_ = 1;
  /// Smooth weighted round-robin state for heterogeneous clusters
  /// (weight = cores per slave node); empty when the cluster is uniform.
  std::vector<std::int64_t> rr_credits_;

  /// Crashed nodes in death order (master-plane state; mutated only in
  /// master_handler context).
  std::vector<NodeId> dead_nodes_;
  /// Armed checkpoint cut and the image captured there.
  std::optional<TimePs> checkpoint_at_;
  std::optional<CheckpointImage> checkpoint_;

  bool loaded_ = false;
  std::optional<std::uint32_t> exit_code_;
  mutable std::mutex fatal_mutex_;
  std::optional<std::string> fatal_;
};

}  // namespace dqemu::core
