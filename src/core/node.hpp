// One DQEMU instance: a cluster node.
//
// Owns the node's copy of the guest address space, the DBT (translation
// cache + execution engine + LL/SC table), the DSM client, and the node's
// guest threads with their core scheduler. A home node — the master always,
// every slave under home sharding — also builds and owns a directory and a
// futex service, which run on this node's memory and event queue.
//
// Scheduling model: `cores_per_node` simulated cores multiplex the node's
// runnable TCG-threads in FIFO order; one engine call = one quantum of at
// most `quantum_insns` guest instructions. Blocking events (remote page
// faults, delegated syscalls, futex waits, sleeps) release the core.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/guest_thread.hpp"
#include "core/wire.hpp"
#include "dbt/exec.hpp"
#include "dbt/llsc_table.hpp"
#include "dbt/translation.hpp"
#include "dsm/client.hpp"
#include "dsm/directory.hpp"
#include "mem/address_space.hpp"
#include "mem/shadow_map.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sys/classify.hpp"
#include "sys/futex_home.hpp"
#include "sys/lock_agent.hpp"
#include "sys/master_syscalls.hpp"
#include "trace/tracer.hpp"

namespace dqemu::core {

class Node {
 public:
  /// Unrecoverable guest/protocol error: the cluster run must fail.
  using FatalFn = std::function<void(std::string)>;

  Node(NodeId id, const ClusterConfig& config, sim::EventQueue& queue,
       net::Network& network, StatsRegistry& stats, FatalFn fatal,
       trace::Tracer* tracer = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] mem::AddressSpace& space() { return space_; }
  [[nodiscard]] const mem::AddressSpace& space() const { return space_; }
  [[nodiscard]] mem::ShadowMap& shadow() { return shadow_; }
  [[nodiscard]] dbt::LlscTable& llsc() { return llsc_; }
  [[nodiscard]] dbt::TranslationCache& tcache() { return tcache_; }
  [[nodiscard]] const dbt::TranslationCache& tcache() const { return tcache_; }
  [[nodiscard]] const std::map<GuestTid, GuestThread>& threads() const {
    return threads_;
  }
  [[nodiscard]] std::map<GuestTid, GuestThread>& threads() { return threads_; }

  /// Creates a TCG-thread on this node and makes it runnable.
  void add_thread(const dbt::CpuContext& ctx, GuestAddr ctid,
                  std::int32_t hint_group);

  /// The home this node hosts (DESIGN.md §17): handle_message routes the
  /// home-plane traffic addressed here to it, and on_node_dead sweeps it.
  /// The master is home 0 — of every page when sharding is off — and each
  /// slave is a home only under sharding. Null where this node hosts none,
  /// and the directory in single-node baseline mode, which runs no DSM.
  [[nodiscard]] dsm::Directory* directory() { return directory_.get(); }
  [[nodiscard]] sys::FutexService* futexes() { return futexes_.get(); }

  /// This node's placement view: home of each page (kMasterNode throughout
  /// when sharding is off).
  [[nodiscard]] const dsm::HomeView& homes() const { return homes_; }

  /// Handles node-addressed messages the cluster routes here: DSM client
  /// traffic, home-plane traffic when this node is a home, syscall
  /// responses and thread-management messages.
  void handle_message(const net::Message& msg);

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------

  /// Crash last gasp, run in this node's own execution context so both
  /// schedulers order it identically: flush dirty pages home, return held
  /// lock leases with their queues, hand any hosted home shard to the
  /// master, capture live threads into a kCrashReport (sent last, so FIFO
  /// orders it after every flush/handoff), cancel all timers, go dark.
  void crash();
  /// Pause-and-rejoin: freeze guest execution and buffer every incoming
  /// message for `pause_for` of virtual time; on rejoin, drain the buffer
  /// in arrival order. The node's reliable links stay live (acks keep
  /// flowing below this layer), so nothing is revoked — peers just wait.
  void pause(DurationPs pause_for);
  /// Survivor-side sweep on a kNodeDead notice (the master runs it directly
  /// on kCrashReport): forget learned home routes through the dead node,
  /// drop its waiters from owned lease queues, sweep any hosted home, and
  /// stop retransmitting to it.
  void on_node_dead(NodeId dead);
  [[nodiscard]] bool dead() const { return dead_; }

  /// Number of threads not yet exited.
  [[nodiscard]] std::size_t live_threads() const;
  /// One-line description of every blocked thread (deadlock reports).
  [[nodiscard]] std::string blocked_dump() const;

  /// Guest-memory block copy honouring the shadow map (syscall payloads).
  void read_guest(GuestAddr addr, std::span<std::uint8_t> out) const;
  void write_guest(GuestAddr addr, std::span<const std::uint8_t> in);

 private:
  // ---- core scheduling --------------------------------------------------
  void enqueue(GuestTid tid);
  void kick();
  void core_run(CoreId core, GuestTid tid);
  void finish_slice(CoreId core, GuestTid tid, const dbt::ExecResult& r);
  void release_core_after(CoreId core, DurationPs delay);

  // ---- fault & syscall plumbing ------------------------------------------
  void block_on_page(GuestThread& t, GuestAddr fault_addr, bool write);
  void wake_page_waiters(std::uint32_t page);
  /// Drives a thread's PendingSyscall state machine until it completes or
  /// blocks. Returns true if the thread became runnable again.
  void attempt_syscall(GuestTid tid);
  /// Ensures local access to `ranges`; if some page is missing, blocks the
  /// thread on it (DSM request) and returns false.
  bool ensure_access(GuestThread& t, const std::vector<sys::PreAccess>& ranges);
  void run_local_syscall(GuestThread& t, PendingSyscall& call);
  void delegate_syscall(GuestThread& t, PendingSyscall& call);
  void commit_syscall(GuestTid tid);
  void on_syscall_response(const net::Message& msg);
  /// Opens the `sys.delegate` causal chain of `t`'s pending call (when the
  /// kSys category records).
  void open_delegate_flow(GuestThread& t);
  /// Parks `t` until its pending call's response (or local completion).
  void block_on_syscall(GuestThread& t);
  /// Ends a blocked call's wait: charges the blocked time to idle or
  /// syscall and closes its `sys.delegate` chain. Returns the thread.
  GuestThread& end_block(GuestTid tid, std::int64_t result);
  /// Completes `t`'s pending call with `result` and makes it runnable —
  /// the one place a syscall returns to the guest.
  void resume(GuestThread& t, std::int64_t result);

  // ---- hierarchical locking (lock agent) ---------------------------------
  /// Completes a blocked FUTEX_WAIT/WAKE without a home response: the
  /// local-grant path of the lock agent and batched cross-node wakes.
  void complete_futex_locally(GuestTid tid, std::int64_t result);
  /// complete_futex_locally(tid, woken) after the agent's local service
  /// cost.
  void complete_after_agent(GuestTid tid, std::uint32_t woken);
  void on_wake_batch(const net::Message& msg);

  // ---- thread management ---------------------------------------------------
  void on_create_thread(const net::Message& msg);
  void on_migrate_req(const net::Message& msg);
  void on_migrate_thread(const net::Message& msg);
  void send_migration(GuestTid tid);
  void finish_thread_exit(GuestTid tid);

  /// Home of the futex at `addr` — the home of its containing *original*
  /// page. Deliberately not shadow-translated: every node (and the master's
  /// exit-wake resolver) must map a futex to the same home even while their
  /// shadow maps transiently diverge during a page split, or a wait and its
  /// wake could be arbitrated by different homes (DESIGN.md §17).
  [[nodiscard]] NodeId futex_home(GuestAddr addr) const {
    return homes_.home_of(addr / machine_.page_size);
  }

  /// This node's instrumentation site for `cat`, on the node-level track.
  [[nodiscard]] trace::Site site(trace::Cat cat) const {
    return {tracer_, cat, id_, trace::kTrackNode};
  }
  /// Simulated core `core`'s lane, where its execution slices sit.
  [[nodiscard]] trace::Site core_site(CoreId core) const {
    return {tracer_, trace::Cat::kSim, id_,
            static_cast<std::uint16_t>(trace::kTrackCoreBase + core)};
  }

  /// Walks [addr, addr+len) in shadow-translated chunks.
  void for_each_chunk(
      GuestAddr addr, std::uint32_t len,
      const std::function<void(GuestAddr resolved, std::uint32_t n)>& fn) const;

  NodeId id_;
  const ClusterConfig& config_;
  MachineConfig machine_;  ///< this node's hardware (heterogeneous clusters)
  sim::EventQueue& queue_;
  net::Network& network_;
  StatsRegistry& stats_;
  FatalFn fatal_;
  trace::Tracer* tracer_;

  mem::AddressSpace space_;
  mem::ShadowMap shadow_;
  dbt::LlscTable llsc_;
  dbt::TranslationCache tcache_;
  dbt::ExecEngine engine_;
  /// Placement view; must precede dsm_, which holds a reference to it.
  dsm::HomeView homes_;
  dsm::DsmClient dsm_;
  sys::LockAgent lock_agent_;
  /// The hosted home; see directory().
  std::unique_ptr<dsm::Directory> directory_;
  std::unique_ptr<sys::FutexService> futexes_;

  std::map<GuestTid, GuestThread> threads_;
  std::deque<GuestTid> run_queue_;
  std::vector<bool> core_busy_;

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------
  /// Serializes one captured thread into a kCrashReport record.
  void capture_thread(const GuestThread& t, std::vector<std::uint8_t>& out);
  bool dead_ = false;
  bool paused_ = false;
  /// Messages received while paused, replayed in arrival order at rejoin.
  std::vector<net::Message> paused_inbox_;
};

}  // namespace dqemu::core
