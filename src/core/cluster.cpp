#include "core/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <span>

#include "common/hash.hpp"
#include "common/le_bytes.hpp"
#include "common/log.hpp"
#include "dsm/placement.hpp"
#include "dsm/wire.hpp"
#include "isa/syscall_abi.hpp"
#include "net/fault/node_faults.hpp"
#include "sys/wire.hpp"

namespace dqemu::core {
namespace {

using time_literals::kSec;

/// Memory layout knob (see DESIGN.md "layout"): a 1 MiB main stack sits
/// below the shadow pool, anonymous mmaps grow from the middle, and brk
/// grows from the end of the static image. The shadow-pool geometry itself
/// comes from dsm::home_layout — the one source the placement layer and
/// the memory layout share.
constexpr std::uint32_t kMainStackBytes = 1u << 20;

}  // namespace

Cluster::Cluster(ClusterConfig config, trace::Tracer* tracer)
    : config_(config),
      tracer_(tracer),
      queue_(),
      network_(queue_, config.net, config.total_nodes(), &stats_, tracer,
               config.faults),
      home_map_(config.dsm, dsm::home_layout(config)) {
  const Status valid = config_.validate();
  assert(valid.is_ok() && "invalid ClusterConfig");
  (void)valid;
  queue_.set_tracer(tracer_);

  Node::Hooks hooks;
  hooks.fatal = [this](std::string message) {
    // Node fatal hooks fire inside whichever window is executing the node,
    // so in parallel mode this races with other workers' hooks.
    const std::lock_guard<std::mutex> lock(fatal_mutex_);
    if (!fatal_.has_value()) fatal_ = std::move(message);
  };
  hooks.thread_exited = [](GuestTid) {};

  const std::uint32_t total = config_.total_nodes();

  if (config_.sim.host_threads > 1 && total > 1) {
    // Partitioned kernel: node 0 (and with it the directory, the syscall
    // engine and the serving plane, which all captured queue_ below) stays
    // on queue_; every slave node gets a private queue. Cross-node traffic
    // becomes barrier-drained posts (Network::bind_queues).
    queues_.reserve(total);
    queues_.push_back(&queue_);
    slave_queues_.reserve(total - 1);
    for (NodeId id = 1; id < total; ++id) {
      slave_queues_.push_back(std::make_unique<sim::EventQueue>());
      slave_queues_.back()->set_tracer(tracer_);
      queues_.push_back(slave_queues_.back().get());
    }
    network_.bind_queues(queues_);
    if (tracer_ != nullptr) tracer_->configure_shards(total);
    stats_.configure_shards(total);
  }

  nodes_.reserve(total);
  for (NodeId id = 0; id < total; ++id) {
    sim::EventQueue& node_queue = queues_.empty() ? queue_ : *queues_[id];
    nodes_.push_back(std::make_unique<Node>(id, config_, node_queue, network_,
                                            &stats_, hooks, tracer_));
  }

  // Shadow pool: top of the guest space (geometry from the placement layer).
  const dsm::HomeLayout& layout = home_map_.layout();
  const bool sharded = home_map_.sharded();
  if (config_.single_node_baseline) {
    // Baseline "QEMU" mode: one node, no DSM, direct memory access.
    nodes_[kMasterNode]->space().set_all_access(mem::PageAccess::kReadWrite);
  } else if (sharded) {
    // A sharded Directory skips the single-master boot claim, but the
    // master still owns every byte at boot (it loads the image): the
    // shards' entries default to owner == master, so their first
    // transaction recalls the boot content from the master's client over
    // the ordinary wire protocol.
    mem::AddressSpace& master_space = nodes_[kMasterNode]->space();
    master_space.set_all_access(mem::PageAccess::kReadWrite);
    for (std::uint64_t i = 0; i < layout.shadow_page_count; ++i) {
      master_space.set_access(
          static_cast<std::uint32_t>(layout.shadow_first_page + i),
          mem::PageAccess::kNone);
    }
  }

  // Home table (DESIGN.md §17): one home per hosting node, each built the
  // same way. Home 0 is the master's; slaves are homes only under sharding.
  const std::uint32_t home_count = sharded ? total : 1;
  home_table_.reserve(home_count);
  for (NodeId id = 0; id < home_count; ++id) {
    sim::EventQueue& node_queue = queues_.empty() ? queue_ : *queues_[id];
    const MachineConfig& machine = config_.machine_for(id);
    Home& home = home_table_.emplace_back();
    if (!config_.single_node_baseline) {
      // Home 0 homes the whole shadow pool when sharding is off. Sharded,
      // the pool is sliced among the slave homes and home 0, which then
      // never splits pages, gets none of it.
      std::uint64_t pool_first = layout.shadow_first_page;
      std::uint64_t pool_count = sharded ? 0 : layout.shadow_page_count;
      if (id != kMasterNode) {
        pool_first = layout.slice_first(id);
        pool_count = layout.slice_count(id);
      }
      dsm::Directory::Params params;
      params.dsm = config_.dsm;
      params.machine = machine;
      params.node_count = total;
      params.shadow_pool_first_page = static_cast<std::uint32_t>(pool_first);
      params.shadow_pool_page_count = static_cast<std::uint32_t>(pool_count);
      params.self = id;
      params.sharded = sharded;
      home.directory = std::make_unique<dsm::Directory>(
          network_, node_queue, nodes_[id]->space(), params, &stats_, tracer_);
    }
    home.futexes = std::make_unique<sys::FutexService>(
        id, network_, node_queue, machine, config_.sys.lease_min_hold,
        config_.faults.request_timeout, &stats_, tracer_);
    nodes_[id]->host_home_shard(home.directory.get(), home.futexes.get());
  }

  // Thread-exit ctid wakes must reach whichever home arbitrates the futex
  // (the master when sharding is off). Resolved against the *original*
  // address's page, like every other futex routing decision (see
  // Node::futex_home).
  syscalls_.emplace(
      network_, queue_, config_.machine.page_size,
      *home_table_[kMasterNode].futexes,
      [this](GuestAddr addr) {
        return home_map_.home_of(addr / config_.machine.page_size);
      },
      &stats_, tracer_);
  sys::MasterSyscalls::Hooks sys_hooks;
  sys_hooks.on_clone = [this](const sys::SyscallRequest& req) {
    return on_clone(req);
  };
  sys_hooks.on_exit = [this](const sys::SyscallRequest& req) {
    on_thread_exit(req);
  };
  sys_hooks.on_exit_group = [this](std::uint32_t status) {
    if (!exit_code_.has_value()) exit_code_ = status;
  };
  syscalls_->set_hooks(std::move(sys_hooks));

  if (config_.serve.enabled) {
    serving_.emplace(
        queue_, config_.serve, &stats_, tracer_,
        [this](NodeId dst, GuestTid tid, std::int64_t result,
               std::uint64_t flow) {
          // Every dispatch/EOF pays the same manager service delay as any
          // other syscall response.
          home_table_[kMasterNode].futexes->send_response(dst, tid, result,
                                                          flow);
        });
    syscalls_->set_serve_handler([this](const sys::SyscallRequest& req) {
      if (req.num == isa::Sys::kServeGet) {
        serving_->on_get_request(req.src, req.tid, req.flow);
      } else {
        serving_->on_done(req.src, req.tid, req.args[0], req.flow);
      }
    });
  }

  // Message routing: master-plane traffic stops in master_handler; the rest,
  // home 0's included, goes to node 0 like any node's.
  network_.attach(kMasterNode,
                  [this](net::Message msg) { master_handler(msg); });
  for (NodeId id = 1; id < total; ++id) {
    Node* node = nodes_[id].get();
    network_.attach(id,
                    [node](net::Message msg) { node->handle_message(msg); });
  }

  if (net::node_faults_on(config_.faults)) schedule_node_faults();
}

void Cluster::schedule_node_faults() {
  // Each rule draws its unresolved fields (node == 0, at == 0) from a
  // per-rule counter-based SplitMix64 stream off the fault seed — the same
  // run-is-a-pure-function-of-the-config discipline as the wire injector
  // and the load generator. The resolved values are written back into
  // config_ so config() (and the CLI summary) reports what actually fired.
  std::uint64_t rule = 0;
  for (FaultConfig::NodeFault& nf : config_.faults.node_faults) {
    if (nf.node == 0) {
      std::uint64_t state = config_.faults.seed ^ 0x6E6F64656661756CULL ^
                            (rule * 0x9E3779B97F4A7C15ULL);
      nf.node =
          static_cast<std::uint32_t>(splitmix64(state) % config_.slave_nodes) +
          1;
    }
    if (nf.at == 0) {
      std::uint64_t state = config_.faults.seed ^ 0x66617561745F6174ULL ^
                            (rule * 0xBF58476D1CE4E5B9ULL);
      const DurationPs window = config_.faults.fault_window;
      nf.at = window / 4 + splitmix64(state) % (window - window / 4);
    }
    const auto target = static_cast<NodeId>(nf.node);
    const DurationPs pause =
        nf.kind == FaultConfig::NodeFault::Kind::kPause ? nf.pause_for : 0;
    queue_.schedule_at(nf.at, [this, target, pause] {
      stats_.add(pause == 0 ? "core.crash_cmds" : "core.pause_cmds");
      net::Message cmd;
      cmd.src = kMasterNode;
      cmd.dst = target;
      cmd.type = static_cast<std::uint32_t>(CoreMsg::kCrashCmd);
      cmd.b = pause;
      network_.send(std::move(cmd));
    });
    ++rule;
  }
}

void Cluster::master_handler(const net::Message& msg) {
  if (home_map_.sharded() && relay_if_misdirected(msg)) return;
  // Master-plane work only. Home-plane traffic — directory requests and
  // acks, lease traffic, crash flushes and lease returns — falls through to
  // node 0, which routes it to home 0 exactly as a slave routes to its own.
  switch (msg.type) {
    case static_cast<std::uint32_t>(sys::SysMsg::kSyscallReq):
      syscalls_->handle_message(msg);
      return;
    case static_cast<std::uint32_t>(CoreMsg::kMigrateDone):
      thread_node_[static_cast<GuestTid>(msg.a)] =
          static_cast<NodeId>(msg.b);
      return;
    case static_cast<std::uint32_t>(CoreMsg::kHomeHandoff):
      home_table_[kMasterNode].directory->adopt_entry(
          static_cast<std::uint32_t>(msg.a), msg.data);
      return;
    case static_cast<std::uint32_t>(CoreMsg::kFutexHandoff):
      home_table_[kMasterNode].futexes->adopt_handoff(msg.data);
      return;
    case static_cast<std::uint32_t>(CoreMsg::kCrashReport):
      on_crash_report(msg);
      return;
    default:
      nodes_[kMasterNode]->handle_message(msg);
      return;
  }
}

bool Cluster::is_dead(NodeId id) const {
  return std::find(dead_nodes_.begin(), dead_nodes_.end(), id) !=
         dead_nodes_.end();
}

NodeId Cluster::replacement_node() const {
  const auto total = static_cast<NodeId>(nodes_.size());
  for (NodeId id = 1; id < total; ++id) {
    if (!is_dead(id)) return id;
  }
  return kMasterNode;  // every slave is dead: the master soldiers on
}

void Cluster::on_crash_report(const net::Message& msg) {
  const auto dead = static_cast<NodeId>(msg.a);
  if (is_dead(dead)) return;  // duplicate report (defensive)
  dead_nodes_.push_back(dead);
  stats_.add("core.nodes_dead");

  // Placement authority: every page (and futex) homed on the dead node now
  // answers at the master, which adopted the shard state moments ago — the
  // dying node's FIFO put kHomeHandoff/kFutexHandoff ahead of this report.
  stats_.add("dsm.pages_rehomed", home_map_.repoint_dead_home(dead));

  // The master sweeps itself as every survivor does (it does not message
  // itself): node 0's client-side caches, home 0's directory and futexes.
  nodes_[kMasterNode]->on_node_dead(dead);

  // Tell every surviving slave. Per-link FIFO from the master orders this
  // kNodeDead ahead of the kMigrateThread re-homings below, so a surviving
  // node always sweeps its state for the dead peer before it can run one
  // of the dead peer's threads.
  const auto total = static_cast<NodeId>(nodes_.size());
  for (NodeId id = 1; id < total; ++id) {
    if (id == dead || is_dead(id)) continue;
    net::Message note;
    note.src = kMasterNode;
    note.dst = id;
    note.type = static_cast<std::uint32_t>(CoreMsg::kNodeDead);
    note.a = dead;
    network_.send(std::move(note));
  }

  // Re-home the captured threads (record format: Node::capture_thread).
  const NodeId replacement = replacement_node();
  std::vector<GuestTid> serveget_tids;
  le::Reader in(msg.data);
  for (std::uint64_t i = 0; i < msg.b; ++i) {
    const std::span<const std::uint8_t> frame =
        in.bytes(dbt::CpuContext::kWireBytes + kBreakdownWireBytes);
    const std::uint32_t ctid = in.u32();
    const std::uint32_t hint = in.u32();
    const bool has_pending = in.u32() != 0;
    std::span<const std::uint8_t> pending;
    if (has_pending) pending = in.bytes(kPendingSyscallWireBytes);
    const dbt::CpuContext ctx = dbt::CpuContext::deserialize(frame);
    thread_node_[ctx.tid] = replacement;
    if (has_pending && static_cast<isa::Sys>(le::Reader(pending).u32()) ==
                           isa::Sys::kServeGet) {
      serveget_tids.push_back(ctx.tid);
    }
    net::Message mig;
    mig.src = kMasterNode;
    mig.dst = replacement;
    mig.type = static_cast<std::uint32_t>(CoreMsg::kMigrateThread);
    mig.a = ctx.tid;
    mig.b = ctid;
    mig.c = static_cast<std::uint64_t>(hint);
    mig.data.assign(frame.begin(), frame.end());
    if (has_pending) {
      mig.data.insert(mig.data.end(), pending.begin(), pending.end());
    }
    network_.send(std::move(mig));
    stats_.add("core.threads_rehomed_sent");
  }

  // Patch the serving plane last: its re-queue/re-key decisions depend on
  // which threads died mid-kServeGet, known only after the parse above.
  if (serving_.has_value()) {
    serving_->on_node_crash(dead, replacement, serveget_tids);
  }
}

bool Cluster::relay_if_misdirected(const net::Message& msg) {
  const std::uint32_t page_size = config_.machine.page_size;
  NodeId home = kMasterNode;
  switch (msg.type) {
    case static_cast<std::uint32_t>(dsm::DsmMsg::kReadReq):
    case static_cast<std::uint32_t>(dsm::DsmMsg::kWriteReq):
      home = home_map_.home_for(msg.a, msg.src);
      break;
    case static_cast<std::uint32_t>(sys::SysMsg::kSyscallReq): {
      // Only futex delegation is home-routed; every other syscall is the
      // master's to serve. args[0] is the futex address.
      if (static_cast<isa::Sys>(msg.a) != isa::Sys::kFutex) return false;
      const GuestAddr addr = sys::parse_syscall_request(msg).args[0];
      home = home_map_.home_for(addr / page_size, msg.src);
      break;
    }
    case static_cast<std::uint32_t>(sys::SysMsg::kLeaseReq):
      home = home_map_.home_for(
          static_cast<GuestAddr>(msg.a) / page_size, msg.src);
      break;
    default:
      return false;
  }
  if (home == kMasterNode) return false;

  // Re-address to the true home with the original requester parked in the
  // high half of `c` (relay_mark); the low half — the tid of a page
  // request — rides along. The master becomes the wire-level sender, so
  // per-channel FIFO accounting stays sane; `seq`/`ack` are reassigned by
  // the reliable channel on send.
  net::Message relay = msg;
  relay.src = kMasterNode;
  relay.dst = home;
  relay.seq = 0;
  relay.ack = 0;
  relay.c = net::relay_mark(msg.src) | (msg.c & 0xFFFFFFFFull);
  stats_.add("dsm.home_relays");
  network_.send(std::move(relay));
  return true;
}

Status Cluster::load(const isa::Program& program) {
  if (loaded_) return Status::failed_precondition("program already loaded");

  const std::uint32_t page = config_.machine.page_size;
  const dsm::HomeLayout& layout = home_map_.layout();
  const GuestAddr pool_start =
      static_cast<GuestAddr>(layout.shadow_first_page) * page;
  const GuestAddr main_stack_top = pool_start;  // stack grows down from here
  const GuestAddr mmap_end = main_stack_top - kMainStackBytes;
  const GuestAddr mmap_start = config_.guest_mem_bytes / 2;

  if (program.brk_start >= mmap_start) {
    return Status::invalid_argument(
        "program image overlaps the mmap region; increase guest_mem_bytes");
  }
  for (const isa::Section& section : program.sections) {
    if (static_cast<std::uint64_t>(section.addr) + section.bytes.size() >
        mmap_start) {
      return Status::invalid_argument("program section outside image region");
    }
  }

  nodes_[kMasterNode]->space().load_program(program);
  syscalls_->configure_memory(program.brk_start, mmap_start, mmap_end);

  dbt::CpuContext main_ctx;
  main_ctx.tid = next_tid_++;
  main_ctx.pc = program.entry;
  main_ctx.gpr[isa::kSp] = main_stack_top - 16;
  main_ctx.gpr[isa::kTp] = main_ctx.tid;
  thread_node_[main_ctx.tid] = kMasterNode;
  alive_threads_ = 1;
  nodes_[kMasterNode]->add_thread(main_ctx, /*ctid=*/0, /*hint_group=*/-1);

  // Offered load starts at the same virtual instant the guest boots.
  if (serving_.has_value()) serving_->start();

  loaded_ = true;
  return Status::ok();
}

NodeId Cluster::pick_node(std::int32_t hint_group) {
  if (config_.single_node_baseline || config_.slave_nodes == 0) {
    return kMasterNode;
  }
  if (config_.sched.policy == SchedPolicy::kHintLocality && hint_group >= 0) {
    return static_cast<NodeId>(
        1 + static_cast<std::uint32_t>(hint_group) % config_.slave_nodes);
  }
  if (!config_.node_machines.empty()) {
    // Heterogeneous cluster: smooth weighted round-robin over the slaves,
    // weight = compute capacity, so a big node hosts proportionally more
    // guest threads while placement stays interleaved.
    if (rr_credits_.empty()) rr_credits_.assign(config_.slave_nodes, 0);
    std::int64_t total = 0;
    NodeId best = 1;
    for (NodeId n = 0; n < config_.slave_nodes; ++n) {
      const MachineConfig& m = config_.machine_for(static_cast<NodeId>(n + 1));
      // Capacity = cores x clock (x10 to keep integer math honest).
      const auto weight =
          static_cast<std::int64_t>(m.cores_per_node * m.cpu_ghz * 10.0);
      rr_credits_[n] += weight;
      total += weight;
      if (rr_credits_[n] > rr_credits_[best - 1]) {
        best = static_cast<NodeId>(n + 1);
      }
    }
    rr_credits_[best - 1] -= total;
    return best;
  }
  const NodeId target = rr_next_;
  rr_next_ = static_cast<NodeId>(rr_next_ % config_.slave_nodes + 1);
  return target;
}

std::int32_t Cluster::on_clone(const sys::SyscallRequest& req) {
  if (req.payload.size() < dbt::CpuContext::kWireBytes) {
    return -isa::kEINVAL;
  }
  dbt::CpuContext child = dbt::CpuContext::deserialize(req.payload);
  child.tid = next_tid_++;
  child.gpr[isa::kSp] = req.args[1];
  child.gpr[isa::kTp] = child.tid;
  child.set_a0(0);  // the child observes clone() returning 0
  const auto hint = static_cast<std::int32_t>(req.args[3]);
  child.hint_group = hint;

  NodeId target = pick_node(hint);
  if (is_dead(target)) target = replacement_node();
  thread_node_[child.tid] = target;
  ++alive_threads_;
  stats_.add("core.clones");

  net::Message msg;
  msg.src = kMasterNode;
  msg.dst = target;
  msg.type = static_cast<std::uint32_t>(CoreMsg::kCreateThread);
  msg.a = child.tid;
  msg.b = req.args[2];  // ctid
  msg.c = static_cast<std::uint64_t>(static_cast<std::uint32_t>(hint));
  msg.data.resize(dbt::CpuContext::kWireBytes);
  child.serialize(msg.data);
  network_.send(std::move(msg));
  return static_cast<std::int32_t>(child.tid);
}

void Cluster::on_thread_exit(const sys::SyscallRequest& req) {
  (void)req;
  assert(alive_threads_ > 0);
  if (--alive_threads_ == 0 && !exit_code_.has_value()) {
    exit_code_ = 0;
  }
}

NodeId Cluster::thread_node(GuestTid tid) const {
  auto it = thread_node_.find(tid);
  return it == thread_node_.end() ? kInvalidNode : it->second;
}

Status Cluster::migrate_thread(GuestTid tid, NodeId target) {
  if (target >= nodes_.size()) {
    return Status::invalid_argument("migration target out of range");
  }
  if (is_dead(target)) {
    return Status::invalid_argument("migration target is dead");
  }
  const NodeId current = thread_node(tid);
  if (current == kInvalidNode) {
    return Status::not_found("unknown thread id");
  }
  if (current == target) return Status::ok();

  net::Message msg;
  msg.src = kMasterNode;
  msg.dst = current;
  msg.type = static_cast<std::uint32_t>(CoreMsg::kMigrateReq);
  msg.a = tid;
  msg.b = target;
  network_.send(std::move(msg));
  return Status::ok();
}

void Cluster::snapshot_counters(TimePs at) {
  const trace::Site site{tracer_, trace::Cat::kCounter, kMasterNode};
  if (!site.on()) return;
  for (const auto& [name, value] : stats_.counters()) {
    site.record(at, tracer_->intern(name), trace::Kind::kCounter, 0, value, 0);
  }
  // Aggregate time breakdown as a timeline: Fig. 8's bars become curves.
  TimeBreakdown total;
  for (const auto& node : nodes_) {
    for (const auto& [tid, thread] : node->threads()) {
      total += thread.breakdown;
    }
  }
  const std::pair<const char*, DurationPs> parts[] = {
      {"time.execute", total.execute},
      {"time.translate", total.translate},
      {"time.pagefault", total.pagefault},
      {"time.syscall", total.syscall},
      {"time.idle", total.idle}};
  for (const auto& [name, value] : parts) {
    site.record(at, name, trace::Kind::kCounter, 0, value, 0);
  }
}

bool Cluster::fatal_set() const {
  const std::lock_guard<std::mutex> lock(fatal_mutex_);
  return fatal_.has_value();
}

void Cluster::bind_execution_shard(std::size_t index) {
  if (tracer_ != nullptr) tracer_->bind_shard(index);
  stats_.bind_shard(index);
}

void Cluster::unbind_execution_shard() {
  if (tracer_ != nullptr) tracer_->unbind_shard();
  stats_.unbind_shard();
}

Result<Cluster::RunResult> Cluster::run(RunLimits limits) {
  if (!loaded_) return Status::failed_precondition("no program loaded");
  if (!queues_.empty()) return run_parallel(limits);

  const bool counters = trace::wants(tracer_, trace::Cat::kCounter);
  TimePs next_snapshot = counters ? tracer_->config().counter_interval : 0;
  while (!exit_code_.has_value() && !fatal_.has_value()) {
    // Clean cut: every event strictly before the armed time has fired,
    // none at-or-after has — exactly the state the next run_one would
    // break, so capture now.
    capture_if_due(queue_.next_time());
    if (!queue_.run_one()) break;
    if (counters && queue_.now() >= next_snapshot) {
      snapshot_counters(queue_.now());
      next_snapshot = queue_.now() + tracer_->config().counter_interval;
    }
    if (queue_.now() > limits.max_sim_time) {
      return Status::resource_exhausted("simulated time limit exceeded");
    }
    if (queue_.fired() > limits.max_events) {
      return Status::resource_exhausted("event limit exceeded");
    }
  }
  if (counters) snapshot_counters(queue_.now());  // final guest-completion sample
  return epilogue();
}

void Cluster::capture_if_due(std::optional<TimePs> horizon) {
  if (!checkpoint_at_.has_value() || checkpoint_.has_value()) return;
  // Drained (nullopt) with the cut unreached means the guest finished
  // first; leave checkpoint_ empty and let the embedding report it.
  if (!horizon.has_value() || *horizon < *checkpoint_at_) return;
  stats_.merge_shards();  // no-op in the serial kernel
  // No stats counter here: the capture is a pure observer, and an armed
  // run's counter dump must stay bit-identical to the unarmed run's.
  checkpoint_ = capture_checkpoint();
}

CheckpointImage Cluster::capture_checkpoint() {
  CheckpointImage image;
  image.virtual_time = checkpoint_at_.value_or(queue_.now());
  const auto total = static_cast<NodeId>(nodes_.size());
  for (NodeId id = 0; id < total; ++id) {
    Node& node = *nodes_[id];
    // Address space: page content plus access rights — the DSM-visible
    // memory state of the node. An unbacked page folds as the zeros it
    // reads as, without being backed.
    std::uint64_t h = fnv1a_seed();
    mem::AddressSpace& space = node.space();
    for (std::uint32_t page = 0; page < space.num_pages(); ++page) {
      h = space.page_materialized(page)
              ? fnv1a(space.page_data(page), h)
              : fnv1a_zeros(space.page_size(), h);
      h = fnv1a_u32(static_cast<std::uint32_t>(space.access(page)), h);
    }
    image.add("space." + std::to_string(id), h);
    // Threads: register file and run state, in tid order (std::map).
    h = fnv1a_seed();
    std::vector<std::uint8_t> ctx_bytes(dbt::CpuContext::kWireBytes);
    for (const auto& [tid, thread] : node.threads()) {
      thread.ctx.serialize(ctx_bytes);
      h = fnv1a_u32(tid, h);
      h = fnv1a(ctx_bytes, h);
      h = fnv1a_u32(static_cast<std::uint32_t>(thread.state), h);
    }
    image.add("threads." + std::to_string(id), h);
  }
  for (NodeId id = 0; id < home_table_.size(); ++id) {
    const Home& home = home_table_[id];
    if (home.directory != nullptr) {
      image.add("dir." + std::to_string(id), home.directory->digest());
    }
    std::vector<std::uint8_t> bytes;
    home.futexes->table().serialize(bytes);
    image.add("futex." + std::to_string(id), fnv1a(bytes));
  }
  if (serving_.has_value()) image.add("serve", serving_->digest());
  // Progress fingerprint: total retired instructions pins the cut to one
  // point on the execution, not just one shape of the state.
  image.add("insns", stats_.get("dbt.insns"));
  image.normalize();
  return image;
}

Result<Cluster::RunResult> Cluster::epilogue() {
  const std::lock_guard<std::mutex> lock(fatal_mutex_);
  if (fatal_.has_value()) {
    return Status::internal(*fatal_);
  }
  if (!exit_code_.has_value()) {
    std::string dump = "guest deadlock: " +
                       std::to_string(alive_threads_) +
                       " live threads but no pending events\n";
    for (const auto& node : nodes_) dump += node->blocked_dump();
    return Status::failed_precondition(dump);
  }

  RunResult result;
  result.exit_code = *exit_code_;
  result.sim_time = queue_.now();
  result.guest_insns = stats_.get("dbt.insns");
  for (const auto& node : nodes_) {
    for (const auto& [tid, thread] : node->threads()) {
      result.per_thread[tid] = thread.breakdown;
      result.total += thread.breakdown;
    }
  }
  result.guest_stdout = syscalls_->vfs().stdout_text();
  return result;
}

Result<Cluster::RunResult> Cluster::run_parallel(RunLimits limits) {
  // Conservative (CMB-style) synchronization, DESIGN.md §16. Every window:
  //
  //   1. Barrier (single-threaded): drain cross-queue mailboxes, find the
  //      global horizon H = earliest pending event anywhere.
  //   2. Run the master-plane queue over [H, H + L) inline — guest exit and
  //      serving decisions all happen there, and the exit time caps how far
  //      the slaves may still run.
  //   3. Run every slave queue over the same window on the thread pool.
  //
  // L is the network lookahead: no cross-node message sent inside a window
  // can be delivered inside that same window, so each queue can run its
  // slice without ever seeing an input it should have handled earlier.
  // Cross-queue sends land in the target's mailbox and become visible at
  // the next barrier, ordered by (time, sender, sender send-order) — host
  // thread count never changes what any window executes.
  const DurationPs lookahead = config_.net.lookahead();
  sim::ThreadPool pool(config_.sim.host_threads);
  const std::size_t n_queues = queues_.size();

  const bool counters = trace::wants(tracer_, trace::Cat::kCounter);
  TimePs next_snapshot = counters ? tracer_->config().counter_interval : 0;
  Status limit_hit = Status::ok();

  // The slave task and its argument buffers live across windows so the hot
  // loop allocates nothing: windows are microseconds of host work each.
  std::vector<std::size_t> active;
  active.reserve(n_queues);
  TimePs slave_end = 0;
  const std::function<void(std::size_t)> slave_task = [&](std::size_t i) {
    const std::size_t qi = active[i];
    bind_execution_shard(qi);
    (void)queues_[qi]->run_window(slave_end);
    unbind_execution_shard();
  };

  while (!exit_code_.has_value() && !fatal_set()) {
    for (sim::EventQueue* q : queues_) (void)q->drain_posted();

    std::optional<TimePs> horizon;
    for (sim::EventQueue* q : queues_) {
      const std::optional<TimePs> t = q->next_time();
      if (t.has_value() && (!horizon.has_value() || *t < *horizon)) {
        horizon = t;
      }
    }
    if (!horizon.has_value()) break;  // fully drained: exit or deadlock
    if (*horizon > limits.max_sim_time) {
      limit_hit = Status::resource_exhausted("simulated time limit exceeded");
      break;
    }

    if (counters && *horizon >= next_snapshot) {
      stats_.merge_shards();
      snapshot_counters(*horizon);
      next_snapshot = *horizon + tracer_->config().counter_interval;
    }

    // Barrier context, single-threaded, every queue quiescent: the same
    // clean cut the serial kernel sees between run_one calls.
    capture_if_due(horizon);

    TimePs window_end = *horizon + lookahead;
    if (checkpoint_at_.has_value() && !checkpoint_.has_value() &&
        window_end > *checkpoint_at_) {
      // No event at-or-after the armed cut may run before the capture
      // barrier. horizon < checkpoint_at_ here (the capture above would
      // have fired otherwise), so the clamped window still progresses;
      // run_window's end is exclusive, so the cut event itself waits.
      window_end = *checkpoint_at_;
    }

    bind_execution_shard(0);
    (void)queue_.run_window(window_end, [this] {
      return exit_code_.has_value() || fatal_set();
    });
    unbind_execution_shard();

    // On guest exit at T_e the serial kernel stops dead; slaves here still
    // owe their events up to T_e (which the serial kernel fired before the
    // exit event), and nothing after it.
    slave_end = window_end;
    if (exit_code_.has_value() || fatal_set()) {
      slave_end = std::min(window_end, queue_.now() + 1);
    }

    // Dispatch only the queues with events inside the window: a node idle
    // this window (blocked on a remote page, parked worker pool) costs no
    // pool traffic, and a master-only window skips the barrier entirely.
    active.clear();
    for (std::size_t qi = 1; qi < n_queues; ++qi) {
      const std::optional<TimePs> t = queues_[qi]->next_time();
      if (t.has_value() && *t < slave_end) active.push_back(qi);
    }
    pool.run_tasks(active.size(), slave_task);

    std::uint64_t fired = 0;
    for (sim::EventQueue* q : queues_) fired += q->fired();
    if (fired > limits.max_events) {
      limit_hit = Status::resource_exhausted("event limit exceeded");
      break;
    }
  }

  // Fold the per-queue stats shards back into the main registry before
  // anything reads it (counter snapshot, RunResult, the embedding).
  stats_.merge_shards();
  if (!limit_hit.is_ok()) return limit_hit;
  if (counters) snapshot_counters(queue_.now());
  return epilogue();
}

}  // namespace dqemu::core
