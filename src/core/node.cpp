#include "core/node.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "common/le_bytes.hpp"
#include "common/log.hpp"
#include "dsm/directory.hpp"
#include "dsm/wire.hpp"
#include "sys/futex_home.hpp"
#include "sys/wire.hpp"

namespace dqemu::core {
namespace {

using time_literals::kNs;
using time_literals::kSec;

/// Appends the thread's accumulated time breakdown (kBreakdownWireBytes),
/// the simulation-side payload that follows the serialized CPU context in
/// migration and crash-capture records.
void put_breakdown(std::vector<std::uint8_t>& out, const TimeBreakdown& b) {
  for (const DurationPs part :
       {b.execute, b.translate, b.pagefault, b.syscall, b.idle}) {
    le::put_u64(out, part);
  }
}

TimeBreakdown read_breakdown(le::Reader& in) {
  TimeBreakdown b;
  b.execute = in.u64();
  b.translate = in.u64();
  b.pagefault = in.u64();
  b.syscall = in.u64();
  b.idle = in.u64();
  return b;
}

}  // namespace

Node::Node(NodeId id, const ClusterConfig& config, sim::EventQueue& queue,
           net::Network& network, StatsRegistry& stats, FatalFn fatal,
           trace::Tracer* tracer)
    : id_(id),
      config_(config),
      machine_(config.machine_for(id)),
      queue_(queue),
      network_(network),
      stats_(stats),
      fatal_(std::move(fatal)),
      tracer_(tracer),
      space_(config.guest_mem_bytes, config.machine.page_size),
      shadow_(config.machine.page_size, config.dsm.split_shards),
      llsc_(stats),
      // Superblock lifecycle records ride the opt-in kDbt category (not in
      // the default set: formation is host-side and would differ with the
      // trace tier disabled). a = trace entry pc, b = guest insns covered.
      tcache_(space_, config.dbt, stats,
              [this](dbt::SbEvent event, const dbt::Superblock& sb) {
                site(trace::Cat::kDbt)
                    .emit(queue_.now(),
                          event == dbt::SbEvent::kFormed
                              ? "dbt.sb_formed"
                              : "dbt.sb_invalidated",
                          trace::Kind::kInstant, 0, sb.entry_pc,
                          sb.guest_insns);
              }),
      engine_(space_, shadow_, llsc_, tcache_, config.dbt, stats),
      homes_(config.dsm, dsm::home_layout(config)),
      dsm_(id, network, queue, space_, shadow_, llsc_, tcache_, homes_, stats,
           [this](std::uint32_t page) { wake_page_waiters(page); }, tracer,
           config.dsm.enable_diff_transfers, config.faults.watchdog_timeout()),
      lock_agent_(
          id, queue, network, stats, tracer,
          [this](GuestAddr addr) { return futex_home(addr); },
          // A locally-parked waiter was granted the lock; its own chain
          // closes in complete_futex_locally.
          [this](GuestTid tid, std::uint64_t) {
            complete_after_agent(tid, 0);
          },
          /*keep_returns=*/config.faults.enabled),
      core_busy_(machine_.cores_per_node, false) {
  // The home this node hosts (DESIGN.md §17): home 0 on the master, a home
  // on every slave under sharding.
  if (id_ != kMasterNode && !homes_.sharded()) return;
  if (!config.single_node_baseline) {
    // Home 0 homes the whole shadow pool when sharding is off. Sharded,
    // the pool is sliced among the slave homes and home 0, which then
    // never splits pages, gets none of it.
    const dsm::HomeLayout& layout = homes_.layout();
    std::uint64_t pool_first = layout.shadow_first_page;
    std::uint64_t pool_count = homes_.sharded() ? 0 : layout.shadow_page_count;
    if (id_ != kMasterNode) {
      pool_first = layout.slice_first(id_);
      pool_count = layout.slice_count(id_);
    }
    dsm::Directory::Params params;
    params.dsm = config.dsm;
    params.machine = machine_;
    params.node_count = config.total_nodes();
    params.shadow_pool_first_page = static_cast<std::uint32_t>(pool_first);
    params.shadow_pool_page_count = static_cast<std::uint32_t>(pool_count);
    params.self = id_;
    params.sharded = homes_.sharded();
    directory_ = std::make_unique<dsm::Directory>(network, queue, space_,
                                                  params, stats, tracer);
  }
  futexes_ = std::make_unique<sys::FutexService>(
      id_, network, queue, machine_, config.sys.lease_min_hold,
      config.faults.watchdog_timeout(), stats, tracer);
}

void Node::add_thread(const dbt::CpuContext& ctx, GuestAddr ctid,
                      std::int32_t hint_group) {
  assert(!threads_.contains(ctx.tid));
  GuestThread thread;
  thread.ctx = ctx;
  thread.ctid = ctid;
  thread.hint_group = hint_group;
  thread.ready_since = queue_.now();
  threads_.emplace(ctx.tid, std::move(thread));
  stats_.add("core.threads_created");
  site(trace::Cat::kCore)
      .emit(queue_.now(), "core.thread_start", trace::Kind::kInstant, 0, ctx.pc,
            static_cast<std::uint32_t>(hint_group), ctx.tid);
  enqueue(ctx.tid);
  kick();
}

std::size_t Node::live_threads() const {
  std::size_t n = 0;
  for (const auto& [tid, t] : threads_) {
    if (t.state != ThreadState::kExited) ++n;
  }
  return n;
}

std::string Node::blocked_dump() const {
  std::string out;
  for (const auto& [tid, t] : threads_) {
    if (t.state == ThreadState::kExited) continue;
    char buf[128];
    const char* state = "?";
    switch (t.state) {
      case ThreadState::kRunnable: state = "runnable"; break;
      case ThreadState::kRunning: state = "running"; break;
      case ThreadState::kBlockedPage: state = "page"; break;
      case ThreadState::kBlockedSyscall: state = "syscall"; break;
      case ThreadState::kSleeping: state = "sleeping"; break;
      case ThreadState::kExited: state = "exited"; break;
    }
    std::snprintf(buf, sizeof buf,
                  "  node %u tid %u: %s (pc=0x%08x page=%u)\n", unsigned(id_),
                  tid, state, t.ctx.pc, t.blocked_page);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Core scheduling
// ---------------------------------------------------------------------------

void Node::enqueue(GuestTid tid) {
  GuestThread& t = threads_.at(tid);
  t.state = ThreadState::kRunnable;
  t.ready_since = queue_.now();
  run_queue_.push_back(tid);
}

void Node::kick() {
  if (dead_ || paused_) return;
  while (!run_queue_.empty()) {
    // Find an idle core.
    CoreId core = kInvalidNode;
    for (CoreId c = 0; c < core_busy_.size(); ++c) {
      if (!core_busy_[c]) {
        core = c;
        break;
      }
    }
    if (core == kInvalidNode) return;

    const GuestTid tid = run_queue_.front();
    run_queue_.pop_front();
    GuestThread& t = threads_.at(tid);
    assert(t.state == ThreadState::kRunnable);
    if (t.migrate_target != kInvalidNode) {
      send_migration(tid);
      continue;  // did not consume the core
    }
    core_busy_[core] = true;
    core_run(core, tid);
  }
}

void Node::core_run(CoreId core, GuestTid tid) {
  GuestThread& t = threads_.at(tid);
  t.breakdown.idle += queue_.now() - t.ready_since;
  t.state = ThreadState::kRunning;

  // One lane per simulated core: the slice span covers this quantum's
  // virtual duration; the matching end is recorded in finish_slice.
  core_site(core).emit(queue_.now(), "sim.slice", trace::Kind::kSpanBegin, 0,
                       t.ctx.pc, 0, tid);

  const dbt::ExecResult r = engine_.run(t.ctx, config_.dbt.quantum_insns);
  t.inflight_stop = r.reason;
  t.inflight_syscall = r.syscall_num;

  const DurationPs dt_exec = machine_.cycles(r.exec_cycles);
  const DurationPs dt_translate = machine_.cycles(r.translate_cycles);
  t.breakdown.execute += dt_exec;
  t.breakdown.translate += dt_translate;
  stats_.add("dbt.insns", r.insns);
  stats_.add("core.slices");

  queue_.schedule_in(dt_exec + dt_translate, [this, core, tid, r] {
    finish_slice(core, tid, r);
  });
}

void Node::release_core_after(CoreId core, DurationPs delay) {
  if (delay == 0) {
    core_busy_[core] = false;
    kick();
    return;
  }
  queue_.schedule_in(delay, [this, core] {
    if (dead_) return;
    core_busy_[core] = false;
    kick();
  });
}

void Node::finish_slice(CoreId core, GuestTid tid, const dbt::ExecResult& r) {
  // A crash between the slice's start and this event captured the thread
  // (or dropped it) already; the closure outlived the node.
  if (dead_) return;
  GuestThread& t = threads_.at(tid);
  core_site(core).emit(queue_.now(), "sim.slice", trace::Kind::kSpanEnd, 0,
                       r.insns, static_cast<std::uint64_t>(r.reason), tid);
  switch (r.reason) {
    case dbt::StopReason::kQuantum:
      enqueue(tid);
      release_core_after(core, 0);
      return;

    case dbt::StopReason::kPageFault: {
      const DurationPs trap = machine_.cycles(config_.dbt.fault_trap_cycles);
      t.breakdown.pagefault += trap;
      stats_.add("core.page_faults");
      site(trace::Cat::kCore)
          .emit(queue_.now(), "core.page_fault", trace::Kind::kInstant, 0,
                r.fault_addr, r.fault_is_write ? 1 : 0, tid);
      block_on_page(t, r.fault_addr, r.fault_is_write);
      release_core_after(core, trap);
      return;
    }

    case dbt::StopReason::kSyscall: {
      const DurationPs trap =
          machine_.cycles(config_.dbt.syscall_trap_cycles);
      t.breakdown.syscall += trap;
      stats_.add("core.syscalls");
      site(trace::Cat::kCore)
          .emit(queue_.now(), "core.syscall", trace::Kind::kInstant, 0,
                static_cast<std::uint32_t>(r.syscall_num), 0, tid);
      PendingSyscall call;
      call.num = static_cast<isa::Sys>(r.syscall_num);
      for (unsigned i = 0; i < 4; ++i) call.args[i] = t.ctx.arg(i);
      t.pending_syscall = call;
      attempt_syscall(tid);
      release_core_after(core, trap);
      return;
    }

    case dbt::StopReason::kGuestError:
      core_busy_[core] = false;
      fatal_("guest error on node " + std::to_string(id_) + " tid " +
             std::to_string(tid) + ": " + r.error);
      return;
  }
}

// ---------------------------------------------------------------------------
// Page faults
// ---------------------------------------------------------------------------

void Node::block_on_page(GuestThread& t, GuestAddr fault_addr, bool write) {
  const std::uint32_t page = space_.page_of(fault_addr);
  // The page may have arrived while the faulting slice was "in flight"
  // (its wall time elapsing); re-check before blocking.
  const mem::PageAccess access = space_.access(page);
  const bool satisfied = write ? access == mem::PageAccess::kReadWrite
                               : access != mem::PageAccess::kNone;
  if (satisfied) {
    enqueue(t.ctx.tid);
    return;
  }
  t.state = ThreadState::kBlockedPage;
  t.blocked_page = page;
  t.block_start = queue_.now();
  dsm_.request_page(page, space_.offset_in_page(fault_addr), write, t.ctx.tid);
}

void Node::wake_page_waiters(std::uint32_t page) {
  bool any = false;
  for (auto& [tid, t] : threads_) {
    if (t.state != ThreadState::kBlockedPage || t.blocked_page != page)
      continue;
    t.breakdown.pagefault += queue_.now() - t.block_start;
    any = true;
    if (t.pending_syscall.has_value()) {
      // The fault belonged to syscall argument pre-faulting / commit.
      t.state = ThreadState::kRunnable;  // attempt may re-block immediately
      attempt_syscall(tid);
    } else {
      enqueue(tid);
    }
  }
  if (any) kick();
}

// ---------------------------------------------------------------------------
// Guest memory block access (shadow-map aware)
// ---------------------------------------------------------------------------

void Node::for_each_chunk(
    GuestAddr addr, std::uint32_t len,
    const std::function<void(GuestAddr, std::uint32_t)>& fn) const {
  // Chunks never cross a shard boundary of the *original* address, so a
  // chunk maps to one contiguous run inside one (possibly shadow) page.
  const std::uint32_t boundary = shadow_.empty()
                                     ? space_.page_size()
                                     : shadow_.shard_size();
  std::uint32_t done = 0;
  while (done < len) {
    const GuestAddr at = addr + done;
    const std::uint32_t to_boundary = boundary - (at & (boundary - 1));
    const std::uint32_t n = std::min(len - done, to_boundary);
    fn(shadow_.translate(at), n);
    done += n;
  }
}

void Node::read_guest(GuestAddr addr, std::span<std::uint8_t> out) const {
  std::size_t off = 0;
  for_each_chunk(addr, static_cast<std::uint32_t>(out.size()),
                 [&](GuestAddr resolved, std::uint32_t n) {
                   space_.read_bytes(resolved, out.subspan(off, n));
                   off += n;
                 });
}

void Node::write_guest(GuestAddr addr, std::span<const std::uint8_t> in) {
  std::size_t off = 0;
  for_each_chunk(addr, static_cast<std::uint32_t>(in.size()),
                 [&](GuestAddr resolved, std::uint32_t n) {
                   space_.write_bytes(resolved, in.subspan(off, n));
                   if (!llsc_.empty()) {
                     // Snoop every word the block store touches.
                     const GuestAddr first = resolved & ~3u;
                     for (GuestAddr w = first; w < resolved + n; w += 4) {
                       llsc_.on_store(w, kInvalidTid);
                     }
                   }
                   off += n;
                 });
}

// ---------------------------------------------------------------------------
// Syscalls
// ---------------------------------------------------------------------------

bool Node::ensure_access(GuestThread& t,
                         const std::vector<sys::PreAccess>& ranges) {
  for (const sys::PreAccess& range : ranges) {
    if (range.len == 0) continue;
    if (static_cast<std::uint64_t>(range.addr) + range.len > space_.size()) {
      // Bad guest pointer: fail the syscall rather than the simulation.
      resume(t, -isa::kEINVAL);
      return false;
    }
    std::uint32_t missing_page = UINT32_MAX;
    GuestAddr missing_addr = 0;
    for_each_chunk(range.addr, range.len,
                   [&](GuestAddr resolved, std::uint32_t n) {
                     (void)n;
                     if (missing_page != UINT32_MAX) return;
                     const std::uint32_t page = space_.page_of(resolved);
                     const mem::PageAccess access = space_.access(page);
                     const bool ok =
                         range.write ? access == mem::PageAccess::kReadWrite
                                     : access != mem::PageAccess::kNone;
                     if (!ok) {
                       missing_page = page;
                       missing_addr = resolved;
                     }
                   });
    if (missing_page != UINT32_MAX) {
      t.state = ThreadState::kBlockedPage;
      t.blocked_page = missing_page;
      t.block_start = queue_.now();
      stats_.add("sys.prefault_blocks");
      dsm_.request_page(missing_page, space_.offset_in_page(missing_addr),
                        range.write, t.ctx.tid);
      return false;
    }
  }
  return true;
}

void Node::attempt_syscall(GuestTid tid) {
  GuestThread& t = threads_.at(tid);
  assert(t.pending_syscall.has_value());
  PendingSyscall& call = *t.pending_syscall;

  switch (call.phase) {
    case PendingSyscall::Phase::kPreFault: {
      std::vector<sys::PreAccess> ranges = sys::pre_access(call.num, call.args);
      if (call.num == isa::Sys::kExit && t.ctid != 0) {
        ranges.push_back({t.ctid, 4, /*write=*/true});
      }
      if (!ensure_access(t, ranges)) return;
      if (sys::classify(call.num) == sys::SysClass::kLocal) {
        run_local_syscall(t, call);
      } else {
        delegate_syscall(t, call);
      }
      return;
    }
    case PendingSyscall::Phase::kAwaitResponse:
      assert(false && "attempt_syscall while awaiting a response");
      return;
    case PendingSyscall::Phase::kCommit:
      commit_syscall(tid);
      return;
  }
}

void Node::run_local_syscall(GuestThread& t, PendingSyscall& call) {
  using isa::Sys;
  std::int32_t result = 0;
  switch (call.num) {
    case Sys::kGettid: result = static_cast<std::int32_t>(t.ctx.tid); break;
    case Sys::kGetpid: result = 1; break;
    case Sys::kGetcpu: result = static_cast<std::int32_t>(id_); break;
    case Sys::kYield: result = 0; break;
    case Sys::kClockGettime: {
      const TimePs now = queue_.now();
      std::uint32_t out[2];
      out[0] = static_cast<std::uint32_t>(now / kSec);
      out[1] = static_cast<std::uint32_t>((now % kSec) / kNs);
      write_guest(call.args[1],
                  {reinterpret_cast<const std::uint8_t*>(out), 8});
      result = 0;
      break;
    }
    case Sys::kNanosleep: {
      const GuestTid tid = t.ctx.tid;
      t.state = ThreadState::kSleeping;
      t.block_start = queue_.now();
      t.pending_syscall.reset();
      queue_.schedule_in(std::uint64_t(call.args[0]) * kNs, [this, tid] {
        if (dead_) return;  // the sleeper was captured by the crash
        GuestThread& sleeper = threads_.at(tid);
        assert(sleeper.state == ThreadState::kSleeping);
        sleeper.breakdown.idle += queue_.now() - sleeper.block_start;
        resume(sleeper, 0);
      });
      return;
    }
    case Sys::kUname: {
      char banner[64] = "DQEMU-GA32 reproduction (distributed DBT)";
      write_guest(call.args[0],
                  {reinterpret_cast<const std::uint8_t*>(banner), 64});
      result = 0;
      break;
    }
    default:
      result = -isa::kENOSYS;
      break;
  }
  stats_.add("sys.local");
  resume(t, result);
}

void Node::delegate_syscall(GuestThread& t, PendingSyscall& call) {
  using isa::Sys;
  std::vector<std::uint8_t> payload;

  switch (call.num) {
    case Sys::kWrite:
      payload.resize(call.args[2]);
      read_guest(call.args[1], payload);
      break;
    case Sys::kOpen: {
      // Capture the path (bounded, NUL-trimmed) for the master.
      const std::uint32_t window = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(256, space_.size() - call.args[0]));
      payload.resize(window);
      read_guest(call.args[0], payload);
      auto nul = std::find(payload.begin(), payload.end(), 0);
      payload.resize(
          static_cast<std::size_t>(std::distance(payload.begin(), nul)) + 1,
          0);
      break;
    }
    case Sys::kClone: {
      payload.resize(dbt::CpuContext::kWireBytes);
      t.ctx.serialize(payload);
      // The placement hint rides in the unused 4th argument slot.
      call.args[3] = static_cast<std::uint32_t>(t.ctx.hint_group);
      break;
    }
    case Sys::kServeGet:
      // A worker parked at the load generator is waiting for offered load,
      // not doing work — account the blocked time as idle, like a futex
      // wait, so serving runs report meaningful busy fractions.
      call.block_is_idle = true;
      break;
    case Sys::kFutex: {
      if (call.args[1] == isa::kFutexWait) {
        // The atomic re-check (section 4.4): we hold a read copy of the
        // futex page right now, so a racing writer cannot have completed —
        // its invalidation of this page is ordered after this event, and
        // its wake after our wait on the master's FIFO channel.
        const GuestAddr resolved = shadow_.translate(call.args[0]);
        if ((resolved & 3u) != 0) {
          resume(t, -isa::kEINVAL);
          return;
        }
        const auto value = static_cast<std::uint32_t>(space_.load(resolved, 4));
        call.block_is_idle = true;  // time spent blocked is lock-wait, not work
        if (value != call.args[2]) {
          stats_.add("sys.futex_eagain");
          resume(t, -isa::kEAGAIN);
          return;
        }
      }
      // Hierarchical locking (DESIGN.md section 11): if this node's agent
      // holds the address's lease, the whole op completes on-node — wait
      // parks the thread in the agent queue (the re-check above already
      // ran), wake grants locally after the agent's service cost. The
      // lease carries the master's queue, so FIFO semantics survive.
      const GuestAddr faddr = call.args[0];
      const std::uint32_t fop = call.args[1];
      if (config_.sys.enable_hierarchical_locking &&
          (fop == isa::kFutexWait || fop == isa::kFutexWake)) {
        if (!lock_agent_.owns(faddr)) {
          lock_agent_.note_delegated(faddr);
          if (fop == isa::kFutexWake) {
            // Fire-and-forget wake: the agent acknowledges the syscall
            // locally (the guest runtime discards the wake count) and the
            // master/owner processes the forwarded wake asynchronously.
            // Per-channel FIFO keeps it ordered before any later futex op
            // this node delegates, so the no-lost-wakeup argument holds.
            call.args[3] = sys::kFutexAsyncWake;
            open_delegate_flow(t);
            net::Message req = sys::make_syscall_request(
                id_, t.ctx.tid, call.num, call.args, payload);
            req.dst = futex_home(faddr);
            req.flow = call.flow;
            network_.send(std::move(req));
            block_on_syscall(t);
            stats_.add("sys.lock_async_wakes");
            complete_after_agent(t.ctx.tid, 0);
            return;
          }
        } else {
          open_delegate_flow(t);
          block_on_syscall(t);
          stats_.add("sys.lock_local_ops");
          if (fop == isa::kFutexWait) {
            lock_agent_.local_wait(faddr, t.ctx.tid, call.flow);
          } else {
            const std::uint32_t woken =
                lock_agent_.local_wake(faddr, call.args[2]);
            complete_after_agent(t.ctx.tid, woken);
          }
          return;
        }
      }
      break;
    }
    case Sys::kExit: {
      // Linux CLONE_CHILD_CLEARTID: store 0 to *ctid through the normal
      // coherent-write path (page was pre-faulted RW), then let the master
      // wake joiners and account the exit.
      if (t.ctid != 0) {
        const std::uint32_t zero = 0;
        write_guest(t.ctid,
                    {reinterpret_cast<const std::uint8_t*>(&zero), 4});
        call.args[1] = t.ctid;
      } else {
        call.args[1] = 0;
      }
      network_.send(sys::make_syscall_request(id_, t.ctx.tid, call.num,
                                              call.args, payload));
      const GuestTid tid = t.ctx.tid;
      t.pending_syscall.reset();
      finish_thread_exit(tid);
      return;
    }
    default:
      break;
  }

  open_delegate_flow(t);
  net::Message req =
      sys::make_syscall_request(id_, t.ctx.tid, call.num, call.args, payload);
  // Futex ops go to the address's home (the master unless sharding is on and
  // the node has learned/computed a different one — first-touch misses are
  // relayed by the master). Every other syscall is master business.
  if (call.num == Sys::kFutex) req.dst = futex_home(call.args[0]);
  req.flow = call.flow;
  network_.send(std::move(req));
  block_on_syscall(t);
  stats_.add("sys.delegated_sent");
}

void Node::open_delegate_flow(GuestThread& t) {
  // The delegation's causal chain: request -> home service -> response all
  // record against this id (closed in end_block).
  if (const trace::Site sys = site(trace::Cat::kSys); sys.on()) {
    PendingSyscall& call = *t.pending_syscall;
    call.flow = tracer_->new_flow();
    sys.record(queue_.now(), "sys.delegate", trace::Kind::kFlowBegin,
               call.flow, static_cast<std::uint64_t>(call.num), call.args[0],
               t.ctx.tid);
  }
}

void Node::block_on_syscall(GuestThread& t) {
  t.state = ThreadState::kBlockedSyscall;
  t.block_start = queue_.now();
  t.pending_syscall->phase = PendingSyscall::Phase::kAwaitResponse;
}

GuestThread& Node::end_block(GuestTid tid, std::int64_t result) {
  GuestThread& t = threads_.at(tid);
  assert(t.state == ThreadState::kBlockedSyscall);
  assert(t.pending_syscall.has_value());
  const PendingSyscall& call = *t.pending_syscall;
  DurationPs& bucket =
      call.block_is_idle ? t.breakdown.idle : t.breakdown.syscall;
  bucket += queue_.now() - t.block_start;
  if (call.flow != 0) {
    site(trace::Cat::kSys)
        .emit(queue_.now(), "sys.delegate", trace::Kind::kFlowEnd, call.flow,
              static_cast<std::uint64_t>(result), 0, tid);
  }
  return t;
}

void Node::resume(GuestThread& t, std::int64_t result) {
  t.ctx.set_a0(static_cast<std::uint32_t>(result));
  t.pending_syscall.reset();
  enqueue(t.ctx.tid);
  kick();
}

void Node::on_syscall_response(const net::Message& msg) {
  const auto tid = static_cast<GuestTid>(msg.b);
  const auto result = static_cast<std::int64_t>(msg.a);
  GuestThread& t = end_block(tid, result);
  PendingSyscall& call = *t.pending_syscall;
  if (call.num == isa::Sys::kRead && result > 0 && !msg.data.empty()) {
    call.result = result;
    call.result_payload = msg.data;
    call.phase = PendingSyscall::Phase::kCommit;
    commit_syscall(tid);
    return;
  }
  resume(t, result);
}

// ---------------------------------------------------------------------------
// Hierarchical locking (lock agent, DESIGN.md section 11)
// ---------------------------------------------------------------------------

void Node::complete_futex_locally(GuestTid tid, std::int64_t result) {
  if (dead_) return;  // a scheduled agent-cost closure outlived the node
  resume(end_block(tid, result), result);
}

void Node::complete_after_agent(GuestTid tid, std::uint32_t woken) {
  // Charge the agent's local futex-path cost before the thread resumes;
  // still orders of magnitude below a master round trip.
  queue_.schedule_in(
      machine_.cycles(config_.sys.lock_agent_cycles),
      [this, tid, woken] { complete_futex_locally(tid, woken); });
}

void Node::on_wake_batch(const net::Message& msg) {
  // One message, up to `count` wakes: every entry is a thread of this node
  // whose FUTEX_WAIT now completes with result 0.
  const auto waiters = sys::FutexTable::unpack_waiters(msg.data);
  assert(waiters.size() == msg.b);
  stats_.add("sys.wake_batch_wakes", waiters.size());
  for (const sys::FutexTable::Waiter& w : waiters) {
    complete_futex_locally(w.tid, 0);
  }
}

void Node::commit_syscall(GuestTid tid) {
  GuestThread& t = threads_.at(tid);
  PendingSyscall& call = *t.pending_syscall;
  const std::vector<sys::PreAccess> ranges = {
      {call.args[1], static_cast<std::uint32_t>(call.result_payload.size()),
       /*write=*/true}};
  // Access may have been invalidated while the response was in flight;
  // re-acquire before storing (the syscall itself is NOT re-executed).
  if (!ensure_access(t, ranges)) return;
  write_guest(call.args[1], call.result_payload);
  resume(t, call.result);
}

// ---------------------------------------------------------------------------
// Thread management messages
// ---------------------------------------------------------------------------

void Node::handle_message(const net::Message& msg) {
  if (dead_) {
    // In-flight deliveries scheduled before the links were silenced still
    // land here; a dead node is a black hole.
    stats_.add("core.dead_msgs_dropped");
    return;
  }
  if (paused_) {
    paused_inbox_.push_back(msg);
    return;
  }
  if (dsm::is_dsm_message(msg.type)) {
    // When this node is a home (sharding), directory-addressed traffic for
    // its slice of the page space lands here; everything else in the DSM
    // range is for this node's client.
    if (directory_ != nullptr && dsm::is_directory_message(msg.type)) {
      directory_->handle_message(msg);
      return;
    }
    dsm_.handle_message(msg);
    return;
  }
  if (msg.type == static_cast<std::uint32_t>(sys::SysMsg::kSyscallResp)) {
    on_syscall_response(msg);
    return;
  }
  // Futex traffic addressed to this node as a *home* (delegated futex ops
  // and lease arbitration). Disjoint from LockAgent::handles, which covers
  // the node-as-lease-owner half of the protocol.
  if (futexes_ != nullptr && sys::FutexService::handles(msg.type)) {
    futexes_->handle_message(msg);
    return;
  }
  if (sys::LockAgent::handles(msg.type)) {
    lock_agent_.handle_message(msg);
    return;
  }
  if (msg.type == static_cast<std::uint32_t>(sys::SysMsg::kWakeBatch)) {
    on_wake_batch(msg);
    return;
  }
  switch (static_cast<CoreMsg>(msg.type)) {
    case CoreMsg::kCreateThread: return on_create_thread(msg);
    case CoreMsg::kMigrateReq: return on_migrate_req(msg);
    case CoreMsg::kMigrateThread: return on_migrate_thread(msg);
    case CoreMsg::kCrashCmd:
      // b = pause duration in ps; zero means die for good.
      if (msg.b != 0) return pause(static_cast<DurationPs>(msg.b));
      return crash();
    case CoreMsg::kNodeDead: return on_node_dead(static_cast<NodeId>(msg.a));
    case CoreMsg::kCrashFlush:
      // A dying owner's last writeback of a page this node homes.
      if (directory_ != nullptr) return directory_->on_crash_flush(msg);
      break;
    case CoreMsg::kCrashLeaseReturn:
      if (futexes_ != nullptr) {
        return futexes_->on_crash_lease_return(
            msg.src, static_cast<GuestAddr>(msg.a),
            sys::FutexTable::unpack_waiters(msg.data));
      }
      break;
    // A dying home's shard, adopted by the master (DESIGN.md §18).
    case CoreMsg::kHomeHandoff:
      if (directory_ != nullptr) {
        return directory_->adopt_entry(static_cast<std::uint32_t>(msg.a),
                                       msg.data);
      }
      break;
    case CoreMsg::kFutexHandoff:
      if (futexes_ != nullptr) return futexes_->adopt_handoff(msg.data);
      break;
    default:
      break;
  }
  fatal_("node " + std::to_string(id_) + ": unroutable message type " +
         std::to_string(msg.type));
}

void Node::on_create_thread(const net::Message& msg) {
  assert(msg.data.size() >= dbt::CpuContext::kWireBytes);
  const dbt::CpuContext ctx = dbt::CpuContext::deserialize(msg.data);
  add_thread(ctx, static_cast<GuestAddr>(msg.b),
             static_cast<std::int32_t>(msg.c));
}

void Node::on_migrate_req(const net::Message& msg) {
  const auto tid = static_cast<GuestTid>(msg.a);
  auto it = threads_.find(tid);
  if (it == threads_.end() || it->second.state == ThreadState::kExited) {
    return;  // raced with exit; nothing to migrate
  }
  it->second.migrate_target = static_cast<NodeId>(msg.b);
  stats_.add("core.migrations_requested");
  // Runnable threads are peeled off at the next dispatch; blocked threads
  // migrate once they wake and get dispatched.
}

void Node::send_migration(GuestTid tid) {
  GuestThread& t = threads_.at(tid);
  const NodeId target = t.migrate_target;
  assert(target != kInvalidNode && target != id_);

  net::Message msg;
  msg.src = id_;
  msg.dst = target;
  msg.type = static_cast<std::uint32_t>(CoreMsg::kMigrateThread);
  msg.a = tid;
  msg.b = t.ctid;
  msg.c = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(t.hint_group));
  msg.data.resize(dbt::CpuContext::kWireBytes);
  t.ctx.serialize(msg.data);
  // Simulation bookkeeping (not a real wire field): carry the accumulated
  // breakdown so per-thread accounting survives the move.
  put_breakdown(msg.data, t.breakdown);
  // Migration is a causal arc of its own: departure here, arrival on the
  // target node (on_migrate_thread) closes it.
  if (const trace::Site core = site(trace::Cat::kCore); core.on()) {
    msg.flow = tracer_->new_flow();
    core.record(queue_.now(), "core.migrate", trace::Kind::kFlowBegin,
                msg.flow, tid, target, tid);
  }
  network_.send(std::move(msg));
  threads_.erase(tid);
  stats_.add("core.migrations_sent");
}

void Node::on_migrate_thread(const net::Message& msg) {
  le::Reader in(msg.data);
  const dbt::CpuContext ctx =
      dbt::CpuContext::deserialize(in.bytes(dbt::CpuContext::kWireBytes));
  if (msg.flow != 0 && (msg.flow & trace::kAutoFlowBit) == 0) {
    site(trace::Cat::kCore)
        .emit(queue_.now(), "core.migrate", trace::Kind::kFlowEnd, msg.flow,
              ctx.tid, id_, ctx.tid);
  }
  const TimeBreakdown breakdown = read_breakdown(in);
  if (in.remaining() >= kPendingSyscallWireBytes) {
    // Crash re-homing (DESIGN.md §18): the thread arrives carrying a
    // syscall it must re-issue before executing a single instruction (its
    // old node died mid-call; pc is already past the SYSCALL). add_thread
    // would kick it straight into the engine, so insert it by hand and
    // drive the pending-syscall machine instead.
    PendingSyscall call;
    call.num = static_cast<isa::Sys>(in.u32());
    for (std::uint32_t& arg : call.args) arg = in.u32();
    call.block_is_idle = in.u32() != 0;
    GuestThread thread;
    thread.ctx = ctx;
    thread.ctid = static_cast<GuestAddr>(msg.b);
    thread.hint_group =
        static_cast<std::int32_t>(static_cast<std::uint32_t>(msg.c));
    thread.ready_since = queue_.now();
    thread.pending_syscall = call;
    assert(!threads_.contains(ctx.tid));
    threads_.emplace(ctx.tid, std::move(thread)).first->second.breakdown =
        breakdown;
    stats_.add("core.threads_rehomed");
    site(trace::Cat::kCore)
        .emit(queue_.now(), "core.thread_rehomed", trace::Kind::kInstant, 0,
              static_cast<std::uint64_t>(call.num), 0, ctx.tid);
    attempt_syscall(ctx.tid);
  } else {
    add_thread(ctx, static_cast<GuestAddr>(msg.b),
               static_cast<std::int32_t>(static_cast<std::uint32_t>(msg.c)));
    threads_.at(ctx.tid).breakdown = breakdown;
  }

  net::Message done;
  done.src = id_;
  done.dst = kMasterNode;
  done.type = static_cast<std::uint32_t>(CoreMsg::kMigrateDone);
  done.a = ctx.tid;
  done.b = id_;
  network_.send(std::move(done));
}

void Node::finish_thread_exit(GuestTid tid) {
  GuestThread& t = threads_.at(tid);
  t.state = ThreadState::kExited;
  // Drop from the run queue if present (it should not be, but exits from
  // odd paths stay safe).
  for (auto it = run_queue_.begin(); it != run_queue_.end();) {
    it = (*it == tid) ? run_queue_.erase(it) : it + 1;
  }
}

// ---------------------------------------------------------------------------
// Whole-node fault plane (DESIGN.md §18)
// ---------------------------------------------------------------------------

void Node::capture_thread(const GuestThread& t,
                          std::vector<std::uint8_t>& out) {
  dbt::CpuContext ctx = t.ctx;
  std::optional<PendingSyscall> pending;
  switch (t.state) {
    case ThreadState::kRunning:
      // The engine call is synchronous, so ctx already reflects the whole
      // in-flight slice; only the stop's *processing* is lost with the
      // finish_slice closure. kQuantum / kPageFault stops need nothing —
      // the thread re-faults on its new node — but an unprocessed kSyscall
      // stop left pc past the SYSCALL, so the call must be re-issued.
      if (t.inflight_stop == dbt::StopReason::kSyscall) {
        PendingSyscall call;
        call.num = static_cast<isa::Sys>(t.inflight_syscall);
        for (unsigned i = 0; i < 4; ++i) call.args[i] = ctx.arg(i);
        pending = call;
      }
      break;
    case ThreadState::kRunnable:
    case ThreadState::kBlockedPage:
    case ThreadState::kBlockedSyscall:
      // Any pending call restarts from kPreFault on the new node. For a
      // FUTEX_WAIT this is exactly the level-triggered re-check (no lost
      // wakeup: a wake that raced the crash changed the futex word, and the
      // re-check sees it). For other non-idempotent calls this is
      // at-least-once delivery — documented in DESIGN.md §18.
      if (t.pending_syscall.has_value()) pending = *t.pending_syscall;
      break;
    case ThreadState::kSleeping:
      // The crash cuts the sleep short: resume with nanosleep's success
      // return. Bounded timing skew, no correctness impact.
      ctx.set_a0(0);
      break;
    case ThreadState::kExited:
      break;  // filtered by the caller
  }

  const std::size_t at = out.size();
  out.resize(at + dbt::CpuContext::kWireBytes);
  ctx.serialize({out.data() + at, dbt::CpuContext::kWireBytes});
  put_breakdown(out, t.breakdown);
  le::put_u32(out, t.ctid);
  le::put_u32(out, static_cast<std::uint32_t>(t.hint_group));
  le::put_u32(out, pending.has_value() ? 1u : 0u);
  if (pending.has_value()) {
    le::put_u32(out, static_cast<std::uint32_t>(pending->num));
    for (const std::uint32_t arg : pending->args) le::put_u32(out, arg);
    le::put_u32(out, pending->block_is_idle ? 1u : 0u);
  }
}

void Node::crash() {
  if (dead_) return;
  stats_.add("core.node_crashes");
  site(trace::Cat::kCore)
      .emit(queue_.now(), "core.crash", trace::Kind::kInstant, 0,
            live_threads(), 0);

  // (1) Last writeback: every page held kReadWrite whose home is elsewhere
  // gets a kCrashFlush ("reliable by fiat" — a dropped flush could not be
  // retransmitted). Self-homed dirty pages need none: the shard handoff
  // below ships their (already local) bytes.
  for (std::uint32_t page = 0; page < space_.num_pages(); ++page) {
    if (space_.access(page) != mem::PageAccess::kReadWrite) continue;
    const NodeId home = homes_.home_of(page);
    if (home == id_) continue;
    net::Message flush;
    flush.src = id_;
    flush.dst = home;
    flush.type = static_cast<std::uint32_t>(CoreMsg::kCrashFlush);
    flush.a = page;
    const std::span<const std::uint8_t> bytes = space_.page_data(page);
    flush.data.assign(bytes.begin(), bytes.end());
    network_.send(std::move(flush));
    stats_.add("core.crash_flushes_sent");
  }

  // (2) Return every held lock lease, queue included; self-homed leases
  // revoke synchronously (a loopback message would arrive after the shard
  // below is serialized).
  lock_agent_.return_all(
      [this](GuestAddr addr, const std::vector<sys::FutexTable::Waiter>& q) {
        if (futexes_ != nullptr) {
          futexes_->crash_revoke_local(addr, q);
        }
      });

  // (3) Hand any hosted home shard to the master: one kHomeHandoff per
  // directory entry, one kFutexHandoff for the whole futex/lease table.
  // FIFO on the master link orders these after the flushes above.
  if (directory_ != nullptr) {
    for (const std::uint32_t page : directory_->handoff_pages()) {
      net::Message hand;
      hand.src = id_;
      hand.dst = kMasterNode;
      hand.type = static_cast<std::uint32_t>(CoreMsg::kHomeHandoff);
      hand.a = page;
      directory_->serialize_entry(page, hand.data);
      network_.send(std::move(hand));
    }
  }
  if (futexes_ != nullptr) {
    net::Message hand;
    hand.src = id_;
    hand.dst = kMasterNode;
    hand.type = static_cast<std::uint32_t>(CoreMsg::kFutexHandoff);
    futexes_->serialize_for_handoff(hand.data);
    network_.send(std::move(hand));
  }

  // (4) Capture live threads (std::map order: deterministic) and send the
  // report last on the master link, so the master adopts state before it
  // re-homes anyone.
  std::uint32_t captured = 0;
  std::vector<std::uint8_t> report;
  for (const auto& [tid, t] : threads_) {
    if (t.state == ThreadState::kExited) continue;
    capture_thread(t, report);
    ++captured;
  }
  net::Message rep;
  rep.src = id_;
  rep.dst = kMasterNode;
  rep.type = static_cast<std::uint32_t>(CoreMsg::kCrashReport);
  rep.a = id_;
  rep.b = captured;
  rep.data = std::move(report);
  network_.send(std::move(rep));

  // (5) Go dark: cancel every timer that could fire into freed state (the
  // DSM watchdogs are RAII — clearing the table cancels them), drop all
  // thread state, silence the links. Closures already in the event queue
  // hit the dead_ guards and fall through.
  dsm_.crash_teardown();
  if (futexes_ != nullptr) futexes_->cancel_watchdogs();
  threads_.clear();
  run_queue_.clear();
  std::fill(core_busy_.begin(), core_busy_.end(), false);
  paused_inbox_.clear();
  dead_ = true;
  network_.silence(id_);
}

void Node::pause(DurationPs pause_for) {
  if (dead_ || paused_) return;
  paused_ = true;
  stats_.add("core.node_pauses");
  site(trace::Cat::kCore)
      .emit(queue_.now(), "core.pause", trace::Kind::kInstant, 0, pause_for, 0);
  queue_.schedule_in(pause_for, [this] {
    if (dead_) return;
    paused_ = false;
    stats_.add("core.node_rejoins");
    site(trace::Cat::kCore)
        .emit(queue_.now(), "core.rejoin", trace::Kind::kInstant, 0,
              paused_inbox_.size(), 0);
    // Drain in arrival order; the links stayed live below this layer, so
    // per-link FIFO is preserved end to end.
    std::vector<net::Message> inbox;
    inbox.swap(paused_inbox_);
    for (const net::Message& m : inbox) handle_message(m);
    kick();
  });
}

void Node::on_node_dead(NodeId dead) {
  homes_.invalidate_home(dead);
  lock_agent_.on_peer_dead(dead);
  if (futexes_ != nullptr) futexes_->on_node_dead(dead);
  if (directory_ != nullptr) directory_->on_node_dead(dead);
  network_.note_peer_dead(id_, dead);
}

}  // namespace dqemu::core
