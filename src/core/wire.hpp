// Thread-management wire protocol (paper section 4.1).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dqemu::core {

/// Simulation-side payload appended to a serialized CpuContext by thread
/// migration and crash capture: the accumulated per-thread time breakdown
/// (execute / translate / pagefault / syscall / idle).
constexpr std::size_t kBreakdownWireBytes = 5 * sizeof(std::uint64_t);
/// Optional trailer on kMigrateThread / kCrashReport records: a syscall the
/// thread must re-issue on its new node before executing any instruction
/// (num, the four args, block_is_idle).
constexpr std::size_t kPendingSyscallWireBytes = 6 * sizeof(std::uint32_t);

enum class CoreMsg : std::uint32_t {
  /// Master -> node: create a TCG-thread from a cloned CPU context.
  /// a = child tid, b = ctid address (clear-on-exit), c = hint group
  /// (int32 widened), data = serialized CpuContext.
  kCreateThread = 0x300,
  /// Master -> owner node: migrate thread `a` to node `b` at its next
  /// quantum boundary.
  kMigrateReq = 0x301,
  /// Owner -> target node: the migrating thread's state.
  /// a = tid, b = ctid, c = hint group, data = serialized CpuContext.
  kMigrateThread = 0x302,
  /// Target -> master: thread `a` now runs on node `b` (bookkeeping).
  kMigrateDone = 0x303,

  // ---- whole-node fault plane (DESIGN.md §18) ---------------------------
  //
  // The 0x31x range is the crash plane: it rides the reliable channel for
  // per-link FIFO ordering but is exempt from fault injection ("reliable by
  // fiat") — losing the recovery protocol to the fault it recovers from
  // would be circular. The injector's per-link counters are not consumed,
  // so every other message's fault fate is unchanged by these.

  /// Master -> node: die now. The node's last gasp (in its own execution
  /// context, so both kernels order it identically): flush dirty pages
  /// home, return held lock leases, hand a hosted home shard to the master,
  /// capture live threads, cancel every timer, go dark.
  kCrashCmd = 0x310,
  /// Dying node -> page home: last writeback of a kReadWrite page.
  /// a = page, data = full page bytes. Applied iff the directory still
  /// records the dying node as owner; dropped otherwise (stale).
  kCrashFlush = 0x311,
  /// Dying node -> master: the crash report, sent last on the link so FIFO
  /// orders it after every flush/handoff. a = crashed node id, b = thread
  /// count; data = captured threads (see Node::crash).
  kCrashReport = 0x312,
  /// Dying home -> master: one directory entry of the handed-off shard.
  /// a = page; data = state/owner/sharers (+ home page bytes when the home
  /// copy is authoritative). The master adopts the page.
  kHomeHandoff = 0x313,
  /// Dying home -> master: the hosted futex/lease table, one message for
  /// the whole shard. data = serialized FutexTable + recall buffers.
  kFutexHandoff = 0x314,
  /// Master -> every surviving node: node `a` is dead. Each receiver sweeps
  /// its own state in its own context: waiter queues, copysets, learned
  /// home routes, reliable-channel links.
  kNodeDead = 0x315,
  /// Dying lease owner -> futex home: return of a held lock lease.
  /// a = futex address, b = waiter count; data = packed waiters (including
  /// the dying node's own, which the home then sweeps as dead). A distinct
  /// type rather than sys::kLeaseReturn because an injector drop of a dying
  /// node's return would strand the queue forever — the retransmit timer
  /// dies with the node.
  ///
  /// The 0x310..0x31F range is classified by net::is_crash_plane()
  /// (net/fault/node_faults.hpp); keep new crash messages inside it.
  kCrashLeaseReturn = 0x316,
};

}  // namespace dqemu::core
