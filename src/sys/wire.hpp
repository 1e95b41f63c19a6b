// Syscall-delegation wire protocol (paper section 4.3) and the
// hierarchical-locking lease protocol (DESIGN.md section 11).
//
// Global syscalls are trapped on the executing node and forwarded to the
// master, which keeps the authoritative system state (file descriptors,
// futex queues, the heap break). Every kSyscallReq gets exactly one
// kSyscallResp; for FUTEX_WAIT the response is deferred until a matching
// wake, which is how the distributed futex blocks a remote thread.
//
// The 0x21x messages implement two-level locking: the master can grant a
// node an ownership *lease* for one futex address; while the lease is
// out, the owning node's lock agent holds that address's wait queue and
// the master forwards all delegated traffic for the address to it.
#pragma once

#include <cstdint>

namespace dqemu::sys {

enum class SysMsg : std::uint32_t {
  /// Node -> master. a = syscall number, b = guest tid,
  /// data = 4 LE u32 args followed by an optional input payload
  /// (write() bytes, open() path...).
  kSyscallReq = 0x200,
  /// Master -> node. a = result (sign-extended into u64), b = guest tid,
  /// data = optional output payload to copy to the caller's pointer arg.
  kSyscallResp = 0x201,

  // ---- hierarchical locking (lease protocol) ----------------------------

  /// Node -> master: request the ownership lease for futex address `a`.
  kLeaseReq = 0x210,
  /// Master -> node: lease granted for address `a`; data = the address's
  /// current wait queue (packed Waiters, FIFO order) handed off with it.
  kLeaseGrant = 0x211,
  /// Master -> owner: return the lease for address `a`.
  kLeaseRecall = 0x212,
  /// Owner -> master: lease returned for address `a`; data = the owner's
  /// wait queue (packed Waiters, FIFO order, local waiters included).
  kLeaseReturn = 0x213,
  /// Master -> owner: a FUTEX_WAIT delegated by a non-owner node,
  /// forwarded to the lease owner. a = address, b = waiter tid,
  /// c = waiter node; flow = the waiter's causal chain.
  kWaitHandoff = 0x214,
  /// Master -> owner: a FUTEX_WAKE delegated by a non-owner node, or a
  /// thread-exit wake. a = address, b = count. Nobody awaits the count:
  /// every delegated wake is fire-and-forget under hierarchical locking
  /// (kFutexAsyncWake), the only mode with leases.
  kWakeHandoff = 0x215,
  /// Master or owner -> node: one message waking several parked threads on
  /// the destination node. a = address, b = entry count; data = packed
  /// Waiters (tid + flow per entry). Each tid gets futex result 0.
  kWakeBatch = 0x216,
};

/// FUTEX_WAKE arg[3] flag: fire-and-forget. The waker's lock agent already
/// acknowledged the syscall locally (result 0), so the master must not send
/// a kSyscallResp for it. Only set on the hierarchical-locking path: the
/// guest runtime discards the wake count, and releasing a lock should not
/// stall the releaser for a cluster round trip.
inline constexpr std::uint32_t kFutexAsyncWake = 1;

}  // namespace dqemu::sys
