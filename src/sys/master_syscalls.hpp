// Master-side delegated-syscall engine (paper section 4.3).
//
// Owns the authoritative system state: the VFS + fd table and the guest
// heap/mmap break. The engine borrows the master's futex home (home 0,
// which node 0 hosts; DESIGN.md §17): futex calls delegated to the master
// are served there, and every response the engine sends goes out through
// it, paying the one manager service delay. Thread lifecycle calls
// (clone / exit / exit_group) are forwarded to hooks the core layer
// passes in, because placement and thread accounting live there.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "isa/syscall_abi.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sys/futex_home.hpp"
#include "sys/vfs.hpp"
#include "sys/wire.hpp"
#include "trace/tracer.hpp"

namespace dqemu::sys {

/// Decoded request: the four register args plus any input payload.
struct SyscallRequest {
  NodeId src = kInvalidNode;
  GuestTid tid = kInvalidTid;
  isa::Sys num = isa::Sys::kExit;
  std::array<std::uint32_t, 4> args{};
  std::span<const std::uint8_t> payload;
  std::uint64_t flow = 0;  ///< causal chain opened by the delegating node
};

/// Packs args + payload into a kSyscallReq message body (node side): the
/// four args as little-endian u32 words, then the payload.
[[nodiscard]] net::Message make_syscall_request(
    NodeId src, GuestTid tid, isa::Sys num,
    const std::array<std::uint32_t, 4>& args,
    std::span<const std::uint8_t> payload);

/// Decodes a kSyscallReq built by make_syscall_request. `src` is the
/// wire-level sender; the payload span points into `msg`.
[[nodiscard]] SyscallRequest parse_syscall_request(const net::Message& msg);

class MasterSyscalls {
 public:
  struct Hooks {
    /// clone(flags, child_sp, ctid): create the child thread somewhere in
    /// the cluster; returns the child's tid (or -errno).
    std::function<std::int32_t(const SyscallRequest&)> on_clone;
    /// A guest thread exited with `status`.
    std::function<void(const SyscallRequest&)> on_exit;
    /// exit_group(status): terminate the whole guest.
    std::function<void(std::uint32_t status)> on_exit_group;
  };

  /// Maps a futex address to the node whose FutexService owns it (home
  /// sharding, DESIGN.md §17; kMasterNode throughout when sharding is off).
  /// The master consults it for the kExit ctid wake — the one futex op that
  /// originates *at* the master — and relays the wake to the home when it
  /// is not node 0.
  using FutexHomeResolver = std::function<NodeId(GuestAddr)>;

  /// Serving-plane escape hatch: kServeGet / kServeDone requests are handed
  /// to this callback (the core layer binds it to the load generator),
  /// which replies — possibly much later, for parked workers — through
  /// home 0's send_response.
  using ServeHandler = std::function<void(const SyscallRequest&)>;

  /// `futexes` is the master's futex home; it must outlive the engine.
  /// `page_size` rounds anonymous mmap lengths. `serve_handler` is empty
  /// when serving is off: both serve calls then return -ENOSYS.
  MasterSyscalls(net::Network& network, sim::EventQueue& queue,
                 std::uint32_t page_size, FutexService& futexes,
                 FutexHomeResolver futex_home, Hooks hooks,
                 ServeHandler serve_handler, StatsRegistry& stats,
                 trace::Tracer* tracer = nullptr);

  /// Guest heap layout: brk grows in [brk_start, mmap_start); anonymous
  /// mmaps grow in [mmap_start, mmap_end). Known only once the program is
  /// loaded.
  void configure_memory(GuestAddr brk_start, GuestAddr mmap_start,
                        GuestAddr mmap_end);

  [[nodiscard]] Vfs& vfs() { return vfs_; }
  [[nodiscard]] const Vfs& vfs() const { return vfs_; }
  [[nodiscard]] GuestAddr current_brk() const { return brk_; }

  /// Serves a kSyscallReq addressed to the master. Lease traffic is home
  /// business: Node::handle_message routes it to the futex home.
  void handle_message(const net::Message& msg);

 private:
  void dispatch(const SyscallRequest& req);

  net::Network& network_;
  sim::EventQueue& queue_;
  StatsRegistry& stats_;
  trace::Site trace_;  ///< kSys records on the master's manager track
  Hooks hooks_;
  ServeHandler serve_handler_;
  Vfs vfs_;
  /// The master's futex home (futex table + lease protocol). With home
  /// sharding most addresses are served by slave-hosted FutexService
  /// instances instead; see sys/futex_home.hpp.
  FutexService& futex_;
  FutexHomeResolver futex_home_;
  GuestAddr brk_ = 0;
  GuestAddr brk_min_ = 0;
  GuestAddr mmap_cursor_ = 0;
  GuestAddr mmap_end_ = 0;
  std::uint32_t page_mask_ = 4095;
};

}  // namespace dqemu::sys
