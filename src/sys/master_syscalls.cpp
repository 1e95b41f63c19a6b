#include "sys/master_syscalls.hpp"

#include <algorithm>
#include <cassert>

#include "common/le_bytes.hpp"
#include "common/log.hpp"
#include "isa/syscall_abi.hpp"

namespace dqemu::sys {

net::Message make_syscall_request(NodeId src, GuestTid tid, isa::Sys num,
                                  const std::array<std::uint32_t, 4>& args,
                                  std::span<const std::uint8_t> payload) {
  net::Message msg;
  msg.src = src;
  msg.dst = kMasterNode;
  msg.type = static_cast<std::uint32_t>(SysMsg::kSyscallReq);
  msg.a = static_cast<std::uint64_t>(num);
  msg.b = tid;
  msg.data.reserve(16 + payload.size());
  for (const std::uint32_t arg : args) le::put_u32(msg.data, arg);
  msg.data.insert(msg.data.end(), payload.begin(), payload.end());
  return msg;
}

SyscallRequest parse_syscall_request(const net::Message& msg) {
  SyscallRequest req;
  req.src = msg.src;
  req.tid = static_cast<GuestTid>(msg.b);
  req.num = static_cast<isa::Sys>(msg.a);
  le::Reader in(msg.data);
  for (std::uint32_t& arg : req.args) arg = in.u32();
  req.payload = in.bytes(in.remaining());
  req.flow = msg.flow;
  return req;
}

MasterSyscalls::MasterSyscalls(net::Network& network, sim::EventQueue& queue,
                               std::uint32_t page_size, FutexService& futexes,
                               FutexHomeResolver futex_home,
                               StatsRegistry* stats, trace::Tracer* tracer)
    : network_(network),
      queue_(queue),
      stats_(stats),
      trace_{tracer, trace::Cat::kSys, kMasterNode, trace::kTrackManager},
      futex_(futexes),
      futex_home_(std::move(futex_home)),
      page_mask_(page_size - 1) {}

void MasterSyscalls::configure_memory(GuestAddr brk_start,
                                      GuestAddr mmap_start,
                                      GuestAddr mmap_end) {
  assert(brk_start <= mmap_start && mmap_start <= mmap_end);
  brk_ = brk_start;
  brk_min_ = brk_start;
  mmap_cursor_ = mmap_start;
  mmap_end_ = mmap_end;
}

void MasterSyscalls::handle_message(const net::Message& msg) {
  assert(msg.type == static_cast<std::uint32_t>(SysMsg::kSyscallReq) &&
         "the master's syscall engine serves kSyscallReq only");
  const SyscallRequest req = parse_syscall_request(msg);
  if (stats_ != nullptr) stats_->add("sys.delegated");
  trace_.step(queue_.now(), "sys.service", req.flow, msg.a, req.tid);
  dispatch(req);
}

void MasterSyscalls::dispatch(const SyscallRequest& req) {
  using isa::Sys;
  switch (req.num) {
    case Sys::kWrite: {
      const auto fd = static_cast<std::int32_t>(req.args[0]);
      const std::int32_t n = vfs_.write(fd, req.payload);
      futex_.send_response(req.src, req.tid, n, req.flow);
      return;
    }
    case Sys::kRead: {
      const auto fd = static_cast<std::int32_t>(req.args[0]);
      std::vector<std::uint8_t> buf(req.args[2]);
      const std::int32_t n = vfs_.read(fd, buf);
      if (n > 0) buf.resize(static_cast<std::size_t>(n));
      else buf.clear();
      futex_.send_response(req.src, req.tid, n, req.flow, buf);
      return;
    }
    case Sys::kOpen: {
      // Payload is the NUL-terminated path captured by the caller node.
      const char* begin = reinterpret_cast<const char*>(req.payload.data());
      const std::size_t maxlen = req.payload.size();
      std::size_t len = 0;
      while (len < maxlen && begin[len] != '\0') ++len;
      const std::int32_t fd = vfs_.open(std::string(begin, len), req.args[1]);
      futex_.send_response(req.src, req.tid, fd, req.flow);
      return;
    }
    case Sys::kClose:
      futex_.send_response(
          req.src, req.tid, vfs_.close(static_cast<std::int32_t>(req.args[0])),
          req.flow);
      return;
    case Sys::kLseek:
      futex_.send_response(req.src, req.tid,
                           vfs_.lseek(static_cast<std::int32_t>(req.args[0]),
                                      static_cast<std::int32_t>(req.args[1]),
                                      req.args[2]),
                           req.flow);
      return;
    case Sys::kBrk: {
      const GuestAddr request = req.args[0];
      if (request != 0 && request >= brk_min_ && request < mmap_cursor_) {
        brk_ = request;
      }
      futex_.send_response(req.src, req.tid, brk_, req.flow);
      return;
    }
    case Sys::kMmap: {
      const std::uint32_t len =
          (req.args[0] + page_mask_) & ~page_mask_;
      if (len == 0 || mmap_cursor_ + len > mmap_end_) {
        futex_.send_response(req.src, req.tid, -isa::kENOMEM, req.flow);
        return;
      }
      const GuestAddr addr = mmap_cursor_;
      mmap_cursor_ += len;
      if (stats_ != nullptr) stats_->add("sys.mmap_bytes", len);
      futex_.send_response(req.src, req.tid, addr, req.flow);
      return;
    }
    case Sys::kMunmap:
      futex_.send_response(req.src, req.tid, 0, req.flow);  // accounting-only
      return;
    case Sys::kFutex:
      futex_.do_futex(req);
      return;
    case Sys::kClone: {
      assert(hooks_.on_clone && "core layer must install the clone hook");
      const std::int32_t child = hooks_.on_clone(req);
      futex_.send_response(req.src, req.tid, child, req.flow);
      return;
    }
    case Sys::kExit: {
      // args: [0]=status, [1]=ctid address (0 if none). The node already
      // stored 0 to *ctid through the coherence protocol; waking joiners
      // is the job of whichever node homes the ctid address — the master
      // classically, possibly a slave under home sharding, in which case
      // the wake is relayed there as a fire-and-forget futex request. The
      // exiting thread never awaits a count either way.
      if (req.args[1] != 0) {
        const GuestAddr ctid = req.args[1];
        const NodeId home = futex_home_(ctid);
        if (home == kMasterNode) {
          futex_.exit_wake(req, ctid);
        } else {
          net::Message wake = make_syscall_request(
              kMasterNode, req.tid, Sys::kFutex,
              {ctid, isa::kFutexWake, UINT32_MAX, kFutexAsyncWake}, {});
          wake.dst = home;
          wake.c = net::relay_mark(req.src);
          wake.flow = req.flow;
          network_.send(std::move(wake));
        }
      }
      if (hooks_.on_exit) hooks_.on_exit(req);
      return;  // no response: the thread is gone
    }
    case Sys::kExitGroup:
      if (hooks_.on_exit_group) hooks_.on_exit_group(req.args[0]);
      return;
    case Sys::kServeGet:
    case Sys::kServeDone:
      // The serving plane owns these; a kServeGet may be parked (deferred
      // response) exactly like FUTEX_WAIT, so the handler replies itself.
      if (serve_handler_) {
        serve_handler_(req);
      } else {
        futex_.send_response(req.src, req.tid, -isa::kENOSYS, req.flow);
      }
      return;
    default:
      DQEMU_WARN("unimplemented delegated syscall %u",
                 static_cast<unsigned>(req.num));
      futex_.send_response(req.src, req.tid, -isa::kENOSYS, req.flow);
      return;
  }
}

}  // namespace dqemu::sys
