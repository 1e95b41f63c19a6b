// Unit tests: VFS, futex table, syscall classification, the master
// delegation engine and the lock agent's wake policy.
#include <gtest/gtest.h>

#include <memory>

#include "isa/syscall_abi.hpp"
#include "net/network.hpp"
#include "sys/classify.hpp"
#include "sys/futex_table.hpp"
#include "sys/lock_agent.hpp"
#include "sys/master_syscalls.hpp"
#include "sys/vfs.hpp"
#include "sys/wire.hpp"

namespace dqemu::sys {
namespace {

using isa::Sys;

// ---- Vfs --------------------------------------------------------------------

TEST(VfsTest, StdoutCapture) {
  Vfs vfs;
  const char* msg = "hello";
  EXPECT_EQ(vfs.write(1, {reinterpret_cast<const std::uint8_t*>(msg), 5}), 5);
  EXPECT_EQ(vfs.stdout_text(), "hello");
  EXPECT_EQ(vfs.write(2, {reinterpret_cast<const std::uint8_t*>(msg), 2}), 2);
  EXPECT_EQ(vfs.stderr_text(), "he");
}

TEST(VfsTest, OpenMissingFileFails) {
  Vfs vfs;
  EXPECT_EQ(vfs.open("nope.txt", isa::kOpenRead), -isa::kENOENT);
}

TEST(VfsTest, CreateWriteReadRoundtrip) {
  Vfs vfs;
  const std::int32_t wfd = vfs.open("f.txt", isa::kOpenWrite | isa::kOpenCreate);
  ASSERT_GE(wfd, 3);
  const char* content = "data!";
  EXPECT_EQ(vfs.write(wfd, {reinterpret_cast<const std::uint8_t*>(content), 5}), 5);
  EXPECT_EQ(vfs.close(wfd), 0);

  const std::int32_t rfd = vfs.open("f.txt", isa::kOpenRead);
  ASSERT_GE(rfd, 3);
  std::uint8_t buf[16] = {};
  EXPECT_EQ(vfs.read(rfd, {buf, 16}), 5);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 5), "data!");
  EXPECT_EQ(vfs.read(rfd, {buf, 16}), 0);  // EOF
}

TEST(VfsTest, PreloadAndFileContent) {
  Vfs vfs;
  vfs.preload("input.dat", std::string_view("abc"));
  const auto content = vfs.file_content("input.dat");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(content->size(), 3u);
  EXPECT_FALSE(vfs.file_content("other").has_value());
}

TEST(VfsTest, LseekWhence) {
  Vfs vfs;
  vfs.preload("f", std::string_view("0123456789"));
  const std::int32_t fd = vfs.open("f", isa::kOpenRead);
  EXPECT_EQ(vfs.lseek(fd, 4, isa::kSeekSet), 4);
  std::uint8_t b = 0;
  EXPECT_EQ(vfs.read(fd, {&b, 1}), 1);
  EXPECT_EQ(b, '4');
  EXPECT_EQ(vfs.lseek(fd, 2, isa::kSeekCur), 7);
  EXPECT_EQ(vfs.lseek(fd, -1, isa::kSeekEnd), 9);
  EXPECT_EQ(vfs.lseek(fd, -100, isa::kSeekSet), -isa::kEINVAL);
  EXPECT_EQ(vfs.lseek(fd, 0, 99), -isa::kEINVAL);
}

TEST(VfsTest, BadFdErrors) {
  Vfs vfs;
  std::uint8_t b = 0;
  EXPECT_EQ(vfs.read(77, {&b, 1}), -isa::kEBADF);
  EXPECT_EQ(vfs.close(77), -isa::kEBADF);
  EXPECT_EQ(vfs.close(-1), -isa::kEBADF);
  EXPECT_EQ(vfs.read(1, {&b, 1}), -isa::kEBADF);  // stdout not readable
}

TEST(VfsTest, FdSlotsReused) {
  Vfs vfs;
  vfs.preload("a", std::string_view("x"));
  const std::int32_t fd1 = vfs.open("a", isa::kOpenRead);
  EXPECT_EQ(vfs.close(fd1), 0);
  const std::int32_t fd2 = vfs.open("a", isa::kOpenRead);
  EXPECT_EQ(fd1, fd2);  // lowest free slot, POSIX-style
  EXPECT_EQ(vfs.open_fd_count(), 4u);  // stdin/out/err + fd2
}

TEST(VfsTest, WriteExtendsFile) {
  Vfs vfs;
  const std::int32_t fd = vfs.open("g", isa::kOpenWrite | isa::kOpenCreate);
  const std::uint8_t bytes[4] = {1, 2, 3, 4};
  EXPECT_EQ(vfs.write(fd, bytes), 4);
  EXPECT_EQ(vfs.lseek(fd, 2, isa::kSeekSet), 2);
  EXPECT_EQ(vfs.write(fd, bytes), 4);  // overwrite + extend to 6
  EXPECT_EQ(vfs.file_content("g")->size(), 6u);
}

// ---- FutexTable ---------------------------------------------------------------

TEST(FutexTableTest, FifoWakeOrder) {
  FutexTable table;
  table.wait(0x100, {1, 10});
  table.wait(0x100, {2, 20});
  table.wait(0x100, {1, 30});
  EXPECT_EQ(table.waiters(0x100), 3u);
  const auto first = table.wake(0x100, 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].tid, 10u);
  EXPECT_EQ(first[1].tid, 20u);
  EXPECT_EQ(table.waiters(0x100), 1u);
}

TEST(FutexTableTest, WakeOnEmptyAddressReturnsNothing) {
  FutexTable table;
  EXPECT_TRUE(table.wake(0x500, 100).empty());
}

TEST(FutexTableTest, AddressesAreIndependent) {
  FutexTable table;
  table.wait(0x100, {1, 1});
  table.wait(0x200, {2, 2});
  EXPECT_EQ(table.wake(0x100, 10).size(), 1u);
  EXPECT_EQ(table.waiters(0x200), 1u);
  EXPECT_EQ(table.total_waiters(), 1u);
}

// ---- classify / pre_access -----------------------------------------------------

TEST(Classify, LocalVsGlobal) {
  EXPECT_EQ(classify(Sys::kGettid), SysClass::kLocal);
  EXPECT_EQ(classify(Sys::kYield), SysClass::kLocal);
  EXPECT_EQ(classify(Sys::kClockGettime), SysClass::kLocal);
  EXPECT_EQ(classify(Sys::kWrite), SysClass::kGlobal);
  EXPECT_EQ(classify(Sys::kClone), SysClass::kGlobal);
  EXPECT_EQ(classify(Sys::kFutex), SysClass::kGlobal);
  EXPECT_EQ(classify(Sys::kBrk), SysClass::kGlobal);
  EXPECT_EQ(classify(Sys::kExit), SysClass::kGlobal);
}

TEST(PreAccess, WriteNeedsReadableBuffer) {
  const auto ranges = pre_access(Sys::kWrite, {1, 0x5000, 64, 0});
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].addr, 0x5000u);
  EXPECT_EQ(ranges[0].len, 64u);
  EXPECT_FALSE(ranges[0].write);
}

TEST(PreAccess, ReadNeedsWritableBuffer) {
  const auto ranges = pre_access(Sys::kRead, {0, 0x6000, 128, 0});
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(ranges[0].write);
}

TEST(PreAccess, ZeroLengthSkipped) {
  EXPECT_TRUE(pre_access(Sys::kWrite, {1, 0x5000, 0, 0}).empty());
}

TEST(PreAccess, FutexWaitNeedsWord) {
  const auto wait = pre_access(Sys::kFutex, {0x7000, isa::kFutexWait, 1, 0});
  ASSERT_EQ(wait.size(), 1u);
  EXPECT_EQ(wait[0].len, 4u);
  EXPECT_TRUE(pre_access(Sys::kFutex, {0x7000, isa::kFutexWake, 1, 0}).empty());
}

// ---- MasterSyscalls over the network --------------------------------------------

struct DelegationFixture : ::testing::Test {
  DelegationFixture()
      : network(queue, NetworkConfig{}, 2, &stats),
        futexes(kMasterNode, network, queue, MachineConfig{},
                SysConfig{}.lease_min_hold, /*recall_timeout=*/0, &stats),
        master(network, queue, MachineConfig{}.page_size, futexes,
               [](GuestAddr) { return kMasterNode; }, &stats) {
    master.configure_memory(0x100000, 0x800000, 0xF00000);
    network.attach(0, [this](net::Message msg) {
      master.handle_message(msg);
    });
    network.attach(1, [this](net::Message msg) {
      responses.push_back(std::move(msg));
    });
  }

  /// Sends a request from node 1 and runs to quiescence.
  void call(isa::Sys num, std::array<std::uint32_t, 4> args,
            std::span<const std::uint8_t> payload = {}) {
    network.send(make_syscall_request(1, /*tid=*/7, num, args, payload));
    queue.run(10000);
  }

  std::int64_t last_result() const {
    return static_cast<std::int64_t>(responses.back().a);
  }

  sim::EventQueue queue;
  StatsRegistry stats;
  net::Network network;
  FutexService futexes;
  MasterSyscalls master;
  std::vector<net::Message> responses;
};

TEST_F(DelegationFixture, WriteToStdout) {
  const char* msg = "out!";
  call(Sys::kWrite, {1, 0, 4, 0},
       {reinterpret_cast<const std::uint8_t*>(msg), 4});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(last_result(), 4);
  EXPECT_EQ(responses.back().b, 7u);  // routed by tid
  EXPECT_EQ(master.vfs().stdout_text(), "out!");
}

TEST_F(DelegationFixture, BrkQueryAndExtend) {
  call(Sys::kBrk, {0, 0, 0, 0});
  EXPECT_EQ(last_result(), 0x100000);
  call(Sys::kBrk, {0x180000, 0, 0, 0});
  EXPECT_EQ(last_result(), 0x180000);
  EXPECT_EQ(master.current_brk(), 0x180000u);
  // Out-of-range request leaves brk unchanged.
  call(Sys::kBrk, {0xE00000, 0, 0, 0});
  EXPECT_EQ(last_result(), 0x180000);
}

TEST_F(DelegationFixture, MmapAllocatesPageAligned) {
  call(Sys::kMmap, {100, 0, 0, 0});
  const auto first = last_result();
  EXPECT_EQ(first, 0x800000);
  call(Sys::kMmap, {8192, 0, 0, 0});
  EXPECT_EQ(last_result(), 0x801000);  // previous rounded to one page
  call(Sys::kMmap, {0x700000, 0, 0, 0});
  EXPECT_EQ(last_result(), -isa::kENOMEM);  // pool exhausted
}

TEST_F(DelegationFixture, OpenReadThroughPayloads) {
  master.vfs().preload("cfg", std::string_view("xyz"));
  const char* path = "cfg";
  call(Sys::kOpen, {0, 0, 0, 0},
       {reinterpret_cast<const std::uint8_t*>(path), 4});
  const auto fd = last_result();
  ASSERT_GE(fd, 3);
  call(Sys::kRead, {std::uint32_t(fd), 0x9000, 16, 0});
  EXPECT_EQ(last_result(), 3);
  EXPECT_EQ(responses.back().data.size(), 3u);  // payload carries the bytes
  EXPECT_EQ(responses.back().data[0], 'x');
}

TEST_F(DelegationFixture, FutexWaitDefersUntilWake) {
  call(Sys::kFutex, {0x4000, isa::kFutexWait, 1, 0});
  EXPECT_TRUE(responses.empty());  // no response yet: thread blocked
  EXPECT_EQ(futexes.table().waiters(0x4000), 1u);

  // Another thread wakes it.
  network.send(make_syscall_request(1, /*tid=*/8, Sys::kFutex,
                                    {0x4000, isa::kFutexWake, 1, 0}, {}));
  queue.run(10000);
  ASSERT_EQ(responses.size(), 2u);
  // Waiter's deferred response (result 0) and waker's count (1).
  bool saw_waiter = false;
  bool saw_waker = false;
  for (const auto& msg : responses) {
    if (msg.b == 7 && msg.a == 0) saw_waiter = true;
    if (msg.b == 8 && msg.a == 1) saw_waker = true;
  }
  EXPECT_TRUE(saw_waiter);
  EXPECT_TRUE(saw_waker);
}

TEST_F(DelegationFixture, FutexInvalidOp) {
  call(Sys::kFutex, {0x4000, 99, 0, 0});
  EXPECT_EQ(last_result(), -isa::kEINVAL);
}

TEST_F(DelegationFixture, UnknownSyscallReturnsEnosys) {
  call(static_cast<Sys>(200), {0, 0, 0, 0});
  EXPECT_EQ(last_result(), -isa::kENOSYS);
}

TEST_F(DelegationFixture, ExitWakesJoinersOnCtid) {
  // A joiner waits on the ctid address; exit(status, ctid) must wake it.
  call(Sys::kFutex, {0xABC0, isa::kFutexWait, 1, 0});
  EXPECT_TRUE(responses.empty());
  bool exited = false;
  MasterSyscalls::Hooks hooks;
  hooks.on_exit = [&](const SyscallRequest&) { exited = true; };
  master.set_hooks(std::move(hooks));
  network.send(make_syscall_request(1, /*tid=*/9, Sys::kExit,
                                    {0, 0xABC0, 0, 0}, {}));
  queue.run(10000);
  EXPECT_TRUE(exited);
  ASSERT_EQ(responses.size(), 1u);  // only the joiner's wakeup
  EXPECT_EQ(responses.back().b, 7u);
}

TEST_F(DelegationFixture, CloneHookInvoked) {
  MasterSyscalls::Hooks hooks;
  hooks.on_clone = [](const SyscallRequest& req) {
    EXPECT_EQ(req.args[1], 0x5555u);
    return 42;
  };
  master.set_hooks(std::move(hooks));
  call(Sys::kClone, {0, 0x5555, 0x6666, 0});
  EXPECT_EQ(last_result(), 42);
}

// ---- LockAgent wake policy (lock cohorting) -----------------------------------

TEST(LockAgentCohort, OldestRemoteWaiterIsServedAfterTheLocalStreak) {
  constexpr GuestAddr kAddr = 0x3000;
  constexpr NodeId kSelf = 1;
  constexpr GuestTid kRemoteTid = 200;
  constexpr GuestTid kFirstLocalTid = 10;
  sim::EventQueue queue;
  StatsRegistry stats;
  net::Network network(queue, NetworkConfig{}, 3, &stats);
  std::vector<net::Message> to_remote;
  network.attach(2, [&](net::Message msg) {
    to_remote.push_back(std::move(msg));
  });
  std::vector<GuestTid> local_woken;
  LockAgent agent(
      kSelf, queue, network, &stats, nullptr,
      [](GuestAddr) { return kMasterNode; },
      [&](GuestTid tid, std::uint64_t) { local_woken.push_back(tid); });

  // The lease arrives carrying one waiter of node 2; 65 local threads park
  // behind it.
  net::Message grant;
  grant.src = kMasterNode;
  grant.dst = kSelf;
  grant.type = static_cast<std::uint32_t>(SysMsg::kLeaseGrant);
  grant.a = kAddr;
  FutexTable::pack_waiters({{2, kRemoteTid, 0}}, grant.data);
  agent.handle_message(grant);
  ASSERT_TRUE(agent.owns(kAddr));
  const std::uint32_t limit = SysConfig::lock_cohort_limit;
  for (GuestTid i = 0; i <= limit; ++i) {
    agent.local_wait(kAddr, kFirstLocalTid + i, 0);
  }

  // The streak budget: the first `limit` wakes stay on-node.
  for (std::uint32_t i = 0; i < limit; ++i) {
    ASSERT_EQ(agent.local_wake(kAddr, 1), 1u);
  }
  queue.run(10000);
  ASSERT_EQ(local_woken.size(), limit);
  for (std::uint32_t i = 0; i < limit; ++i) {
    EXPECT_EQ(local_woken[i], kFirstLocalTid + i);
  }
  EXPECT_TRUE(to_remote.empty());

  // Budget spent: the next wake goes to the oldest waiter, node 2's.
  ASSERT_EQ(agent.local_wake(kAddr, 1), 1u);
  queue.run(10000);
  EXPECT_EQ(local_woken.size(), limit);
  ASSERT_EQ(to_remote.size(), 1u);
  EXPECT_EQ(to_remote[0].type,
            static_cast<std::uint32_t>(SysMsg::kSyscallResp));
  EXPECT_EQ(to_remote[0].b, kRemoteTid);
  EXPECT_EQ(to_remote[0].a, 0u);

  // The remote grant reset the streak; the last local waiter is next.
  ASSERT_EQ(agent.local_wake(kAddr, 1), 1u);
  ASSERT_EQ(local_woken.size(), limit + 1);
  EXPECT_EQ(local_woken.back(), kFirstLocalTid + limit);
}

}  // namespace
}  // namespace dqemu::sys
