// FutexTable unit tests: FIFO wake ordering across nodes, count semantics,
// flow propagation, the lease state machine of hierarchical locking
// (DESIGN.md section 11), and the waiter wire packing.
#include "sys/futex_table.hpp"

#include <gtest/gtest.h>

namespace dqemu::sys {
namespace {

using Waiter = FutexTable::Waiter;

constexpr GuestAddr kAddr = 0x2000;

TEST(FutexTableTest, WakesCrossNodeWaitersInFifoOrder) {
  FutexTable table;
  table.wait(kAddr, Waiter{1, 10, 0});
  table.wait(kAddr, Waiter{3, 30, 0});
  table.wait(kAddr, Waiter{2, 20, 0});
  ASSERT_EQ(table.waiters(kAddr), 3u);

  const auto first = table.wake(kAddr, 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].node, 1);
  EXPECT_EQ(first[0].tid, 10u);

  const auto rest = table.wake(kAddr, 2);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].node, 3);
  EXPECT_EQ(rest[1].node, 2);
  EXPECT_EQ(table.waiters(kAddr), 0u);
}

TEST(FutexTableTest, WakeCountLargerThanQueueDrainsIt) {
  FutexTable table;
  table.wait(kAddr, Waiter{1, 10, 0});
  table.wait(kAddr, Waiter{1, 11, 0});
  const auto woken = table.wake(kAddr, 100);
  EXPECT_EQ(woken.size(), 2u);
  EXPECT_EQ(table.waiters(kAddr), 0u);
  EXPECT_EQ(table.total_waiters(), 0u);
}

TEST(FutexTableTest, WakeOnEmptyAddressReturnsNothing) {
  FutexTable table;
  EXPECT_TRUE(table.wake(kAddr, 1).empty());
  table.wait(0x3000, Waiter{1, 10, 0});
  EXPECT_TRUE(table.wake(kAddr, 1).empty());  // other addresses untouched
  EXPECT_EQ(table.waiters(0x3000), 1u);
}

TEST(FutexTableTest, WaiterFlowSurvivesQueueAndWake) {
  FutexTable table;
  table.wait(kAddr, Waiter{1, 10, 0xABCD});
  table.wait(kAddr, Waiter{2, 20, 0x1234});
  const auto woken = table.wake(kAddr, 2);
  ASSERT_EQ(woken.size(), 2u);
  EXPECT_EQ(woken[0].flow, 0xABCDu);
  EXPECT_EQ(woken[1].flow, 0x1234u);
}

TEST(FutexTableTest, GrantLeaseDetachesQueueInOrder) {
  FutexTable table;
  table.wait(kAddr, Waiter{1, 10, 7});
  table.wait(kAddr, Waiter{2, 20, 8});
  ASSERT_EQ(table.lease_phase(kAddr), FutexTable::LeasePhase::kNone);

  const auto queue = table.grant_lease(kAddr, /*owner=*/2, /*now=*/1000);
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].tid, 10u);
  EXPECT_EQ(queue[1].tid, 20u);
  EXPECT_EQ(table.waiters(kAddr), 0u);  // queue travels with the lease
  EXPECT_EQ(table.lease_phase(kAddr), FutexTable::LeasePhase::kGranted);
  EXPECT_EQ(table.lease_owner(kAddr), 2);
  EXPECT_EQ(table.lease_granted_at(kAddr), 1000u);
  EXPECT_EQ(table.leases_out(), 1u);
}

TEST(FutexTableTest, RecallSplicesReturnedWaitersToFront) {
  FutexTable table;
  (void)table.grant_lease(kAddr, /*owner=*/1, /*now=*/0);
  table.begin_recall(kAddr, /*requester=*/3);
  EXPECT_EQ(table.lease_phase(kAddr), FutexTable::LeasePhase::kRecalling);
  EXPECT_EQ(table.lease_owner(kAddr), 1);
  EXPECT_EQ(table.lease_pending_requester(kAddr), 3);

  // An op that raced the recall was buffered by the caller and replayed
  // after end_lease; a wait that reached the master FIRST (before the
  // lease ever moved) must still be ahead of it -> returned waiters go to
  // the queue front.
  table.wait(kAddr, Waiter{3, 31, 0});  // replayed-buffer order stand-in
  const NodeId next = table.end_lease(
      kAddr, {Waiter{1, 11, 0}, Waiter{2, 21, 0}});
  EXPECT_EQ(next, 3);
  EXPECT_EQ(table.lease_phase(kAddr), FutexTable::LeasePhase::kNone);

  const auto woken = table.wake(kAddr, 3);
  ASSERT_EQ(woken.size(), 3u);
  EXPECT_EQ(woken[0].tid, 11u);  // owner's queue first, FIFO preserved
  EXPECT_EQ(woken[1].tid, 21u);
  EXPECT_EQ(woken[2].tid, 31u);
}

TEST(FutexTableTest, LeaseCanMoveAgainAfterRecall) {
  FutexTable table;
  (void)table.grant_lease(kAddr, 1, 0);
  table.begin_recall(kAddr, 2);
  (void)table.end_lease(kAddr, {});
  EXPECT_EQ(table.leases_out(), 0u);
  const auto queue = table.grant_lease(kAddr, 2, 500);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(table.lease_owner(kAddr), 2);
}

TEST(FutexTableTest, WaiterPackingRoundTrips) {
  const std::vector<Waiter> waiters = {
      Waiter{1, 10, 0xDEADBEEFCAFEull},
      Waiter{0xFFFE, 0xFFFFFFFFu, 0},
      Waiter{3, 30, 42},
  };
  std::vector<std::uint8_t> wire;
  FutexTable::pack_waiters(waiters, wire);
  EXPECT_EQ(wire.size(), waiters.size() * FutexTable::kWaiterWireBytes);

  const auto back = FutexTable::unpack_waiters(wire);
  ASSERT_EQ(back.size(), waiters.size());
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    EXPECT_EQ(back[i].node, waiters[i].node);
    EXPECT_EQ(back[i].tid, waiters[i].tid);
    EXPECT_EQ(back[i].flow, waiters[i].flow);
  }
}

}  // namespace
}  // namespace dqemu::sys
