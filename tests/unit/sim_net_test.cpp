// Unit tests: event queue (sim) and simulated network (net).
#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "sim/event_queue.hpp"

namespace dqemu {
namespace {

using sim::EventQueue;
using time_literals::kUs;

// ---- EventQueue --------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(300, [&] { order.push_back(3); });
  queue.schedule_at(100, [&] { order.push_back(1); });
  queue.schedule_at(200, [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 300u);
}

TEST(EventQueue, EqualTimesFifoBySchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  queue.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, ScheduleInThePastClampsToNow) {
  EventQueue queue;
  queue.schedule_at(100, [] {});
  queue.run_one();
  bool fired = false;
  queue.schedule_at(50, [&] { fired = true; });  // the past
  queue.run_one();
  EXPECT_TRUE(fired);
  EXPECT_EQ(queue.now(), 100u);  // clock did not go backwards
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const auto id = queue.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));  // second cancel is a no-op
  queue.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue queue;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) queue.schedule_in(10, chain);
  };
  queue.schedule_at(0, chain);
  queue.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(queue.now(), 40u);
}

TEST(EventQueue, RunUntilLeavesLaterEventsPending) {
  EventQueue queue;
  int count = 0;
  queue.schedule_at(10, [&] { ++count; });
  queue.schedule_at(20, [&] { ++count; });
  queue.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(queue.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.now(), 20u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle) {
  EventQueue queue;
  queue.run_until(500);
  EXPECT_EQ(queue.now(), 500u);
}

TEST(EventQueue, RunRespectsMaxEvents) {
  EventQueue queue;
  for (TimePs i = 0; i < 10; ++i) queue.schedule_at(i, [] {});
  EXPECT_EQ(queue.run(4), 4u);
  EXPECT_EQ(queue.pending(), 6u);
}

TEST(EventQueue, FiredCounts) {
  EventQueue queue;
  queue.schedule_at(1, [] {});
  queue.schedule_at(2, [] {});
  queue.run();
  EXPECT_EQ(queue.fired(), 2u);
}

// ---- Network -------------------------------------------------------------------

struct NetFixture : ::testing::Test {
  NetFixture() : network({&queue, &queue, &queue}, config, stats) {
    for (NodeId n = 0; n < 3; ++n) {
      network.attach(n, [this, n](net::Message msg) {
        deliveries.push_back({n, queue.now(), std::move(msg)});
      });
    }
  }

  net::Message make(NodeId src, NodeId dst, std::uint32_t bytes = 0) {
    net::Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.type = 1;
    msg.data.resize(bytes);
    return msg;
  }

  struct Delivery {
    NodeId node;
    TimePs at;
    net::Message msg;
  };

  sim::EventQueue queue;
  NetworkConfig config;
  StatsRegistry stats;
  net::Network network;
  std::vector<Delivery> deliveries;
};

TEST_F(NetFixture, DeliveryLatencyMatchesModel) {
  network.send(make(0, 1, 0));
  queue.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // endpoint + wire(36 payload+64 hdr bytes) + one-way latency + endpoint.
  const TimePs expected = config.endpoint_overhead +
                          config.wire_time(36) + config.one_way_latency +
                          config.endpoint_overhead;
  EXPECT_EQ(deliveries[0].at, expected);
}

TEST_F(NetFixture, LoopbackIsCheap) {
  network.send(make(1, 1, 4096));
  queue.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].at, config.loopback_latency);
}

TEST_F(NetFixture, PerChannelFifo) {
  // A big message then a small one on the same channel: the small one
  // must not overtake.
  network.send(make(0, 1, 65536));
  network.send(make(0, 1, 0));
  queue.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].msg.data.size(), 65536u);
  EXPECT_LE(deliveries[0].at, deliveries[1].at);
}

TEST_F(NetFixture, EgressLinkSerializesSends) {
  // Two page-sized messages from node 0 to different destinations share
  // node 0's egress link: the second is delayed by one wire time.
  network.send(make(0, 1, 4096));
  network.send(make(0, 2, 4096));
  queue.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const TimePs gap = deliveries[1].at - deliveries[0].at;
  EXPECT_EQ(gap, config.wire_time(4096 + 36));
}

TEST_F(NetFixture, DistinctSourcesDoNotSerialize) {
  network.send(make(0, 2, 4096));
  network.send(make(1, 2, 4096));
  queue.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].at, deliveries[1].at);  // parallel links
}

TEST_F(NetFixture, CountsMessagesAndBytes) {
  network.send(make(0, 1, 100));
  network.send(make(1, 1, 100));  // loopback: not wire traffic
  queue.run();
  EXPECT_EQ(stats.get("net.messages"), 1u);
  EXPECT_EQ(stats.get("net.bytes"), 100u + 36 + config.header_bytes);
}

TEST_F(NetFixture, LoopbackMessagesAreCountedSeparately) {
  network.send(make(1, 1, 100));
  network.send(make(2, 2, 0));
  network.send(make(0, 1, 0));
  queue.run();
  EXPECT_EQ(stats.get("net.loopback"), 2u);
  EXPECT_EQ(stats.get("net.messages"), 1u);
}

// The misdelivery paths must die loudly in every build type: in Release an
// assert vanishes and invoking the empty std::function handler (or indexing
// past handlers_) is undefined behaviour.
using NetDeathTest = NetFixture;

TEST_F(NetDeathTest, SendToOutOfRangeNodeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(network.send(make(0, 7)), "out-of-range endpoint");
}

TEST_F(NetDeathTest, SendFromOutOfRangeNodeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(network.send(make(9, 1)), "out-of-range endpoint");
}

TEST(NetDeath, DeliverToUnattachedNodeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::EventQueue queue;
        StatsRegistry stats;
        net::Network network({&queue, &queue}, NetworkConfig{}, stats);
        network.attach(0, [](net::Message) {});
        net::Message msg;
        msg.src = 0;
        msg.dst = 1;  // node 1 never attached a handler
        msg.type = 1;
        network.send(std::move(msg));
        queue.run();
      },
      "no handler attached");
}

TEST(NetDeath, AttachOutOfRangeNodeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::EventQueue queue;
        StatsRegistry stats;
        net::Network network({&queue, &queue}, NetworkConfig{}, stats);
        network.attach(5, [](net::Message) {});
      },
      "out-of-range node");
}

TEST_F(NetFixture, ScalarFieldsSurviveTransit) {
  net::Message msg = make(2, 0, 8);
  msg.a = 0xAABB;
  msg.b = 42;
  msg.c = 7;
  msg.d = ~0ULL;
  msg.data = {1, 2, 3};
  network.send(std::move(msg));
  queue.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].msg.a, 0xAABBu);
  EXPECT_EQ(deliveries[0].msg.b, 42u);
  EXPECT_EQ(deliveries[0].msg.c, 7u);
  EXPECT_EQ(deliveries[0].msg.d, ~0ULL);
  EXPECT_EQ(deliveries[0].msg.data, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(NetFixture, EgressFreeAtTracksOccupancy) {
  EXPECT_EQ(network.egress_free_at(0), 0u);
  network.send(make(0, 1, 4096));
  EXPECT_GT(network.egress_free_at(0), 0u);
  EXPECT_EQ(network.egress_free_at(1), 0u);
}

}  // namespace
}  // namespace dqemu
