// Unit tests: DSM directory protocol + client, driven over a real
// simulated network (master = node 0 hosting the directory; nodes 1 and 2
// run DsmClients).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "dsm/client.hpp"
#include "dsm/directory.hpp"
#include "dsm/stream_detector.hpp"
#include "dsm/wire.hpp"
#include "net/network.hpp"

namespace dqemu::dsm {
namespace {

constexpr std::uint32_t kMem = 32u << 20;
constexpr std::uint32_t kPage = 4096;

struct ProtocolFixture : ::testing::Test {
  ProtocolFixture() { build({}); }

  void build(DsmConfig dsm) {
    queue = std::make_unique<sim::EventQueue>();
    network = std::make_unique<net::Network>(*queue, NetworkConfig{}, 3,
                                             &stats);
    for (int i = 0; i < 3; ++i) {
      spaces[i] = std::make_unique<mem::AddressSpace>(kMem, kPage);
      shadows[i] = std::make_unique<mem::ShadowMap>(kPage, 4);
    }
    Directory::Params params;
    params.dsm = dsm;
    params.node_count = 3;
    params.shadow_pool_first_page = (kMem / kPage) - 1024;
    params.shadow_pool_page_count = 1024;
    directory = std::make_unique<Directory>(*network, *queue, *spaces[0],
                                            params, &stats);
    for (NodeId n = 0; n < 3; ++n) {
      clients[n] = std::make_unique<DsmClient>(
          n, *network, *queue, *spaces[n], *shadows[n], nullptr, nullptr,
          &stats,
          [this, n](std::uint32_t page) { wakes[n].push_back(page); });
    }
    network->attach(0, [this](net::Message msg) {
      switch (static_cast<DsmMsg>(msg.type)) {
        case DsmMsg::kReadReq:
        case DsmMsg::kWriteReq:
        case DsmMsg::kInvAck:
        case DsmMsg::kDowngradeAck:
          directory->handle_message(msg);
          break;
        default:
          clients[0]->handle_message(msg);
      }
    });
    for (NodeId n = 1; n < 3; ++n) {
      DsmClient* client = clients[n].get();
      network->attach(n, [client](net::Message msg) {
        client->handle_message(msg);
      });
    }
  }

  void settle() { queue->run(100000); }

  StatsRegistry stats;
  std::unique_ptr<sim::EventQueue> queue;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<mem::AddressSpace> spaces[3];
  std::unique_ptr<mem::ShadowMap> shadows[3];
  std::unique_ptr<Directory> directory;
  std::unique_ptr<DsmClient> clients[3];
  std::vector<std::uint32_t> wakes[3];
};

/// Every probed coherence field of `pages`, in order: a fresh directory's
/// boot answer, compared before and after a sweep.
std::vector<std::uint64_t> probe(const Directory& dir,
                                 const std::vector<std::uint32_t>& pages) {
  std::vector<std::uint64_t> out;
  for (const std::uint32_t page : pages) {
    out.push_back(static_cast<std::uint64_t>(dir.state(page)));
    out.push_back(dir.owner(page));
    out.push_back(dir.sharer_mask(page));
    out.push_back(dir.busy(page) ? 1 : 0);
  }
  return out;
}

TEST_F(ProtocolFixture, BootState) {
  // Master owns everything outside the shadow pool.
  EXPECT_EQ(directory->state(10), Directory::PageState::kModified);
  EXPECT_EQ(directory->owner(10), kMasterNode);
  EXPECT_EQ(spaces[0]->access(10), mem::PageAccess::kReadWrite);
  const std::uint32_t pool_page = (kMem / kPage) - 1024;
  EXPECT_EQ(directory->state(pool_page), Directory::PageState::kHome);
  EXPECT_EQ(spaces[0]->access(pool_page), mem::PageAccess::kNone);
  EXPECT_TRUE(directory->check_invariants());

  // Both edges of the pool: its last page is kHome with no owner and no
  // access; the page just below it is an ordinary master-owned page.
  const std::uint32_t last_page = (kMem / kPage) - 1;
  EXPECT_EQ(directory->state(last_page), Directory::PageState::kHome);
  EXPECT_EQ(directory->owner(last_page), kInvalidNode);
  EXPECT_EQ(spaces[0]->access(last_page), mem::PageAccess::kNone);
  EXPECT_EQ(directory->state(pool_page - 1), Directory::PageState::kModified);
  EXPECT_EQ(directory->owner(pool_page - 1), kMasterNode);
  EXPECT_EQ(spaces[0]->access(pool_page - 1), mem::PageAccess::kReadWrite);
  EXPECT_TRUE(directory->handoff_pages().empty());

  // A dead-node sweep over a directory that has served nothing changes
  // nothing: the boot owner is the master, which never dies.
  const std::vector<std::uint32_t> pages = {0, 10, pool_page - 1, pool_page,
                                            last_page};
  const std::uint64_t digest = directory->digest();
  const std::vector<std::uint64_t> before = probe(*directory, pages);
  directory->on_node_dead(2);
  EXPECT_EQ(directory->digest(), digest);
  EXPECT_EQ(probe(*directory, pages), before);
  EXPECT_TRUE(directory->check_invariants());

  // A shard hosted on node 1 owning a 256-page slice in the middle of the
  // pool: the slice boots kHome with no access on the host; every other
  // page, pool pages outside the slice included, defaults to "the master
  // owns the boot content".
  const std::uint32_t slice_first = pool_page + 256;
  Directory::Params params;
  params.node_count = 3;
  params.shadow_pool_first_page = slice_first;
  params.shadow_pool_page_count = 256;
  params.self = 1;
  params.sharded = true;
  Directory shard(*network, *queue, *spaces[1], params, &stats);

  for (const std::uint32_t page : {slice_first, slice_first + 255}) {
    EXPECT_EQ(shard.state(page), Directory::PageState::kHome) << page;
    EXPECT_EQ(shard.owner(page), kInvalidNode) << page;
    EXPECT_EQ(spaces[1]->access(page), mem::PageAccess::kNone) << page;
  }
  for (const std::uint32_t page :
       {10u, pool_page, slice_first - 1, slice_first + 256}) {
    EXPECT_EQ(shard.state(page), Directory::PageState::kModified) << page;
    EXPECT_EQ(shard.owner(page), kMasterNode) << page;
    EXPECT_EQ(shard.sharer_mask(page), 0u) << page;
  }
  EXPECT_TRUE(shard.check_invariants());
  // A shard that has served nothing homes nothing: no handoff, and its
  // digest folds no page at all.
  EXPECT_TRUE(shard.handoff_pages().empty());
  EXPECT_EQ(shard.digest(), fnv1a_seed());

  const std::vector<std::uint32_t> shard_pages = {
      10, pool_page, slice_first - 1, slice_first, slice_first + 255,
      slice_first + 256};
  const std::vector<std::uint64_t> shard_before = probe(shard, shard_pages);
  shard.on_node_dead(2);
  EXPECT_EQ(shard.digest(), fnv1a_seed());
  EXPECT_EQ(probe(shard, shard_pages), shard_before);
  EXPECT_TRUE(shard.check_invariants());
}

TEST_F(ProtocolFixture, ReadGrantDowngradesMasterAndShares) {
  spaces[0]->store(10 * kPage + 4, 0xBEEF, 4);
  clients[1]->request_page(10, 4, /*write=*/false, 1);
  EXPECT_TRUE(clients[1]->pending(10));
  settle();
  EXPECT_FALSE(clients[1]->pending(10));
  EXPECT_EQ(directory->state(10), Directory::PageState::kShared);
  EXPECT_EQ(directory->sharer_mask(10) & 0b110, 0b010u);
  EXPECT_EQ(spaces[0]->access(10), mem::PageAccess::kRead);   // downgraded
  EXPECT_EQ(spaces[1]->access(10), mem::PageAccess::kRead);
  EXPECT_EQ(spaces[1]->load(10 * kPage + 4, 4), 0xBEEFu);  // content moved
  ASSERT_EQ(wakes[1].size(), 1u);
  EXPECT_EQ(wakes[1][0], 10u);
  EXPECT_TRUE(directory->check_invariants());
}

TEST_F(ProtocolFixture, WriteGrantInvalidatesEveryoneElse) {
  clients[1]->request_page(20, 0, /*write=*/false, 1);
  settle();
  clients[2]->request_page(20, 8, /*write=*/true, 2);
  settle();
  EXPECT_EQ(directory->state(20), Directory::PageState::kModified);
  EXPECT_EQ(directory->owner(20), 2);
  EXPECT_EQ(spaces[1]->access(20), mem::PageAccess::kNone);
  EXPECT_EQ(spaces[0]->access(20), mem::PageAccess::kNone);
  EXPECT_EQ(spaces[2]->access(20), mem::PageAccess::kReadWrite);
  EXPECT_TRUE(directory->check_invariants());
}

TEST_F(ProtocolFixture, DirtyWritebackReachesNextReader) {
  // Node 1 takes the page M and writes; node 2 then reads and must see it.
  clients[1]->request_page(30, 0, /*write=*/true, 1);
  settle();
  spaces[1]->store(30 * kPage, 0x12345678, 4);
  clients[2]->request_page(30, 0, /*write=*/false, 2);
  settle();
  EXPECT_EQ(spaces[2]->load(30 * kPage, 4), 0x12345678u);
  // Home copy refreshed by the owner recall.
  EXPECT_EQ(spaces[0]->load(30 * kPage, 4), 0x12345678u);
  EXPECT_EQ(directory->state(30), Directory::PageState::kShared);
}

TEST_F(ProtocolFixture, UpgradeFromSharedGrantsWithoutData) {
  clients[1]->request_page(40, 0, /*write=*/false, 1);
  settle();
  const auto grants_with_data = stats.get("dir.grants_with_data");
  clients[1]->request_page(40, 0, /*write=*/true, 1);
  settle();
  EXPECT_EQ(directory->owner(40), 1);
  EXPECT_EQ(spaces[1]->access(40), mem::PageAccess::kReadWrite);
  // The upgrade carried no page payload.
  EXPECT_EQ(stats.get("dir.grants_with_data"), grants_with_data);
  EXPECT_GE(stats.get("dir.grants_no_data"), 1u);
}

TEST_F(ProtocolFixture, ConcurrentRequestsSerializePerPage) {
  clients[1]->request_page(50, 0, /*write=*/true, 1);
  clients[2]->request_page(50, 0, /*write=*/true, 2);
  settle();
  // Both eventually succeeded; exactly one owner remains.
  EXPECT_EQ(directory->state(50), Directory::PageState::kModified);
  const NodeId owner = directory->owner(50);
  EXPECT_TRUE(owner == 1 || owner == 2);
  EXPECT_EQ(spaces[owner]->access(50), mem::PageAccess::kReadWrite);
  EXPECT_EQ(spaces[owner == 1 ? 2 : 1]->access(50), mem::PageAccess::kNone);
  EXPECT_GE(stats.get("dir.queued_reqs"), 1u);
  EXPECT_TRUE(directory->check_invariants());
}

TEST_F(ProtocolFixture, RequestCoalescingOnClient) {
  clients[1]->request_page(60, 0, /*write=*/false, 1);
  clients[1]->request_page(60, 16, /*write=*/false, 2);  // second thread
  EXPECT_EQ(stats.get("dsm.coalesced_faults"), 1u);
  settle();
  EXPECT_EQ(stats.get("dsm.grants_received"), 1u);
}

TEST_F(ProtocolFixture, SplittingAfterFalseSharing) {
  DsmConfig dsm;
  dsm.enable_splitting = true;
  dsm.split_threshold = 4;
  build(dsm);

  spaces[0]->store(70 * kPage + 0, 0xAA, 4);
  spaces[0]->store(70 * kPage + 2048, 0xBB, 4);
  // Alternate writers from different nodes at different shards.
  for (int round = 0; round < 4; ++round) {
    clients[1]->request_page(70, 0, /*write=*/true, 1);
    settle();
    clients[2]->request_page(70, 2048, /*write=*/true, 2);
    settle();
  }
  EXPECT_EQ(directory->splits_performed(), 1u);
  EXPECT_EQ(directory->state(70), Directory::PageState::kSplit);
  // Every node learned the mapping.
  for (int n = 0; n < 3; ++n) {
    EXPECT_TRUE(shadows[n]->is_split(70)) << n;
  }
  // Content was distributed to shadow pages at identical offsets.
  const auto pages = shadows[1]->shadow_pages(70);
  ASSERT_EQ(pages.size(), 4u);
  EXPECT_EQ(spaces[0]->load(pages[0] * kPage + 0, 4), 0xAAu);
  EXPECT_EQ(spaces[0]->load(pages[2] * kPage + 2048, 4), 0xBBu);
  // Requesters got retries so they re-fault through the map.
  EXPECT_GE(stats.get("dsm.retries"), 1u);
  EXPECT_TRUE(directory->check_invariants());

  // The shadow pages are independently grantable now.
  clients[1]->request_page(pages[0], 0, /*write=*/true, 1);
  clients[2]->request_page(pages[2], 2048, /*write=*/true, 2);
  settle();
  EXPECT_EQ(directory->owner(pages[0]), 1);
  EXPECT_EQ(directory->owner(pages[2]), 2);
}

TEST_F(ProtocolFixture, NoSplittingWhenDisabled) {
  for (int round = 0; round < 30; ++round) {
    clients[1]->request_page(80, 0, /*write=*/true, 1);
    settle();
    clients[2]->request_page(80, 2048, /*write=*/true, 2);
    settle();
  }
  EXPECT_EQ(directory->splits_performed(), 0u);
}

TEST_F(ProtocolFixture, ForwardingPushesSequentialStream) {
  DsmConfig dsm;
  dsm.enable_forwarding = true;
  dsm.forward_trigger = 3;
  dsm.forward_depth = 8;
  build(dsm);

  for (std::uint32_t page = 100; page < 103; ++page) {
    clients[1]->request_page(page, 0, /*write=*/false, 1);
    settle();
  }
  EXPECT_GT(stats.get("dir.forwards"), 0u);
  // Pages ahead of the stream are now readable on node 1 without requests.
  EXPECT_EQ(spaces[1]->access(103), mem::PageAccess::kRead);
  EXPECT_EQ(spaces[1]->access(104), mem::PageAccess::kRead);
  EXPECT_EQ(stats.get("dsm.forwards_installed"),
            stats.get("dir.forwards"));
  EXPECT_TRUE(directory->check_invariants());
}

TEST_F(ProtocolFixture, ForwardedPagesAreCoherent) {
  DsmConfig dsm;
  dsm.enable_forwarding = true;
  dsm.forward_trigger = 2;
  dsm.forward_depth = 4;
  build(dsm);
  spaces[0]->store(112 * kPage, 0x77, 4);

  clients[1]->request_page(110, 0, false, 1);
  settle();
  clients[1]->request_page(111, 0, false, 1);
  settle();
  ASSERT_EQ(spaces[1]->access(112), mem::PageAccess::kRead);
  EXPECT_EQ(spaces[1]->load(112 * kPage, 4), 0x77u);
  // A later write by node 2 must invalidate the forwarded copy.
  clients[2]->request_page(112, 0, /*write=*/true, 2);
  settle();
  EXPECT_EQ(spaces[1]->access(112), mem::PageAccess::kNone);
  EXPECT_EQ(directory->owner(112), 2);
}

TEST(StreamDetectorTest, RunsGrowOnSequentialHits) {
  StreamDetector detector(4);
  EXPECT_EQ(detector.on_request(10), 1u);
  EXPECT_EQ(detector.on_request(11), 2u);
  EXPECT_EQ(detector.on_request(12), 3u);
  EXPECT_EQ(detector.on_request(50), 1u);  // new stream
  EXPECT_EQ(detector.on_request(13), 4u);  // original continues
}

TEST(StreamDetectorTest, TracksInterleavedStreams) {
  StreamDetector detector(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(detector.on_request(100 + i), i + 1);
    EXPECT_EQ(detector.on_request(200 + i), i + 1);
  }
}

TEST(StreamDetectorTest, EvictsLruStream) {
  StreamDetector detector(2);
  (void)detector.on_request(10);  // stream A
  (void)detector.on_request(20);  // stream B
  (void)detector.on_request(30);  // evicts A (LRU)
  EXPECT_EQ(detector.on_request(11), 1u);  // A was forgotten
  EXPECT_EQ(detector.on_request(31), 2u);  // C survived
}

TEST(StreamDetectorTest, RetargetSkipsPushedWindow) {
  StreamDetector detector(4);
  (void)detector.on_request(10);
  (void)detector.on_request(11);
  detector.retarget(12, 20);  // pages 12..19 were pushed
  EXPECT_EQ(detector.on_request(20), 3u);  // run continues
}

TEST(StreamDetectorTest, RetargetMergesDuplicateStreams) {
  StreamDetector detector(4);
  // Stream A: 10, 11 -> expects 12 with run 2. Stream B seeded at 11
  // (matched by nothing: A already expects 12) -> expects 12 with run 1.
  (void)detector.on_request(10);
  (void)detector.on_request(11);
  EXPECT_EQ(detector.on_request(11), 1u);  // duplicate expectation seeded
  ASSERT_EQ(detector.active_streams(), 2u);

  detector.retarget(12, 20);  // pages 12..19 were pushed
  // Both duplicates moved and merged into one stream keeping the longer
  // run; the stale one must not survive to re-trigger forwarding.
  EXPECT_EQ(detector.active_streams(), 1u);
  EXPECT_EQ(detector.on_request(20), 3u);
}

TEST(StreamDetectorTest, RetargetMergesWithExistingTarget) {
  StreamDetector detector(4);
  // Stream A expects 20 with run 3; stream B expects 12 with run 1.
  (void)detector.on_request(17);
  (void)detector.on_request(18);
  (void)detector.on_request(19);
  (void)detector.on_request(11);
  ASSERT_EQ(detector.active_streams(), 2u);

  // B's window 12..19 was pushed: B lands on 20, where A already sits.
  detector.retarget(12, 20);
  EXPECT_EQ(detector.active_streams(), 1u);
  EXPECT_EQ(detector.on_request(20), 4u);  // A's longer run won the merge
}

TEST(StreamDetectorTest, RetargetWithoutMatchIsNoOp) {
  StreamDetector detector(4);
  (void)detector.on_request(10);
  detector.retarget(99, 200);  // no stream expects 99
  EXPECT_EQ(detector.active_streams(), 1u);
  EXPECT_EQ(detector.on_request(11), 2u);
}

}  // namespace
}  // namespace dqemu::dsm
