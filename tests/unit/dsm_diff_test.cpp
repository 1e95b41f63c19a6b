// Unit tests: diff-encoded DSM data plane (DESIGN.md §12).
//
// Covers the mem/page_diff.hpp codec (mask / encode / apply round-trips,
// malformed-payload rejection, twin bookkeeping) and the protocol behavior
// with DsmConfig::enable_diff_transfers on: diff writebacks, diff grants to
// stale readers, epoch fallback to full pages, and the recall/grant races.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "dsm/client.hpp"
#include "dsm/directory.hpp"
#include "dsm/wire.hpp"
#include "mem/page_diff.hpp"
#include "net/network.hpp"
#include "testutil.hpp"

namespace dqemu::dsm {
namespace {

constexpr std::uint32_t kMem = 32u << 20;
constexpr std::uint32_t kPage = 4096;
constexpr std::uint32_t kLine = mem::diff_line_bytes(kPage);

// ---- codec -----------------------------------------------------------------

std::vector<std::uint8_t> pattern_page(std::uint8_t seed) {
  std::vector<std::uint8_t> page(kPage);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return page;
}

TEST(PageDiffCodec, LineSizeKeepsBitmapInOneWord) {
  EXPECT_EQ(mem::diff_line_bytes(1024), 64u);
  EXPECT_EQ(mem::diff_line_bytes(4096), 64u);
  EXPECT_EQ(mem::diff_line_count(4096), 64u);
  EXPECT_EQ(mem::diff_line_bytes(65536), 1024u);
  EXPECT_EQ(mem::diff_line_count(65536), 64u);
  for (std::uint32_t ps = 256; ps <= (1u << 20); ps *= 2) {
    EXPECT_LE(mem::diff_line_count(ps), 64u) << ps;
    EXPECT_EQ(ps % mem::diff_line_bytes(ps), 0u) << ps;
  }
}

TEST(PageDiffCodec, EmptyDiffRoundTrip) {
  const auto base = pattern_page(1);
  auto cur = base;
  EXPECT_EQ(mem::diff_mask(base, cur, kLine), 0u);
  const auto payload = mem::encode_diff(0, cur, kLine);
  EXPECT_EQ(payload.size(), 8u);  // bitmap only
  EXPECT_EQ(mem::decode_diff_mask(payload), 0u);
  auto target = pattern_page(1);
  ASSERT_TRUE(mem::apply_diff(payload, target, kLine));
  EXPECT_EQ(target, base);
}

TEST(PageDiffCodec, SingleLineRoundTrip) {
  const auto base = pattern_page(2);
  auto cur = base;
  cur[5 * kLine + 17] ^= 0xFF;  // one byte in line 5
  const std::uint64_t mask = mem::diff_mask(base, cur, kLine);
  EXPECT_EQ(mask, 1ull << 5);
  const auto payload = mem::encode_diff(mask, cur, kLine);
  EXPECT_EQ(payload.size(), 8u + kLine);
  auto target = base;  // stale copy
  ASSERT_TRUE(mem::apply_diff(payload, target, kLine));
  EXPECT_EQ(target, cur);
}

TEST(PageDiffCodec, FullPageRoundTrip) {
  const auto base = pattern_page(3);
  auto cur = base;
  for (std::uint32_t line = 0; line < mem::diff_line_count(kPage); ++line) {
    cur[line * kLine] ^= 0x5A;
  }
  const std::uint64_t mask = mem::diff_mask(base, cur, kLine);
  EXPECT_EQ(mask, ~0ull);  // 64 lines, all dirty
  const auto payload = mem::encode_diff(mask, cur, kLine);
  EXPECT_EQ(payload.size(), 8u + kPage);
  auto target = base;
  ASSERT_TRUE(mem::apply_diff(payload, target, kLine));
  EXPECT_EQ(target, cur);
}

TEST(PageDiffCodec, ShardConfinedDirtyLines) {
  // A shard-split page (mem/shadow_map.hpp) confines one node's writes to
  // one shard: with 4 shards of a 4 KiB page, shard 2 spans lines 32..47.
  const auto base = pattern_page(4);
  auto cur = base;
  const std::uint32_t shard_bytes = kPage / 4;
  for (std::uint32_t off = 2 * shard_bytes; off < 3 * shard_bytes; off += 96) {
    cur[off] ^= 0x11;
  }
  const std::uint64_t mask = mem::diff_mask(base, cur, kLine);
  EXPECT_NE(mask, 0u);
  const std::uint64_t shard_lines = 0xFFFFull << 32;  // lines 32..47
  EXPECT_EQ(mask & ~shard_lines, 0u);
  auto target = base;
  ASSERT_TRUE(mem::apply_diff(mem::encode_diff(mask, cur, kLine), target,
                              kLine));
  EXPECT_EQ(target, cur);
}

TEST(PageDiffCodec, SparseNonContiguousLines) {
  const auto base = pattern_page(5);
  auto cur = base;
  cur[0] ^= 1;                    // line 0
  cur[31 * kLine + kLine - 1] ^= 1;  // line 31, last byte
  cur[63 * kLine] ^= 1;           // line 63
  const std::uint64_t mask = mem::diff_mask(base, cur, kLine);
  EXPECT_EQ(mask, (1ull << 0) | (1ull << 31) | (1ull << 63));
  const auto payload = mem::encode_diff(mask, cur, kLine);
  EXPECT_EQ(payload.size(), 8u + 3 * kLine);
  auto target = base;
  ASSERT_TRUE(mem::apply_diff(payload, target, kLine));
  EXPECT_EQ(target, cur);
}

TEST(PageDiffCodec, MalformedPayloadsRejected) {
  std::vector<std::uint8_t> page(kPage, 0);
  // Short header.
  std::vector<std::uint8_t> short_hdr(4, 0);
  EXPECT_FALSE(mem::apply_diff(short_hdr, page, kLine));
  // Size does not match popcount: claims 2 lines, carries 1.
  auto payload = mem::encode_diff(0b11, pattern_page(6), kLine);
  payload.resize(8 + kLine);
  EXPECT_FALSE(mem::apply_diff(payload, page, kLine));
  // Line index past the end of a smaller page.
  const auto big = mem::encode_diff(1ull << 63, pattern_page(7), kLine);
  std::vector<std::uint8_t> small_page(1024, 0);  // only 16 lines
  EXPECT_FALSE(mem::apply_diff(big, small_page, kLine));
  // Sanity: untouched page after rejections.
  EXPECT_TRUE(std::all_of(page.begin(), page.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(PageDiffCodec, TwinStoreNeverRefreshes) {
  mem::TwinStore twins;
  const auto first = pattern_page(8);
  twins.capture(7, first);
  ASSERT_TRUE(twins.has(7));
  // A re-grant must not refresh the twin: earlier-dirtied lines would
  // otherwise vanish from the next diff.
  twins.capture(7, pattern_page(9));
  EXPECT_TRUE(std::equal(twins.twin(7).begin(), twins.twin(7).end(),
                         first.begin(), first.end()));
  twins.drop(7);
  EXPECT_FALSE(twins.has(7));
  twins.drop(7);  // idempotent
  EXPECT_EQ(twins.size(), 0u);
}

// ---- protocol with the diff plane enabled ----------------------------------

struct DiffProtocolFixture : ::testing::Test {
  DiffProtocolFixture() {
    DsmConfig dsm;
    dsm.enable_diff_transfers = true;
    build(dsm);
  }

  void build(DsmConfig dsm) {
    queue = std::make_unique<sim::EventQueue>();
    network = std::make_unique<net::Network>(
        std::vector<sim::EventQueue*>(3, queue.get()), NetworkConfig{}, stats);
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
                                            params, stats);
    for (NodeId n = 0; n < 3; ++n) {
      deps[n] = std::make_unique<test::ClientDeps>(*spaces[n], stats);
      clients[n] = std::make_unique<DsmClient>(
          n, *network, *queue, *spaces[n], *shadows[n], deps[n]->llsc,
          deps[n]->tcache, deps[n]->homes, stats,
          [this, n](std::uint32_t page) { wakes[n].push_back(page); },
          nullptr, dsm.enable_diff_transfers);
    }
    network->attach(0, [this](net::Message msg) {
      switch (static_cast<DsmMsg>(msg.type)) {
        case DsmMsg::kReadReq:
        case DsmMsg::kWriteReq:
        case DsmMsg::kInvAck:
        case DsmMsg::kDowngradeAck:
        case DsmMsg::kInvAckDiff:
        case DsmMsg::kDowngradeAckDiff:
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
  std::unique_ptr<test::ClientDeps> deps[3];
  std::unique_ptr<DsmClient> clients[3];
  std::vector<std::uint32_t> wakes[3];
};

TEST_F(DiffProtocolFixture, WriteGrantCapturesTwin) {
  clients[1]->request_page(10, 0, /*write=*/true, 1);
  settle();
  EXPECT_TRUE(clients[1]->diff_enabled());
  EXPECT_TRUE(clients[1]->has_twin(10));
  // Read grants don't need a twin.
  clients[2]->request_page(11, 0, /*write=*/false, 2);
  settle();
  EXPECT_FALSE(clients[2]->has_twin(11));
}

TEST_F(DiffProtocolFixture, DirtyWritebackTravelsAsDiff) {
  spaces[0]->store(20 * kPage + 128, 0xAABB, 4);
  clients[1]->request_page(20, 0, /*write=*/true, 1);
  settle();
  spaces[1]->store(20 * kPage, 0x12345678, 4);
  const auto wire_before = stats.get("dsm.bytes_on_wire");
  clients[2]->request_page(20, 0, /*write=*/false, 2);
  settle();
  // The recall of node 1 carried a one-line diff, not the whole page.
  EXPECT_GE(stats.get("dsm.diff_writebacks"), 1u);
  EXPECT_GE(stats.get("dsm.diff_writebacks_applied"), 1u);
  EXPECT_GT(stats.get("dsm.bytes_saved"), 0u);
  EXPECT_GT(stats.get("dsm.bytes_on_wire"), wire_before);
  // Coherence is intact: home and the next reader see both stores.
  EXPECT_EQ(spaces[0]->load(20 * kPage, 4), 0x12345678u);
  EXPECT_EQ(spaces[2]->load(20 * kPage, 4), 0x12345678u);
  EXPECT_EQ(spaces[2]->load(20 * kPage + 128, 4), 0xAABBu);
  // The ex-owner's twin is gone with its write access.
  EXPECT_FALSE(clients[1]->has_twin(20));
}

TEST_F(DiffProtocolFixture, StaleReaderServedByDiffGrant) {
  // Node 1 fetches the page cold (full transfer, version recorded), gets
  // invalidated by node 2's write, then re-reads: the directory knows node
  // 1 still retains the old bytes and ships only node 2's dirty lines.
  clients[1]->request_page(30, 0, /*write=*/false, 1);
  settle();
  EXPECT_GE(stats.get("dsm.diff_fallback_unknown"), 1u);  // cold fetch
  clients[2]->request_page(30, 0, /*write=*/true, 2);
  settle();
  spaces[2]->store(30 * kPage + 64, 0xDEAD, 4);
  EXPECT_EQ(spaces[1]->access(30), mem::PageAccess::kNone);
  clients[1]->request_page(30, 0, /*write=*/false, 1);
  settle();
  EXPECT_GE(stats.get("dsm.diff_grants"), 1u);
  EXPECT_GE(stats.get("dsm.diff_grants_received"), 1u);
  EXPECT_EQ(spaces[1]->load(30 * kPage + 64, 4), 0xDEADu);
  EXPECT_EQ(spaces[1]->access(30), mem::PageAccess::kRead);
  EXPECT_TRUE(directory->check_invariants());
}

TEST_F(DiffProtocolFixture, DiffGrantRacingInvalidation) {
  // Regression for the in-flight-grant race (DESIGN.md §12): node 1's
  // retained stale bytes are the diff base for a *write* grant that is
  // issued right after node 1 was invalidated by the previous owner's
  // recall. Per-channel FIFO delivers invalidate before the diff grant;
  // applying the diff onto the retained bytes must reconstruct the exact
  // current content, and the new twin must snapshot it.
  spaces[0]->store(40 * kPage + 512, 0xCAFE, 4);
  clients[1]->request_page(40, 0, /*write=*/false, 1);
  settle();
  clients[2]->request_page(40, 0, /*write=*/true, 2);
  settle();
  spaces[2]->store(40 * kPage, 0xBEEF, 4);
  // Node 1 wants it back as a writer while node 2 still owns it: the
  // directory recalls node 2 (diff writeback) and grants node 1 a diff
  // against the epoch-0 bytes node 1 kept across its invalidation.
  clients[1]->request_page(40, 0, /*write=*/true, 1);
  settle();
  EXPECT_EQ(directory->owner(40), 1);
  EXPECT_EQ(spaces[1]->access(40), mem::PageAccess::kReadWrite);
  EXPECT_EQ(spaces[1]->load(40 * kPage, 4), 0xBEEFu);
  EXPECT_EQ(spaces[1]->load(40 * kPage + 512, 4), 0xCAFEu);
  EXPECT_TRUE(clients[1]->has_twin(40));
  EXPECT_GE(stats.get("dsm.diff_grants"), 1u);
  EXPECT_TRUE(directory->check_invariants());
}

TEST_F(DiffProtocolFixture, EpochHistoryOverflowFallsBackToFullPage) {
  DsmConfig dsm;
  dsm.enable_diff_transfers = true;
  dsm.diff_history_depth = 1;  // only the latest transition survives
  build(dsm);

  clients[1]->request_page(50, 0, /*write=*/false, 1);  // held epoch e0
  settle();
  const auto held = directory->node_epoch(50, 1);
  ASSERT_NE(held, Directory::kNoEpoch);
  // Two write/recall rounds by node 2 advance the epoch twice; with a
  // depth-1 history the union mask back to node 1's version is gone.
  for (std::uint32_t round = 0; round < 2; ++round) {
    clients[2]->request_page(50, 0, /*write=*/true, 2);
    settle();
    spaces[2]->store(50 * kPage + 64u * round, 0x1000u + round, 4);
    clients[0]->request_page(50, 0, /*write=*/false, 0);  // recall owner
    settle();
  }
  EXPECT_GE(directory->epoch(50), held + 2);
  const auto stale_before = stats.get("dsm.diff_fallback_stale");
  const auto grants_before = stats.get("dsm.diff_grants");
  clients[1]->request_page(50, 0, /*write=*/false, 1);
  settle();
  EXPECT_EQ(stats.get("dsm.diff_fallback_stale"), stale_before + 1);
  EXPECT_EQ(stats.get("dsm.diff_grants"), grants_before);  // full page sent
  EXPECT_EQ(spaces[1]->load(50 * kPage + 64, 4), 0x1001u);
  EXPECT_TRUE(directory->check_invariants());
}

TEST_F(DiffProtocolFixture, ForwardedDiffsStayCoherent) {
  DsmConfig dsm;
  dsm.enable_diff_transfers = true;
  dsm.enable_forwarding = true;
  dsm.forward_trigger = 2;
  dsm.forward_depth = 4;
  build(dsm);
  spaces[0]->store(112 * kPage, 0x77, 4);

  clients[1]->request_page(110, 0, false, 1);
  settle();
  clients[1]->request_page(111, 0, false, 1);
  settle();
  // Pushes to a node with no retained version travel as full pages.
  ASSERT_EQ(spaces[1]->access(112), mem::PageAccess::kRead);
  EXPECT_EQ(spaces[1]->load(112 * kPage, 4), 0x77u);
  // Invalidate the forwarded copy via a remote write, recall the writer so
  // the home copy is fresh again, then stream again: the write-affinity
  // heuristic (a page last written by another node is never pushed) must
  // keep holding with the diff plane on, so 112 stays uncached on node 1.
  clients[2]->request_page(112, 0, /*write=*/true, 2);
  settle();
  EXPECT_EQ(spaces[1]->access(112), mem::PageAccess::kNone);
  spaces[2]->store(112 * kPage, 0x99, 4);
  clients[0]->request_page(112, 0, /*write=*/false, 0);  // recall the owner
  settle();
  clients[1]->request_page(110, 0, false, 1);
  settle();
  clients[1]->request_page(111, 0, false, 1);
  settle();
  EXPECT_EQ(spaces[1]->access(112), mem::PageAccess::kNone);
  EXPECT_TRUE(directory->check_invariants());
}

TEST_F(DiffProtocolFixture, ClientAppliesForwardDiffOntoRetainedBytes) {
  // Client-side half of the diff-forward path, driven directly: node 1
  // retains invalidated (stale) bytes; a kForwardDiff replaying the dirty
  // lines must reconstruct the current content and grant read access.
  spaces[0]->store(120 * kPage + 256, 0x5150, 4);
  clients[1]->request_page(120, 0, /*write=*/false, 1);
  settle();
  clients[2]->request_page(120, 0, /*write=*/true, 2);
  settle();
  ASSERT_EQ(spaces[1]->access(120), mem::PageAccess::kNone);
  spaces[2]->store(120 * kPage, 0x99, 4);
  clients[0]->request_page(120, 0, /*write=*/false, 0);  // refresh home
  settle();

  net::Message push;
  push.src = kMasterNode;
  push.dst = 1;
  push.type = static_cast<std::uint32_t>(DsmMsg::kForwardDiff);
  push.a = 120;
  push.data = mem::encode_diff(1ull << 0, spaces[0]->page_data(120), kLine);
  network->send(std::move(push));
  settle();

  EXPECT_EQ(spaces[1]->access(120), mem::PageAccess::kRead);
  EXPECT_EQ(spaces[1]->load(120 * kPage, 4), 0x99u);
  EXPECT_EQ(spaces[1]->load(120 * kPage + 256, 4), 0x5150u);
  EXPECT_EQ(stats.get("dsm.diff_forwards_received"), 1u);
  EXPECT_GE(stats.get("dsm.forwards_installed"), 1u);
}

TEST_F(DiffProtocolFixture, UpgradeStillCarriesNoPayload) {
  clients[1]->request_page(60, 0, /*write=*/false, 1);
  settle();
  const auto wire = stats.get("dsm.bytes_on_wire");
  clients[1]->request_page(60, 0, /*write=*/true, 1);
  settle();
  EXPECT_EQ(directory->owner(60), 1);
  // The upgrade grant carried no content, so no data-plane bytes moved.
  EXPECT_EQ(stats.get("dsm.bytes_on_wire"), wire);
  // The upgrade snapshots the twin from the local (current) read copy.
  EXPECT_TRUE(clients[1]->has_twin(60));
}

// ---- diff on/off equivalence ------------------------------------------------

// Drives the same request/store script through a diff-on and a diff-off
// cluster and demands bit-identical memory + directory state. This is the
// unit-level version of the bench's guest-output equivalence gate.
TEST(DiffEquivalence, ProtocolStateMatchesFullPagePlane) {
  auto run_script = [](bool diff_on) {
    struct World {
      StatsRegistry stats;
      std::unique_ptr<sim::EventQueue> queue;
      std::unique_ptr<net::Network> network;
      std::unique_ptr<mem::AddressSpace> spaces[3];
      std::unique_ptr<mem::ShadowMap> shadows[3];
      std::unique_ptr<Directory> directory;
      std::unique_ptr<test::ClientDeps> deps[3];
      std::unique_ptr<DsmClient> clients[3];
    };
    auto w = std::make_unique<World>();
    w->queue = std::make_unique<sim::EventQueue>();
    w->network = std::make_unique<net::Network>(
        std::vector<sim::EventQueue*>(3, w->queue.get()), NetworkConfig{},
        w->stats);
    for (int i = 0; i < 3; ++i) {
      w->spaces[i] = std::make_unique<mem::AddressSpace>(kMem, kPage);
      w->shadows[i] = std::make_unique<mem::ShadowMap>(kPage, 4);
    }
    Directory::Params params;
    params.dsm.enable_diff_transfers = diff_on;
    params.node_count = 3;
    params.shadow_pool_first_page = (kMem / kPage) - 1024;
    params.shadow_pool_page_count = 1024;
    w->directory = std::make_unique<Directory>(*w->network, *w->queue,
                                               *w->spaces[0], params,
                                               w->stats);
    for (NodeId n = 0; n < 3; ++n) {
      w->deps[n] = std::make_unique<test::ClientDeps>(*w->spaces[n], w->stats);
      w->clients[n] = std::make_unique<DsmClient>(
          n, *w->network, *w->queue, *w->spaces[n], *w->shadows[n],
          w->deps[n]->llsc, w->deps[n]->tcache, w->deps[n]->homes, w->stats,
          [](std::uint32_t) {}, nullptr, diff_on);
    }
    World* wp = w.get();
    w->network->attach(0, [wp](net::Message msg) {
      switch (static_cast<DsmMsg>(msg.type)) {
        case DsmMsg::kReadReq:
        case DsmMsg::kWriteReq:
        case DsmMsg::kInvAck:
        case DsmMsg::kDowngradeAck:
        case DsmMsg::kInvAckDiff:
        case DsmMsg::kDowngradeAckDiff:
          wp->directory->handle_message(msg);
          break;
        default:
          wp->clients[0]->handle_message(msg);
      }
    });
    for (NodeId n = 1; n < 3; ++n) {
      DsmClient* client = wp->clients[n].get();
      w->network->attach(n, [client](net::Message msg) {
        client->handle_message(msg);
      });
    }

    // Script: ping-pong writes, interleaved reads, a revisit after
    // invalidation, all over three pages.
    auto settle = [wp] { wp->queue->run(100000); };
    for (std::uint32_t round = 0; round < 4; ++round) {
      const NodeId writer = static_cast<NodeId>(1 + (round & 1));
      const NodeId reader = static_cast<NodeId>(3 - writer);
      w->clients[writer]->request_page(70, 0, true, writer);
      settle();
      w->spaces[writer]->store(70 * kPage + 8u * round, 0xA0u + round, 4);
      w->clients[reader]->request_page(70, 0, false, reader);
      settle();
      w->clients[writer]->request_page(71u + (round & 1), 0, true, writer);
      settle();
      w->spaces[writer]->store((71u + (round & 1)) * kPage, round, 4);
    }
    w->clients[1]->request_page(70, 0, false, 1);
    w->clients[2]->request_page(71, 0, false, 2);
    settle();
    return w;
  };

  const auto on = run_script(true);
  const auto off = run_script(false);
  for (std::uint32_t page = 70; page <= 72; ++page) {
    EXPECT_EQ(on->directory->state(page), off->directory->state(page)) << page;
    EXPECT_EQ(on->directory->owner(page), off->directory->owner(page)) << page;
    for (int n = 0; n < 3; ++n) {
      EXPECT_EQ(on->spaces[n]->access(page), off->spaces[n]->access(page))
          << "node " << n << " page " << page;
      const auto a = on->spaces[n]->page_data(page);
      const auto b = off->spaces[n]->page_data(page);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "node " << n << " page " << page;
    }
  }
  EXPECT_GT(on->stats.get("dsm.diff_writebacks"), 0u);
  EXPECT_GT(on->stats.get("dsm.bytes_saved"), 0u);
  EXPECT_EQ(off->stats.get("dsm.diff_writebacks"), 0u);
  EXPECT_EQ(off->stats.get("dsm.bytes_saved"), 0u);
}

TEST(DiffEquivalence, RuntimeOffSendsNoDiffMessages) {
  // enable_diff_transfers defaults to false: the wire must carry only the
  // classic vocabulary even in a diff-capable build.
  StatsRegistry stats;
  sim::EventQueue queue;
  net::Network network({&queue, &queue}, NetworkConfig{}, stats);
  mem::AddressSpace home(kMem, kPage);
  mem::AddressSpace remote(kMem, kPage);
  mem::ShadowMap shadow_home(kPage, 4);
  mem::ShadowMap shadow_remote(kPage, 4);
  Directory::Params params;
  params.node_count = 2;
  params.shadow_pool_first_page = (kMem / kPage) - 1024;
  params.shadow_pool_page_count = 1024;
  Directory directory(network, queue, home, params, stats);
  test::ClientDeps master_deps(home, stats);
  test::ClientDeps slave_deps(remote, stats);
  DsmClient master(0, network, queue, home, shadow_home, master_deps.llsc,
                   master_deps.tcache, master_deps.homes, stats,
                   [](std::uint32_t) {});
  DsmClient slave(1, network, queue, remote, shadow_remote, slave_deps.llsc,
                  slave_deps.tcache, slave_deps.homes, stats,
                  [](std::uint32_t) {});
  network.attach(0, [&](net::Message msg) {
    switch (static_cast<DsmMsg>(msg.type)) {
      case DsmMsg::kReadReq:
      case DsmMsg::kWriteReq:
      case DsmMsg::kInvAck:
      case DsmMsg::kDowngradeAck:
        directory.handle_message(msg);
        break;
      default:
        master.handle_message(msg);
    }
  });
  network.attach(1, [&](net::Message msg) { slave.handle_message(msg); });

  EXPECT_FALSE(slave.diff_enabled());
  slave.request_page(10, 0, /*write=*/true, 1);
  queue.run(100000);
  remote.store(10 * kPage, 0xF00D, 4);
  master.request_page(10, 0, /*write=*/false, 0);  // recall the owner
  queue.run(100000);
  EXPECT_EQ(home.load(10 * kPage, 4), 0xF00Du);
  EXPECT_FALSE(slave.has_twin(10));
  EXPECT_EQ(stats.get("dsm.diff_writebacks"), 0u);
  EXPECT_EQ(stats.get("dsm.diff_grants"), 0u);
  EXPECT_EQ(stats.get("dsm.diff_fallback_unknown"), 0u);
}

}  // namespace
}  // namespace dqemu::dsm
