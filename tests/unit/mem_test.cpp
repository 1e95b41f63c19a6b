// Unit tests: address space and shadow-page mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/shadow_map.hpp"

namespace dqemu::mem {
namespace {

TEST(AddressSpace, ScalarRoundtripAllWidths) {
  AddressSpace space(1 << 20, 4096);
  space.store(0x100, 0xAB, 1);
  space.store(0x102, 0xCDEF, 2);
  space.store(0x104, 0x12345678, 4);
  space.store(0x108, 0x1122334455667788ULL, 8);
  EXPECT_EQ(space.load(0x100, 1), 0xABu);
  EXPECT_EQ(space.load(0x102, 2), 0xCDEFu);
  EXPECT_EQ(space.load(0x104, 4), 0x12345678u);
  EXPECT_EQ(space.load(0x108, 8), 0x1122334455667788ULL);
}

TEST(AddressSpace, UntouchedMemoryReadsZero) {
  AddressSpace space(1 << 20, 4096);
  EXPECT_EQ(space.load(0x5000, 4), 0u);
  EXPECT_FALSE(space.page_materialized(5));
}

TEST(AddressSpace, LazyMaterialization) {
  AddressSpace space(64u << 20, 4096);
  EXPECT_FALSE(space.page_materialized(100));
  space.store(100 * 4096 + 8, 1, 4);
  EXPECT_TRUE(space.page_materialized(100));
  EXPECT_FALSE(space.page_materialized(101));
}

TEST(AddressSpace, PageMath) {
  AddressSpace space(1 << 20, 4096);
  EXPECT_EQ(space.page_shift(), 12u);
  EXPECT_EQ(space.num_pages(), (1u << 20) / 4096);
  EXPECT_EQ(space.page_of(0x3FFF), 3u);
  EXPECT_EQ(space.page_base(3), 0x3000u);
  EXPECT_EQ(space.offset_in_page(0x3FFF), 0xFFFu);
  EXPECT_TRUE(space.contains((1u << 20) - 1));
  EXPECT_FALSE(space.contains(1u << 20));
}

TEST(AddressSpace, BulkCrossesPages) {
  AddressSpace space(1 << 20, 4096);
  std::vector<std::uint8_t> out(8192);
  std::vector<std::uint8_t> in(8192);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::uint8_t(i * 7);
  space.write_bytes(4000, in);  // spans 3 pages
  space.read_bytes(4000, out);
  EXPECT_EQ(in, out);
}

TEST(AddressSpace, BulkReadOfUntouchedIsZero) {
  AddressSpace space(1 << 20, 4096);
  std::vector<std::uint8_t> out(100, 0xFF);
  space.read_bytes(0x9000, out);
  for (const auto b : out) EXPECT_EQ(b, 0);
}

TEST(AddressSpace, CStringRead) {
  AddressSpace space(1 << 20, 4096);
  const char* msg = "hello";
  space.write_bytes(0x200, {reinterpret_cast<const std::uint8_t*>(msg), 6});
  EXPECT_EQ(space.read_cstring(0x200), "hello");
  EXPECT_EQ(space.read_cstring(0x200, 3), "hel");  // bounded
}

TEST(AddressSpace, ProtectionDefaultsNoneAndIsSettable) {
  AddressSpace space(1 << 20, 4096);
  EXPECT_EQ(space.access(0), PageAccess::kNone);
  space.set_access(7, PageAccess::kRead);
  EXPECT_EQ(space.access(7), PageAccess::kRead);
  space.set_all_access(PageAccess::kReadWrite);
  EXPECT_EQ(space.access(0), PageAccess::kReadWrite);
  EXPECT_EQ(space.access(7), PageAccess::kReadWrite);
}

TEST(AddressSpace, PageDataViewIsWritable) {
  AddressSpace space(1 << 20, 4096);
  auto view = space.page_data(2);
  ASSERT_EQ(view.size(), 4096u);
  view[5] = 0x42;
  EXPECT_EQ(space.load(2 * 4096 + 5, 1), 0x42u);
}

TEST(AddressSpace, LoadProgramPlacesSections) {
  AddressSpace space(1 << 20, 4096);
  isa::Program program;
  program.sections.push_back({0x10000, {1, 2, 3, 4}});
  program.sections.push_back({0x20000, {9, 9}});
  space.load_program(program);
  EXPECT_EQ(space.load(0x10000, 4), 0x04030201u);
  EXPECT_EQ(space.load(0x20000, 2), 0x0909u);
}

// ---- page-pointer chunks ----------------------------------------------------
// Page pointers live in chunks of 256 pages, allocated at the first
// materialization in their range.

TEST(AddressSpacePageChunks, UntouchedPagesReadZeroAndStayUnmaterialized) {
  AddressSpace space(64u << 20, 4096);
  space.store(300 * 4096, 7, 4);  // allocates the chunk of pages 256-511
  std::vector<std::uint8_t> out(4096);
  for (const std::uint32_t page : {0u, 299u, 301u, 511u, 512u, 16383u}) {
    EXPECT_EQ(space.load(page * 4096 + 8, 8), 0u) << page;
    std::fill(out.begin(), out.end(), 0xFF);
    space.read_bytes(page * 4096, out);
    for (const std::uint8_t b : out) ASSERT_EQ(b, 0) << page;
    EXPECT_FALSE(space.page_materialized(page)) << page;
  }
  EXPECT_TRUE(space.page_materialized(300));
}

TEST(AddressSpacePageChunks, BulkAccessCrossesAChunkEdge) {
  AddressSpace space(64u << 20, 4096);
  const GuestAddr edge = 256 * 4096;  // first byte of the second chunk
  std::vector<std::uint8_t> in(600);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::uint8_t(i * 13);
  space.write_bytes(edge - 300, in);
  EXPECT_TRUE(space.page_materialized(255));
  EXPECT_TRUE(space.page_materialized(256));
  std::vector<std::uint8_t> out(in.size() + 8, 0xFF);
  space.read_bytes(edge - 304, out);
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 4, out.end() - 4), in);
  for (const std::size_t i : {0u, 1u, 2u, 3u}) {
    EXPECT_EQ(out[i], 0);
    EXPECT_EQ(out[out.size() - 1 - i], 0);
  }
}

TEST(AddressSpacePageChunks, LastPageOfA256MiBSpaceWorks) {
  const GuestSize size = 256u << 20;
  AddressSpace space(size, 4096);
  const std::uint32_t last = space.num_pages() - 1;
  EXPECT_EQ(last, 65535u);
  EXPECT_EQ(space.load(size - 8, 8), 0u);
  space.store(size - 8, 0x0123456789ABCDEFULL, 8);
  EXPECT_EQ(space.load(size - 8, 8), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(space.page_materialized(last));
  EXPECT_FALSE(space.page_materialized(last - 1));
  std::vector<std::uint8_t> out(16);
  space.read_bytes(size - 16, out);
  EXPECT_EQ(out[8], 0xEF);
  EXPECT_EQ(out[15], 0x01);
  EXPECT_EQ(out[7], 0);
}

TEST(AddressSpacePageChunks, PagePointerSurvivesLaterMaterializations) {
  AddressSpace space(64u << 20, 4096);
  std::uint8_t* const host = space.page_data(512).data();
  host[12] = 0x5A;
  for (std::uint32_t page = 513; page < 768; ++page) {
    space.store(page * 4096, page, 4);
  }
  EXPECT_EQ(space.page_data(512).data(), host);
  EXPECT_EQ(space.load(512 * 4096 + 12, 1), 0x5Au);
  host[13] = 0xA5;
  EXPECT_EQ(space.load(512 * 4096 + 13, 1), 0xA5u);
  EXPECT_EQ(space.load(767 * 4096, 4), 767u);
}

// ---- ShadowMap ------------------------------------------------------------

class ShadowMapOffsets : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShadowMapOffsets, TranslateKeepsPageOffset) {
  ShadowMap shadow(4096, 4);
  const std::uint32_t shadows[4] = {100, 101, 102, 103};
  shadow.add_split(5, shadows);
  const std::uint32_t offset = GetParam();
  const GuestAddr addr = 5 * 4096 + offset;
  const GuestAddr translated = shadow.translate(addr);
  // Same offset, shadow page = shard index.
  EXPECT_EQ(translated & 0xFFFu, offset);
  EXPECT_EQ(translated >> 12, 100 + offset / 1024);
}

INSTANTIATE_TEST_SUITE_P(OffsetSweep, ShadowMapOffsets,
                         ::testing::Values(0u, 1u, 1023u, 1024u, 2047u, 2048u,
                                           3071u, 3072u, 4095u));

TEST(ShadowMap, IdentityForUnsplitPages) {
  ShadowMap shadow(4096, 4);
  EXPECT_TRUE(shadow.empty());
  EXPECT_EQ(shadow.translate(0x12345), 0x12345u);
  const std::uint32_t shadows[4] = {100, 101, 102, 103};
  shadow.add_split(5, shadows);
  EXPECT_FALSE(shadow.empty());
  EXPECT_EQ(shadow.translate(0x12345), 0x12345u);  // page 0x12 not split
}

TEST(ShadowMap, ShardGeometry) {
  ShadowMap shadow(4096, 8);
  EXPECT_EQ(shadow.shards(), 8u);
  EXPECT_EQ(shadow.shard_size(), 512u);
}

TEST(ShadowMap, TracksSplitPages) {
  ShadowMap shadow(4096, 2);
  const std::uint32_t shadows[2] = {50, 51};
  EXPECT_FALSE(shadow.is_split(9));
  shadow.add_split(9, shadows);
  EXPECT_TRUE(shadow.is_split(9));
  EXPECT_EQ(shadow.split_count(), 1u);
  const auto view = shadow.shadow_pages(9);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 50u);
  EXPECT_TRUE(shadow.shadow_pages(10).empty());
}

TEST(ShadowMap, AlignedAccessNeverCrossesShard) {
  // Property: for every naturally aligned width-w access, the whole access
  // maps into one shard (so scalar loads/stores stay contiguous).
  ShadowMap shadow(4096, 4);
  const std::uint32_t shadows[4] = {200, 201, 202, 203};
  shadow.add_split(1, shadows);
  for (std::uint32_t w : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t offset = 0; offset + w <= 4096; offset += w) {
      const GuestAddr first = shadow.translate(4096 + offset);
      const GuestAddr last = shadow.translate(4096 + offset + w - 1);
      EXPECT_EQ(first + w - 1, last);
    }
  }
}

}  // namespace
}  // namespace dqemu::mem
