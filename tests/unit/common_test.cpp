// Unit tests: common module (status/result, hash, rng, stats, config, time).
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace dqemu {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status s = Status::invalid_argument("bad thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad thing");
}

TEST(Status, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::not_found("a"), Status::not_found("b"));
  EXPECT_FALSE(Status::not_found("a") == Status::internal("a"));
}

TEST(Status, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kResourceExhausted);
       ++code) {
    EXPECT_STRNE(status_code_name(static_cast<StatusCode>(code)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::not_found("missing"));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, TakeMoves) {
  Result<std::string> r(std::string("payload"));
  const std::string taken = r.take();
  EXPECT_EQ(taken, "payload");
}

TEST(Result, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status { return Status::internal("boom"); };
  auto wrapper = [&]() -> Status {
    DQEMU_RETURN_IF_ERROR(fails());
    return Status::ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// ---- FNV-1a -----------------------------------------------------------------

TEST(Fnv1a, ZeroFoldMatchesFoldingZeroBytes) {
  // A checkpoint folds an unbacked page through fnv1a_zeros: it must equal
  // folding the page's zero bytes, from any running hash and at any length.
  const std::vector<std::uint8_t> zeros(8192, 0);
  for (const std::uint64_t h :
       {fnv1a_seed(), std::uint64_t{0}, std::uint64_t{0x0123456789ABCDEF}}) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 4095u, 4096u, 8192u}) {
      EXPECT_EQ(fnv1a_zeros(n, h),
                fnv1a(std::span(zeros.data(), n), h))
          << "h=" << h << " n=" << n;
    }
  }
}

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(Rng, ReasonableSpread) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 256; ++i) seen.insert(rng.next_below(1u << 20));
  EXPECT_GT(seen.size(), 250u);  // collisions should be rare
}

// ---- Stats ------------------------------------------------------------------

TEST(Stats, AddCreatesAndAccumulates) {
  StatsRegistry stats;
  EXPECT_EQ(stats.get("x"), 0u);
  EXPECT_FALSE(stats.has("x"));
  stats.add("x");
  stats.add("x", 9);
  EXPECT_EQ(stats.get("x"), 10u);
  EXPECT_TRUE(stats.has("x"));
}

TEST(Stats, SetOverwrites) {
  StatsRegistry stats;
  stats.add("gauge", 5);
  stats.set("gauge", 2);
  EXPECT_EQ(stats.get("gauge"), 2u);
  stats.set("fresh", 7);
  EXPECT_EQ(stats.get("fresh"), 7u);
}

TEST(Stats, DumpIsSorted) {
  StatsRegistry stats;
  stats.add("zeta", 1);
  stats.add("alpha", 2);
  EXPECT_EQ(stats.to_string(), "alpha = 2\nzeta = 1\n");
}

TEST(Stats, ClearRemovesEverything) {
  StatsRegistry stats;
  stats.add("a");
  stats.clear();
  EXPECT_TRUE(stats.counters().empty());
}

TEST(TimeBreakdown, SumsAndAccumulates) {
  TimeBreakdown a{1, 2, 3, 4, 5};
  TimeBreakdown b{10, 20, 30, 40, 50};
  a += b;
  EXPECT_EQ(a.execute, 11u);
  EXPECT_EQ(a.idle, 55u);
  EXPECT_EQ(a.total(), 11u + 22 + 33 + 44 + 55);
}

// ---- time conversions --------------------------------------------------------

TEST(Time, CyclesToPicosecondsAt3p3GHz) {
  // 3.3 GHz -> 303.03 ps per cycle.
  EXPECT_EQ(cycles_to_ps(1, 3.3), 303u);
  EXPECT_EQ(cycles_to_ps(3300, 3.3), 1'000'000u);  // 1 us
}

TEST(Time, PsToSeconds) {
  using time_literals::kSec;
  EXPECT_DOUBLE_EQ(ps_to_seconds(kSec), 1.0);
  EXPECT_DOUBLE_EQ(ps_to_us(time_literals::kUs), 1.0);
}

// ---- config ------------------------------------------------------------------

TEST(Config, DefaultValidates) {
  ClusterConfig config;
  EXPECT_TRUE(config.validate().is_ok());
}

TEST(Config, RejectsZeroSlavesUnlessBaseline) {
  ClusterConfig config;
  config.slave_nodes = 0;
  EXPECT_FALSE(config.validate().is_ok());
  config.single_node_baseline = true;
  EXPECT_TRUE(config.validate().is_ok());
}

TEST(Config, RejectsBadPageSize) {
  ClusterConfig config;
  config.machine.page_size = 3000;
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(Config, RejectsShardsNotDividingPage) {
  ClusterConfig config;
  config.dsm.split_shards = 3;
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(Config, RejectsTinyGuestMemory) {
  ClusterConfig config;
  config.guest_mem_bytes = 1024 * 1024;
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(Config, TotalNodesCountsMaster) {
  ClusterConfig config;
  config.slave_nodes = 6;
  EXPECT_EQ(config.total_nodes(), 7u);
  config.single_node_baseline = true;
  EXPECT_EQ(config.total_nodes(), 1u);
}

// Every double validate() reads must be finite, and the bandwidth and the
// open-loop rate large enough that the time they convert to fits the
// picosecond clock: NaN compares false against every bound, and an
// out-of-range float-to-integer cast is undefined behaviour.
TEST(ConfigValidation, RejectsNonFiniteDoubles) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    ClusterConfig config;
    config.machine.cpu_ghz = bad;
    EXPECT_FALSE(config.validate().is_ok());

    config = ClusterConfig{};
    config.node_machines.assign(config.total_nodes(), MachineConfig{});
    config.node_machines.back().cpu_ghz = bad;
    EXPECT_FALSE(config.validate().is_ok());

    config = ClusterConfig{};
    config.net.bandwidth_gbps = bad;
    EXPECT_FALSE(config.validate().is_ok());

    for (double FaultConfig::*pct :
         {&FaultConfig::drop_pct, &FaultConfig::dup_pct,
          &FaultConfig::jitter_pct, &FaultConfig::reorder_pct}) {
      config = ClusterConfig{};
      config.faults.enabled = true;
      config.faults.*pct = bad;
      EXPECT_FALSE(config.validate().is_ok());
    }

    config = ClusterConfig{};
    config.serve.enabled = true;
    config.serve.rate = bad;
    EXPECT_FALSE(config.validate().is_ok());
  }
}

TEST(ConfigValidation, BandwidthMustKeepTheWireTimeInRange) {
  ClusterConfig config;
  config.net.bandwidth_gbps = NetworkConfig::min_bandwidth_gbps;
  EXPECT_TRUE(config.validate().is_ok());
  // A 4 GiB message's wire time still fits the clock at the minimum.
  EXPECT_LT(config.net.wire_time(std::uint64_t{1} << 32), UINT64_MAX / 2);
  config.net.bandwidth_gbps = NetworkConfig::min_bandwidth_gbps / 2;
  EXPECT_FALSE(config.validate().is_ok());
  config.net.bandwidth_gbps = 1e-300;
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(ConfigValidation, OpenLoopRateMustKeepTheArrivalGapInRange) {
  ClusterConfig config;
  config.serve.enabled = true;
  config.serve.rate = ServeConfig::min_rate;
  EXPECT_TRUE(config.validate().is_ok());
  config.serve.rate = 1e-300;
  EXPECT_FALSE(config.validate().is_ok());
  config.serve.arrival = ArrivalProcess::kUniform;
  EXPECT_FALSE(config.validate().is_ok());
  // A closed loop has no rate to check.
  config.serve.arrival = ArrivalProcess::kClosed;
  EXPECT_TRUE(config.validate().is_ok());
}

TEST(Config, WireTimeScalesWithBytes) {
  NetworkConfig net;
  // 4096+64 bytes at 1 Gb/s = 33.28 us.
  const DurationPs t = net.wire_time(4096);
  EXPECT_NEAR(static_cast<double>(t) / 1e6, 33.28, 0.01);
  EXPECT_GT(net.wire_time(8192), net.wire_time(4096));
}

}  // namespace
}  // namespace dqemu
