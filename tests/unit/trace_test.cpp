// Tests for the flight-recorder tracing subsystem (src/trace):
// ring-buffer semantics, category filtering, Chrome JSON export validity,
// determinism of traces across identical runs, and the causal chains the
// instrumented layers record (DSM faults, futex wait -> wake).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "testutil.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads/micro.hpp"

namespace dqemu {
namespace {

using trace::Cat;
using trace::Kind;
using trace::Record;
using trace::Tracer;

Record make_record(std::uint64_t seq) {
  Record r;
  r.time = seq * 100;
  r.name = "test.event";
  r.kind = Kind::kInstant;
  r.cat = Cat::kSim;
  r.a = seq;
  return r;
}

// ---------------------------------------------------------------------------
// Tracer core
// ---------------------------------------------------------------------------

TEST(Tracer, RingKeepsNewestOnOverflow) {
  trace::TraceConfig config;
  config.capacity = 8;
  Tracer tracer(config);
  for (std::uint64_t i = 0; i < 20; ++i) tracer.record(make_record(i));

  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const std::vector<Record> records = tracer.records();
  ASSERT_EQ(records.size(), 8u);
  // Flight-recorder semantics: the oldest survivors are 12..19, in order.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(records[i].a, 12 + i);
  }
}

TEST(Tracer, RecordsBelowCapacityKeepInsertionOrder) {
  trace::TraceConfig config;
  config.capacity = 64;
  Tracer tracer(config);
  for (std::uint64_t i = 0; i < 10; ++i) tracer.record(make_record(i));
  EXPECT_EQ(tracer.size(), 10u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const std::vector<Record> records = tracer.records();
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(records[i].a, i);
}

TEST(Tracer, CategoryMaskGatesWants) {
  trace::TraceConfig config;
  config.categories = trace::cat_bit(Cat::kNet) | trace::cat_bit(Cat::kDsm);
  Tracer tracer(config);
  EXPECT_TRUE(trace::wants(&tracer, Cat::kNet));
  EXPECT_TRUE(trace::wants(&tracer, Cat::kDsm));
  EXPECT_FALSE(trace::wants(&tracer, Cat::kSim));
  EXPECT_FALSE(trace::wants(&tracer, Cat::kCounter));
  // Null tracer: every site is off.
  EXPECT_FALSE(trace::wants(nullptr, Cat::kNet));
}

TEST(Tracer, DefaultCategoriesExcludeQueueFirehose) {
  Tracer tracer;
  EXPECT_TRUE(tracer.wants(Cat::kSim));
  EXPECT_TRUE(tracer.wants(Cat::kCounter));
  EXPECT_FALSE(tracer.wants(Cat::kQueue));
}

TEST(Tracer, FlowIdsAreUniqueAndNonZero) {
  Tracer tracer;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t flow = tracer.new_flow();
    EXPECT_NE(flow, 0u);
    EXPECT_TRUE(seen.insert(flow).second);
  }
}

TEST(Tracer, InternReturnsStablePointers) {
  Tracer tracer;
  const char* a = tracer.intern("dsm.read_requests");
  const char* b = tracer.intern("dsm.read_requests");
  const char* c = tracer.intern("dsm.write_requests");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_STREQ(a, "dsm.read_requests");
}

TEST(Tracer, ParseCategories) {
  EXPECT_EQ(trace::parse_categories("all"), trace::kAllCategories);
  EXPECT_EQ(trace::parse_categories("default"), trace::kDefaultCategories);
  EXPECT_EQ(trace::parse_categories("net"), trace::cat_bit(Cat::kNet));
  EXPECT_EQ(trace::parse_categories("net,dsm,sys"),
            trace::cat_bit(Cat::kNet) | trace::cat_bit(Cat::kDsm) |
                trace::cat_bit(Cat::kSys));
  EXPECT_FALSE(trace::parse_categories("bogus").has_value());
  EXPECT_FALSE(trace::parse_categories("net,bogus").has_value());
}

// ---------------------------------------------------------------------------
// A minimal JSON parser: enough to prove the export is well-formed without
// pulling in a dependency. Parses the full document, rejects any syntax
// error.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Instrumented cluster runs
// ---------------------------------------------------------------------------

struct TracedRun {
  // The tracer owns interned record names, so it must outlive `records`.
  std::unique_ptr<Tracer> tracer;
  core::Cluster::RunResult result;
  std::vector<Record> records;
  std::string json;
  std::string text;
};

TracedRun run_traced(const ClusterConfig& config, const isa::Program& program,
                     trace::TraceConfig trace_config = {}) {
  TracedRun out;
  out.tracer = std::make_unique<Tracer>(trace_config);
  core::Cluster cluster(config, out.tracer.get());
  const Status load = cluster.load(program);
  EXPECT_TRUE(load.is_ok()) << load.to_string();
  auto run = cluster.run();
  EXPECT_TRUE(run.is_ok()) << run.status().to_string();
  if (run.is_ok()) out.result = run.take();
  out.records = out.tracer->records();
  out.json = trace::to_chrome_json(*out.tracer);
  out.text = trace::to_text(*out.tracer);
  return out;
}

TEST(TraceExport, ChromeJsonIsValidAndCoversAllLayers) {
  const auto program = workloads::mutex_stress(4, 20, /*global=*/true).take();
  const TracedRun run = run_traced(test::test_config(2), program);
  ASSERT_FALSE(run.records.empty());

  JsonChecker checker(run.json);
  EXPECT_TRUE(checker.valid()) << run.json.substr(0, 400);

  // Spans/instants from every instrumented layer, plus counter timelines.
  EXPECT_GT(count_occurrences(run.json, "\"name\":\"sim.slice\""), 0u);
  EXPECT_GT(count_occurrences(run.json, "\"cat\":\"net\""), 0u);
  EXPECT_GT(count_occurrences(run.json, "\"name\":\"dsm.fault\""), 0u);
  EXPECT_GT(count_occurrences(run.json, "\"name\":\"sys.delegate\""), 0u);
  EXPECT_GT(count_occurrences(run.json, "\"cat\":\"counter\""), 0u);
  EXPECT_GT(count_occurrences(run.json, "\"name\":\"time.execute\""), 0u);
  // Perfetto labels: per-node processes and per-core lanes.
  EXPECT_GT(count_occurrences(run.json, "\"name\":\"process_name\""), 0u);
  EXPECT_GT(count_occurrences(run.json, "\"name\":\"core 0\""), 0u);
}

TEST(TraceExport, SpanBeginEndBalancePerTrack) {
  const auto program = workloads::pi_taylor(2, 2, 50).take();
  const TracedRun run = run_traced(test::test_config(2), program);

  // Sync spans (B/E) must balance on every (node, track) lane or the
  // Chrome viewer renders garbage.
  std::map<std::pair<NodeId, std::uint16_t>, std::int64_t> depth;
  for (const Record& r : run.records) {
    if (r.kind == Kind::kSpanBegin) ++depth[{r.node, r.track}];
    if (r.kind == Kind::kSpanEnd) {
      auto& d = depth[{r.node, r.track}];
      --d;
      EXPECT_GE(d, 0) << "span end without begin on node " << unsigned(r.node)
                      << " track " << r.track;
    }
  }
  for (const auto& [lane, d] : depth) EXPECT_EQ(d, 0);
}

TEST(TraceExport, TimestampsAreMonotonic) {
  const auto program = workloads::pi_taylor(2, 2, 50).take();
  const TracedRun run = run_traced(test::test_config(2), program);
  ASSERT_FALSE(run.records.empty());
  TimePs last = 0;
  for (const Record& r : run.records) {
    EXPECT_GE(r.time, last);
    last = r.time;
  }
}

TEST(TraceDeterminism, IdenticalRunsProduceIdenticalTraces) {
  const auto program = workloads::mutex_stress(4, 15, /*global=*/true).take();
  const TracedRun a = run_traced(test::test_config(2), program);
  const TracedRun b = run_traced(test::test_config(2), program);
  EXPECT_EQ(a.result.sim_time, b.result.sim_time);
  EXPECT_EQ(a.text, b.text);  // byte-identical exports
  EXPECT_EQ(a.json, b.json);
}

TEST(TraceDeterminism, TracingDoesNotPerturbVirtualTime) {
  const auto program = workloads::mutex_stress(4, 15, /*global=*/true).take();
  // Off / default / full-firehose tracing: same simulation.
  const auto off = test::run_program(test::test_config(2), program);
  ASSERT_TRUE(off.ok) << off.error;
  const TracedRun on = run_traced(test::test_config(2), program);
  trace::TraceConfig everything;
  everything.categories = trace::kAllCategories;
  const TracedRun full = run_traced(test::test_config(2), program, everything);
  EXPECT_EQ(off.result.sim_time, on.result.sim_time);
  EXPECT_EQ(off.result.sim_time, full.result.sim_time);
  EXPECT_EQ(off.result.guest_insns, on.result.guest_insns);
}

TEST(TraceFlows, RemotePageFaultHasBeginAndEnd) {
  const auto program = workloads::mutex_stress(4, 10, /*global=*/true).take();
  const TracedRun run = run_traced(test::test_config(2), program);

  std::set<std::uint64_t> begun;
  std::size_t ended = 0;
  for (const Record& r : run.records) {
    if (std::string(r.name) != "dsm.fault") continue;
    if (r.kind == Kind::kFlowBegin) begun.insert(r.flow);
    if (r.kind == Kind::kFlowEnd) {
      EXPECT_TRUE(begun.contains(r.flow)) << "fault end without begin";
      ++ended;
    }
  }
  EXPECT_GT(begun.size(), 0u);
  EXPECT_GT(ended, 0u);
}

TEST(TraceFlows, FutexWaitAndWakeShareACausalChain) {
  // Cross-node mutex contention: some thread must lose the lock race,
  // futex-wait on the master, and later be woken by the holder's unlock.
  const auto program = workloads::mutex_stress(4, 20, /*global=*/true).take();
  const TracedRun run = run_traced(test::test_config(2), program);

  std::set<std::uint64_t> waited;
  std::set<std::uint64_t> woken_chains;
  for (const Record& r : run.records) {
    const std::string name(r.name);
    if (name == "sys.futex_wait" && r.flow != 0) waited.insert(r.flow);
    if (name == "sys.futex_wake" && r.flow != 0) woken_chains.insert(r.flow);
  }
  ASSERT_GT(waited.size(), 0u) << "workload produced no futex waits";
  ASSERT_GT(woken_chains.size(), 0u);

  // Every wake edge continues a chain some waiter opened: the wait -> wake
  // lifetime is reconstructible from the trace alone.
  std::size_t matched = 0;
  for (const std::uint64_t flow : woken_chains) {
    if (waited.contains(flow)) ++matched;
  }
  EXPECT_GT(matched, 0u);

  // And those chains close: the woken thread's delegation records kFlowEnd.
  std::set<std::uint64_t> closed;
  for (const Record& r : run.records) {
    if (r.kind == Kind::kFlowEnd && std::string(r.name) == "sys.delegate") {
      closed.insert(r.flow);
    }
  }
  std::size_t closed_waits = 0;
  for (const std::uint64_t flow : waited) {
    if (closed.contains(flow)) ++closed_waits;
  }
  EXPECT_GT(closed_waits, 0u);
}

TEST(TraceFlows, SendRecordsReconcileWithWireStats) {
  // Census invariant: every message leaves exactly one send-side NIC record,
  // and every such record is either a wire message or a loopback. Without
  // the net.loopback counter the two sides cannot be reconciled.
  const auto program = workloads::mutex_stress(4, 20, /*global=*/true).take();
  Tracer tracer;
  core::Cluster cluster(test::test_config(2), &tracer);
  ASSERT_TRUE(cluster.load(program).is_ok());
  ASSERT_TRUE(cluster.run().is_ok());
  ASSERT_EQ(tracer.dropped(), 0u) << "ring too small for an exact census";

  std::size_t send_side = 0;
  for (const Record& r : tracer.records()) {
    if (r.cat != Cat::kNet || r.track != trace::kTrackNic) continue;
    const std::string name(r.name);
    if ((r.kind == Kind::kFlowBegin && name == "net.msg") ||
        (r.kind == Kind::kFlowStep &&
         (name == "net.send" || name == "net.retrans"))) {
      ++send_side;
    }
  }
  auto& stats = cluster.stats();
  EXPECT_GT(stats.get("net.loopback"), 0u);  // master self-sends exist
  EXPECT_GT(stats.get("net.messages"), 0u);
  EXPECT_EQ(send_side,
            stats.get("net.messages") + stats.get("net.loopback"));
}

TEST(TraceCounters, SnapshotsAreMonotonicTimelines) {
  const auto program = workloads::pi_taylor(2, 3, 100).take();
  const TracedRun run = run_traced(test::test_config(2), program);

  std::map<std::string, std::uint64_t> last;
  std::size_t samples = 0;
  for (const Record& r : run.records) {
    if (r.kind != Kind::kCounter) continue;
    ++samples;
    auto [it, fresh] = last.try_emplace(r.name, r.a);
    if (!fresh) {
      EXPECT_GE(r.a, it->second) << "counter " << r.name << " went backwards";
      it->second = r.a;
    }
  }
  EXPECT_GT(samples, 0u);
  EXPECT_TRUE(last.contains("time.execute"));
  EXPECT_TRUE(last.contains("dbt.insns"));
}

TEST(TraceCategories, MaskSuppressesLayers) {
  const auto program = workloads::mutex_stress(4, 10, /*global=*/true).take();
  trace::TraceConfig net_only;
  net_only.categories = trace::cat_bit(Cat::kNet);
  const TracedRun run = run_traced(test::test_config(2), program, net_only);
  ASSERT_FALSE(run.records.empty());
  for (const Record& r : run.records) {
    EXPECT_EQ(r.cat, Cat::kNet);
  }
}

}  // namespace
}  // namespace dqemu
