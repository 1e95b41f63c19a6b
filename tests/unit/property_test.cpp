// Cross-cutting property tests: model-based event-queue checking, network
// ordering invariants, I-type semantics sweep, generator determinism, and
// syscall payloads spanning split pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "dbt/exec.hpp"
#include "dbt/translation.hpp"
#include "guestlib/runtime.hpp"
#include "isa/assembler.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "testutil.hpp"
#include "workloads/micro.hpp"
#include "workloads/parsec.hpp"

namespace dqemu {
namespace {

using isa::Assembler;
using enum isa::Reg;

// ---------------------------------------------------------------------------
// EventQueue vs a trivial model: random schedule/cancel sequences must fire
// the same (time, id) multiset in the same order as a sorted reference.
// ---------------------------------------------------------------------------

class EventQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModel, MatchesSortedReference) {
  Rng rng(GetParam());
  sim::EventQueue queue;
  std::vector<std::pair<TimePs, int>> fired;
  // Model: (time, seq, id, cancelled).
  struct ModelEvent {
    TimePs time;
    std::uint64_t seq;
    int id;
    bool cancelled = false;
  };
  std::vector<ModelEvent> model;
  std::vector<sim::EventId> handles;

  for (int i = 0; i < 300; ++i) {
    if (rng.next_below(5) == 0 && !handles.empty()) {
      const std::size_t pick = rng.next_below(handles.size());
      if (queue.cancel(handles[pick])) {
        // Mark the matching model event cancelled (by seq order of insert).
        model[pick].cancelled = true;
      }
    } else {
      const TimePs when = rng.next_below(10'000);
      const int id = i;
      handles.push_back(
          queue.schedule_at(when, [&fired, id, &queue] {
            fired.emplace_back(queue.now(), id);
          }));
      model.push_back({std::max<TimePs>(when, queue.now()),
                       static_cast<std::uint64_t>(i), id});
    }
  }
  queue.run();

  std::vector<std::pair<TimePs, int>> expected;
  std::stable_sort(model.begin(), model.end(),
                   [](const ModelEvent& a, const ModelEvent& b) {
                     return a.time < b.time;
                   });
  for (const ModelEvent& event : model) {
    if (!event.cancelled) expected.emplace_back(event.time, event.id);
  }
  EXPECT_EQ(fired, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Network ordering: under random traffic, per-channel delivery order must
// equal send order, and per-node egress must never overlap transmissions.
// ---------------------------------------------------------------------------

class NetworkOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkOrdering, ChannelFifoHolds) {
  Rng rng(GetParam());
  sim::EventQueue queue;
  StatsRegistry stats;
  net::Network network({&queue, &queue, &queue, &queue}, NetworkConfig{},
                       stats);
  // delivered[src][dst] = sequence numbers in delivery order.
  std::map<std::pair<NodeId, NodeId>, std::vector<std::uint64_t>> delivered;
  for (NodeId n = 0; n < 4; ++n) {
    network.attach(n, [&delivered](net::Message msg) {
      delivered[{msg.src, msg.dst}].push_back(msg.a);
    });
  }
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> next_seq;
  for (int i = 0; i < 400; ++i) {
    net::Message msg;
    msg.src = static_cast<NodeId>(rng.next_below(4));
    msg.dst = static_cast<NodeId>(rng.next_below(4));
    msg.type = 1;
    msg.a = next_seq[{msg.src, msg.dst}]++;
    msg.data.resize(rng.next_below(8192));
    network.send(std::move(msg));
    if (rng.next_below(4) == 0) queue.run(50);
  }
  queue.run();
  for (const auto& [channel, seqs] : delivered) {
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], i) << "channel " << channel.first << "->"
                            << channel.second;
    }
    EXPECT_EQ(seqs.size(), next_seq[channel]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkOrdering,
                         ::testing::Range<std::uint64_t>(20, 26));

// ---------------------------------------------------------------------------
// I-type semantics sweep (complements the R-type sweep in dbt_test).
// ---------------------------------------------------------------------------

struct ImmCase {
  const char* name;
  void (Assembler::*emit)(isa::Reg, isa::Reg, std::int32_t);
  std::uint32_t input;
  std::int32_t imm;
  std::uint32_t expected;
};

// gtest prints the parameter into the listed test name (and so the CTest
// name). Its default byte dump would include the `name` pointer, which moves
// with every load of the binary.
void PrintTo(const ImmCase& c, std::ostream* os) { *os << c.name; }

class ImmSemantics : public ::testing::TestWithParam<ImmCase> {};

TEST_P(ImmSemantics, ComputesExpected) {
  const ImmCase& c = GetParam();
  dbt::CpuContext ctx;
  mem::AddressSpace space(16u << 20, 4096);
  Assembler a;
  a.li(kT0, static_cast<std::int64_t>(static_cast<std::int32_t>(c.input)));
  (a.*c.emit)(kT1, kT0, c.imm);
  a.syscall(1);
  auto program = a.finalize().take();
  space.load_program(program);
  space.set_all_access(mem::PageAccess::kReadWrite);
  DbtConfig config;
  StatsRegistry stats;
  const mem::ShadowMap shadow(4096, 4);
  dbt::LlscTable llsc(stats);
  dbt::TranslationCache cache(space, config, stats);
  dbt::ExecEngine engine(space, shadow, llsc, cache, config, stats);
  ctx.pc = program.entry;
  ASSERT_EQ(engine.run(ctx, 1000).reason, dbt::StopReason::kSyscall);
  EXPECT_EQ(ctx.gpr[kT1], c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ImmSemantics,
    ::testing::Values(
        ImmCase{"addi_neg", &Assembler::addi, 10, -20, std::uint32_t(-10)},
        ImmCase{"addi_signext", &Assembler::addi, 0, -1, 0xFFFFFFFF},
        ImmCase{"andi_signext", &Assembler::andi, 0xFFFF00FF, -256,
                0xFFFF0000},
        ImmCase{"ori", &Assembler::ori, 0xF0, 0x0F, 0xFF},
        ImmCase{"xori_invert_low", &Assembler::xori, 0xAAAA, -1, 0xFFFF5555},
        ImmCase{"slli", &Assembler::slli, 3, 4, 48},
        ImmCase{"slli_mod32", &Assembler::slli, 1, 33, 2},
        ImmCase{"srli", &Assembler::srli, 0x80000000, 4, 0x08000000},
        ImmCase{"srai", &Assembler::srai, 0x80000000, 4, 0xF8000000},
        ImmCase{"slti_true", &Assembler::slti, std::uint32_t(-5), -1, 1},
        ImmCase{"slti_false", &Assembler::slti, 5, -1, 0},
        ImmCase{"sltiu_signext", &Assembler::sltiu, 5, -1, 1}),
    [](const ::testing::TestParamInfo<ImmCase>& param) {
      return param.param.name;
    });

// ---------------------------------------------------------------------------
// Workload generators are pure functions of their parameters.
// ---------------------------------------------------------------------------

TEST(GeneratorDeterminism, SameParamsSameImage) {
  workloads::BlackscholesParams params;
  params.threads = 8;
  params.options_n = 512;
  params.reps = 2;
  const auto a = workloads::blackscholes_like(params).take();
  const auto b = workloads::blackscholes_like(params).take();
  ASSERT_EQ(a.sections.size(), b.sections.size());
  for (std::size_t i = 0; i < a.sections.size(); ++i) {
    EXPECT_EQ(a.sections[i].addr, b.sections[i].addr);
    EXPECT_EQ(a.sections[i].bytes, b.sections[i].bytes);
  }
  EXPECT_EQ(a.entry, b.entry);
  EXPECT_EQ(a.symbols, b.symbols);
}

TEST(GeneratorDeterminism, AllGeneratorsFinalize) {
  EXPECT_TRUE(workloads::pi_taylor(4, 1, 16).is_ok());
  EXPECT_TRUE(workloads::mutex_stress(4, 2, true).is_ok());
  EXPECT_TRUE(workloads::mutex_stress(4, 2, false).is_ok());
  EXPECT_TRUE(workloads::memwalk(8192, 1, false).is_ok());
  EXPECT_TRUE(workloads::false_sharing_walk(4, 128, 1, 2).is_ok());
  EXPECT_TRUE(
      workloads::blackscholes_like({.threads = 2, .options_n = 64, .reps = 1})
          .is_ok());
  EXPECT_TRUE(
      workloads::swaptions_like({.threads = 2, .swaptions_n = 4, .trials = 8})
          .is_ok());
  workloads::X264Params x264;
  x264.threads = 4;
  x264.groups = 2;
  x264.rounds = 1;
  x264.compute_words = 16;
  EXPECT_TRUE(workloads::x264_like(x264).is_ok());
  workloads::FluidanimateParams fluid;
  fluid.threads = 2;
  fluid.rows_per_thread = 1;
  fluid.cols = 16;
  fluid.iters = 1;
  EXPECT_TRUE(workloads::fluidanimate_like(fluid).is_ok());
}

// ---------------------------------------------------------------------------
// Syscall payload gathering across a SPLIT page: after false sharing
// triggers page splitting, the guest write()s a buffer that spans several
// shards of the split page — the node's shadow-aware block copy must
// stitch the bytes back together.
// ---------------------------------------------------------------------------

TEST(SplitPages, WritePayloadSpansShards) {
  using isa::Sys;
  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  Assembler::Label worker = a.make_label("worker");
  Assembler::Label page = a.make_label("page");
  Assembler::Label handles = a.make_label("handles");
  guestlib::emit_crt0(a, main_fn);
  guestlib::Runtime rt = guestlib::emit_runtime(a);

  // worker(idx): hammer its own 1KiB shard of the page with writes (the
  // shard boundary matches split_shards=4) so the master splits it; each
  // pass stamps 'A'+idx over the shard.
  {
    a.bind(worker);
    a.la(kT0, page);
    a.slli(kT1, kA0, 10);
    a.add(kT0, kT0, kT1);
    a.addi(kT2, kA0, 'A');
    a.li(kS1, 60);  // passes
    Assembler::Label pass = a.make_label();
    Assembler::Label bytes = a.make_label();
    a.bind(pass);
    a.mov(kT1, kT0);
    a.li(kT3, 1024);
    a.bind(bytes);
    a.sb(kT1, kT2, 0);
    a.addi(kT1, kT1, 1);
    a.addi(kT3, kT3, -1);
    a.bne(kT3, kZero, bytes);
    a.addi(kS1, kS1, -1);
    a.bne(kS1, kZero, pass);
    a.li(kA0, 0);
    a.ret();
  }

  // main: spawn 4 workers (hint groups 0..3 so each lands on its own
  // node), join, then write(1, page + 1000, 100) — a buffer crossing the
  // shard-0/shard-1 boundary of the (by now split) page.
  {
    a.bind(main_fn);
    a.addi(kSp, kSp, -16);
    a.sw(kSp, kRa, 0);
    for (int i = 0; i < 4; ++i) {
      a.hint(i);
      a.la(kA0, worker);
      a.li(kA1, i);
      a.call(rt.thread_create);
      a.la(kT0, handles);
      a.sw(kT0, kA0, i * 4);
    }
    a.hint(0xFFFF);
    for (int i = 0; i < 4; ++i) {
      a.la(kT0, handles);
      a.lw(kA0, kT0, i * 4);
      a.call(rt.thread_join);
    }
    a.li(kA0, 1);
    a.la(kA1, page);
    a.li(kT0, 1000);
    a.add(kA1, kA1, kT0);
    a.li(kA2, 100);
    a.syscall(static_cast<std::int32_t>(Sys::kWrite));
    a.li(kA0, 0);
    a.lw(kRa, kSp, 0);
    a.addi(kSp, kSp, 16);
    a.ret();
  }

  a.d_align(4096);
  a.bind_data(page);
  a.d_space(4096);
  a.bind_data(handles);
  a.d_space(16);
  const auto program = test::must_finalize(a);

  ClusterConfig config = test::test_config(4);
  config.sched.policy = SchedPolicy::kHintLocality;
  config.dsm.enable_splitting = true;
  config.dsm.split_threshold = 6;
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.load(program).is_ok());
  const auto result = cluster.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  // The page must actually have been split...
  EXPECT_GE(cluster.stats().get("dir.splits"), 1u);
  // ...and the payload must read 24 x 'A' (bytes 1000..1023 of shard 0)
  // followed by 76 x 'B' (bytes 1024..1099 of shard 1).
  const std::string out = result.value().guest_stdout;
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out, std::string(24, 'A') + std::string(76, 'B'));
}

}  // namespace
}  // namespace dqemu
