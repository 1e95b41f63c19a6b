// Stress & property tests: randomized protocol storms, optimization
// equivalence, and guest file I/O across nodes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsm/client.hpp"
#include "dsm/directory.hpp"
#include "guestlib/runtime.hpp"
#include "isa/syscall_abi.hpp"
#include "testutil.hpp"
#include "workloads/micro.hpp"
#include "workloads/parsec.hpp"

namespace dqemu {
namespace {

using isa::Assembler;
using isa::Sys;
using test::baseline_config;
using test::must_finalize;
using test::run_program;
using test::test_config;
using enum isa::Reg;

// ---------------------------------------------------------------------------
// Randomized DSM protocol storm: random read/write requests from random
// nodes over a small page set; after quiescence the directory invariants
// must hold and every node's view of every page must match the freshest
// writer's content.
// ---------------------------------------------------------------------------

class ProtocolStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolStorm, InvariantsAndConvergence) {
  constexpr std::uint32_t kMem = 32u << 20;
  constexpr std::uint32_t kPage = 4096;
  constexpr NodeId kNodes = 4;

  sim::EventQueue queue;
  StatsRegistry stats;
  net::Network network(std::vector<sim::EventQueue*>(kNodes, &queue),
                       NetworkConfig{}, stats);
  std::vector<std::unique_ptr<mem::AddressSpace>> spaces;
  std::vector<std::unique_ptr<mem::ShadowMap>> shadows;
  std::vector<std::unique_ptr<test::ClientDeps>> deps;
  std::vector<std::unique_ptr<dsm::DsmClient>> clients;
  for (NodeId n = 0; n < kNodes; ++n) {
    spaces.push_back(std::make_unique<mem::AddressSpace>(kMem, kPage));
    shadows.push_back(std::make_unique<mem::ShadowMap>(kPage, 4));
    deps.push_back(std::make_unique<test::ClientDeps>(*spaces[n], stats));
  }
  dsm::Directory::Params params;
  params.node_count = kNodes;
  params.shadow_pool_first_page = (kMem / kPage) - 256;
  params.shadow_pool_page_count = 256;
  dsm::Directory directory(network, queue, *spaces[0], params, stats);
  for (NodeId n = 0; n < kNodes; ++n) {
    clients.push_back(std::make_unique<dsm::DsmClient>(
        n, network, queue, *spaces[n], *shadows[n], deps[n]->llsc,
        deps[n]->tcache, deps[n]->homes, stats, [](std::uint32_t) {}));
  }
  network.attach(0, [&](net::Message msg) {
    switch (static_cast<dsm::DsmMsg>(msg.type)) {
      case dsm::DsmMsg::kReadReq:
      case dsm::DsmMsg::kWriteReq:
      case dsm::DsmMsg::kInvAck:
      case dsm::DsmMsg::kDowngradeAck:
        directory.handle_message(msg);
        break;
      default:
        clients[0]->handle_message(msg);
    }
  });
  for (NodeId n = 1; n < kNodes; ++n) {
    dsm::DsmClient* client = clients[n].get();
    network.attach(n,
                   [client](net::Message msg) { client->handle_message(msg); });
  }

  Rng rng(GetParam());
  constexpr std::uint32_t kPages[] = {100, 101, 102, 103, 104};
  std::uint32_t last_value[std::size(kPages)] = {};

  for (int round = 0; round < 120; ++round) {
    const auto node = static_cast<NodeId>(rng.next_below(kNodes));
    const std::uint32_t page_index =
        static_cast<std::uint32_t>(rng.next_below(std::size(kPages)));
    const std::uint32_t page = kPages[page_index];
    const bool write = rng.next_below(2) == 0;
    clients[node]->request_page(
        page, static_cast<std::uint32_t>(rng.next_below(kPage)), write,
        /*tid=*/node);
    // Occasionally let traffic drain, and have the current owner write a
    // sentinel (only when it actually holds write access).
    if (rng.next_below(3) == 0) {
      queue.run(50000);
      if (write &&
          spaces[node]->access(page) == mem::PageAccess::kReadWrite) {
        const auto value = static_cast<std::uint32_t>(rng.next());
        spaces[node]->store(page * kPage + 8, value, 4);
        last_value[page_index] = value;
      }
    }
  }
  queue.run(2'000'000);

  EXPECT_TRUE(directory.check_invariants());
  for (std::uint32_t i = 0; i < std::size(kPages); ++i) {
    const std::uint32_t page = kPages[i];
    // Cross-node agreement: every node with read access sees the home value.
    for (NodeId n = 0; n < kNodes; ++n) {
      if (spaces[n]->access(page) != mem::PageAccess::kNone) {
        EXPECT_EQ(spaces[n]->load(page * kPage + 8, 4),
                  last_value[i] == 0
                      ? spaces[n]->load(page * kPage + 8, 4)
                      : last_value[i])
            << "node " << n << " page " << page;
      }
    }
    // At most one writable copy.
    int writers = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
      if (spaces[n]->access(page) == mem::PageAccess::kReadWrite) ++writers;
    }
    EXPECT_LE(writers, 1) << "page " << page;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolStorm,
                         ::testing::Range<std::uint64_t>(100, 112));

// ---------------------------------------------------------------------------
// Optimization equivalence: forwarding/splitting/hint scheduling are pure
// performance features — guest output must be identical with any of them.
// ---------------------------------------------------------------------------

struct OptimizationCase {
  const char* name;
  bool forwarding;
  bool splitting;
  SchedPolicy policy;
};

// gtest prints the parameter into the listed test name (and so the CTest
// name). Its default byte dump would include the `name` pointer, which moves
// with every load of the binary.
void PrintTo(const OptimizationCase& c, std::ostream* os) { *os << c.name; }

class OptimizationEquivalence
    : public ::testing::TestWithParam<OptimizationCase> {};

TEST_P(OptimizationEquivalence, GuestOutputUnchanged) {
  workloads::FluidanimateParams params;
  params.threads = 8;
  params.rows_per_thread = 1;
  params.cols = 128;
  params.iters = 4;
  params.hint_groups = 3;
  const auto program = workloads::fluidanimate_like(params).take();

  auto reference = run_program(baseline_config(), program);
  ASSERT_TRUE(reference.ok) << reference.error;

  ClusterConfig config = test_config(3);
  config.dsm.enable_forwarding = GetParam().forwarding;
  config.dsm.enable_splitting = GetParam().splitting;
  config.dsm.split_threshold = 4;  // make splits likely
  config.sched.policy = GetParam().policy;
  auto run = run_program(config, program);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.result.guest_stdout, reference.result.guest_stdout);
  EXPECT_EQ(run.result.exit_code, reference.result.exit_code);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, OptimizationEquivalence,
    ::testing::Values(
        OptimizationCase{"plain", false, false, SchedPolicy::kRoundRobin},
        OptimizationCase{"forwarding", true, false, SchedPolicy::kRoundRobin},
        OptimizationCase{"splitting", false, true, SchedPolicy::kRoundRobin},
        OptimizationCase{"both", true, true, SchedPolicy::kRoundRobin},
        OptimizationCase{"hint", false, false, SchedPolicy::kHintLocality},
        OptimizationCase{"hint_both", true, true, SchedPolicy::kHintLocality}),
    [](const ::testing::TestParamInfo<OptimizationCase>& param) {
      return param.param.name;
    });

// ---------------------------------------------------------------------------
// Guest file I/O across nodes: a worker on a slave opens a preloaded file,
// reads it into an mmap'd buffer (exercising the delegated read + commit
// path with DSM pre-faulting), transforms it, and writes it back to a new
// file on the master's VFS.
// ---------------------------------------------------------------------------

TEST(GuestFileIo, ReadTransformWriteAcrossNodes) {
  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  Assembler::Label worker = a.make_label("worker");
  Assembler::Label in_path = a.make_label("in_path");
  Assembler::Label out_path = a.make_label("out_path");
  Assembler::Label buf_ptr = a.make_label("buf_ptr");
  guestlib::emit_crt0(a, main_fn);
  guestlib::Runtime rt = guestlib::emit_runtime(a);

  // worker: fd = open(in); n = read(fd, buf, 64); uppercase; out = open(out,
  // create|write); write(out, buf, n); close both.
  {
    a.bind(worker);
    a.addi(kSp, kSp, -32);
    a.sw(kSp, kRa, 0);
    a.la(kA0, in_path);
    a.li(kA1, static_cast<std::int32_t>(isa::kOpenRead));
    a.syscall(static_cast<std::int32_t>(Sys::kOpen));
    a.sw(kSp, kA0, 4);  // in fd
    a.la(kT0, buf_ptr);
    a.lw(kT0, kT0, 0);
    a.mov(kA1, kT0);
    a.li(kA2, 64);
    a.syscall(static_cast<std::int32_t>(Sys::kRead));
    a.sw(kSp, kA0, 8);  // n
    // Uppercase ASCII in place: c -= 32 if 'a' <= c <= 'z'.
    Assembler::Label up_loop = a.make_label();
    Assembler::Label up_next = a.make_label();
    Assembler::Label up_done = a.make_label();
    a.la(kT0, buf_ptr);
    a.lw(kT0, kT0, 0);
    a.lw(kT1, kSp, 8);
    a.bind(up_loop);
    a.beq(kT1, kZero, up_done);
    a.lbu(kT2, kT0, 0);
    a.li(kT3, 'a');
    a.blt(kT2, kT3, up_next);
    a.li(kT3, 'z' + 1);
    a.bge(kT2, kT3, up_next);
    a.addi(kT2, kT2, -32);
    a.sb(kT0, kT2, 0);
    a.bind(up_next);
    a.addi(kT0, kT0, 1);
    a.addi(kT1, kT1, -1);
    a.j(up_loop);
    a.bind(up_done);
    // Write to the output file.
    a.la(kA0, out_path);
    a.li(kA1, static_cast<std::int32_t>(isa::kOpenWrite | isa::kOpenCreate));
    a.syscall(static_cast<std::int32_t>(Sys::kOpen));
    a.sw(kSp, kA0, 12);
    a.la(kT0, buf_ptr);
    a.lw(kA1, kT0, 0);
    a.lw(kA2, kSp, 8);
    a.syscall(static_cast<std::int32_t>(Sys::kWrite));
    a.lw(kA0, kSp, 12);
    a.syscall(static_cast<std::int32_t>(Sys::kClose));
    a.lw(kA0, kSp, 4);
    a.syscall(static_cast<std::int32_t>(Sys::kClose));
    a.li(kA0, 0);
    a.lw(kRa, kSp, 0);
    a.addi(kSp, kSp, 32);
    a.ret();
  }

  // main: buf = mmap(4096); spawn worker; join.
  {
    a.bind(main_fn);
    a.addi(kSp, kSp, -16);
    a.sw(kSp, kRa, 0);
    a.li(kA0, 4096);
    a.syscall(static_cast<std::int32_t>(Sys::kMmap));
    a.la(kT0, buf_ptr);
    a.sw(kT0, kA0, 0);
    a.la(kA0, worker);
    a.li(kA1, 0);
    a.call(rt.thread_create);
    a.call(rt.thread_join);
    a.li(kA0, 0);
    a.lw(kRa, kSp, 0);
    a.addi(kSp, kSp, 16);
    a.ret();
  }

  a.bind_data(in_path);
  a.d_asciz("input.txt");
  a.bind_data(out_path);
  a.d_asciz("output.txt");
  a.d_align(4);
  a.bind_data(buf_ptr);
  a.d_word(0);
  const auto program = must_finalize(a);

  core::Cluster cluster(test_config(2));
  cluster.vfs().preload("input.txt", std::string_view("hello, Dqemu FILE io"));
  ASSERT_TRUE(cluster.load(program).is_ok());
  const auto result = cluster.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const auto output = cluster.vfs().file_content("output.txt");
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(std::string(output->begin(), output->end()),
            "HELLO, DQEMU FILE IO");
}

}  // namespace
}  // namespace dqemu
