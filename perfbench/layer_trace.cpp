// Link-time wrappers and the span accumulator behind layer_trace.hpp.
//
// For every symbol S in CMakeLists.txt's PERFBENCH_WRAPPED list the linker
// routes calls to S into __wrap_S (defined here) and resolves __real_S to
// the original definition. The asm labels below name those symbols; a
// member function is declared as a free function taking `this` first, which
// is how the Itanium C++ ABI passes it.
#include "layer_trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "core/node.hpp"
#include "dbt/exec.hpp"
#include "dbt/translation.hpp"
#include "dsm/client.hpp"
#include "dsm/directory.hpp"
#include "net/network.hpp"
#include "serve/load_generator.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sys/master_syscalls.hpp"

namespace perfbench::trace {

const std::array<const char*, kSpanCount> kSpanNames = {
    "cluster_run",      "run_one",      "master_window", "slave_window",
    "run_tasks",        "exec",         "translate",     "net_send",
    "node_msg",         "dir_msg",      "client_msg",    "request_page",
    "master_sys",       "serve_get",    "serve_done",    "stats_add",
};

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Accumulators of one host thread for one traced run. Owned by the
/// registry so they outlive the parallel kernel's worker threads.
struct ThreadTotals {
  std::array<SpanTotals, kSpanCount> spans{};
  bool caller = false;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadTotals>> threads;  // guarded by mutex
  /// Bumped by begin_run; a thread whose cached generation differs
  /// registers fresh totals on its next span.
  std::atomic<std::uint64_t> generation{1};
  std::atomic<const dqemu::sim::EventQueue*> master{nullptr};
};

Registry& registry() {
  static Registry instance;
  return instance;
}

struct Frame {
  Span span = Span::kRun;
  std::uint64_t start = 0;
  std::uint64_t child = 0;
};

constexpr std::size_t kMaxDepth = 64;

struct ThreadState {
  ThreadTotals* totals = nullptr;
  std::uint64_t generation = 0;
  std::size_t depth = 0;
  std::array<Frame, kMaxDepth> stack{};
};

thread_local ThreadState t_state;

ThreadTotals& totals(ThreadState& st, bool caller = false) {
  Registry& reg = registry();
  const std::uint64_t gen = reg.generation.load(std::memory_order_acquire);
  if (st.generation != gen) {
    auto fresh = std::make_unique<ThreadTotals>();
    fresh->caller = caller;
    st.totals = fresh.get();
    st.generation = gen;
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.threads.push_back(std::move(fresh));
  }
  return *st.totals;
}

void push(Span span) {
  ThreadState& st = t_state;
  if (st.depth == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  st.stack[st.depth++] = Frame{span, now_ns(), 0};
}

void pop(std::uint64_t units) {
  const std::uint64_t end = now_ns();
  ThreadState& st = t_state;
  const Frame frame = st.stack[--st.depth];
  const std::uint64_t duration = end - frame.start;
  ThreadTotals& t = totals(st);
  SpanTotals& s = t.spans[static_cast<std::size_t>(frame.span)];
  ++s.calls;
  s.incl_ns += duration;
  s.self_ns += duration - frame.child;
  s.units += units;
  if (st.depth > 0) st.stack[st.depth - 1].child += duration;
}

}  // namespace

void begin_run(const dqemu::sim::EventQueue* master) {
  Registry& reg = registry();
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.threads.clear();
  }
  reg.master.store(master, std::memory_order_relaxed);
  reg.generation.fetch_add(1, std::memory_order_acq_rel);
  ThreadState& st = t_state;
  st.depth = 0;
  (void)totals(st, /*caller=*/true);
}

Profile end_run() {
  Profile out;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& t : reg.threads) {
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      out.all[i].calls += t->spans[i].calls;
      out.all[i].self_ns += t->spans[i].self_ns;
      out.all[i].incl_ns += t->spans[i].incl_ns;
      out.all[i].units += t->spans[i].units;
      if (t->caller) out.caller[i] = t->spans[i];
    }
  }
  return out;
}

Scope::Scope(Span span) { push(span); }
Scope::~Scope() { pop(units_); }

}  // namespace perfbench::trace

// ---- the wrappers ---------------------------------------------------------
// Each __wrap_ definition must match a --wrap entry in CMakeLists.txt; the
// __real_ reference fails the link if the simulator renames or re-types the
// entry point.

namespace {

using dqemu::GuestAddr;
using dqemu::GuestTid;
using dqemu::NodeId;
using dqemu::TimePs;
using perfbench::trace::Scope;
using perfbench::trace::Span;
namespace dbt = dqemu::dbt;
namespace net = dqemu::net;

}  // namespace

bool real_run_one(dqemu::sim::EventQueue* self) asm(
    "__real__ZN5dqemu3sim10EventQueue7run_oneEv");
bool wrap_run_one(dqemu::sim::EventQueue* self) asm(
    "__wrap__ZN5dqemu3sim10EventQueue7run_oneEv");
bool wrap_run_one(dqemu::sim::EventQueue* self) {
  Scope g(Span::kRunOne);
  const bool fired = real_run_one(self);
  g.units(fired ? 1 : 0);
  return fired;
}

std::uint64_t real_run_window(dqemu::sim::EventQueue* self, TimePs end,
                              const std::function<bool()>& stop)
    asm("__real__ZN5dqemu3sim10EventQueue10run_windowEmRKSt8functionIFbvEE");
std::uint64_t wrap_run_window(dqemu::sim::EventQueue* self, TimePs end,
                              const std::function<bool()>& stop)
    asm("__wrap__ZN5dqemu3sim10EventQueue10run_windowEmRKSt8functionIFbvEE");
std::uint64_t wrap_run_window(dqemu::sim::EventQueue* self, TimePs end,
                              const std::function<bool()>& stop) {
  const bool master = self == perfbench::trace::registry().master.load(
                                  std::memory_order_relaxed);
  Scope g(master ? Span::kMasterWindow : Span::kSlaveWindow);
  const std::uint64_t fired = real_run_window(self, end, stop);
  g.units(fired);
  return fired;
}

void real_run_tasks(dqemu::sim::ThreadPool* self, std::size_t n,
                    const std::function<void(std::size_t)>& fn)
    asm("__real__ZN5dqemu3sim10ThreadPool9run_tasksEmRKSt8functionIFvmEE");
void wrap_run_tasks(dqemu::sim::ThreadPool* self, std::size_t n,
                    const std::function<void(std::size_t)>& fn)
    asm("__wrap__ZN5dqemu3sim10ThreadPool9run_tasksEmRKSt8functionIFvmEE");
void wrap_run_tasks(dqemu::sim::ThreadPool* self, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  Scope g(Span::kRunTasks);
  g.units(n);
  real_run_tasks(self, n, fn);
}

dbt::ExecResult real_exec(dbt::ExecEngine* self, dbt::CpuContext& ctx,
                          std::uint64_t max_insns)
    asm("__real__ZN5dqemu3dbt10ExecEngine3runERNS0_10CpuContextEm");
dbt::ExecResult wrap_exec(dbt::ExecEngine* self, dbt::CpuContext& ctx,
                          std::uint64_t max_insns)
    asm("__wrap__ZN5dqemu3dbt10ExecEngine3runERNS0_10CpuContextEm");
dbt::ExecResult wrap_exec(dbt::ExecEngine* self, dbt::CpuContext& ctx,
                          std::uint64_t max_insns) {
  Scope g(Span::kExec);
  return real_exec(self, ctx, max_insns);
}

dbt::TranslateResult real_translate(dbt::TranslationCache* self, GuestAddr pc)
    asm("__real__ZN5dqemu3dbt16TranslationCache9translateEj");
dbt::TranslateResult wrap_translate(dbt::TranslationCache* self, GuestAddr pc)
    asm("__wrap__ZN5dqemu3dbt16TranslationCache9translateEj");
dbt::TranslateResult wrap_translate(dbt::TranslationCache* self,
                                    GuestAddr pc) {
  Scope g(Span::kTranslate);
  return real_translate(self, pc);
}

void real_send(net::Network* self, net::Message msg)
    asm("__real__ZN5dqemu3net7Network4sendENS0_7MessageE");
void wrap_send(net::Network* self, net::Message msg)
    asm("__wrap__ZN5dqemu3net7Network4sendENS0_7MessageE");
void wrap_send(net::Network* self, net::Message msg) {
  Scope g(Span::kNetSend);
  real_send(self, std::move(msg));
}

void real_node_msg(dqemu::core::Node* self, const net::Message& msg)
    asm("__real__ZN5dqemu4core4Node14handle_messageERKNS_3net7MessageE");
void wrap_node_msg(dqemu::core::Node* self, const net::Message& msg)
    asm("__wrap__ZN5dqemu4core4Node14handle_messageERKNS_3net7MessageE");
void wrap_node_msg(dqemu::core::Node* self, const net::Message& msg) {
  Scope g(Span::kNodeMsg);
  real_node_msg(self, msg);
}

void real_dir_msg(dqemu::dsm::Directory* self, const net::Message& msg)
    asm("__real__ZN5dqemu3dsm9Directory14handle_messageERKNS_3net7MessageE");
void wrap_dir_msg(dqemu::dsm::Directory* self, const net::Message& msg)
    asm("__wrap__ZN5dqemu3dsm9Directory14handle_messageERKNS_3net7MessageE");
void wrap_dir_msg(dqemu::dsm::Directory* self, const net::Message& msg) {
  Scope g(Span::kDirMsg);
  real_dir_msg(self, msg);
}

void real_client_msg(dqemu::dsm::DsmClient* self, const net::Message& msg)
    asm("__real__ZN5dqemu3dsm9DsmClient14handle_messageERKNS_3net7MessageE");
void wrap_client_msg(dqemu::dsm::DsmClient* self, const net::Message& msg)
    asm("__wrap__ZN5dqemu3dsm9DsmClient14handle_messageERKNS_3net7MessageE");
void wrap_client_msg(dqemu::dsm::DsmClient* self, const net::Message& msg) {
  Scope g(Span::kClientMsg);
  real_client_msg(self, msg);
}

void real_request_page(dqemu::dsm::DsmClient* self, std::uint32_t page,
                       std::uint32_t offset, bool write, GuestTid tid)
    asm("__real__ZN5dqemu3dsm9DsmClient12request_pageEjjbj");
void wrap_request_page(dqemu::dsm::DsmClient* self, std::uint32_t page,
                       std::uint32_t offset, bool write, GuestTid tid)
    asm("__wrap__ZN5dqemu3dsm9DsmClient12request_pageEjjbj");
void wrap_request_page(dqemu::dsm::DsmClient* self, std::uint32_t page,
                       std::uint32_t offset, bool write, GuestTid tid) {
  Scope g(Span::kRequestPage);
  real_request_page(self, page, offset, write, tid);
}

void real_master_sys(dqemu::sys::MasterSyscalls* self, const net::Message& msg)
    asm("__real__ZN5dqemu3sys14MasterSyscalls14handle_messageERKNS_3net7MessageE");
void wrap_master_sys(dqemu::sys::MasterSyscalls* self, const net::Message& msg)
    asm("__wrap__ZN5dqemu3sys14MasterSyscalls14handle_messageERKNS_3net7MessageE");
void wrap_master_sys(dqemu::sys::MasterSyscalls* self,
                     const net::Message& msg) {
  Scope g(Span::kMasterSys);
  real_master_sys(self, msg);
}

void real_serve_get(dqemu::serve::LoadGenerator* self, NodeId src,
                    GuestTid tid, std::uint64_t flow)
    asm("__real__ZN5dqemu5serve13LoadGenerator14on_get_requestEtjm");
void wrap_serve_get(dqemu::serve::LoadGenerator* self, NodeId src,
                    GuestTid tid, std::uint64_t flow)
    asm("__wrap__ZN5dqemu5serve13LoadGenerator14on_get_requestEtjm");
void wrap_serve_get(dqemu::serve::LoadGenerator* self, NodeId src,
                    GuestTid tid, std::uint64_t flow) {
  Scope g(Span::kServeGet);
  real_serve_get(self, src, tid, flow);
}

void real_serve_done(dqemu::serve::LoadGenerator* self, NodeId src,
                     GuestTid tid, std::uint32_t checksum, std::uint64_t flow)
    asm("__real__ZN5dqemu5serve13LoadGenerator7on_doneEtjjm");
void wrap_serve_done(dqemu::serve::LoadGenerator* self, NodeId src,
                     GuestTid tid, std::uint32_t checksum, std::uint64_t flow)
    asm("__wrap__ZN5dqemu5serve13LoadGenerator7on_doneEtjjm");
void wrap_serve_done(dqemu::serve::LoadGenerator* self, NodeId src,
                     GuestTid tid, std::uint32_t checksum,
                     std::uint64_t flow) {
  Scope g(Span::kServeDone);
  real_serve_done(self, src, tid, checksum, flow);
}

void real_stats_add(dqemu::StatsRegistry* self, std::string_view name,
                    std::uint64_t delta)
    asm("__real__ZN5dqemu13StatsRegistry3addESt17basic_string_viewIcSt11char_traitsIcEEm");
void wrap_stats_add(dqemu::StatsRegistry* self, std::string_view name,
                    std::uint64_t delta)
    asm("__wrap__ZN5dqemu13StatsRegistry3addESt17basic_string_viewIcSt11char_traitsIcEEm");
void wrap_stats_add(dqemu::StatsRegistry* self, std::string_view name,
                    std::uint64_t delta) {
  Scope g(Span::kStatsAdd);
  real_stats_add(self, name, delta);
}
