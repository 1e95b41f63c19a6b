// Per-layer host-time spans for the traced benchmark build.
//
// perfbench_traced links layer_trace.cpp with -Wl,--wrap=<symbol> for each
// layer entry point listed in CMakeLists.txt. Every wrapped call opens a
// span on a thread-local stack; on return the span's duration is charged to
// its parent as child time, and duration minus child time is the span's
// self time. Nothing under src/ is modified: the wrappers sit between the
// simulator's object files at link time, so they see exactly the calls that
// cross a translation-unit boundary (calls inside one .cpp file, and inlined
// calls, are not observed — the self-check in run.py catches a wrapper
// that stops seeing calls).
#pragma once

#include <array>
#include <cstdint>

namespace dqemu::sim {
class EventQueue;
}

namespace perfbench::trace {

/// One span kind per wrapped entry point, plus the benchmark's own root
/// span around Cluster::run.
enum class Span : std::uint8_t {
  kRun,           ///< Cluster::run, opened by the benchmark
  kRunOne,        ///< EventQueue::run_one (serial kernel)
  kMasterWindow,  ///< EventQueue::run_window on the master-plane queue
  kSlaveWindow,   ///< EventQueue::run_window on a slave queue
  kRunTasks,      ///< ThreadPool::run_tasks (parallel kernel batch)
  kExec,          ///< dbt::ExecEngine::run
  kTranslate,     ///< dbt::TranslationCache::translate
  kNetSend,       ///< net::Network::send
  kNodeMsg,       ///< core::Node::handle_message
  kDirMsg,        ///< dsm::Directory::handle_message
  kClientMsg,     ///< dsm::DsmClient::handle_message
  kRequestPage,   ///< dsm::DsmClient::request_page
  kMasterSys,     ///< sys::MasterSyscalls::handle_message
  kServeGet,      ///< serve::LoadGenerator::on_get_request
  kServeDone,     ///< serve::LoadGenerator::on_done
  kStatsAdd,      ///< StatsRegistry::add
  kCount,
};
inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);

/// Stable names, indexed by Span (used as JSON keys by the benchmark).
extern const std::array<const char*, kSpanCount> kSpanNames;

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t incl_ns = 0;
  /// Work the calls handled: events fired by run_one/run_window, tasks
  /// handed to run_tasks; 0 for every other span.
  std::uint64_t units = 0;
};

/// Totals of one traced Cluster::run, summed over every host thread, plus
/// the calling thread's own view (the thread that called begin_run).
struct Profile {
  std::array<SpanTotals, kSpanCount> all{};
  std::array<SpanTotals, kSpanCount> caller{};
};

/// Resets every accumulator and tags `master` as the master-plane queue
/// (its run_window calls count as kMasterWindow). Call on the thread that
/// will call Cluster::run, with no span open.
void begin_run(const dqemu::sim::EventQueue* master);

/// Collects the totals of every thread since begin_run. Call after
/// Cluster::run returned (the parallel kernel's workers have been joined).
[[nodiscard]] Profile end_run();

/// Opens a span on the calling thread for its lifetime: the benchmark's
/// root (Span::kRun) and every wrapped call.
class Scope {
 public:
  explicit Scope(Span span);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Work items the call handled (SpanTotals::units).
  void units(std::uint64_t n) { units_ = n; }

 private:
  std::uint64_t units_ = 0;
};

}  // namespace perfbench::trace
