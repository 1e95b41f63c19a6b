// Named counter registry + per-thread time breakdown.
//
// Every subsystem (DBT, DSM, network, syscall layer) accounts its activity
// into a StatsRegistry owned by the Cluster; benches and tests read them to
// reproduce the paper's breakdown figures (Fig. 8) and to assert protocol
// behaviour (e.g. "page splitting triggered exactly once").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/types.hpp"

namespace dqemu {

/// String-keyed monotonic counters plus named distributions. Keys are
/// created on first touch. Ordered maps so dumps are stable for golden
/// tests.
class StatsRegistry {
 public:
  /// `shards` is the parallel scheduler's shard count (below); 0 in the
  /// serial kernel, which touches only the merged maps.
  explicit StatsRegistry(std::size_t shards = 0);
  /// Copies snapshot the merged maps only; transient parallel-scheduler
  /// shard state (below) never travels with a copy. Benches and examples
  /// copy registries after the run, when every shard is already folded.
  StatsRegistry(const StatsRegistry& other)
      : counters_(other.counters_), histograms_(other.histograms_) {}
  StatsRegistry& operator=(const StatsRegistry& other) {
    counters_ = other.counters_;
    histograms_ = other.histograms_;
    return *this;
  }

  /// Adds `delta` to counter `name` (creating it at zero first).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Current value; 0 if the counter was never touched.
  [[nodiscard]] std::uint64_t get(std::string_view name) const;

  /// True if the counter has been created.
  [[nodiscard]] bool has(std::string_view name) const;

  /// Sets a counter to an absolute value (for gauges like "pages split").
  void set(std::string_view name, std::uint64_t value);

  /// Removes all counters and histograms.
  void clear();

  /// All counters, for iteration in reports.
  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  counters() const {
    return counters_;
  }

  // ----- distributions ----------------------------------------------------
  /// Named log-bucketed histogram, created empty on first touch. Any
  /// subsystem can record a distribution the same way it bumps a counter:
  ///   stats->histogram("serve.latency_ns").record(ns);
  [[nodiscard]] LogHistogram& histogram(std::string_view name);

  /// Read access without creating the key; nullptr if never touched.
  [[nodiscard]] const LogHistogram* find_histogram(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, LogHistogram, std::less<>>&
  histograms() const {
    return histograms_;
  }

  /// Multi-line "name = value" dump, sorted by name; histogram lines
  /// (quantile summaries) follow the counters.
  [[nodiscard]] std::string to_string() const;

  // ---- parallel-scheduler shards (DESIGN.md §16) -------------------------
  // One shard per simulated-node event queue. While a host thread executes
  // a queue's window it binds that queue's shard; add() and histogram()
  // then touch only shard-local maps, so concurrent windows never race.
  // merge_shards() at a barrier folds the deltas back — counters by
  // addition, histograms by exact bucket-wise merge — both commutative, so
  // totals are independent of the host thread count.

  /// Binds shard `index` to the calling thread until unbind_shard().
  void bind_shard(std::size_t index);
  void unbind_shard();

  /// Folds and clears every shard (single-threaded phases only).
  void merge_shards();

 private:
  struct Shard {
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, LogHistogram, std::less<>> histograms;
  };

  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
  /// unique_ptr keeps shard addresses stable for the thread-local binding.
  std::vector<std::unique_ptr<Shard>> shards_;

  static thread_local StatsRegistry* bound_owner_;
  static thread_local Shard* bound_shard_;
};

/// Where a guest thread's virtual time went. Mirrors the breakdown the
/// paper reports in Figure 8 (execute / page fault / syscall).
struct TimeBreakdown {
  DurationPs execute = 0;    ///< running translated code
  DurationPs translate = 0;  ///< translating guest blocks
  DurationPs pagefault = 0;  ///< blocked in the DSM protocol
  DurationPs syscall = 0;    ///< executing or waiting on (delegated) syscalls
  DurationPs idle = 0;       ///< runnable but waiting for a core / futex-blocked

  [[nodiscard]] DurationPs total() const {
    return execute + translate + pagefault + syscall + idle;
  }

  TimeBreakdown& operator+=(const TimeBreakdown& other) {
    execute += other.execute;
    translate += other.translate;
    pagefault += other.pagefault;
    syscall += other.syscall;
    idle += other.idle;
    return *this;
  }
};

}  // namespace dqemu
