// Flight-recorder tracer core (DESIGN.md §9).
//
// A bounded ring buffer of typed Records plus a monotonic causal-id
// allocator. The tracer never influences the simulation: recording is a
// side-effect-free observation, so virtual-time results are identical with
// tracing on, off, or compiled out entirely.
//
// Cost model:
//   - no tracer attached          -> one null-pointer test per site
//   - category masked off         -> one load + AND per site
//   - DQEMU_TRACING_ENABLED == 0  -> sites compile to nothing at all
// The per-site test is cheap, but the sites sit on the hottest protocol
// paths, so the runtime-off build still measurably trails the compiled-out
// one on serving workloads (DESIGN.md §9). That is why this is the one
// compile-time gate kept.
//
// Instrumentation sites are written as
//
//     if (trace::wants(tracer_, trace::Cat::kNet)) {
//       tracer_->record({...});
//     }
//
// With tracing compiled out, `wants` is a constexpr false and the whole
// block is dead code.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "trace/record.hpp"

#ifndef DQEMU_TRACING_ENABLED
#define DQEMU_TRACING_ENABLED 1
#endif

namespace dqemu::trace {

struct TraceConfig {
  /// Bitmask of Cat values accepted by wants().
  std::uint32_t categories = kDefaultCategories;
  /// Ring capacity in records; the oldest records are dropped on overflow
  /// (flight-recorder semantics: the tail of the run always survives).
  std::size_t capacity = 1u << 20;
  /// Virtual time between counter snapshots taken by the Cluster run loop.
  DurationPs counter_interval = 10 * time_literals::kMs;
};

class Tracer {
 public:
  explicit Tracer(TraceConfig config = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True when records of category `c` should be produced.
  [[nodiscard]] bool wants(Cat c) const {
    return (config_.categories & cat_bit(c)) != 0;
  }

  /// Appends a record, overwriting the oldest one when the ring is full.
  /// Routed to the calling thread's bound shard when one is bound.
  void record(const Record& r);

  /// Allocates a fresh causal id (never 0). Chains created in event order
  /// get deterministic ids, so traces of identical runs match exactly.
  /// A bound shard allocates from its own namespace (the shard index in
  /// bits 40+, below kAutoFlowBit); export normalizes all ids by first
  /// appearance, so serial and sharded runs export identical flows.
  [[nodiscard]] std::uint64_t new_flow();

  // ---- parallel-scheduler shards (DESIGN.md §16) -------------------------
  // One shard per simulated-node event queue. While a host thread executes
  // a queue's window it binds that queue's shard; record()/new_flow() then
  // touch only shard-local state, so concurrent windows never share sinks.
  // Shards are keyed by queue (not host thread), which is what makes the
  // exported trace independent of the host thread count.

  /// Creates `count` empty shards (each with the ring capacity of the
  /// config). Call once, before any binding.
  void configure_shards(std::size_t count);

  /// Binds shard `index` to the calling thread until unbind_shard().
  void bind_shard(std::size_t index);
  void unbind_shard();

  /// Stable pointer for a dynamic name (e.g. a stats counter key). The
  /// same string always returns the same pointer.
  [[nodiscard]] const char* intern(std::string_view name);

  /// Records currently held, oldest first: the main ring followed by each
  /// shard in index order, stably sorted by time.
  [[nodiscard]] std::vector<Record> records() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] const TraceConfig& config() const { return config_; }

  void clear();

 private:
  /// One bounded ring + flow allocator; the legacy single-threaded sink
  /// and every shard are instances of this.
  struct Sink {
    std::vector<Record> ring;
    std::size_t next = 0;   ///< next write slot
    std::size_t count = 0;  ///< valid records (<= capacity)
    std::uint64_t dropped = 0;
    std::uint64_t next_flow = 1;
  };

  void append(Sink& sink, const Record& r);

  TraceConfig config_;
  Sink main_;
  /// unique_ptr keeps shard addresses stable for the thread-local binding.
  std::vector<std::unique_ptr<Sink>> shards_;
  /// Interned dynamic names; deque gives pointer stability.
  std::deque<std::string> interned_;
  std::map<std::string, const char*, std::less<>> intern_index_;

  static thread_local Tracer* bound_owner_;
  static thread_local Sink* bound_sink_;
  static thread_local std::uint64_t bound_index_;
};

#if DQEMU_TRACING_ENABLED
/// Gate for instrumentation sites; false when no tracer is attached or the
/// category is masked off.
[[nodiscard]] inline bool wants(const Tracer* t, Cat c) {
  return t != nullptr && t->wants(c);
}
#else
/// Compiled-out path: every instrumentation block is dead code.
[[nodiscard]] constexpr bool wants(const Tracer*, Cat) { return false; }
#endif

/// Parses a comma-separated category list ("net,dsm,sys", "all",
/// "default") into a bitmask; nullopt on an unknown name.
[[nodiscard]] std::optional<std::uint32_t> parse_categories(
    std::string_view list);

}  // namespace dqemu::trace
