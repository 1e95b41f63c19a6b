// Flight-recorder tracer core (DESIGN.md §9).
//
// A bounded ring buffer of typed Records plus a monotonic causal-id
// allocator. The tracer never influences the simulation: recording is a
// side-effect-free observation, so virtual-time results are identical with
// tracing on or off.
//
// Tracing has one switch, at run time: the tracer pointer a component is
// given (null = off) and the category mask in its TraceConfig. Every
// instrumentation site goes through a Site, whose inline on() test is the
// whole cost of the site when tracing is off:
//
//     trace_.step(queue_.now(), "dsm.invalidate", msg.flow, page, 0);
//
//     if (trace_.on()) {  // a site that also opens a causal chain
//       req.flow = trace_.tracer->new_flow();
//       trace_.record(queue_.now(), "sys.lease_acquire",
//                     trace::Kind::kFlowBegin, req.flow, addr, 0);
//     }
//
// The record itself is built out of line, in Site::record(), so an
// instrumented hot function carries one predicted branch per site and no
// record-building code.
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

/// Gate for instrumentation sites; false when no tracer is attached or the
/// category is masked off.
[[nodiscard]] inline bool wants(const Tracer* t, Cat c) {
  return t != nullptr && t->wants(c);
}

/// Where one instrumentation site records: the tracer plus the category,
/// node and track every record from the site carries. Components build
/// their sites once; a per-message or per-core lane is built in place.
struct Site {
  Tracer* tracer = nullptr;
  Cat cat = Cat::kSim;
  NodeId node = 0;
  std::uint16_t track = kTrackNode;

  /// The site's gate: one inline branch when no tracer is attached.
  [[nodiscard]] bool on() const { return wants(tracer, cat); }

  /// Builds one Record at this site and appends it. The one record
  /// builder, out of line on purpose; callers test on() first.
  void record(TimePs time, const char* name, Kind kind, std::uint64_t flow,
              std::uint64_t a, std::uint64_t b, GuestTid tid = 0) const;

  /// record() behind the on() gate.
  void emit(TimePs time, const char* name, Kind kind, std::uint64_t flow,
            std::uint64_t a, std::uint64_t b, GuestTid tid = 0) const {
    if (on()) record(time, name, kind, flow, a, b, tid);
  }

  /// emit() of a protocol step: a kFlowStep in chain `flow`, or a lone
  /// kInstant when the step belongs to no chain.
  void step(TimePs time, const char* name, std::uint64_t flow,
            std::uint64_t a, std::uint64_t b) const {
    emit(time, name, flow == 0 ? Kind::kInstant : Kind::kFlowStep, flow, a,
         b);
  }
};

/// Parses a comma-separated category list ("net,dsm,sys", "all",
/// "default") into a bitmask; nullopt on an unknown name.
[[nodiscard]] std::optional<std::uint32_t> parse_categories(
    std::string_view list);

}  // namespace dqemu::trace
