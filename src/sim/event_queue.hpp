// Deterministic discrete-event kernel.
//
// The whole cluster runs on one virtual clock: every activity (a guest
// thread's execution quantum, a network message delivery, a futex timeout)
// is an event. Events at equal times fire in scheduling order (a strictly
// increasing sequence number breaks ties), which makes every simulation
// bit-reproducible — the property the integration tests rely on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "trace/tracer.hpp"

namespace dqemu::sim {

/// Opaque handle to a scheduled event, usable for cancellation.
struct EventId {
  TimePs time = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Time-ordered event queue with a virtual clock.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time. Advances only as events fire.
  [[nodiscard]] TimePs now() const { return now_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return events_.size(); }

  /// Schedules `fn` at absolute time `when` (>= now). Scheduling in the
  /// past is clamped to `now` — the event still fires, deterministically
  /// after everything already queued for `now`.
  EventId schedule_at(TimePs when, Callback fn);

  /// Schedules `fn` `delay` picoseconds from now.
  EventId schedule_in(DurationPs delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Returns false if it already fired or was
  /// already cancelled.
  bool cancel(const EventId& id);

  /// Fires the earliest pending event, advancing the clock to its time.
  /// Returns false if the queue was empty.
  bool run_one();

  /// Runs events until the queue drains or the clock would pass `deadline`
  /// (events after the deadline remain pending). Returns events fired.
  std::uint64_t run_until(TimePs deadline);

  /// Runs events until the queue drains or `max_events` fired.
  /// Returns events fired.
  std::uint64_t run(std::uint64_t max_events = ~0ULL);

  /// Runs events with time strictly below `end` (the conservative-window
  /// bound: events at exactly `end` belong to the next window). Unlike
  /// run_until, the clock is left at the last fired event rather than
  /// advanced to `end`, so in-the-past clamping behaves exactly as in the
  /// single-queue kernel. `stop` (may be empty) is checked after every
  /// event; returning true ends the window early. Returns events fired.
  std::uint64_t run_window(TimePs end, const std::function<bool()>& stop = {});

  /// Time of the earliest pending event (posted-but-undrained hand-offs
  /// are not considered — drain first).
  [[nodiscard]] std::optional<TimePs> next_time() const {
    if (events_.empty()) return std::nullopt;
    return events_.begin()->first.time;
  }

  /// Cross-thread hand-off: enqueues `fn` for absolute time `when` from
  /// another queue's execution context (thread-safe, unlike schedule_at).
  /// Posted events stay invisible until drain_posted() — called at an
  /// epoch barrier — folds them in with fresh local seqs in (when, poster,
  /// order) order, a total order independent of host-thread interleaving:
  /// `poster` is the posting context (source node) and `order` a counter
  /// that context owns.
  void post(TimePs when, NodeId poster, std::uint64_t order, Callback fn);

  /// Folds posted events into the queue (single-threaded phases only).
  /// Returns the number of events adopted.
  std::size_t drain_posted();

  /// Total events fired since construction.
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

  /// Attaches the flight recorder. Dispatch instants go to Cat::kQueue
  /// (off by default: one record per event). May be null.
  void set_tracer(trace::Tracer* tracer) { trace_.tracer = tracer; }

 private:
  struct Key {
    TimePs time;
    std::uint64_t seq;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  struct Posted {
    TimePs when;
    NodeId poster;
    std::uint64_t order;
    Callback fn;
  };

  TimePs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::map<Key, Callback> events_;
  trace::Site trace_{.cat = trace::Cat::kQueue};

  std::mutex post_mutex_;
  std::vector<Posted> posted_;
};

}  // namespace dqemu::sim
