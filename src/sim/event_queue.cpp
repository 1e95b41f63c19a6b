#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <utility>

namespace dqemu::sim {

EventId EventQueue::schedule_at(TimePs when, Callback fn) {
  assert(fn && "scheduling an empty callback");
  if (when < now_) when = now_;
  const Key key{when, next_seq_++};
  events_.emplace(key, std::move(fn));
  return EventId{key.time, key.seq};
}

bool EventQueue::cancel(const EventId& id) {
  return events_.erase(Key{id.time, id.seq}) > 0;
}

bool EventQueue::run_one() {
  if (events_.empty()) return false;
  auto it = events_.begin();
  now_ = it->first.time;
  // Move the callback out before erasing: the callback may schedule or
  // cancel other events, mutating the map.
  Callback fn = std::move(it->second);
  const std::uint64_t seq = it->first.seq;
  events_.erase(it);
  ++fired_;
  trace_.emit(now_, "sim.dispatch", trace::Kind::kInstant, 0, seq,
              events_.size());
  fn();
  return true;
}

std::uint64_t EventQueue::run_until(TimePs deadline) {
  std::uint64_t count = 0;
  while (!events_.empty() && events_.begin()->first.time <= deadline) {
    run_one();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (count < max_events && run_one()) ++count;
  return count;
}

std::uint64_t EventQueue::run_window(TimePs end,
                                     const std::function<bool()>& stop) {
  std::uint64_t count = 0;
  while (!events_.empty() && events_.begin()->first.time < end) {
    run_one();
    ++count;
    if (stop && stop()) break;
  }
  return count;
}

void EventQueue::post(TimePs when, NodeId poster, std::uint64_t order,
                      Callback fn) {
  assert(fn && "posting an empty callback");
  const std::lock_guard<std::mutex> lock(post_mutex_);
  posted_.push_back(Posted{when, poster, order, std::move(fn)});
}

std::size_t EventQueue::drain_posted() {
  std::vector<Posted> batch;
  {
    const std::lock_guard<std::mutex> lock(post_mutex_);
    batch.swap(posted_);
  }
  // (when, poster, order) is unique — poster contexts own their counters —
  // so this sort is a total order no matter how the posts interleaved.
  std::sort(batch.begin(), batch.end(), [](const Posted& a, const Posted& b) {
    return std::tie(a.when, a.poster, a.order) <
           std::tie(b.when, b.poster, b.order);
  });
  for (Posted& p : batch) schedule_at(p.when, std::move(p.fn));
  return batch.size();
}

}  // namespace dqemu::sim
