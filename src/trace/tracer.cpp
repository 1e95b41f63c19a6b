#include "trace/tracer.hpp"

#include <algorithm>
#include <cassert>

namespace dqemu::trace {

thread_local Tracer* Tracer::bound_owner_ = nullptr;
thread_local Tracer::Sink* Tracer::bound_sink_ = nullptr;
thread_local std::uint64_t Tracer::bound_index_ = 0;

Tracer::Tracer(TraceConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  main_.ring.reserve(std::min<std::size_t>(config_.capacity, 1u << 16));
}

void Tracer::append(Sink& sink, const Record& r) {
  if (sink.count < config_.capacity) {
    if (sink.next >= sink.ring.size()) {
      sink.ring.push_back(r);
    } else {
      sink.ring[sink.next] = r;
    }
    ++sink.count;
  } else {
    sink.ring[sink.next] = r;
    ++sink.dropped;
  }
  sink.next = (sink.next + 1) % config_.capacity;
}

void Tracer::record(const Record& r) {
  append(bound_owner_ == this ? *bound_sink_ : main_, r);
}

void Site::record(TimePs time, const char* name, Kind kind, std::uint64_t flow,
                  std::uint64_t a, std::uint64_t b, GuestTid tid) const {
  tracer->record({.time = time,
                  .name = name,
                  .flow = flow,
                  .a = a,
                  .b = b,
                  .tid = tid,
                  .node = node,
                  .track = track,
                  .kind = kind,
                  .cat = cat});
}

std::uint64_t Tracer::new_flow() {
  if (bound_owner_ == this) {
    // Shard-local namespace: disjoint from main_'s low ids and from every
    // other shard, and clear of kAutoFlowBit (bit 63) so the network's
    // auto-flow tagging still works on shard-allocated chains.
    return ((bound_index_ + 1) << 40) | bound_sink_->next_flow++;
  }
  return main_.next_flow++;
}

void Tracer::configure_shards(std::size_t count) {
  assert(shards_.empty() && "shards already configured");
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Sink>());
  }
}

void Tracer::bind_shard(std::size_t index) {
  assert(index < shards_.size());
  bound_owner_ = this;
  bound_sink_ = shards_[index].get();
  bound_index_ = index;
}

void Tracer::unbind_shard() {
  bound_owner_ = nullptr;
  bound_sink_ = nullptr;
  bound_index_ = 0;
}

const char* Tracer::intern(std::string_view name) {
  assert(bound_owner_ != this && "intern is not shard-safe; barrier only");
  auto it = intern_index_.find(name);
  if (it != intern_index_.end()) return it->second;
  interned_.emplace_back(name);
  const char* stable = interned_.back().c_str();
  intern_index_.emplace(interned_.back(), stable);
  return stable;
}

std::vector<Record> Tracer::records() const {
  std::vector<Record> out;
  out.reserve(size());
  const auto drain = [&](const Sink& sink) {
    // Oldest record: when the ring has wrapped, it sits at next; before
    // that, at slot 0.
    const std::size_t start = (sink.count == config_.capacity) ? sink.next : 0;
    for (std::size_t i = 0; i < sink.count; ++i) {
      out.push_back(sink.ring[(start + i) % config_.capacity]);
    }
  };
  drain(main_);
  for (const auto& shard : shards_) drain(*shard);
  // Instrumentation may stamp records with scheduled (future) virtual
  // times — e.g. a manager-occupancy span is emitted when the message is
  // accepted but ends at its service-completion time. A stable sort keeps
  // exports chronological while preserving record order at equal times,
  // so identical runs still produce identical traces.
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) {
                     return a.time < b.time;
                   });
  return out;
}

std::size_t Tracer::size() const {
  std::size_t total = main_.count;
  for (const auto& shard : shards_) total += shard->count;
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = main_.dropped;
  for (const auto& shard : shards_) total += shard->dropped;
  return total;
}

std::optional<std::uint32_t> parse_categories(std::string_view list) {
  std::uint32_t mask = 0;
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    std::string_view item = list.substr(0, comma);
    list = (comma == std::string_view::npos) ? std::string_view{}
                                             : list.substr(comma + 1);
    if (item.empty()) continue;
    if (item == "all") {
      mask |= kAllCategories;
      continue;
    }
    if (item == "default") {
      mask |= kDefaultCategories;
      continue;
    }
    bool found = false;
    for (const Cat c :
         {Cat::kSim, Cat::kCore, Cat::kNet, Cat::kDsm, Cat::kSys,
          Cat::kCounter, Cat::kQueue, Cat::kServe, Cat::kDbt}) {
      if (item == cat_name(c)) {
        mask |= cat_bit(c);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return mask;
}

}  // namespace dqemu::trace
