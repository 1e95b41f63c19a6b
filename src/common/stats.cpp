#include "common/stats.hpp"

#include <cassert>
#include <sstream>

namespace dqemu {

thread_local StatsRegistry* StatsRegistry::bound_owner_ = nullptr;
thread_local StatsRegistry::Shard* StatsRegistry::bound_shard_ = nullptr;

StatsRegistry::StatsRegistry(std::size_t shards) {
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void StatsRegistry::add(std::string_view name, std::uint64_t delta) {
  auto& counters =
      bound_owner_ == this ? bound_shard_->counters : counters_;
  auto it = counters.find(name);
  if (it == counters.end()) {
    counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t StatsRegistry::get(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

bool StatsRegistry::has(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

void StatsRegistry::set(std::string_view name, std::uint64_t value) {
  assert(bound_owner_ != this && "set() is not shard-safe; barrier only");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void StatsRegistry::clear() {
  counters_.clear();
  histograms_.clear();
  for (const auto& shard : shards_) {
    shard->counters.clear();
    shard->histograms.clear();
  }
}

LogHistogram& StatsRegistry::histogram(std::string_view name) {
  auto& histograms =
      bound_owner_ == this ? bound_shard_->histograms : histograms_;
  auto it = histograms.find(name);
  if (it == histograms.end()) {
    it = histograms.emplace(std::string(name), LogHistogram{}).first;
  }
  return it->second;
}

const LogHistogram* StatsRegistry::find_histogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void StatsRegistry::bind_shard(std::size_t index) {
  assert(index < shards_.size());
  bound_owner_ = this;
  bound_shard_ = shards_[index].get();
}

void StatsRegistry::unbind_shard() {
  bound_owner_ = nullptr;
  bound_shard_ = nullptr;
}

void StatsRegistry::merge_shards() {
  assert(bound_owner_ != this);
  for (const auto& shard : shards_) {
    for (const auto& [name, value] : shard->counters) {
      add(name, value);
    }
    shard->counters.clear();
    for (const auto& [name, hist] : shard->histograms) {
      histogram(name).merge(hist);
    }
    shard->histograms.clear();
  }
}

std::string StatsRegistry::to_string() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters_) {
    out << name << " = " << value << '\n';
  }
  for (const auto& [name, hist] : histograms_) {
    out << name << " = " << hist.to_string() << '\n';
  }
  return out.str();
}

}  // namespace dqemu
