#include "net/fault/fault_injector.hpp"

#include "common/hash.hpp"
#include "common/log.hpp"

namespace dqemu::net {
namespace {

/// Uniform draw in [0, 1) from the next SplitMix64 output (53-bit mantissa).
double uniform(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// True with probability pct/100. Skips the draw entirely for pct <= 0 —
/// the draw count then depends only on the (fixed) configuration, so the
/// stream still replays identically run-to-run.
bool chance(std::uint64_t& state, double pct) {
  if (pct <= 0.0) return false;
  return uniform(state) * 100.0 < pct;
}

/// Uniform duration in [0, max].
DurationPs draw_delay(std::uint64_t& state, DurationPs max) {
  if (max == 0) return 0;
  return static_cast<DurationPs>(uniform(state) *
                                 static_cast<double>(max + 1));
}

}  // namespace

FaultInjector::FaultInjector(const FaultConfig& config,
                             std::uint32_t node_count)
    : config_(config),
      node_count_(node_count),
      link_tx_(static_cast<std::size_t>(node_count) * node_count, 0),
      rule_matches_(config.rules.size() * static_cast<std::size_t>(node_count) *
                        node_count,
                    0) {}

WireFate FaultInjector::decide(const Message& msg) {
  DQEMU_CHECK(msg.src < node_count_ && msg.dst < node_count_,
              "fault: transmission with out-of-range endpoint %u->%u "
              "(injector sized for %u nodes)",
              unsigned(msg.src), unsigned(msg.dst), node_count_);
  const std::size_t link = link_index(msg.src, msg.dst);
  // Key the decision stream by (seed, link, link transmission number) only:
  // the fate of a transmission never depends on earlier fates, nor on how
  // transmissions on other links interleave with this one.
  const std::uint64_t n = ++link_tx_[link];
  transmissions_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t link_key = (static_cast<std::uint64_t>(msg.src) << 32) |
                           msg.dst;
  std::uint64_t state =
      (config_.seed ^ splitmix64(link_key)) + n * 0x9E3779B97F4A7C15ull;

  double drop = config_.drop_pct;
  double dup = config_.dup_pct;
  double jitter = config_.jitter_pct;
  double reorder = config_.reorder_pct;
  for (std::size_t i = 0; i < config_.rules.size(); ++i) {
    const FaultConfig::Rule& rule = config_.rules[i];
    std::uint32_t& matched =
        rule_matches_[i * static_cast<std::size_t>(node_count_) * node_count_ +
                      link];
    const bool matches =
        (rule.type == FaultConfig::Rule::kAny || rule.type == msg.type) &&
        (rule.src == FaultConfig::Rule::kAny || rule.src == msg.src) &&
        (rule.dst == FaultConfig::Rule::kAny || rule.dst == msg.dst) &&
        (rule.max_matches == 0 || matched < rule.max_matches);
    if (!matches) continue;
    ++matched;
    if (rule.drop_pct >= 0.0) drop = rule.drop_pct;
    if (rule.dup_pct >= 0.0) dup = rule.dup_pct;
    if (rule.jitter_pct >= 0.0) jitter = rule.jitter_pct;
    if (rule.reorder_pct >= 0.0) reorder = rule.reorder_pct;
    break;  // first matching rule wins
  }

  WireFate fate;
  if (chance(state, drop)) {
    fate.drop = true;
    return fate;  // a lost packet has no further fate to decide
  }
  fate.duplicate = chance(state, dup);
  if (chance(state, jitter)) {
    fate.extra_delay += draw_delay(state, config_.jitter_max);
  }
  if (chance(state, reorder)) {
    // Enough delay to slip behind later traffic on the same link; the
    // receive side's sequence check restores order before delivery.
    fate.extra_delay += config_.reorder_delay;
  }
  if (fate.duplicate) {
    fate.dup_extra_delay = draw_delay(state, config_.jitter_max);
  }
  return fate;
}

}  // namespace dqemu::net
