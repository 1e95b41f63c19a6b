// Whole-node fault plane switch (DESIGN.md §18).
//
// Node crash / pause-and-rejoin faults extend the PR-5 lossy-wire plane to
// dead nodes. With no node fault configured node_faults_on() is false,
// every sweep/recovery path is skipped, and the wire behaves bit-for-bit
// like the lossy-links-only plane.
#pragma once

#include <cstdint>

#include "common/config.hpp"

namespace dqemu::net {

/// True when this run configures the node-fault plane. All call sites gate
/// on this so a run without node faults takes the lossy-wire-only path.
[[nodiscard]] inline bool node_faults_on(const FaultConfig& faults) {
  return faults.enabled && !faults.node_faults.empty();
}

/// Crash-plane message types (core/wire.hpp 0x310..0x31F): exempt from
/// fault injection ("reliable by fiat" — losing the recovery protocol to
/// the fault it recovers from would be circular) and from the dead-peer
/// send filter (a dying node must get its last gasp out). The injector's
/// per-link counters are not consumed for them, so every other message's
/// fault fate is unchanged by their presence.
[[nodiscard]] constexpr bool is_crash_plane(std::uint32_t type) {
  return type >= 0x310 && type <= 0x31F;
}

}  // namespace dqemu::net
