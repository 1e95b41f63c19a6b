// Cooperative cluster checkpoint / restore (DESIGN.md §18).
//
// A checkpoint is a virtual-time-stamped fingerprint of the whole cluster:
// one FNV-1a digest (common/hash.hpp) per component (each node's address
// space and thread contexts, every directory shard, every futex/lease
// table, the serving plane's queues), captured at a clean cut — the simulation has finished
// every event strictly before T and started none at-or-after it, so both
// scheduler kernels capture the identical state.
//
// Restore leans on the simulator's determinism invariant instead of
// shipping state: a run is a pure function of its config, so re-executing
// the same config up to the checkpoint's virtual time reconstructs the
// state bit-for-bit — and the digest comparison at T *proves* it before
// the run continues. Replay is the same mechanism with the flight recorder
// (trace) armed. This turns the determinism claim from an asserted
// property into a checked one on every restore.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace dqemu::core {

struct CheckpointImage {
  static constexpr std::uint32_t kVersion = 1;

  TimePs virtual_time = 0;
  /// (component name, digest), sorted by name. Component names are stable
  /// across versions: "space.N", "threads.N", "dir.N", "futex.N",
  /// "serve", "insns".
  std::vector<std::pair<std::string, std::uint64_t>> digests;

  void add(std::string name, std::uint64_t digest);
  /// Canonical order (by component name); call before save / compare.
  void normalize();

  /// Component names whose digests differ (either direction; a component
  /// present on only one side counts as differing).
  [[nodiscard]] std::vector<std::string> diff(
      const CheckpointImage& other) const;

  /// Text format: `dqemu-checkpoint v1` / `time <ps>` / `digest <name>
  /// <hex>`... Returns false on I/O failure.
  [[nodiscard]] bool save(const std::string& path) const;
  /// Returns false on I/O failure or a malformed / wrong-version file.
  [[nodiscard]] bool load(const std::string& path);
};

}  // namespace dqemu::core
