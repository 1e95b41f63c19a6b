// Shared helpers for DQEMU tests.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/cluster.hpp"
#include "dbt/llsc_table.hpp"
#include "dbt/translation.hpp"
#include "dsm/placement.hpp"
#include "isa/assembler.hpp"
#include "isa/program.hpp"
#include "mem/address_space.hpp"

namespace dqemu::test {

/// Finalizes `a` or fails the current test.
inline isa::Program must_finalize(isa::Assembler& a) {
  auto result = a.finalize();
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? result.take() : isa::Program{};
}

/// 64 MiB guest config. The size is kept because pinned results (the
/// PaperBaseline rows, the determinism digests) were recorded with it: the
/// shadow pool sits at the top of the guest space. Construction speed no
/// longer depends on it, since a directory costs the pages it touches.
inline ClusterConfig test_config(std::uint32_t slave_nodes) {
  ClusterConfig config;
  config.slave_nodes = slave_nodes;
  config.guest_mem_bytes = 64u * 1024 * 1024;
  return config;
}

inline ClusterConfig baseline_config() {
  ClusterConfig config;
  config.single_node_baseline = true;
  config.slave_nodes = 0;
  config.guest_mem_bytes = 64u * 1024 * 1024;
  return config;
}

/// What a DsmClient borrows from its node, for a test that builds a bare
/// client: an empty LL/SC table, a translation cache over the client's
/// `space` and a single-master placement view. Must outlive the client.
struct ClientDeps {
  ClientDeps(const mem::AddressSpace& space, StatsRegistry& stats)
      : llsc(stats), tcache(space, DbtConfig{}, stats) {}

  dbt::LlscTable llsc;
  dbt::TranslationCache tcache;
  dsm::HomeView homes;
};

struct RunOutcome {
  core::Cluster::RunResult result;
  std::string error;
  bool ok = false;
};

/// Loads and runs `program` on a fresh cluster with `config`.
inline RunOutcome run_program(const ClusterConfig& config,
                              const isa::Program& program,
                              core::Cluster::RunLimits limits = {}) {
  core::Cluster cluster(config);
  RunOutcome outcome;
  const Status load_status = cluster.load(program);
  if (!load_status.is_ok()) {
    outcome.error = load_status.to_string();
    return outcome;
  }
  auto run = cluster.run(limits);
  if (!run.is_ok()) {
    outcome.error = run.status().to_string();
    return outcome;
  }
  outcome.result = run.take();
  outcome.ok = true;
  return outcome;
}

}  // namespace dqemu::test
