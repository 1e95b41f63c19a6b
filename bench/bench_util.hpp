// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the DQEMU paper:
// it runs guest programs on simulated clusters, prints the same rows or
// series the paper reports, and cites the paper's values next to the
// measured ones. Absolute numbers differ (our substrate is a calibrated
// simulator, not the authors' testbed); the *shape* is the claim.
//
// Set DQEMU_BENCH_QUICK=1 to scale workloads down ~8x for smoke runs.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/config.hpp"
#include "core/cluster.hpp"
#include "isa/program.hpp"

namespace dqemu::bench {

/// True when the environment requests a reduced-size run.
inline bool quick_mode() {
  const char* env = std::getenv("DQEMU_BENCH_QUICK");
  return env != nullptr && env[0] != '0';
}

/// Scales a workload parameter down in quick mode.
inline std::uint32_t scaled(std::uint32_t full, std::uint32_t divisor = 8) {
  return quick_mode() ? std::max(1u, full / divisor) : full;
}

struct BenchRun {
  core::Cluster::RunResult result;
  StatsRegistry stats;        ///< snapshot of the cluster's counters
  /// Host time of one run. Only ablation_parallel_sim reports it; every
  /// other bench prints and writes virtual time only.
  double wall_seconds = 0.0;
  bool ok = false;
  std::string error;

  [[nodiscard]] double sim_seconds() const {
    return ps_to_seconds(result.sim_time);
  }
  /// Longest worker-thread lifetime (excludes the main thread): the
  /// steady-state denominator for bandwidth-style metrics.
  [[nodiscard]] double max_worker_seconds() const {
    DurationPs best = 0;
    for (const auto& [tid, breakdown] : result.per_thread) {
      if (tid == 1) continue;  // main
      best = std::max(best, breakdown.total());
    }
    return ps_to_seconds(best);
  }
};

/// Loads and runs `program` on a cluster built from `config`.
inline BenchRun run_cluster(const ClusterConfig& config,
                            const isa::Program& program) {
  BenchRun out;
  core::Cluster cluster(config);
  const Status load_status = cluster.load(program);
  if (!load_status.is_ok()) {
    out.error = load_status.to_string();
    return out;
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto run = cluster.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (!run.is_ok()) {
    out.error = run.status().to_string();
    return out;
  }
  out.result = run.take();
  out.stats = cluster.stats();
  out.ok = true;
  return out;
}

/// The paper's testbed configuration (section 6.1) with `slaves` slave
/// nodes; pass slaves = 0 for the QEMU single-node baseline.
inline ClusterConfig paper_config(std::uint32_t slaves) {
  ClusterConfig config;
  if (slaves == 0) {
    config.single_node_baseline = true;
    config.slave_nodes = 0;
  } else {
    config.slave_nodes = slaves;
  }
  return config;
}

/// Unwraps a workload-generator result or aborts the bench.
inline isa::Program must_program(Result<isa::Program> r, const char* what) {
  if (!r.is_ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, r.status().to_string().c_str());
    std::exit(1);
  }
  return r.take();
}

/// Aborts the bench on a failed run.
inline void must_ok(const BenchRun& run, const char* what) {
  if (!run.ok) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, run.error.c_str());
    std::exit(1);
  }
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  if (quick_mode()) std::printf("(DQEMU_BENCH_QUICK: reduced workload sizes)\n");
  std::printf("==========================================================\n");
}

}  // namespace dqemu::bench
