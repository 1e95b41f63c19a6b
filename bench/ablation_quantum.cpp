// Ablation — scheduling quantum (DESIGN.md design choice #1).
//
// The simulator interleaves guest threads at quantum granularity. This
// sweep shows the tradeoff on a contended workload (global-lock mutex
// stress): small quanta model fine-grained interleaving (more faithful
// lock handoffs, more scheduler events), large quanta batch execution.
// Simulated time should be fairly stable across 2-3 orders of magnitude —
// evidence the results are not an artifact of the default (20000).
#include "bench_util.hpp"
#include "workloads/micro.hpp"

using namespace dqemu;
using namespace dqemu::bench;

int main() {
  print_header("Ablation: execution quantum (insns per scheduling slice)",
               "DESIGN.md: determinism/granularity tradeoff");

  const auto contended = must_program(
      workloads::mutex_stress(32, scaled(1000), /*global=*/true), "mutex");
  const auto parallel = must_program(
      workloads::pi_taylor(32, scaled(200), 1000), "pi");

  std::printf("%-10s %18s %18s\n", "quantum", "mutex_sim_s", "pi_sim_s");
  for (const std::uint32_t quantum : {500u, 2000u, 20000u, 100000u}) {
    ClusterConfig config = paper_config(4);
    config.dbt.quantum_insns = quantum;
    BenchRun m = run_cluster(config, contended);
    must_ok(m, "quantum mutex");
    BenchRun p = run_cluster(config, parallel);
    must_ok(p, "quantum pi");
    std::printf("%-10u %18.4f %18.4f\n", quantum, m.sim_seconds(),
                p.sim_seconds());
  }
  return 0;
}
