// ablation_locking — hierarchical distributed locking on/off.
//
// The fig6 global-mutex scenario is the worst case of the PR-0 futex
// design: every FUTEX_WAIT/WAKE of 32 threads funnels through the master,
// so lock handoff costs a full delegation round trip no matter where the
// waiter lives. Hierarchical locking (DESIGN.md section 11) leases the
// futex queue to the contending node's lock agent; this bench sweeps the
// cluster size with the optimization on and off and reports the
// virtual-time (sim_seconds) speedup per point.
//
// Guest results must be identical in both modes — the run aborts if the
// exit code, stdout, or retired-instruction count diverge (a lost wakeup
// would show up here as a deadlock or a different interleaving count).
//
// Results land in BENCH_locking.json (or argv[1]); tools/regenerate_bench.sh
// re-records the committed copy. DQEMU_BENCH_QUICK=1 shrinks the workloads
// ~8x.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/micro.hpp"

namespace dqemu::bench {
namespace {

struct Scenario {
  std::string name;
  isa::Program program;
  ClusterConfig config;
};

struct Sample {
  std::string scenario;
  bool hier = false;
  std::uint64_t guest_insns = 0;
  double sim_seconds = 0.0;
  TimePs sim_ps = 0;  ///< exact virtual time (RunResult::sim_time)
  std::string guest_stdout;
  std::uint32_t exit_code = 0;
};

Sample measure(const Scenario& s, bool hier) {
  ClusterConfig config = s.config;
  config.sys.enable_hierarchical_locking = hier;
  const BenchRun run = run_cluster(config, s.program);
  must_ok(run, s.name.c_str());
  Sample out;
  out.scenario = s.name;
  out.hier = hier;
  out.guest_insns = run.result.guest_insns;
  out.sim_seconds = run.sim_seconds();
  out.sim_ps = run.result.sim_time;
  out.guest_stdout = run.result.guest_stdout;
  out.exit_code = run.result.exit_code;
  return out;
}

}  // namespace
}  // namespace dqemu::bench

int main(int argc, char** argv) {
  using namespace dqemu;
  using namespace dqemu::bench;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_locking.json";
  print_header("ablation_locking — hierarchical locking on/off",
               "section 5 lock optimization against the fig6 mutex series");

  const std::uint32_t threads = 32;
  const auto global_prog = must_program(
      workloads::mutex_stress(threads, scaled(20'000, 4), /*global=*/true),
      "mutex_stress global");
  const auto private_prog = must_program(
      workloads::mutex_stress(threads, scaled(20'000), /*global=*/false),
      "mutex_stress private");

  std::vector<Scenario> scenarios;
  for (const std::uint32_t slaves : {1u, 2u, 4u, 6u}) {
    Scenario s;
    s.name = "global_" + std::to_string(slaves) + "slaves";
    s.program = global_prog;
    s.config = paper_config(slaves);
    s.config.dbt.quantum_insns = 500;  // match fig6_mutex: contended regime
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "private_6slaves";
    s.program = private_prog;
    s.config = paper_config(6);
    s.config.dbt.quantum_insns = 500;
    scenarios.push_back(std::move(s));
  }

  std::vector<Sample> samples;
  std::printf("%-18s %6s %12s %12s\n", "scenario", "hier", "insns",
              "sim s");
  for (const Scenario& s : scenarios) {
    for (const bool hier : {true, false}) {
      const Sample sample = measure(s, hier);
      std::printf("%-18s %6s %12llu %12.6f\n", sample.scenario.c_str(),
                  sample.hier ? "on" : "off",
                  static_cast<unsigned long long>(sample.guest_insns),
                  sample.sim_seconds);
      samples.push_back(sample);
    }
    // Guest-visible behaviour must not change: same exit code and output.
    // (Retired-instruction counts legitimately differ — faster lock
    // handoff changes how long the guest's LL/SC spin loops run, exactly
    // as the DSM optimizations do.)
    const Sample& on = samples[samples.size() - 2];
    const Sample& off = samples.back();
    if (on.exit_code != off.exit_code ||
        on.guest_stdout != off.guest_stdout) {
      std::fprintf(stderr,
                   "FATAL: %s: guest results diverge between locking modes\n",
                   s.name.c_str());
      return 1;
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_locking\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"hier\": %s, \"guest_insns\": "
                 "%llu, \"sim_seconds\": %.6f, \"sim_ps\": %llu}%s\n",
                 s.scenario.c_str(), s.hier ? "true" : "false",
                 static_cast<unsigned long long>(s.guest_insns), s.sim_seconds,
                 static_cast<unsigned long long>(s.sim_ps),
                 i + 1 < samples.size() ? "," : "");
  }
  // Virtual-time speedup of hierarchical locking per scenario (pairs are
  // adjacent: on first, then off; speedup = off / on).
  std::fprintf(f, "  ],\n  \"speedups\": {\n");
  for (std::size_t i = 0; i + 1 < samples.size(); i += 2) {
    const double ratio = samples[i + 1].sim_seconds / samples[i].sim_seconds;
    std::fprintf(f, "    \"%s\": %.3f%s\n", samples[i].scenario.c_str(),
                 ratio, i + 2 < samples.size() ? "," : "");
    std::printf("%-18s hierarchical-locking sim speedup: %.2fx\n",
                samples[i].scenario.c_str(), ratio);
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
