// ablation_faults — the cluster under a deterministic lossy wire.
//
// The fault-injection plane (DESIGN.md §13) drops, duplicates and delays
// wire messages from a seeded counter-based PRNG while the reliable channel
// under Network::send retransmits and deduplicates. This bench sweeps the
// drop rate over the contended workloads and reports what the faults cost
// in virtual time and what the recovery machinery did.
//
// The acceptance gates: guest results (exit code and stdout) at every loss
// level must be byte-identical to the clean run — a lost wakeup or a
// mis-sequenced page grant shows up here as a wrong checksum; the lossy
// runs must actually drop and retransmit something; and the virtual-time
// inflation at <= 5% loss must stay under 3x.
//
// Results land in BENCH_faults.json (or argv[1]); every number is virtual
// time, so CI re-records the committed copy with tools/regenerate_bench.sh
// and fails on any difference. DQEMU_BENCH_QUICK=1 shrinks the workloads
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
  double drop_pct = 0.0;
  std::uint64_t guest_insns = 0;
  double sim_seconds = 0.0;
  TimePs sim_ps = 0;  ///< exact virtual time (RunResult::sim_time)
  std::uint64_t dropped = 0;
  std::uint64_t retrans = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t dsm_timeouts = 0;
  std::string guest_stdout;
  std::uint32_t exit_code = 0;
};

Sample measure(const Scenario& s, double drop_pct) {
  ClusterConfig config = s.config;
  if (drop_pct > 0.0) {
    config.faults.enabled = true;
    config.faults.drop_pct = drop_pct;
    config.faults.dup_pct = 1.0;
    config.faults.jitter_pct = 5.0;
  }
  const BenchRun run = run_cluster(config, s.program);
  must_ok(run, s.name.c_str());
  Sample out;
  out.scenario = s.name;
  out.drop_pct = drop_pct;
  out.guest_insns = run.result.guest_insns;
  out.sim_seconds = run.sim_seconds();
  out.sim_ps = run.result.sim_time;
  out.dropped = run.stats.get("net.dropped");
  out.retrans = run.stats.get("net.retrans");
  out.dup_suppressed = run.stats.get("net.dup_suppressed");
  out.dsm_timeouts = run.stats.get("dsm.timeouts");
  out.guest_stdout = run.result.guest_stdout;
  out.exit_code = run.result.exit_code;
  return out;
}

}  // namespace
}  // namespace dqemu::bench

int main(int argc, char** argv) {
  using namespace dqemu;
  using namespace dqemu::bench;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_faults.json";
  print_header("ablation_faults — loss sweep under the reliable channel",
               "fault tolerance of the distributed protocols (DESIGN.md §13)");

  const auto mutex_prog = must_program(
      workloads::mutex_stress(32, scaled(10'000, 4), /*global=*/true),
      "mutex_stress global");
  const auto fs_prog = must_program(
      workloads::false_sharing_walk(8, 512, scaled(800), 4),
      "false_sharing_walk");
  const auto memwalk_prog = must_program(
      workloads::memwalk(scaled(2u << 20), 2, /*touch_first=*/true),
      "memwalk");

  std::vector<Scenario> scenarios;
  {
    // Fig6 worst case: every lock handoff and counter-page migration is
    // wire traffic a drop can stall — the hardest test of no-lost-wakeup.
    Scenario s;
    s.name = "mutex_global_2slaves";
    s.program = mutex_prog;
    s.config = paper_config(2);
    s.config.dbt.quantum_insns = 500;
    scenarios.push_back(std::move(s));
  }
  {
    // Table 1 false sharing: a steady stream of page grants and writebacks
    // in both directions; drops hit data-carrying messages.
    Scenario s;
    s.name = "false_sharing_2slaves";
    s.program = fs_prog;
    s.config = paper_config(2);
    s.config.dbt.quantum_insns = 500;
    scenarios.push_back(std::move(s));
  }
  {
    // Sequential read streaming: long page-fault chains where a dropped
    // grant blocks the one running thread until retransmission.
    Scenario s;
    s.name = "memwalk_2slaves";
    s.program = memwalk_prog;
    s.config = paper_config(2);
    scenarios.push_back(std::move(s));
  }

  const double losses[] = {0.0, 1.0, 2.0, 5.0};
  std::vector<Sample> samples;
  std::printf("%-24s %6s %12s %12s %9s %9s %9s\n", "scenario", "loss%",
              "insns", "sim s", "dropped", "retrans", "inflate");
  bool ok = true;
  for (const Scenario& s : scenarios) {
    Sample clean;
    for (const double loss : losses) {
      const Sample sample = measure(s, loss);
      if (loss == 0.0) clean = sample;
      const double inflation = sample.sim_seconds / clean.sim_seconds;
      std::printf("%-24s %6.1f %12llu %12.6f %9llu %9llu %8.2fx\n",
                  sample.scenario.c_str(), loss,
                  static_cast<unsigned long long>(sample.guest_insns),
                  sample.sim_seconds,
                  static_cast<unsigned long long>(sample.dropped),
                  static_cast<unsigned long long>(sample.retrans), inflation);
      // Gate 1: the guest must never see the lossy wire.
      if (sample.exit_code != clean.exit_code ||
          sample.guest_stdout != clean.guest_stdout) {
        std::fprintf(stderr,
                     "FATAL: %s @ %.1f%% loss: guest results diverge from"
                     " the clean run\n",
                     s.name.c_str(), loss);
        return 1;
      }
      // Gate 2: recovery must be cheap — under 3x virtual time at <=5%.
      if (inflation >= 3.0) {
        std::fprintf(stderr,
                     "FATAL: %s @ %.1f%% loss: virtual time inflated %.2fx"
                     " (>= 3x)\n",
                     s.name.c_str(), loss, inflation);
        ok = false;
      }
      // Gate 3: every drop must be answered by a retransmission.
      if (sample.dropped > 0 && sample.retrans == 0) {
        std::fprintf(stderr,
                     "FATAL: %s @ %.1f%% loss: %llu drops but no"
                     " retransmissions\n",
                     s.name.c_str(), loss,
                     static_cast<unsigned long long>(sample.dropped));
        ok = false;
      }
      samples.push_back(sample);
    }
    // Gate 4: the sweep's top loss level must actually exercise recovery.
    if (samples.back().dropped == 0 || samples.back().retrans == 0) {
      std::fprintf(stderr,
                   "FATAL: %s: 5%% loss dropped nothing — the sweep is"
                   " vacuous\n",
                   s.name.c_str());
      ok = false;
    }
  }
  if (!ok) return 1;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_faults\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"name\": \"%s_loss%g\", \"drop_pct\": %g, "
                 "\"guest_insns\": %llu, \"sim_seconds\": %.6f, "
                 "\"sim_ps\": %llu, \"dropped\": %llu, \"retrans\": %llu, "
                 "\"dup_suppressed\": %llu, \"dsm_timeouts\": %llu}%s\n",
                 s.scenario.c_str(), s.drop_pct, s.drop_pct,
                 static_cast<unsigned long long>(s.guest_insns),
                 s.sim_seconds, static_cast<unsigned long long>(s.sim_ps),
                 static_cast<unsigned long long>(s.dropped),
                 static_cast<unsigned long long>(s.retrans),
                 static_cast<unsigned long long>(s.dup_suppressed),
                 static_cast<unsigned long long>(s.dsm_timeouts),
                 i + 1 < samples.size() ? "," : "");
  }
  // Virtual-time inflation per lossy scenario relative to its clean run
  // (each scenario contributes len(losses) adjacent samples, clean first).
  std::fprintf(f, "  ],\n  \"inflation\": {\n");
  const std::size_t levels = sizeof(losses) / sizeof(losses[0]);
  for (std::size_t i = 0; i < samples.size(); i += levels) {
    for (std::size_t j = 1; j < levels; ++j) {
      const Sample& clean = samples[i];
      const Sample& lossy = samples[i + j];
      const bool last = i + levels >= samples.size() && j + 1 == levels;
      std::fprintf(f, "    \"%s_loss%g\": %.3f%s\n", lossy.scenario.c_str(),
                   lossy.drop_pct, lossy.sim_seconds / clean.sim_seconds,
                   last ? "" : ",");
    }
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
