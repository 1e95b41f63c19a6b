// ablation_parallel_sim — host threads vs wall clock, virtual time fixed.
//
// The conservative-window scheduler (DESIGN.md §16) partitions the event
// queue per simulated node and runs windows of modeled-latency width on a
// host thread pool. Its contract is asymmetric: virtual-time observables
// (sim_seconds, guest_insns, guest results, latency quantiles) must be
// byte-identical at every host thread count, while wall clock should drop
// as host threads are added. This bench sweeps host threads x node counts
// over the workloads that exercise the scheduler differently:
//
//   * memwalk (2 and 4 slave nodes, one page-disjoint walker per node) —
//     embarrassingly node-parallel DSM streaming, the scheduler's best
//     case and the acceptance scenario for the >= 2x @ 4-thread gate;
//   * mutex_stress private (4 nodes) — intra-node locking, moderate
//     cross-node traffic;
//   * the serving plane (2 and 4 slaves, open-loop Poisson) — master-heavy
//     arrival plumbing plus slave worker pools.
//
// The binary hard-gates the identity half itself: any virtual-time field
// that differs across host thread counts is a FATAL. The speedup half is
// recorded into the JSON together with per-scenario floors
// ("speedup_floor"), which tools/bench_compare.py --gate-parallel enforces
// — floors carry margin (and shrink in quick mode) because wall clock
// jitters on shared CI runners while virtual time does not.
//
// Results land in BENCH_parallel.json (or argv[1]); two runs of the same
// build must produce identical virtual-time numbers (tools/bench_compare.py
// gates this in CI). DQEMU_BENCH_QUICK=1 shrinks the workloads ~8x.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/parallel.hpp"
#include "workloads/micro.hpp"
#include "workloads/serve.hpp"

namespace dqemu::bench {
namespace {

struct Scenario {
  std::string name;  ///< group name; samples append "_htN"
  isa::Program program;
  ClusterConfig config;
  /// Wall-clock floors gated by bench_compare.py --gate-parallel
  /// (serial wall / this-thread-count wall must be >= floor).
  double floor_ht2 = 0.0;
  double floor_ht4 = 0.0;
};

struct Sample {
  std::string group;
  std::uint32_t host_threads = 1;
  std::uint32_t slaves = 0;
  std::uint64_t guest_insns = 0;
  double wall_seconds = 0.0;
  double guest_mips = 0.0;
  double sim_seconds = 0.0;
  bool serving = false;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::string guest_stdout;
  std::uint32_t exit_code = 0;
};

Sample measure(const Scenario& s, std::uint32_t host_threads) {
  ClusterConfig config = s.config;
  config.sim.host_threads = host_threads;
  const BenchRun run = run_cluster(config, s.program);
  must_ok(run, s.name.c_str());
  Sample out;
  out.group = s.name;
  out.host_threads = host_threads;
  out.slaves = config.slave_nodes;
  out.guest_insns = run.result.guest_insns;
  out.wall_seconds = run.wall_seconds;
  out.guest_mips =
      static_cast<double>(run.result.guest_insns) / run.wall_seconds / 1e6;
  out.sim_seconds = run.sim_seconds();
  out.guest_stdout = run.result.guest_stdout;
  out.exit_code = run.result.exit_code;
  if (const LogHistogram* lat = run.stats.find_histogram("serve.latency_ns");
      lat != nullptr && !lat->empty()) {
    out.serving = true;
    out.throughput_rps = out.sim_seconds > 0
                             ? static_cast<double>(run.stats.get(
                                   "serve.retired")) / out.sim_seconds
                             : 0.0;
    out.p50_ms = static_cast<double>(lat->quantile(0.5)) / 1e6;
    out.p99_ms = static_cast<double>(lat->quantile(0.99)) / 1e6;
  }
  return out;
}

/// The identity half of the scheduler's contract: everything virtual must
/// be byte-identical to the serial (host_threads == 1) run.
bool identical_virtual_time(const Sample& base, const Sample& s) {
  return s.guest_insns == base.guest_insns &&
         s.sim_seconds == base.sim_seconds &&
         s.exit_code == base.exit_code &&
         s.guest_stdout == base.guest_stdout &&
         s.serving == base.serving && s.throughput_rps == base.throughput_rps &&
         s.p50_ms == base.p50_ms && s.p99_ms == base.p99_ms;
}

}  // namespace
}  // namespace dqemu::bench

int main(int argc, char** argv) {
  using namespace dqemu;
  using namespace dqemu::bench;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  print_header("ablation_parallel_sim — host threads vs wall clock",
               "conservative-window parallel scheduler (DESIGN.md §16)");
  const bool quick = quick_mode();

  // A speedup floor is only meaningful when the host can physically run
  // that many threads: on a 1-core container the sweep still proves the
  // identity half (virtual time must not move), but every wall-clock floor
  // is waived (0.0) and the JSON records host_cores so a reader knows why.
  const unsigned host_cores = std::thread::hardware_concurrency();

  // Floors tolerate host-time jitter: the committed full-size run must
  // clear the acceptance bar (2x on the 4-node memwalk at 4 threads) with
  // margin, while quick CI runs on noisy shared runners only have to show
  // the scheduler is not a slowdown.
  const double memwalk4_floor_ht4 =
      host_cores >= 4 ? (quick ? 1.25 : 2.0) : 0.0;
  const double modest = host_cores >= 4 ? (quick ? 0.85 : 1.02) : 0.0;
  if (host_cores < 4) {
    std::printf("note: host has %u core(s); wall-clock speedup floors are"
                " waived (identity gates still apply)\n", host_cores);
  }

  std::vector<Scenario> scenarios;
  // One page-disjoint walker per slave node; each slice is a page multiple
  // so the walkers never share a page and every node streams from the
  // master independently — maximum node-level parallelism for the windows
  // to exploit.
  const std::uint32_t slice = scaled(4u << 20, 2);
  {
    Scenario s;
    s.name = "memwalk_4node";
    s.program = must_program(
        workloads::memwalk(4 * slice, 3, /*touch_first=*/true, /*workers=*/4),
        "memwalk 4 workers");
    s.config = paper_config(4);
    s.floor_ht2 = host_cores >= 2 ? (quick ? 1.0 : 1.4) : 0.0;
    s.floor_ht4 = memwalk4_floor_ht4;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "memwalk_2node";
    s.program = must_program(
        workloads::memwalk(2 * slice, 3, /*touch_first=*/true, /*workers=*/2),
        "memwalk 2 workers");
    s.config = paper_config(2);
    s.floor_ht2 = host_cores >= 2 ? (quick ? 0.95 : 1.3) : 0.0;
    s.floor_ht4 = host_cores >= 4 ? (quick ? 0.95 : 1.3) : 0.0;  // 3 queues
    scenarios.push_back(std::move(s));
  }
  {
    // Private locks: each worker spins on its own page, so the slaves run
    // near-independently and the master only sees clone/exit traffic.
    Scenario s;
    s.name = "mutex_private_4node";
    s.program = must_program(
        workloads::mutex_stress(8, scaled(40'000), /*global=*/false),
        "mutex_stress private");
    s.config = paper_config(4);
    s.floor_ht2 = modest;
    s.floor_ht4 = modest;
    scenarios.push_back(std::move(s));
  }
  {
    workloads::ServePoolParams pool;
    pool.workers = 16;
    const auto program = must_program(workloads::serve_pool(pool),
                                      "serve_pool");
    for (const std::uint32_t slaves : {2u, 4u}) {
      Scenario s;
      s.name = "serve_s" + std::to_string(slaves);
      s.program = program;
      s.config = paper_config(slaves);
      s.config.serve.enabled = true;
      s.config.serve.requests = scaled(16'000);
      s.config.serve.rate = 8000.0;
      s.config.serve.workers = pool.workers;
      s.floor_ht2 = modest;
      s.floor_ht4 = modest;
      scenarios.push_back(std::move(s));
    }
  }

  const std::uint32_t thread_counts[] = {1, 2, 4};
  std::vector<Sample> samples;
  std::printf("%-22s %4s %12s %12s %10s %9s %9s\n", "scenario", "ht", "insns",
              "sim s", "wall s", "mips", "speedup");
  for (const Scenario& s : scenarios) {
    Sample base;
    for (const std::uint32_t ht : thread_counts) {
      const Sample sample = measure(s, ht);
      if (ht == 1) base = sample;
      const double speedup = sample.wall_seconds > 0
                                 ? base.wall_seconds / sample.wall_seconds
                                 : 0.0;
      std::printf("%-22s %4u %12llu %12.6f %10.6f %9.2f %8.2fx\n",
                  s.name.c_str(), ht,
                  static_cast<unsigned long long>(sample.guest_insns),
                  sample.sim_seconds, sample.wall_seconds, sample.guest_mips,
                  speedup);
      // The non-negotiable half: the host thread count must be invisible
      // in virtual time. Fail immediately, not via the compare tool.
      if (!identical_virtual_time(base, sample)) {
        std::fprintf(stderr,
                     "FATAL: %s: host_threads=%u diverges from the serial"
                     " run in virtual time (insns %llu vs %llu, sim %.9f vs"
                     " %.9f, exit %u vs %u)\n",
                     s.name.c_str(), ht,
                     static_cast<unsigned long long>(sample.guest_insns),
                     static_cast<unsigned long long>(base.guest_insns),
                     sample.sim_seconds, base.sim_seconds, sample.exit_code,
                     base.exit_code);
        return 1;
      }
      samples.push_back(sample);
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_parallel_sim\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    // "fastpath" is the cross-bench comparison key of bench_compare.py;
    // the thread count is part of the name, so it is always true here.
    // "group"/"host_threads" drive the --gate-parallel within-file check.
    std::fprintf(f,
                 "    {\"name\": \"%s_ht%u\", \"fastpath\": true, "
                 "\"group\": \"%s\", \"host_threads\": %u, \"slaves\": %u, "
                 "\"guest_insns\": %llu, \"wall_seconds\": %.6f, "
                 "\"guest_mips\": %.2f, \"sim_seconds\": %.6f",
                 s.group.c_str(), s.host_threads, s.group.c_str(),
                 s.host_threads, s.slaves,
                 static_cast<unsigned long long>(s.guest_insns),
                 s.wall_seconds, s.guest_mips, s.sim_seconds);
    if (s.serving) {
      std::fprintf(f,
                   ", \"throughput_rps\": %.1f, \"p50_ms\": %.6f, "
                   "\"p99_ms\": %.6f",
                   s.throughput_rps, s.p50_ms, s.p99_ms);
    }
    std::fprintf(f, "}%s\n", i + 1 < samples.size() ? "," : "");
  }
  // Wall-clock floors for --gate-parallel: serial wall / ht-N wall must
  // be >= floor for every group that declares one.
  std::fprintf(f, "  ],\n  \"speedup_floor\": {\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    std::fprintf(f, "    \"%s\": {\"ht2\": %.2f, \"ht4\": %.2f}%s\n",
                 s.name.c_str(), s.floor_ht2, s.floor_ht4,
                 i + 1 < scenarios.size() ? "," : "");
  }
  // Measured speedups, for the record (and EXPERIMENTS.md).
  std::fprintf(f, "  },\n  \"speedup\": {\n");
  const std::size_t levels = sizeof(thread_counts) / sizeof(thread_counts[0]);
  for (std::size_t i = 0; i < samples.size(); i += levels) {
    for (std::size_t j = 1; j < levels; ++j) {
      const Sample& base = samples[i];
      const Sample& par = samples[i + j];
      const bool last = i + levels >= samples.size() && j + 1 == levels;
      std::fprintf(f, "    \"%s_ht%u\": %.3f%s\n", par.group.c_str(),
                   par.host_threads, base.wall_seconds / par.wall_seconds,
                   last ? "" : ",");
    }
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
