// ablation_serving — offered load vs tail latency on the serving plane.
//
// The request-serving subsystem (DESIGN.md §14) turns the cluster into a
// request-serving system: a virtual-time load generator on the master
// injects seeded arrivals, guest worker pools pull them through delegated
// syscalls, and every arrival->completion latency lands in a log-bucketed
// histogram. This bench sweeps offered load across node counts (open-loop
// Poisson), plus a closed-loop and a request-cloning scenario, and reports
// throughput with p50/p99/p999/max.
//
// Acceptance gates: every issued request must retire with a verified
// checksum; percentiles must be monotone; and the saturated sweep point
// must show a fatter tail than the underloaded one (otherwise the sweep
// never left the flat region and proves nothing).
//
// Results land in BENCH_serving.json (or argv[1]); every number, latency
// quantiles included, is virtual time, so CI re-records the committed copy
// with tools/regenerate_bench.sh and fails on any difference.
// DQEMU_BENCH_QUICK=1 shrinks the request counts ~8x.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/serve.hpp"

namespace dqemu::bench {
namespace {

constexpr std::uint32_t kWorkers = 16;

struct Sample {
  std::string name;
  std::uint32_t slaves = 0;
  double rate = 0.0;  ///< 0 for closed-loop
  std::uint32_t requests = 0;
  std::uint64_t retired = 0;
  std::uint64_t executions = 0;
  std::uint64_t clone_wasted = 0;
  std::uint64_t guest_insns = 0;
  double sim_seconds = 0.0;
  TimePs sim_ps = 0;  ///< exact virtual time (RunResult::sim_time)
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  std::uint32_t exit_code = 0;
};

Sample measure(const std::string& name, const ClusterConfig& config,
               const isa::Program& program) {
  const BenchRun run = run_cluster(config, program);
  must_ok(run, name.c_str());
  Sample out;
  out.name = name;
  out.slaves = config.slave_nodes;
  out.rate = config.serve.arrival == ArrivalProcess::kClosed
                 ? 0.0
                 : config.serve.rate;
  out.requests = config.serve.requests;
  out.retired = run.stats.get("serve.retired");
  out.executions = run.stats.get("serve.executions");
  out.clone_wasted = run.stats.get("serve.clone_wasted");
  out.guest_insns = run.result.guest_insns;
  out.sim_seconds = run.sim_seconds();
  out.sim_ps = run.result.sim_time;
  out.throughput_rps =
      out.sim_seconds > 0 ? static_cast<double>(out.retired) / out.sim_seconds
                          : 0.0;
  out.exit_code = run.result.exit_code;
  if (const LogHistogram* lat = run.stats.find_histogram("serve.latency_ns");
      lat != nullptr && !lat->empty()) {
    // Integer nanoseconds out of the histogram: the printed milliseconds
    // are bit-stable run to run, which is what the CI diff of the
    // committed file relies on.
    out.p50_ms = static_cast<double>(lat->quantile(0.5)) / 1e6;
    out.p99_ms = static_cast<double>(lat->quantile(0.99)) / 1e6;
    out.p999_ms = static_cast<double>(lat->quantile(0.999)) / 1e6;
    out.max_ms = static_cast<double>(lat->max()) / 1e6;
  }
  // Gate: the serving contract — everything issued retires, every reply
  // carried the right checksum, and the distribution is coherent.
  bool ok = out.exit_code == 0 && out.retired == out.requests &&
            run.stats.get("serve.checksum_errors") == 0;
  ok = ok && out.p50_ms <= out.p99_ms && out.p99_ms <= out.p999_ms &&
       out.p999_ms <= out.max_ms;
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: %s: retired=%llu/%u checksum_errors=%llu exit=%u "
                 "p50=%.3f p99=%.3f p999=%.3f max=%.3f\n",
                 name.c_str(), static_cast<unsigned long long>(out.retired),
                 out.requests,
                 static_cast<unsigned long long>(
                     run.stats.get("serve.checksum_errors")),
                 out.exit_code, out.p50_ms, out.p99_ms, out.p999_ms,
                 out.max_ms);
    std::exit(1);
  }
  return out;
}

}  // namespace
}  // namespace dqemu::bench

int main(int argc, char** argv) {
  using namespace dqemu;
  using namespace dqemu::bench;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  print_header("ablation_serving — offered load vs tail latency",
               "request-serving plane, open/closed loop (DESIGN.md §14)");
  const std::uint32_t requests = scaled(8000);
  workloads::ServePoolParams pool;
  pool.workers = kWorkers;
  const auto program = must_program(workloads::serve_pool(pool),
                                    "serve_pool");

  std::vector<Sample> samples;
  std::printf("%-22s %7s %8s %10s %9s %9s %9s %9s\n", "scenario", "slaves",
              "rate", "thru r/s", "p50 ms", "p99 ms", "p999 ms", "max ms");
  auto report = [&](const Sample& s) {
    std::printf("%-22s %7u %8.0f %10.1f %9.3f %9.3f %9.3f %9.3f\n",
                s.name.c_str(), s.slaves, s.rate, s.throughput_rps, s.p50_ms,
                s.p99_ms, s.p999_ms, s.max_ms);
    samples.push_back(s);
  };

  // Open-loop Poisson sweep: offered load under, near and past saturation
  // (kWorkers workers bound service capacity), across cluster sizes.
  const double rates[] = {2000.0, 8000.0, 32000.0};
  for (const std::uint32_t slaves : {1u, 2u, 4u}) {
    for (const double rate : rates) {
      ClusterConfig config = paper_config(slaves);
      config.serve.enabled = true;
      config.serve.requests = requests;
      config.serve.rate = rate;
      config.serve.workers = kWorkers;
      char name[64];
      std::snprintf(name, sizeof name, "poisson_s%u_r%.0f", slaves, rate);
      report(measure(name, config, program));
    }
  }
  // Closed loop: concurrency capped by the client population, so the tail
  // stays flat where the saturated open-loop tail blows up.
  {
    ClusterConfig config = paper_config(2);
    config.serve.enabled = true;
    config.serve.arrival = ArrivalProcess::kClosed;
    config.serve.requests = requests;
    config.serve.clients = 16;
    config.serve.think_mean = 2 * time_literals::kMs;
    config.serve.workers = kWorkers;
    report(measure("closed_s2_c16", config, program));
  }
  // Request cloning: two executions per request, first reply wins.
  {
    ClusterConfig config = paper_config(2);
    config.serve.enabled = true;
    config.serve.requests = requests;
    config.serve.rate = 4000.0;
    config.serve.clones = 2;
    config.serve.workers = kWorkers;
    report(measure("clone2_s2_r4000", config, program));
  }

  // Sweep-shape gates: saturation must actually hurt the tail, and the
  // cloning run must have burned clone executions.
  for (const std::uint32_t slaves : {1u, 2u, 4u}) {
    char low[64];
    char high[64];
    std::snprintf(low, sizeof low, "poisson_s%u_r2000", slaves);
    std::snprintf(high, sizeof high, "poisson_s%u_r32000", slaves);
    const Sample* under = nullptr;
    const Sample* over = nullptr;
    for (const Sample& s : samples) {
      if (s.name == low) under = &s;
      if (s.name == high) over = &s;
    }
    if (under == nullptr || over == nullptr ||
        over->p99_ms <= under->p99_ms) {
      std::fprintf(stderr,
                   "FATAL: slaves=%u: saturated p99 (%.3f ms) not above"
                   " underloaded p99 (%.3f ms) — the sweep never saturated\n",
                   slaves, over != nullptr ? over->p99_ms : 0.0,
                   under != nullptr ? under->p99_ms : 0.0);
      return 1;
    }
  }
  if (samples.back().clone_wasted == 0 ||
      samples.back().executions != 2ull * requests) {
    std::fprintf(stderr, "FATAL: cloning scenario ran no redundant clones\n");
    return 1;
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_serving\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"slaves\": %u, \"rate\": %g, "
                 "\"requests\": %u, \"retired\": %llu, \"executions\": %llu, "
                 "\"clone_wasted\": %llu, \"guest_insns\": %llu, "
                 "\"sim_seconds\": %.6f, \"sim_ps\": %llu, "
                 "\"throughput_rps\": %.3f, \"p50_ms\": %.6f, "
                 "\"p99_ms\": %.6f, \"p999_ms\": %.6f, \"max_ms\": %.6f}%s\n",
                 s.name.c_str(), s.slaves, s.rate, s.requests,
                 static_cast<unsigned long long>(s.retired),
                 static_cast<unsigned long long>(s.executions),
                 static_cast<unsigned long long>(s.clone_wasted),
                 static_cast<unsigned long long>(s.guest_insns), s.sim_seconds,
                 static_cast<unsigned long long>(s.sim_ps), s.throughput_rps,
                 s.p50_ms, s.p99_ms, s.p999_ms, s.max_ms,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
