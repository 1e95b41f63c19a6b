// ablation_recovery — whole-node crash and pause-rejoin under serving load.
//
// The node-fault plane (DESIGN.md §18) extends fault injection from lossy
// links to dying nodes: a seeded crash tears a slave out of a serving
// cluster mid-run, its leases and directory homes are revoked, its guest
// threads re-home over the migration path, and the load generator re-queues
// the work the node took to its grave. This bench runs the serving workload
// through a baseline (no fault), a crash, a pause-and-rejoin, and a crash
// with the directory sharded onto the dying node, and reports what the
// recovery cost in virtual time and what the machinery did.
//
// Acceptance gates: every scenario must retire every request with a
// verified checksum (recovery is complete, not merely survived); the crash
// scenarios must actually kill a node and re-home its threads; each
// scenario run twice must produce identical virtual time (determinism
// under faults); and the virtual-time inflation over the baseline must
// stay under 2x — losing 1-of-4 nodes cannot cost more than doubling.
//
// Results land in BENCH_recovery.json (or argv[1]); tools/regenerate_bench.sh
// re-records the committed copy. DQEMU_BENCH_QUICK=1 shrinks the request
// count ~8x.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/serve.hpp"

namespace dqemu::bench {
namespace {

using time_literals::kUs;

constexpr std::uint32_t kWorkers = 16;
constexpr std::uint32_t kSlaves = 4;

struct Sample {
  std::string name;
  std::uint32_t requests = 0;
  std::uint64_t retired = 0;
  std::uint64_t checksum_errors = 0;
  std::uint64_t nodes_dead = 0;
  std::uint64_t pauses = 0;
  std::uint64_t threads_rehomed = 0;
  std::uint64_t crash_flushes = 0;
  std::uint64_t lease_returns = 0;
  std::uint64_t futex_handoffs = 0;
  std::uint64_t guest_insns = 0;
  double sim_seconds = 0.0;
  TimePs sim_ps = 0;  ///< exact virtual time (RunResult::sim_time)
  double p99_ms = 0.0;
  std::uint32_t exit_code = 0;
};

ClusterConfig serve_config() {
  ClusterConfig config = paper_config(kSlaves);
  config.serve.enabled = true;
  config.serve.requests = scaled(2000);
  config.serve.rate = 8000.0;
  config.serve.workers = kWorkers;
  return config;
}

Sample measure(const std::string& name, const ClusterConfig& config,
               const isa::Program& program) {
  const BenchRun run = run_cluster(config, program);
  must_ok(run, name.c_str());
  Sample out;
  out.name = name;
  out.requests = config.serve.requests;
  out.retired = run.stats.get("serve.retired");
  out.checksum_errors = run.stats.get("serve.checksum_errors");
  out.nodes_dead = run.stats.get("core.nodes_dead");
  out.pauses = run.stats.get("core.node_pauses");
  out.threads_rehomed = run.stats.get("core.threads_rehomed_sent");
  out.crash_flushes = run.stats.get("core.crash_flushes_sent");
  out.lease_returns = run.stats.get("sys.crash_lease_returns");
  out.futex_handoffs = run.stats.get("sys.futex_handoffs_adopted");
  out.guest_insns = run.result.guest_insns;
  out.sim_seconds = run.sim_seconds();
  out.sim_ps = run.result.sim_time;
  out.exit_code = run.result.exit_code;
  if (const LogHistogram* lat = run.stats.find_histogram("serve.latency_ns");
      lat != nullptr && !lat->empty()) {
    out.p99_ms = static_cast<double>(lat->quantile(0.99)) / 1e6;
  }
  return out;
}

}  // namespace
}  // namespace dqemu::bench

int main(int argc, char** argv) {
  using namespace dqemu;
  using namespace dqemu::bench;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_recovery.json";
  print_header("ablation_recovery — node crash / pause under serving load",
               "whole-node fault plane (DESIGN.md §18)");
  workloads::ServePoolParams pool;
  pool.workers = kWorkers;
  const auto program =
      must_program(workloads::serve_pool(pool), "serve_pool");

  struct Scenario {
    std::string name;
    ClusterConfig config;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario s;
    s.name = "baseline_4slaves";
    s.config = serve_config();
    scenarios.push_back(std::move(s));
  }
  {
    // One of four slaves dies a quarter-way into the offered load.
    Scenario s;
    s.name = "crash_1of4";
    s.config = serve_config();
    s.config.faults.enabled = true;
    FaultConfig::NodeFault nf;
    nf.kind = FaultConfig::NodeFault::Kind::kCrash;
    nf.node = 2;
    nf.at = 900 * kUs;
    s.config.faults.node_faults.push_back(nf);
    scenarios.push_back(std::move(s));
  }
  {
    // Same instant, but the node comes back: nothing is revoked, the
    // buffered work drains on rejoin.
    Scenario s;
    s.name = "pause_1of4_2ms";
    s.config = serve_config();
    s.config.faults.enabled = true;
    FaultConfig::NodeFault nf;
    nf.kind = FaultConfig::NodeFault::Kind::kPause;
    nf.node = 2;
    nf.at = 900 * kUs;
    nf.pause_for = 2000 * kUs;
    s.config.faults.node_faults.push_back(nf);
    scenarios.push_back(std::move(s));
  }
  {
    // The hardest case: the dying node hosts a directory shard and a futex
    // home, so recovery includes the shard handoff and lease revocation.
    Scenario s;
    s.name = "crash_1of4_sharded";
    s.config = serve_config();
    s.config.dsm.enable_home_sharding = true;
    s.config.dsm.home_placement = HomePlacement::kFirstTouch;
    s.config.sys.enable_hierarchical_locking = true;
    s.config.faults.enabled = true;
    FaultConfig::NodeFault nf;
    nf.kind = FaultConfig::NodeFault::Kind::kCrash;
    nf.node = 2;
    nf.at = 900 * kUs;
    s.config.faults.node_faults.push_back(nf);
    scenarios.push_back(std::move(s));
  }

  std::vector<Sample> samples;
  double baseline_sim = 0.0;
  bool ok = true;
  std::printf("%-20s %9s %9s %6s %8s %8s %10s %9s\n", "scenario", "retired",
              "requests", "dead", "rehomed", "flushes", "sim s", "inflate");
  for (const Scenario& s : scenarios) {
    const Sample sample = measure(s.name, s.config, program);
    // Determinism gate: the same seeded fault must replay bit-identically.
    const Sample again = measure(s.name, s.config, program);
    if (again.sim_seconds != sample.sim_seconds ||
        again.guest_insns != sample.guest_insns ||
        again.p99_ms != sample.p99_ms) {
      std::fprintf(stderr, "FATAL: %s: two same-seed runs diverge\n",
                   s.name.c_str());
      ok = false;
    }
    if (baseline_sim == 0.0) baseline_sim = sample.sim_seconds;
    const double inflation = sample.sim_seconds / baseline_sim;
    std::printf("%-20s %9llu %9u %6llu %8llu %8llu %10.6f %8.2fx\n",
                sample.name.c_str(),
                static_cast<unsigned long long>(sample.retired),
                sample.requests,
                static_cast<unsigned long long>(sample.nodes_dead),
                static_cast<unsigned long long>(sample.threads_rehomed),
                static_cast<unsigned long long>(sample.crash_flushes),
                sample.sim_seconds, inflation);
    // Completeness gate: recovery means every request retires verified.
    if (sample.exit_code != 0 || sample.retired != sample.requests ||
        sample.checksum_errors != 0) {
      std::fprintf(stderr,
                   "FATAL: %s: retired %llu of %u (checksum_errors=%llu)\n",
                   s.name.c_str(),
                   static_cast<unsigned long long>(sample.retired),
                   sample.requests,
                   static_cast<unsigned long long>(sample.checksum_errors));
      ok = false;
    }
    // The fault must actually bite: a crash kills a node and re-homes its
    // threads; a pause pauses.
    if (s.name.rfind("crash", 0) == 0 &&
        (sample.nodes_dead != 1 || sample.threads_rehomed == 0)) {
      std::fprintf(stderr, "FATAL: %s: the crash never happened\n",
                   s.name.c_str());
      ok = false;
    }
    if (s.name.rfind("pause", 0) == 0 &&
        (sample.pauses != 1 || sample.nodes_dead != 0)) {
      std::fprintf(stderr, "FATAL: %s: the pause never happened\n",
                   s.name.c_str());
      ok = false;
    }
    // Cost gate: losing 1-of-4 nodes must not double the run.
    if (inflation >= 2.0) {
      std::fprintf(stderr, "FATAL: %s: virtual time inflated %.2fx (>= 2x)\n",
                   s.name.c_str(), inflation);
      ok = false;
    }
    samples.push_back(sample);
  }
  if (!ok) return 1;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_recovery\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"requests\": %u, "
        "\"retired\": %llu, \"nodes_dead\": %llu, \"pauses\": %llu, "
        "\"threads_rehomed\": %llu, \"crash_flushes\": %llu, "
        "\"lease_returns\": %llu, \"futex_handoffs\": %llu, "
        "\"guest_insns\": %llu, \"sim_seconds\": %.6f, \"sim_ps\": %llu, "
        "\"p99_ms\": %.6f, \"inflation\": %.3f}%s\n",
        s.name.c_str(), s.requests,
        static_cast<unsigned long long>(s.retired),
        static_cast<unsigned long long>(s.nodes_dead),
        static_cast<unsigned long long>(s.pauses),
        static_cast<unsigned long long>(s.threads_rehomed),
        static_cast<unsigned long long>(s.crash_flushes),
        static_cast<unsigned long long>(s.lease_returns),
        static_cast<unsigned long long>(s.futex_handoffs),
        static_cast<unsigned long long>(s.guest_insns), s.sim_seconds,
        static_cast<unsigned long long>(s.sim_ps), s.p99_ms,
        s.sim_seconds / baseline_sim,
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
