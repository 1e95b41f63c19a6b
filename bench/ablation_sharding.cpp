// ablation_sharding — single-master vs home-sharded protocol planes.
//
// Home-node sharding (DESIGN.md §17) distributes the coherence directory
// and the futex/lease tables across per-page home nodes instead of
// funneling every protocol action through node 0. This bench measures the
// two claims that motivate it:
//
//   1. Tail latency under load: the request-serving plane (DESIGN.md §14)
//      at a FIXED offered load, single-master vs sharded, across cluster
//      sizes. Gate: the sharded p99 must stay within kServeP99Slack of the
//      single-master p99 — sharding must never wreck the serving tail.
//   2. Directory-load evenness: a page-disjoint memwalk under hash
//      placement. Gate: every slave hosts a home shard that saw traffic,
//      and the per-home message counts stay within kSpreadGate (max/min)
//      — including at 64 homes. A first-touch variant checks the master's
//      relay path carries real traffic and converges (relays stop growing
//      once every hot page's home is learned).
//
// Guest results (exit code + stdout) must be identical between the
// single-master and sharded runs of the same workload — sharding moves
// protocol state, never semantics.
//
// Results land in BENCH_sharding.json (or argv[1]); every number, latency
// quantiles included, is virtual time, so CI re-records the committed copy
// with tools/regenerate_bench.sh and fails on any difference.
// DQEMU_BENCH_QUICK=1 shrinks the workloads ~8x.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/micro.hpp"
#include "workloads/serve.hpp"

namespace dqemu::bench {
namespace {

constexpr std::uint32_t kWorkers = 16;      ///< serving pool size
constexpr double kServeRate = 8000.0;       ///< fixed offered load, req/s
constexpr double kServeP99Slack = 2.0;      ///< sharded p99 <= slack * master
constexpr double kSpreadGate = 2.0;         ///< hash home_msgs max/min bound

struct Sample {
  std::string name;
  std::string placement;  ///< "-", "hash" or "first-touch"
  std::uint32_t slaves = 0;
  std::uint64_t guest_insns = 0;
  double sim_seconds = 0.0;
  TimePs sim_ps = 0;  ///< exact virtual time (RunResult::sim_time)
  std::uint32_t exit_code = 0;
  std::string guest_stdout;
  // Home-plane load (zero when sharding is off).
  std::uint32_t homes_active = 0;
  std::uint64_t home_msgs_min = 0;
  std::uint64_t home_msgs_max = 0;
  std::uint64_t home_msgs_total = 0;
  double home_spread = 0.0;
  std::uint64_t home_relays = 0;
  // Serving plane (zero for the batch workloads).
  bool serving = false;
  std::uint64_t retired = 0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
};

Sample measure(const std::string& name, const ClusterConfig& config,
               const isa::Program& program) {
  const BenchRun run = run_cluster(config, program);
  must_ok(run, name.c_str());
  Sample out;
  out.name = name;
  out.placement = !config.dsm.enable_home_sharding ? "-"
                  : config.dsm.home_placement == HomePlacement::kHash
                      ? "hash"
                      : "first-touch";
  out.slaves = config.slave_nodes;
  out.guest_insns = run.result.guest_insns;
  out.sim_seconds = run.sim_seconds();
  out.sim_ps = run.result.sim_time;
  out.exit_code = run.result.exit_code;
  out.guest_stdout = run.result.guest_stdout;
  for (std::uint32_t n = 1; n <= config.slave_nodes; ++n) {
    const std::uint64_t msgs =
        run.stats.get("dsm.home_msgs." + std::to_string(n));
    out.home_msgs_total += msgs;
    if (msgs == 0) continue;
    ++out.homes_active;
    if (out.home_msgs_min == 0 || msgs < out.home_msgs_min)
      out.home_msgs_min = msgs;
    out.home_msgs_max = std::max(out.home_msgs_max, msgs);
  }
  out.home_spread = out.home_msgs_min > 0
                        ? static_cast<double>(out.home_msgs_max) /
                              static_cast<double>(out.home_msgs_min)
                        : 0.0;
  out.home_relays = run.stats.get("dsm.home_relays");
  if (config.serve.enabled) {
    out.serving = true;
    out.retired = run.stats.get("serve.retired");
    out.throughput_rps =
        out.sim_seconds > 0
            ? static_cast<double>(out.retired) / out.sim_seconds
            : 0.0;
    if (const LogHistogram* lat = run.stats.find_histogram("serve.latency_ns");
        lat != nullptr && !lat->empty()) {
      out.p50_ms = static_cast<double>(lat->quantile(0.5)) / 1e6;
      out.p99_ms = static_cast<double>(lat->quantile(0.99)) / 1e6;
      out.p999_ms = static_cast<double>(lat->quantile(0.999)) / 1e6;
      out.max_ms = static_cast<double>(lat->max()) / 1e6;
    }
    const bool ok = out.exit_code == 0 &&
                    out.retired == config.serve.requests &&
                    run.stats.get("serve.checksum_errors") == 0 &&
                    out.p50_ms <= out.p99_ms && out.p99_ms <= out.p999_ms &&
                    out.p999_ms <= out.max_ms;
    if (!ok) {
      std::fprintf(stderr,
                   "FATAL: %s: retired=%llu/%u exit=%u — serving contract"
                   " violated\n",
                   name.c_str(),
                   static_cast<unsigned long long>(out.retired),
                   config.serve.requests, out.exit_code);
      std::exit(1);
    }
  } else if (out.exit_code != 0) {
    std::fprintf(stderr, "FATAL: %s: guest exited %u\n", name.c_str(),
                 out.exit_code);
    std::exit(1);
  }
  return out;
}

ClusterConfig sharded_config(std::uint32_t slaves, HomePlacement placement) {
  ClusterConfig config = paper_config(slaves);
  config.dsm.enable_home_sharding = true;
  config.dsm.home_placement = placement;
  return config;
}

void gate_same_guest(const Sample& master, const Sample& sharded) {
  if (master.exit_code != sharded.exit_code ||
      master.guest_stdout != sharded.guest_stdout) {
    std::fprintf(stderr,
                 "FATAL: %s vs %s: guest results differ — sharding changed"
                 " semantics, not just protocol placement\n",
                 master.name.c_str(), sharded.name.c_str());
    std::exit(1);
  }
}

}  // namespace
}  // namespace dqemu::bench

int main(int argc, char** argv) {
  using namespace dqemu;
  using namespace dqemu::bench;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_sharding.json";
  print_header("ablation_sharding — single-master vs home-sharded planes",
               "home-node sharding (DESIGN.md §17)");
  std::vector<Sample> samples;
  std::printf("%-24s %7s %11s %9s %7s %7s %7s %9s\n", "scenario", "slaves",
              "placement", "sim s", "homes", "spread", "relays", "p99 ms");
  auto report = [&](const Sample& s) {
    std::printf("%-24s %7u %11s %9.4f %7u %7.2f %7llu %9.3f\n",
                s.name.c_str(), s.slaves, s.placement.c_str(), s.sim_seconds,
                s.homes_active, s.home_spread,
                static_cast<unsigned long long>(s.home_relays), s.p99_ms);
    samples.push_back(s);
    return samples.size() - 1;
  };

  // ---- 1. Serving tail at a fixed offered load ---------------------------
  // Same pool, same arrivals, same load; the only difference is where the
  // directory and futex tables live.
  {
    const std::uint32_t requests = scaled(6000);
    workloads::ServePoolParams pool;
    pool.workers = kWorkers;
    const auto program =
        must_program(workloads::serve_pool(pool), "serve_pool");
    for (const std::uint32_t slaves : {2u, 4u, 8u}) {
      char name[64];
      ClusterConfig master = paper_config(slaves);
      master.serve.enabled = true;
      master.serve.requests = requests;
      master.serve.rate = kServeRate;
      master.serve.workers = kWorkers;
      std::snprintf(name, sizeof name, "serve_s%u_master", slaves);
      const std::size_t at_master = report(measure(name, master, program));

      ClusterConfig sharded = sharded_config(slaves, HomePlacement::kHash);
      sharded.serve = master.serve;
      std::snprintf(name, sizeof name, "serve_s%u_sharded", slaves);
      const std::size_t at_sharded = report(measure(name, sharded, program));

      const Sample& m = samples[at_master];
      const Sample& s = samples[at_sharded];
      if (s.p99_ms > m.p99_ms * kServeP99Slack) {
        std::fprintf(stderr,
                     "FATAL: slaves=%u: sharded serving p99 %.3f ms blows"
                     " past %.1fx the single-master p99 %.3f ms\n",
                     slaves, s.p99_ms, kServeP99Slack, m.p99_ms);
        return 1;
      }
    }
  }

  // ---- 2. Directory-load evenness under hash placement -------------------
  // Page-disjoint walk: every page is a remote fetch, so home_msgs counts
  // directly reflect how the placement policy spread the directory work.
  // Not shrunk in quick mode: the 2x evenness gate is a concentration
  // bound, and 64 homes need ~64 pages each before the hash's binomial
  // spread tightens under it. The walk costs about a second either way.
  const std::uint32_t walk_bytes = 16u * 1024 * 1024;
  const auto walk = must_program(
      workloads::memwalk(walk_bytes, 1, /*touch_first=*/false, 8), "memwalk");
  std::size_t at_master_walk = 0;
  for (const std::uint32_t slaves : {4u, 16u, 64u}) {
    char name[64];
    std::snprintf(name, sizeof name, "memwalk_s%u_master", slaves);
    const std::size_t at_master =
        report(measure(name, paper_config(slaves), walk));
    if (slaves == 4) at_master_walk = at_master;

    std::snprintf(name, sizeof name, "memwalk_s%u_hash", slaves);
    const std::size_t at_hash = report(
        measure(name, sharded_config(slaves, HomePlacement::kHash), walk));
    gate_same_guest(samples[at_master], samples[at_hash]);

    const Sample& h = samples[at_hash];
    if (h.homes_active != slaves) {
      std::fprintf(stderr,
                   "FATAL: %s: only %u of %u homes saw directory traffic\n",
                   h.name.c_str(), h.homes_active, slaves);
      return 1;
    }
    if (h.home_spread > kSpreadGate) {
      std::fprintf(stderr,
                   "FATAL: %s: per-home message spread %.2f (min=%llu"
                   " max=%llu) exceeds the %.1fx evenness gate\n",
                   h.name.c_str(), h.home_spread,
                   static_cast<unsigned long long>(h.home_msgs_min),
                   static_cast<unsigned long long>(h.home_msgs_max),
                   kSpreadGate);
      return 1;
    }
  }

  // First-touch: the master assigns homes on demand and relays the requests
  // that raced ahead of the requester's placement view.
  {
    const std::size_t at_ft = report(measure(
        "memwalk_s4_firsttouch",
        sharded_config(4, HomePlacement::kFirstTouch), walk));
    gate_same_guest(samples[at_master_walk], samples[at_ft]);
    const Sample& ft = samples[at_ft];
    if (ft.home_relays == 0 || ft.homes_active == 0) {
      std::fprintf(stderr,
                   "FATAL: first-touch run exercised no relay path"
                   " (relays=%llu homes=%u)\n",
                   static_cast<unsigned long long>(ft.home_relays),
                   ft.homes_active);
      return 1;
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_sharding\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"placement\": \"%s\", "
                 "\"slaves\": %u, \"guest_insns\": %llu, "
                 "\"sim_seconds\": %.6f, \"sim_ps\": %llu, "
                 "\"homes_active\": %u, \"home_msgs_min\": %llu, "
                 "\"home_msgs_max\": %llu, \"home_msgs_total\": %llu, "
                 "\"home_spread\": %.4f, \"home_relays\": %llu",
                 s.name.c_str(), s.placement.c_str(), s.slaves,
                 static_cast<unsigned long long>(s.guest_insns),
                 s.sim_seconds, static_cast<unsigned long long>(s.sim_ps),
                 s.homes_active,
                 static_cast<unsigned long long>(s.home_msgs_min),
                 static_cast<unsigned long long>(s.home_msgs_max),
                 static_cast<unsigned long long>(s.home_msgs_total),
                 s.home_spread,
                 static_cast<unsigned long long>(s.home_relays));
    if (s.serving) {
      std::fprintf(f,
                   ", \"retired\": %llu, \"throughput_rps\": %.3f, "
                   "\"p50_ms\": %.6f, \"p99_ms\": %.6f, \"p999_ms\": %.6f, "
                   "\"max_ms\": %.6f",
                   static_cast<unsigned long long>(s.retired),
                   s.throughput_rps, s.p50_ms, s.p99_ms, s.p999_ms,
                   s.max_ms);
    }
    std::fprintf(f, "}%s\n", i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
