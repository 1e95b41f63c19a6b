// ablation_dsm_diff — diff-encoded DSM page transfers on/off.
//
// The table1 write-heavy scenarios move the same few pages between nodes
// over and over, but each handoff only dirties a handful of cache lines.
// The diff data plane (DESIGN.md §12) ships twin-based diffs instead of
// full pages on writebacks and version-covered grants; this bench runs the
// write-heavy workloads with the plane on and off and reports the modeled
// bytes-on-wire reduction and the virtual-time (sim_seconds) speedup.
//
// Guest results must be identical in both modes — the run aborts if the
// exit code or stdout diverge (a mis-applied diff shows up here as a wrong
// checksum). The write-heavy scenarios must also show at least a 25%
// reduction in dsm.bytes_on_wire, and the read-streaming control must not
// regress: cold fetches have no diff base and stay full-page.
//
// Results land in BENCH_dsm.json (or argv[1]); tools/regenerate_bench.sh
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
  bool write_heavy = false;  ///< gate the 25% bytes-on-wire reduction
};

struct Sample {
  std::string scenario;
  bool diff = false;
  std::uint64_t guest_insns = 0;
  double sim_seconds = 0.0;
  TimePs sim_ps = 0;  ///< exact virtual time (RunResult::sim_time)
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t bytes_saved = 0;
  std::uint64_t diff_writebacks = 0;
  std::uint64_t diff_grants = 0;
  std::string guest_stdout;
  std::uint32_t exit_code = 0;
};

Sample measure(const Scenario& s, bool diff) {
  ClusterConfig config = s.config;
  config.dsm.enable_diff_transfers = diff;
  const BenchRun run = run_cluster(config, s.program);
  must_ok(run, s.name.c_str());
  Sample out;
  out.scenario = s.name;
  out.diff = diff;
  out.guest_insns = run.result.guest_insns;
  out.sim_seconds = run.sim_seconds();
  out.sim_ps = run.result.sim_time;
  out.bytes_on_wire = run.stats.get("dsm.bytes_on_wire");
  out.bytes_saved = run.stats.get("dsm.bytes_saved");
  out.diff_writebacks = run.stats.get("dsm.diff_writebacks");
  out.diff_grants = run.stats.get("dsm.diff_grants");
  out.guest_stdout = run.result.guest_stdout;
  out.exit_code = run.result.exit_code;
  return out;
}

}  // namespace
}  // namespace dqemu::bench

int main(int argc, char** argv) {
  using namespace dqemu;
  using namespace dqemu::bench;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_dsm.json";
  print_header("ablation_dsm_diff — diff-encoded page transfers on/off",
               "table 1 write-heavy transfer volume (DESIGN.md §12)");

  const auto mutex_prog = must_program(
      workloads::mutex_stress(32, scaled(20'000, 4), /*global=*/true),
      "mutex_stress global");
  const auto fs_prog = must_program(
      workloads::false_sharing_walk(8, 512, scaled(800), 4),
      "false_sharing_walk");
  const auto memwalk_prog = must_program(
      workloads::memwalk(scaled(2u << 20), 2, /*touch_first=*/true),
      "memwalk");

  std::vector<Scenario> scenarios;
  {
    // Fig6 worst case: one counter page ping-pongs between every locker,
    // but each critical section dirties a single line of it.
    Scenario s;
    s.name = "mutex_global_4slaves";
    s.program = mutex_prog;
    s.config = paper_config(4);
    s.config.dbt.quantum_insns = 500;  // contended regime
    s.write_heavy = true;
    scenarios.push_back(std::move(s));
  }
  {
    // Table 1 false sharing: 8 writers share one page, each touching only
    // its own 512-byte slice — the textbook case for line-granular diffs.
    Scenario s;
    s.name = "false_sharing_4slaves";
    s.program = fs_prog;
    s.config = paper_config(4);
    s.config.dbt.quantum_insns = 500;
    s.write_heavy = true;
    scenarios.push_back(std::move(s));
  }
  {
    // Control: sequential read streaming of master-dirty pages. Every
    // fetch is cold (no retained version), so the diff plane must neither
    // help nor hurt: identical transfer volume and virtual time.
    Scenario s;
    s.name = "memwalk_2slaves";
    s.program = memwalk_prog;
    s.config = paper_config(2);
    scenarios.push_back(std::move(s));
  }

  std::vector<Sample> samples;
  std::printf("%-22s %5s %12s %12s %14s %12s\n", "scenario", "diff",
              "insns", "sim s", "wire bytes", "saved");
  bool ok = true;
  for (const Scenario& s : scenarios) {
    for (const bool diff : {true, false}) {
      const Sample sample = measure(s, diff);
      std::printf("%-22s %5s %12llu %12.6f %14llu %12llu\n",
                  sample.scenario.c_str(), sample.diff ? "on" : "off",
                  static_cast<unsigned long long>(sample.guest_insns),
                  sample.sim_seconds,
                  static_cast<unsigned long long>(sample.bytes_on_wire),
                  static_cast<unsigned long long>(sample.bytes_saved));
      samples.push_back(sample);
    }
    const Sample& on = samples[samples.size() - 2];
    const Sample& off = samples.back();
    // Guest-visible behaviour must not change: same exit code and output.
    if (on.exit_code != off.exit_code || on.guest_stdout != off.guest_stdout) {
      std::fprintf(stderr,
                   "FATAL: %s: guest results diverge between diff modes\n",
                   s.name.c_str());
      return 1;
    }
    if (s.write_heavy) {
      // The acceptance gate: diffs must cut the modeled transfer volume of
      // the write-heavy scenarios by at least a quarter, and the smaller
      // messages must not slow the virtual clock down.
      if (static_cast<double>(on.bytes_on_wire) >
          0.75 * static_cast<double>(off.bytes_on_wire)) {
        std::fprintf(stderr,
                     "FATAL: %s: bytes_on_wire %llu -> %llu is under a 25%%"
                     " reduction\n",
                     s.name.c_str(),
                     static_cast<unsigned long long>(off.bytes_on_wire),
                     static_cast<unsigned long long>(on.bytes_on_wire));
        ok = false;
      }
      if (on.sim_seconds > off.sim_seconds) {
        std::fprintf(stderr, "FATAL: %s: diff mode slowed virtual time"
                     " (%.6f s -> %.6f s)\n",
                     s.name.c_str(), off.sim_seconds, on.sim_seconds);
        ok = false;
      }
      if (on.diff_writebacks == 0) {
        std::fprintf(stderr, "FATAL: %s: no diff writebacks recorded\n",
                     s.name.c_str());
        ok = false;
      }
    }
  }
  if (!ok) return 1;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_dsm_diff\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"diff\": %s, \"guest_insns\": "
                 "%llu, \"sim_seconds\": %.6f, \"sim_ps\": %llu, "
                 "\"bytes_on_wire\": %llu, \"bytes_saved\": %llu, "
                 "\"diff_writebacks\": %llu, \"diff_grants\": %llu}%s\n",
                 s.scenario.c_str(), s.diff ? "true" : "false",
                 static_cast<unsigned long long>(s.guest_insns), s.sim_seconds,
                 static_cast<unsigned long long>(s.sim_ps),
                 static_cast<unsigned long long>(s.bytes_on_wire),
                 static_cast<unsigned long long>(s.bytes_saved),
                 static_cast<unsigned long long>(s.diff_writebacks),
                 static_cast<unsigned long long>(s.diff_grants),
                 i + 1 < samples.size() ? "," : "");
  }
  // Transfer-volume reduction and virtual-time speedup per scenario
  // (pairs are adjacent: diff on first, then off).
  std::fprintf(f, "  ],\n  \"speedups\": {\n");
  for (std::size_t i = 0; i + 1 < samples.size(); i += 2) {
    const Sample& on = samples[i];
    const Sample& off = samples[i + 1];
    const double ratio = off.sim_seconds / on.sim_seconds;
    const double reduction =
        off.bytes_on_wire == 0
            ? 0.0
            : 1.0 - static_cast<double>(on.bytes_on_wire) /
                        static_cast<double>(off.bytes_on_wire);
    std::fprintf(f, "    \"%s\": %.3f%s\n", on.scenario.c_str(), ratio,
                 i + 2 < samples.size() ? "," : "");
    std::printf("%-22s bytes-on-wire reduction: %5.1f%%  sim speedup: %.2fx\n",
                on.scenario.c_str(), reduction * 100.0, ratio);
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
