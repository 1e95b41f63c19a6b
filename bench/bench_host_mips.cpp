// bench_host_mips — HOST-performance benchmark: emulated guest MIPS.
//
// Unlike the fig*/table* benches (which report *virtual* time), this bench
// measures how fast the DBT engine itself runs on the host: guest
// instructions retired per host wall-clock second. It is the repo's
// perf-trajectory datapoint for the execution hot path (trace dispatch,
// superblock stitching and fusion — DESIGN.md section 15 — and the software
// TLB, indirect-jump cache and LL/SC store filter — DESIGN.md section 10).
//
// Scenarios:
//   * hotloop_1node      — single-node baseline; main thread runs a
//     memory-heavy loop (lw/sw per iteration) calling a leaf function via
//     jal/jalr, so every layer of the fast path is exercised.
//   * memwalk_4node      — 4 slave nodes; workloads::memwalk with protection
//     checks and remote page faults in the loop.
//   * mutex_stress_4node — 4 slave nodes; lock-heavy loop (ll/sc + futex)
//     with short straight-line critical sections between side exits.
//
// One row per scenario lands in BENCH_dbt.json (or argv[1]). Compare two
// result files with tools/bench_compare.py, which requires guest_insns and
// sim_seconds to be byte-identical between runs of the same size.
//
// DQEMU_BENCH_QUICK=1 shrinks the workloads ~8x (CI smoke runs).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "guestlib/runtime.hpp"
#include "isa/assembler.hpp"
#include "workloads/micro.hpp"

namespace dqemu::bench {
namespace {

using isa::Assembler;
using enum isa::Reg;

/// Memory-heavy hot loop: `reps` calls of a leaf that walks a 1 KiB array
/// with lw + sw + branch per element. The data all lives on one page, so a
/// software TLB should hit essentially always; the call/return pair makes
/// every iteration cross an indirect jump (ret = jalr).
Result<isa::Program> hotloop_program(std::uint32_t reps) {
  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  guestlib::emit_crt0(a, main_fn);
  guestlib::Runtime rt = guestlib::emit_runtime(a);
  Assembler::Label leaf = a.make_label("leaf");
  Assembler::Label data = a.make_label("data");

  // leaf(a0 = array): t3 += sum of 256 words, stores each word back.
  {
    a.bind(leaf);
    a.li(kT0, 256);
    a.mov(kT1, kA0);
    Assembler::Label loop = a.here();
    a.lw(kT2, kT1, 0);
    a.add(kT3, kT3, kT2);
    a.sw(kT1, kT2, 0);
    a.addi(kT1, kT1, 4);
    a.addi(kT0, kT0, -1);
    a.bne(kT0, kZero, loop);
    a.ret();
  }
  {
    a.bind(main_fn);
    a.addi(kSp, kSp, -16);
    a.sw(kSp, kRa, 0);
    a.li(kT3, 0);
    a.li(kS0, static_cast<std::int64_t>(reps));
    Assembler::Label loop = a.here();
    a.la(kA0, data);
    a.call(leaf);
    a.addi(kS0, kS0, -1);
    a.bne(kS0, kZero, loop);
    a.mov(kA0, kT3);  // checksum
    a.call(rt.print_u32);
    a.li(kA0, 0);
    a.lw(kRa, kSp, 0);
    a.addi(kSp, kSp, 16);
    a.ret();
  }
  a.d_align(4096);
  a.bind_data(data);
  for (std::uint32_t i = 0; i < 256; ++i) a.d_word(i * 3 + 1);
  return a.finalize();
}

struct Scenario {
  std::string name;
  isa::Program program;
  ClusterConfig config;
};

struct Sample {
  std::string scenario;
  std::uint64_t guest_insns = 0;
  double wall_seconds = 0.0;
  double guest_mips = 0.0;
  double sim_seconds = 0.0;
};

Sample measure(const Scenario& s) {
  // Warm-up run (page cache, allocator); then the measured run.
  must_ok(run_cluster(s.config, s.program), s.name.c_str());
  const BenchRun run = run_cluster(s.config, s.program);
  must_ok(run, s.name.c_str());
  Sample out;
  out.scenario = s.name;
  out.guest_insns = run.result.guest_insns;
  out.wall_seconds = run.wall_seconds;
  out.guest_mips =
      static_cast<double>(run.result.guest_insns) / run.wall_seconds / 1e6;
  out.sim_seconds = run.sim_seconds();
  return out;
}

}  // namespace
}  // namespace dqemu::bench

int main(int argc, char** argv) {
  using namespace dqemu;
  using namespace dqemu::bench;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_dbt.json";
  print_header("bench_host_mips — emulated guest MIPS (host wall clock)",
               "perf trajectory of the DBT hot path (not a paper figure)");

  std::vector<Scenario> scenarios;
  {
    Scenario s;
    s.name = "hotloop_1node";
    s.program = must_program(hotloop_program(scaled(40'000)), "hotloop");
    s.config = paper_config(0);
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "memwalk_4node";
    s.program = must_program(
        workloads::memwalk(scaled(2u << 20, 4), /*reps=*/4,
                           /*touch_first=*/true),
        "memwalk");
    s.config = paper_config(4);
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "mutex_stress_4node";
    s.program = must_program(
        workloads::mutex_stress(/*threads=*/8, scaled(20'000, 4),
                                /*global_lock=*/false),
        "mutex_stress");
    s.config = paper_config(4);
    s.config.sys.enable_hierarchical_locking = true;
    scenarios.push_back(std::move(s));
  }

  std::vector<Sample> samples;
  std::printf("%-18s %12s %9s %10s\n", "scenario", "insns", "wall s", "MIPS");
  for (const Scenario& s : scenarios) {
    const Sample sample = measure(s);
    std::printf("%-18s %12llu %9.3f %10.1f\n", sample.scenario.c_str(),
                static_cast<unsigned long long>(sample.guest_insns),
                sample.wall_seconds, sample.guest_mips);
    samples.push_back(sample);
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_host_mips\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"guest_insns\": %llu, "
                 "\"wall_seconds\": %.6f, \"guest_mips\": %.2f, "
                 "\"sim_seconds\": %.6f}%s\n",
                 s.scenario.c_str(),
                 static_cast<unsigned long long>(s.guest_insns),
                 s.wall_seconds, s.guest_mips, s.sim_seconds,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
