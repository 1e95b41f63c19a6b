// Figure 5 — performance scalability.
//
// 120 guest threads each compute pi with a Taylor (Leibniz) series,
// embarrassingly parallel; the cluster sweeps 1..6 slave nodes and the
// speedup is normalized to the 1-slave-node run. QEMU 4.2.0 (our
// single-node baseline mode) is the dashed reference line.
//
// Paper series (Fig. 5): DQEMU 1.00 1.97 2.97 3.98 4.93 5.94; QEMU 1.04.
#include "bench_util.hpp"
#include "workloads/micro.hpp"

using namespace dqemu;
using namespace dqemu::bench;

int main() {
  print_header("Figure 5: scalability, 120 pi threads, 1-6 slave nodes",
               "paper Fig.5: DQEMU 1.00/1.97/2.97/3.98/4.93/5.94, QEMU 1.04");

  const std::uint32_t threads = 120;
  const std::uint32_t reps = scaled(1800);
  const std::uint32_t terms = 1000;
  const auto program =
      must_program(workloads::pi_taylor(threads, reps, terms), "pi_taylor");

  static const double kPaperDqemu[6] = {1.00, 1.97, 2.97, 3.98, 4.93, 5.94};

  std::printf("%-12s %12s %10s %12s\n", "config", "sim_time_s", "speedup",
              "paper");

  double base = 0.0;
  for (std::uint32_t slaves = 1; slaves <= 6; ++slaves) {
    BenchRun run = run_cluster(paper_config(slaves), program);
    must_ok(run, "fig5 run");
    if (slaves == 1) base = run.sim_seconds();
    std::printf("DQEMU-%u      %12.4f %10.2f %12.2f\n", slaves,
                run.sim_seconds(), base / run.sim_seconds(),
                kPaperDqemu[slaves - 1]);
  }
  BenchRun qemu = run_cluster(paper_config(0), program);
  must_ok(qemu, "fig5 qemu baseline");
  std::printf("QEMU-4.2.0   %12.4f %10.2f %12.2f\n", qemu.sim_seconds(),
              base / qemu.sim_seconds(), 1.04);
  return 0;
}
