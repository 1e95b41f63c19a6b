// Host-time benchmark program: runs one named workload through the public
// core::Cluster API, repeatedly, for a fixed host-time budget.
//
//   perfbench --workload NAME --seed N --seconds S [--min-reps K]
//
// Every repetition generates the guest program, builds a Cluster, loads
// and runs it, and prints one JSON line of raw measurements: set-up and
// run host seconds, process CPU seconds of the run, the host-speed probe's
// time before and after the repetition (calibrate() below), the virtual
// fingerprint (guest instructions, simulated time, exit code, stdout and
// the serving latency quantiles), every stats counter and the modelled
// time breakdown. The traced build (PERFBENCH_TRACED=1) adds the per-span
// host times collected by layer_trace.cpp. A last line carries the build
// provenance and the process's peak resident memory. run.py aggregates the
// lines into medians and checks them; this program only measures.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/cluster.hpp"
#include "workloads/micro.hpp"
#include "workloads/parsec.hpp"
#include "workloads/serve.hpp"

#if PERFBENCH_TRACED
#include "layer_trace.hpp"
#endif

namespace {

using dqemu::ClusterConfig;
using dqemu::Result;
using dqemu::core::Cluster;
namespace isa = dqemu::isa;
namespace workloads = dqemu::workloads;

/// A named workload: the guest program and the cluster it runs on. The
/// seed reaches only the serving plane's load generator; the batch
/// programs' inputs are fixed by their generators.
struct Workload {
  const char* name;
  std::function<Result<isa::Program>()> program;
  std::function<ClusterConfig(std::uint64_t seed)> config;
};

ClusterConfig slaves(std::uint32_t n) {
  ClusterConfig c;
  c.slave_nodes = n;
  return c;
}

const Workload kWorkloads[] = {
    {"blackscholes_1n",
     [] {
       workloads::BlackscholesParams p;
       p.threads = 32;
       p.options_n = 16384;
       p.reps = 16;
       return workloads::blackscholes_like(p);
     },
     [](std::uint64_t) {
       ClusterConfig c;
       c.single_node_baseline = true;
       c.slave_nodes = 0;
       return c;
     }},
    {"fluidanimate_s4",
     [] {
       workloads::FluidanimateParams p;
       p.threads = 128;
       p.iters = 8;
       return workloads::fluidanimate_like(p);
     },
     [](std::uint64_t) { return slaves(4); }},
    {"serve_s4",
     [] {
       workloads::ServePoolParams p;
       p.workers = 32;
       return workloads::serve_pool(p);
     },
     [](std::uint64_t seed) {
       ClusterConfig c = slaves(4);
       c.serve.enabled = true;
       c.serve.arrival = dqemu::ArrivalProcess::kPoisson;
       c.serve.rate = 8000.0;
       c.serve.requests = 8000;
       c.serve.workers = 32;
       c.serve.seed = seed;
       return c;
     }},
    {"memwalk_s4_ht2",
     [] {
       return workloads::memwalk(8u << 20, 2, /*touch_first=*/true,
                                 /*workers=*/4);
     },
     [](std::uint64_t) {
       ClusterConfig c = slaves(4);
       c.sim.host_threads = 2;
       return c;
     }},
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20 || c >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

/// Host-speed probe: a fixed amount of simulator-independent work (a small
/// register-machine interpreter over a 64 KiB memory, then ordered-map
/// event churn through std::function, the two shapes of the simulator's
/// hot loops). Its wall time, taken right before and right after every
/// repetition, tells run.py how fast the shared host was running at that
/// moment, so reported times can be rescaled to a reference speed. Must
/// stay unchanged: editing it rescales every reported time.
double calibrate() {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint32_t> mem(16384);
  std::uint32_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 400000; ++i) {
    switch ((r[i & 7] ^ i) % 6) {
      case 0: r[(i + 1) & 7] += r[(i + 3) & 7]; break;
      case 1: r[(i + 2) & 7] ^= r[(i + 5) & 7] * 2654435761u; break;
      case 2: mem[r[i & 7] & 16383] = r[(i + 1) & 7]; break;
      case 3: r[(i + 4) & 7] = mem[(r[(i + 6) & 7] >> 3) & 16383]; break;
      case 4: r[(i + 5) & 7] = (r[(i + 7) & 7] << 3) | (r[i & 7] >> 29); break;
      default: acc += r[(i + 1) & 7]; break;
    }
  }
  std::map<std::uint64_t, std::function<void()>> events;
  std::uint64_t t = 0;
  for (std::uint32_t i = 0; i < 60000; ++i) {
    events.emplace((t + (i * 7919u) % 1000) * 65536 + i, [&acc, i] { acc += i; });
    if (events.size() > 256) {
      auto it = events.begin();
      t = it->first >> 16;
      it->second();
      events.erase(it);
    }
  }
  // Publish the result so the work cannot be optimized away.
  volatile std::uint64_t sink = acc + r[0] + mem[5];
  (void)sink;
  return seconds_since(t0);
}

/// Runs one repetition and prints its JSON line. Returns false when the
/// run failed (the line then carries the error).
bool run_once(const Workload& w, std::uint64_t seed, std::uint32_t rep,
              bool warmup) {
  const double cal_before = calibrate();
  const auto t_setup = std::chrono::steady_clock::now();
  Result<isa::Program> program = w.program();
  if (!program.is_ok()) {
    std::printf("{\"rep\": %u, \"ok\": false, \"error\": %s}\n", rep,
                json_string(program.status().to_string()).c_str());
    return false;
  }
  auto cluster = std::make_unique<Cluster>(w.config(seed));
  const dqemu::Status loaded = cluster->load(program.value());
  const double setup_s = seconds_since(t_setup);
  if (!loaded.is_ok()) {
    std::printf("{\"rep\": %u, \"ok\": false, \"error\": %s}\n", rep,
                json_string(loaded.to_string()).c_str());
    return false;
  }

#if PERFBENCH_TRACED
  perfbench::trace::begin_run(&cluster->queue());
#endif
  const double cpu0 = process_cpu_seconds();
  const auto t_run = std::chrono::steady_clock::now();
  Result<Cluster::RunResult> run = [&] {
#if PERFBENCH_TRACED
    const perfbench::trace::Scope root(perfbench::trace::Span::kRun);
#endif
    return cluster->run();
  }();
  const double run_s = seconds_since(t_run);
  const double cpu_s = process_cpu_seconds() - cpu0;
#if PERFBENCH_TRACED
  const perfbench::trace::Profile profile = perfbench::trace::end_run();
#endif
  const double cal_after = calibrate();
  if (!run.is_ok()) {
    std::printf("{\"rep\": %u, \"ok\": false, \"error\": %s}\n", rep,
                json_string(run.status().to_string()).c_str());
    return false;
  }
  const Cluster::RunResult& r = run.value();
  const dqemu::StatsRegistry& stats = cluster->stats();

  std::string line;
  char buf[512];
  const dqemu::ServeConfig& serve = cluster->config().serve;
  std::snprintf(buf, sizeof(buf),
                "{\"rep\": %u, \"ok\": true, \"warmup\": %s, "
                "\"setup_s\": %.9f, \"run_s\": %.9f, \"cpu_s\": %.9f, "
                "\"cal_s\": [%.9f, %.9f], \"offered_requests\": %u, ",
                rep, warmup ? "true" : "false", setup_s, run_s, cpu_s,
                cal_before, cal_after, serve.enabled ? serve.requests : 0);
  line += buf;

  const dqemu::LogHistogram* latency = stats.find_histogram("serve.latency_ns");
  const bool has_latency = latency != nullptr && !latency->empty();
  std::snprintf(buf, sizeof(buf),
                "\"fingerprint\": {\"guest_insns\": %" PRIu64
                ", \"sim_time_ps\": %" PRIu64 ", \"exit_code\": %u, "
                "\"latency_p50_ns\": %" PRIu64 ", \"latency_p99_ns\": %" PRIu64
                ", \"stdout\": ",
                r.guest_insns, r.sim_time, r.exit_code,
                has_latency ? latency->quantile(0.5) : 0,
                has_latency ? latency->quantile(0.99) : 0);
  line += buf;
  line += json_string(r.guest_stdout) + "}, ";

  std::snprintf(buf, sizeof(buf),
                "\"virt_ps\": {\"execute\": %" PRIu64 ", \"translate\": %" PRIu64
                ", \"pagefault\": %" PRIu64 ", \"syscall\": %" PRIu64
                ", \"idle\": %" PRIu64 "}, ",
                r.total.execute, r.total.translate, r.total.pagefault,
                r.total.syscall, r.total.idle);
  line += buf;

  line += "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : stats.counters()) {
    std::snprintf(buf, sizeof(buf), "%s%s: %" PRIu64, first ? "" : ", ",
                  json_string(name).c_str(), value);
    line += buf;
    first = false;
  }
  line += "}";

#if PERFBENCH_TRACED
  line += ", \"spans\": {";
  for (std::size_t i = 0; i < perfbench::trace::kSpanCount; ++i) {
    const perfbench::trace::SpanTotals& a = profile.all[i];
    const perfbench::trace::SpanTotals& d = profile.caller[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"calls\": %" PRIu64 ", \"self_ns\": %" PRIu64
                  ", \"incl_ns\": %" PRIu64 ", \"units\": %" PRIu64
                  ", \"caller_self_ns\": %" PRIu64
                  ", \"caller_incl_ns\": %" PRIu64 "}",
                  i == 0 ? "" : ", ", perfbench::trace::kSpanNames[i], a.calls,
                  a.self_ns, a.incl_ns, a.units, d.self_ns, d.incl_ns);
    line += buf;
  }
  line += "}";
#endif
  line += "}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "[--min-reps K]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = nullptr;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  std::uint32_t min_reps = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--min-reps") {
      min_reps = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else {
      return usage();
    }
  }
  if (name == nullptr || argc % 2 == 0) return usage();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (std::string_view(w.name) == name) workload = &w;
  }
  if (workload == nullptr) return usage();

  // Repetition 0 warms the allocator and caches and is reported but not
  // timed into medians; measured repetitions continue until the budget is
  // spent and at least `min_reps` of them ran.
  const auto start = std::chrono::steady_clock::now();
  std::uint32_t reps = 0;
  bool ok = true;
  while (ok && (reps <= min_reps || seconds_since(start) < seconds)) {
    ok = run_once(*workload, seed, reps, /*warmup=*/reps == 0);
    ++reps;
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  std::printf(
      "{\"done\": true, \"reps\": %u, \"peak_rss_kib\": %ld, "
      "\"traced\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"cpu_model\": %s}\n",
      reps, usage_now.ru_maxrss, PERFBENCH_TRACED ? "true" : "false",
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(), json_string(cpu_model()).c_str());
  return ok ? 0 : 1;
}
