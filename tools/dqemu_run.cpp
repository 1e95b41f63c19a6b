// dqemu_run — command-line driver: assemble a GA32 source file and run it
// on a simulated DQEMU cluster, or drive the built-in request-serving
// workload (DESIGN.md §14) with --serve.
//
//   dqemu_run prog.s [options]
//   dqemu_run --serve [options]
//
// Every accepted option lives in kFlags below; the usage text is generated
// from the same table, so the two cannot drift apart (the CLI test checks
// that the usage output and its own flag list name the same flags).
//
// Examples:
//   ./build/tools/dqemu_run examples/guest/hello.s --nodes 4 --stats
//   ./build/tools/dqemu_run examples/guest/pi.s --trace out.json
//   ./build/tools/dqemu_run --serve --nodes 4 --rate 8000 --requests 20000
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "core/cluster.hpp"
#include "isa/text_asm.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads/serve.hpp"

using namespace dqemu;

namespace {

struct FlagSpec {
  const char* name;
  const char* metavar;  ///< null for boolean flags
  const char* help;
};

// The single source of truth for the option surface. The parser accepts
// exactly these names and usage() prints exactly these lines.
constexpr FlagSpec kFlags[] = {
    {"--nodes", "N", "slave nodes (default 2); 0 = QEMU single-node baseline"},
    {"--cores", "N", "cores per node (default 4)"},
    {"--quantum", "N", "instructions per scheduling slice (default 20000)"},
    {"--dump-hot", "N",
     "after the run, dump the N hottest blocks and all superblocks"
     " (DESIGN.md §15)"},
    {"--rtt-us", "N", "network round-trip time in microseconds (default 55)"},
    {"--gbps", "X", "network bandwidth in Gbit/s (default 1.0)"},
    {"--forwarding", nullptr, "enable data forwarding (paper 5.2)"},
    {"--splitting", nullptr, "enable page splitting (paper 5.1)"},
    {"--dsm-diff", nullptr, "diff-encoded page transfers (DESIGN.md §12)"},
    {"--hier-locking", nullptr,
     "hierarchical distributed locking (DESIGN.md §11)"},
    {"--home-sharding", nullptr,
     "shard the DSM directory and futex table across per-page home nodes"
     " (DESIGN.md §17)"},
    {"--placement", "KIND",
     "home placement policy, hash | first-touch (default hash; needs"
     " --home-sharding)"},
    {"--host-threads", "N",
     "host threads driving the simulation (default 1; N > 1 runs the"
     " parallel scheduler, DESIGN.md §16 — results are byte-identical)"},
    {"--hint-sched", nullptr,
     "hint-based locality-aware scheduling (paper 5.3)"},
    {"--faults", nullptr,
     "deterministic fault injection + reliable delivery (DESIGN.md §13)"},
    {"--fault-seed", "N", "seed of the fault decision stream (default 1)"},
    {"--drop-pct", "X",
     "per-transmission drop probability, percent (default 0; implies"
     " --faults when > 0)"},
    {"--crash", "N@T",
     "crash slave node N at virtual time T microseconds; 0 for either means"
     " drawn from the fault seed (implies --faults; DESIGN.md §18)"},
    {"--pause", "N@T:D",
     "pause node N at T for D microseconds, then rejoin (0 = drawn; implies"
     " --faults)"},
    {"--giveup-retrans", "N",
     "declare a peer dead after N zero-progress retransmit rounds"
     " (default 0 = never give up)"},
    {"--checkpoint", "T:FILE",
     "fingerprint the cluster state at virtual time T microseconds and save"
     " the checkpoint image to FILE"},
    {"--restore", "FILE",
     "re-execute to FILE's checkpoint cut, verify every state digest"
     " matches (exit 1 on divergence), then continue the run"},
    {"--serve", nullptr,
     "run the built-in request-serving workload instead of a program"
     " (DESIGN.md §14)"},
    {"--requests", "N", "serving: total requests to issue (default 2000)"},
    {"--arrival", "KIND",
     "serving: arrival process, poisson | uniform | closed (default"
     " poisson)"},
    {"--rate", "X", "serving: open-loop offered load, req/s (default 2000)"},
    {"--clients", "N", "serving: closed-loop client count (default 16)"},
    {"--think-us", "N",
     "serving: closed-loop mean think time, microseconds (default 2000)"},
    {"--clone", "N",
     "serving: executions per request, first reply wins (default 1)"},
    {"--serve-workers", "N", "serving: guest worker threads (default 32)"},
    {"--serve-seed", "N", "serving: load-generator seed (default 7)"},
    {"--stats", nullptr, "dump all simulator counters after the run"},
    {"--breakdown", nullptr,
     "print per-thread execute/pagefault/syscall shares"},
    {"--trace", "FILE",
     "write a Chrome trace_event JSON (Perfetto / chrome://tracing); FILE"
     " ending in .txt gets the compact text dump"},
    {"--trace-categories", "LIST",
     "comma-separated subset of sim,core,net,dsm,sys,counter,queue,serve,dbt"
     " (or \"all\" / \"default\")"},
    {"--verbose", nullptr, "debug-level protocol logging"},
    {"--help", nullptr, "print this usage text"},
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <program.s> [options]\n"
               "       %s --serve [options]\n\noptions:\n",
               argv0, argv0);
  for (const FlagSpec& flag : kFlags) {
    char left[40];
    std::snprintf(left, sizeof left, "%s %s", flag.name,
                  flag.metavar != nullptr ? flag.metavar : "");
    std::fprintf(stderr, "  %-24s %s\n", left, flag.help);
  }
}

const FlagSpec* find_flag(const char* arg) {
  for (const FlagSpec& flag : kFlags) {
    if (std::strcmp(arg, flag.name) == 0) return &flag;
  }
  return nullptr;
}

/// The one integer parser every integer field of every flag goes through:
/// decimal digits only (no sign, no space, no empty value), at most `max`.
bool parse_uint(std::string_view text, std::uint64_t max, std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value > max) return false;
  *out = value;
  return true;
}

bool parse_u32(std::string_view text, std::uint32_t* out) {
  std::uint64_t value = 0;
  if (!parse_uint(text, UINT32_MAX, &value)) return false;
  *out = static_cast<std::uint32_t>(value);
  return true;
}

/// Microseconds whose picosecond form fits the virtual clock.
bool parse_us(std::string_view text, TimePs* out) {
  std::uint64_t us = 0;
  if (!parse_uint(text, UINT64_MAX / time_literals::kUs, &us)) return false;
  *out = us * time_literals::kUs;
  return true;
}

/// A number strtod reads whole: no empty value, no trailing text.
bool parse_double(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

/// "N@T[:D]" — node id, virtual time in microseconds, optional duration in
/// microseconds. Used by --crash (no :D) and --pause (requires :D > 0).
bool parse_node_fault(std::string_view text, bool want_duration,
                      FaultConfig::NodeFault* out) {
  const std::size_t at = text.find('@');
  if (at == std::string_view::npos) return false;
  std::string_view time = text.substr(at + 1);
  std::string_view duration;
  if (want_duration) {
    const std::size_t colon = time.find(':');
    if (colon == std::string_view::npos) return false;
    duration = time.substr(colon + 1);
    time = time.substr(0, colon);
  }
  if (!parse_u32(text.substr(0, at), &out->node) ||
      !parse_us(time, &out->at)) {
    return false;
  }
  return !want_duration ||
         (parse_us(duration, &out->pause_for) && out->pause_for != 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  const char* source_path = nullptr;
  ClusterConfig config;
  config.slave_nodes = 2;
  bool dump_stats = false;
  bool breakdown = false;
  std::uint32_t dump_hot = 0;
  const char* trace_path = nullptr;
  trace::TraceConfig trace_config;
  std::optional<TimePs> checkpoint_at;
  const char* checkpoint_path = nullptr;
  const char* restore_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      if (source_path != nullptr) {
        usage(argv[0]);
        return 2;
      }
      source_path = arg;
      continue;
    }
    const FlagSpec* spec = find_flag(arg);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage(argv[0]);
      return 2;
    }
    const char* value = nullptr;
    if (spec->metavar != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg);
        usage(argv[0]);
        return 2;
      }
      value = argv[++i];
    }
    // `ok` collects the value-parse outcomes so every branch shares one
    // error exit.
    bool ok = true;
    if (std::strcmp(arg, "--nodes") == 0) {
      std::uint32_t n = 0;
      ok = parse_u32(value, &n);
      if (ok) {
        config.single_node_baseline = (n == 0);
        config.slave_nodes = n;
      }
    } else if (std::strcmp(arg, "--cores") == 0) {
      ok = parse_u32(value, &config.machine.cores_per_node);
    } else if (std::strcmp(arg, "--quantum") == 0) {
      ok = parse_u32(value, &config.dbt.quantum_insns);
    } else if (std::strcmp(arg, "--dump-hot") == 0) {
      ok = parse_u32(value, &dump_hot);
    } else if (std::strcmp(arg, "--rtt-us") == 0) {
      std::uint32_t rtt = 0;
      ok = parse_u32(value, &rtt);
      if (ok) config.net.one_way_latency = rtt * time_literals::kUs / 2;
    } else if (std::strcmp(arg, "--gbps") == 0) {
      ok = parse_double(value, &config.net.bandwidth_gbps);
    } else if (std::strcmp(arg, "--forwarding") == 0) {
      config.dsm.enable_forwarding = true;
    } else if (std::strcmp(arg, "--splitting") == 0) {
      config.dsm.enable_splitting = true;
    } else if (std::strcmp(arg, "--dsm-diff") == 0) {
      config.dsm.enable_diff_transfers = true;
    } else if (std::strcmp(arg, "--hint-sched") == 0) {
      config.sched.policy = SchedPolicy::kHintLocality;
    } else if (std::strcmp(arg, "--hier-locking") == 0) {
      config.sys.enable_hierarchical_locking = true;
    } else if (std::strcmp(arg, "--home-sharding") == 0) {
      config.dsm.enable_home_sharding = true;
    } else if (std::strcmp(arg, "--placement") == 0) {
      if (std::strcmp(value, "hash") == 0) {
        config.dsm.home_placement = HomePlacement::kHash;
      } else if (std::strcmp(value, "first-touch") == 0) {
        config.dsm.home_placement = HomePlacement::kFirstTouch;
      } else {
        std::fprintf(stderr, "bad --placement %s (want hash or first-touch)\n",
                     value);
        return 2;
      }
    } else if (std::strcmp(arg, "--host-threads") == 0) {
      ok = parse_u32(value, &config.sim.host_threads);
    } else if (std::strcmp(arg, "--faults") == 0) {
      config.faults.enabled = true;
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      std::uint32_t seed = 0;
      ok = parse_u32(value, &seed);
      if (ok) config.faults.seed = seed;
    } else if (std::strcmp(arg, "--drop-pct") == 0) {
      ok = parse_double(value, &config.faults.drop_pct);
      if (ok && config.faults.drop_pct > 0.0) config.faults.enabled = true;
    } else if (std::strcmp(arg, "--crash") == 0) {
      FaultConfig::NodeFault nf;
      nf.kind = FaultConfig::NodeFault::Kind::kCrash;
      ok = parse_node_fault(value, /*want_duration=*/false, &nf);
      if (ok) {
        config.faults.node_faults.push_back(nf);
        config.faults.enabled = true;
      }
    } else if (std::strcmp(arg, "--pause") == 0) {
      FaultConfig::NodeFault nf;
      nf.kind = FaultConfig::NodeFault::Kind::kPause;
      ok = parse_node_fault(value, /*want_duration=*/true, &nf);
      if (ok) {
        config.faults.node_faults.push_back(nf);
        config.faults.enabled = true;
      }
    } else if (std::strcmp(arg, "--giveup-retrans") == 0) {
      ok = parse_u32(value, &config.faults.giveup_retrans);
    } else if (std::strcmp(arg, "--checkpoint") == 0) {
      const std::string_view cut(value);
      const std::size_t colon = cut.find(':');
      TimePs at = 0;
      ok = colon != std::string_view::npos && colon + 1 < cut.size() &&
           parse_us(cut.substr(0, colon), &at) && at > 0;
      if (ok) {
        checkpoint_at = at;
        checkpoint_path = value + colon + 1;
      }
    } else if (std::strcmp(arg, "--restore") == 0) {
      restore_path = value;
    } else if (std::strcmp(arg, "--serve") == 0) {
      config.serve.enabled = true;
    } else if (std::strcmp(arg, "--requests") == 0) {
      ok = parse_u32(value, &config.serve.requests);
    } else if (std::strcmp(arg, "--arrival") == 0) {
      if (std::strcmp(value, "poisson") == 0) {
        config.serve.arrival = ArrivalProcess::kPoisson;
      } else if (std::strcmp(value, "uniform") == 0) {
        config.serve.arrival = ArrivalProcess::kUniform;
      } else if (std::strcmp(value, "closed") == 0) {
        config.serve.arrival = ArrivalProcess::kClosed;
      } else {
        std::fprintf(stderr,
                     "bad --arrival %s (want poisson, uniform or closed)\n",
                     value);
        return 2;
      }
    } else if (std::strcmp(arg, "--rate") == 0) {
      ok = parse_double(value, &config.serve.rate);
    } else if (std::strcmp(arg, "--clients") == 0) {
      ok = parse_u32(value, &config.serve.clients);
    } else if (std::strcmp(arg, "--think-us") == 0) {
      std::uint32_t think_us = 0;
      ok = parse_u32(value, &think_us);
      if (ok) config.serve.think_mean = think_us * time_literals::kUs;
    } else if (std::strcmp(arg, "--clone") == 0) {
      ok = parse_u32(value, &config.serve.clones);
    } else if (std::strcmp(arg, "--serve-workers") == 0) {
      ok = parse_u32(value, &config.serve.workers);
    } else if (std::strcmp(arg, "--serve-seed") == 0) {
      std::uint32_t seed = 0;
      ok = parse_u32(value, &seed);
      if (ok) config.serve.seed = seed;
    } else if (std::strcmp(arg, "--stats") == 0) {
      dump_stats = true;
    } else if (std::strcmp(arg, "--breakdown") == 0) {
      breakdown = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace_path = value;
    } else if (std::strcmp(arg, "--trace-categories") == 0) {
      const auto mask = trace::parse_categories(value);
      if (!mask.has_value()) {
        std::fprintf(stderr,
                     "bad --trace-categories (want e.g. net,dsm,sys or"
                     " all/default)\n");
        return 2;
      }
      trace_config.categories = *mask;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      set_log_level(LogLevel::kDebug);
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(argv[0]);
      return 0;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s\n", arg);
      usage(argv[0]);
      return 2;
    }
  }
  if (config.serve.enabled && source_path != nullptr) {
    std::fprintf(stderr,
                 "--serve runs the built-in worker pool; drop %s\n",
                 source_path);
    return 2;
  }
  if (!config.serve.enabled && source_path == nullptr) {
    usage(argv[0]);
    return 2;
  }
  if (const Status valid = config.validate(); !valid.is_ok()) {
    std::fprintf(stderr, "bad configuration: %s\n", valid.to_string().c_str());
    return 2;
  }
  if (checkpoint_at.has_value() && restore_path != nullptr) {
    std::fprintf(stderr, "--checkpoint and --restore are exclusive\n");
    return 2;
  }
  std::optional<core::CheckpointImage> restore_image;
  if (restore_path != nullptr) {
    restore_image.emplace();
    if (!restore_image->load(restore_path)) {
      std::fprintf(stderr, "cannot read checkpoint image %s\n", restore_path);
      return 1;
    }
  }

  Result<isa::Program> program = [&]() -> Result<isa::Program> {
    if (config.serve.enabled) {
      workloads::ServePoolParams pool;
      pool.workers = config.serve.workers;
      return workloads::serve_pool(pool);
    }
    std::ifstream in(source_path);
    if (!in) {
      return Status::not_found(std::string("cannot open ") + source_path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return isa::assemble_text(text.str());
  }();
  if (!program.is_ok()) {
    std::fprintf(stderr, "%s: %s\n",
                 source_path != nullptr ? source_path : "--serve",
                 program.status().to_string().c_str());
    return 1;
  }

  std::unique_ptr<trace::Tracer> tracer;
  if (trace_path != nullptr) {
    tracer = std::make_unique<trace::Tracer>(trace_config);
  }

  core::Cluster cluster(config, tracer.get());
  if (checkpoint_at.has_value()) cluster.arm_checkpoint(*checkpoint_at);
  if (restore_image.has_value()) {
    // Restore = deterministic re-execution to the image's cut; the armed
    // capture there is compared digest-for-digest against the image below.
    cluster.arm_checkpoint(restore_image->virtual_time);
  }
  if (const Status status = cluster.load(program.value()); !status.is_ok()) {
    std::fprintf(stderr, "load: %s\n", status.to_string().c_str());
    return 1;
  }
  const auto host_start = std::chrono::steady_clock::now();
  auto run = cluster.run();
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();

  if (tracer != nullptr) {
    // Export even on a failed run: the flight recorder's whole point is
    // seeing what led up to a deadlock / limit trip.
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path);
      return 1;
    }
    const std::string_view path(trace_path);
    if (path.size() >= 4 && path.substr(path.size() - 4) == ".txt") {
      trace::write_text(*tracer, out);
    } else {
      trace::write_chrome_json(*tracer, out);
    }
    std::fprintf(stderr,
                 "[dqemu_run] trace: %zu records (%llu dropped) -> %s\n",
                 tracer->size(),
                 static_cast<unsigned long long>(tracer->dropped()),
                 trace_path);
  }

  if (!run.is_ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().to_string().c_str());
    return 1;
  }
  const auto& result = run.value();

  std::fputs(result.guest_stdout.c_str(), stdout);
  // sim_ps is the exact virtual time: virtual= rounds to 1 us, which hides
  // sub-microsecond drift from a byte-identity check.
  std::fprintf(stderr,
               "[dqemu_run] exit=%u  insns=%llu  virtual=%.6f s  sim_ps=%llu  "
               "nodes=%u\n",
               result.exit_code,
               static_cast<unsigned long long>(result.guest_insns),
               ps_to_seconds(result.sim_time),
               static_cast<unsigned long long>(result.sim_time),
               cluster.node_count());
  // Host-side cost of the run: wall-clock seconds, the simulation rate in
  // guest MIPS and the process's peak resident memory. This is what
  // --host-threads buys; virtual time above is independent of it by
  // construction. getrusage reports KiB on Linux; should it fail, the field
  // reads "unknown", which CI's memory gates reject.
  rusage usage{};
  char peak_rss[32] = "unknown";
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    std::snprintf(peak_rss, sizeof peak_rss, "%.1f",
                  static_cast<double>(usage.ru_maxrss) / 1024.0);
  }
  std::fprintf(stderr,
               "[dqemu_run] host: wall=%.3f s  guest-mips=%.2f  "
               "host-threads=%u  peak-rss=%s MiB\n",
               host_seconds,
               host_seconds > 0.0
                   ? static_cast<double>(result.guest_insns) / host_seconds /
                         1e6
                   : 0.0,
               config.sim.host_threads, peak_rss);

  // DBT hot-path summary: how often each host-side cache served a block
  // entry or a memory access. tlb_hit/tlb_miss count the software TLB,
  // which sees only the accesses a trace op's own TLB line did not serve.
  {
    const auto& stats = cluster.stats();
    std::fprintf(
        stderr,
        "[dqemu_run] dbt: jmp_cache_hit=%llu tlb_hit=%llu "
        "tlb_miss=%llu llsc_fastpath=%llu\n",
        static_cast<unsigned long long>(stats.get("dbt.jmp_cache_hit")),
        static_cast<unsigned long long>(stats.get("dbt.tlb_hit")),
        static_cast<unsigned long long>(stats.get("dbt.tlb_miss")),
        static_cast<unsigned long long>(stats.get("dbt.llsc_fastpath")));

    // Stitched superblocks (DESIGN.md §15); fused_ops also counts the
    // fused pairs of one-block traces. All host-side.
    std::fprintf(
        stderr,
        "[dqemu_run] sb: formed=%llu invalidated=%llu exec=%llu "
        "side_exit=%llu fused_ops=%llu\n",
        static_cast<unsigned long long>(stats.get("dbt.sb_formed")),
        static_cast<unsigned long long>(stats.get("dbt.sb_invalidated")),
        static_cast<unsigned long long>(stats.get("dbt.sb_exec")),
        static_cast<unsigned long long>(stats.get("dbt.sb_side_exit")),
        static_cast<unsigned long long>(stats.get("dbt.fused_ops")));

    // DSM optimization counters (page splitting / data forwarding / diff
    // transfers) and the hierarchical-locking counters; all zero when the
    // feature is off. bytes_on_wire counts data-plane payload traffic;
    // bytes_saved is what full-page transfers would have added on top.
    std::fprintf(
        stderr,
        "[dqemu_run] dsm: splits=%llu forwards=%llu diff_grants=%llu "
        "diff_writebacks=%llu bytes_on_wire=%llu bytes_saved=%llu\n",
        static_cast<unsigned long long>(stats.get("dir.splits")),
        static_cast<unsigned long long>(stats.get("dir.forwards")),
        static_cast<unsigned long long>(stats.get("dsm.diff_grants")),
        static_cast<unsigned long long>(stats.get("dsm.diff_writebacks")),
        static_cast<unsigned long long>(stats.get("dsm.bytes_on_wire")),
        static_cast<unsigned long long>(stats.get("dsm.bytes_saved")));
    std::fprintf(
        stderr,
        "[dqemu_run] lock: local_grants=%llu remote_grants=%llu "
        "async_wakes=%llu wake_batches=%llu leases=%llu recalls=%llu\n",
        static_cast<unsigned long long>(stats.get("sys.lock_local_grants")),
        static_cast<unsigned long long>(stats.get("sys.lock_remote_grants")),
        static_cast<unsigned long long>(stats.get("sys.lock_async_wakes")),
        static_cast<unsigned long long>(stats.get("sys.wake_batches")),
        static_cast<unsigned long long>(stats.get("sys.lease_grants")),
        static_cast<unsigned long long>(stats.get("sys.lease_recalls")));

    // Home-sharding summary (DESIGN.md §17): how evenly directory traffic
    // spread across the per-page home nodes. spread = max/min over the
    // slave homes; 1.0 is perfectly even. relays counts first-touch
    // requests the master re-addressed to the true home.
    if (config.dsm.enable_home_sharding) {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      std::uint64_t total = 0;
      std::uint32_t active = 0;
      for (std::uint32_t n = 1; n < cluster.node_count(); ++n) {
        const std::uint64_t msgs =
            stats.get("dsm.home_msgs." + std::to_string(n));
        total += msgs;
        if (msgs == 0) continue;
        ++active;
        if (lo == 0 || msgs < lo) lo = msgs;
        if (msgs > hi) hi = msgs;
      }
      std::fprintf(
          stderr,
          "[dqemu_run] homes: active=%u/%u msgs=%llu min=%llu max=%llu "
          "spread=%.2f relays=%llu\n",
          active, cluster.node_count() - 1,
          static_cast<unsigned long long>(total),
          static_cast<unsigned long long>(lo),
          static_cast<unsigned long long>(hi),
          lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0,
          static_cast<unsigned long long>(stats.get("dsm.home_relays")));
    }

    // Interconnect summary. The fault-model counters (dropped onward) stay
    // zero on the reliable wire.
    std::fprintf(
        stderr,
        "[dqemu_run] net: messages=%llu loopback=%llu dropped=%llu "
        "retrans=%llu dup_suppressed=%llu timeouts=%llu\n",
        static_cast<unsigned long long>(stats.get("net.messages")),
        static_cast<unsigned long long>(stats.get("net.loopback")),
        static_cast<unsigned long long>(stats.get("net.dropped")),
        static_cast<unsigned long long>(stats.get("net.retrans")),
        static_cast<unsigned long long>(stats.get("net.dup_suppressed")),
        static_cast<unsigned long long>(stats.get("dsm.timeouts")));

    // Whole-node fault plane (DESIGN.md §18): which nodes died and what the
    // recovery machinery did about it.
    if (!config.faults.node_faults.empty() ||
        config.faults.giveup_retrans > 0) {
      std::string dead;
      for (const NodeId id : cluster.dead_nodes()) {
        if (!dead.empty()) dead += ",";
        dead += std::to_string(id);
      }
      std::fprintf(
          stderr,
          "[dqemu_run] faults: dead=[%s] crashes=%llu pauses=%llu "
          "flushes=%llu rehomed=%llu leases_returned=%llu peer_dead=%llu\n",
          dead.c_str(),
          static_cast<unsigned long long>(stats.get("core.node_crashes")),
          static_cast<unsigned long long>(stats.get("core.node_pauses")),
          static_cast<unsigned long long>(
              stats.get("core.crash_flushes_sent")),
          static_cast<unsigned long long>(
              stats.get("core.threads_rehomed_sent")),
          static_cast<unsigned long long>(
              stats.get("sys.crash_lease_returns")),
          static_cast<unsigned long long>(stats.get("net.peer_dead")));
    }

    // Serving-plane summary (DESIGN.md §14): offered vs served load and
    // the tail of the latency distribution.
    if (config.serve.enabled) {
      const LogHistogram* lat = stats.find_histogram("serve.latency_ns");
      const double sim_seconds = ps_to_seconds(result.sim_time);
      const auto retired = stats.get("serve.retired");
      const double throughput =
          sim_seconds > 0.0 ? static_cast<double>(retired) / sim_seconds : 0.0;
      auto ms = [&](double q) {
        return lat != nullptr && !lat->empty()
                   ? static_cast<double>(lat->quantile(q)) / 1e6
                   : 0.0;
      };
      std::fprintf(
          stderr,
          "[dqemu_run] serve: requests=%llu retired=%llu executions=%llu "
          "checksum_errors=%llu throughput=%.1f req/s p50=%.3fms p99=%.3fms "
          "p999=%.3fms max=%.3fms\n",
          static_cast<unsigned long long>(stats.get("serve.requests")),
          static_cast<unsigned long long>(retired),
          static_cast<unsigned long long>(stats.get("serve.executions")),
          static_cast<unsigned long long>(stats.get("serve.checksum_errors")),
          throughput, ms(0.5), ms(0.99), ms(0.999),
          lat != nullptr && !lat->empty()
              ? static_cast<double>(lat->max()) / 1e6
              : 0.0);
    }
  }

  if (breakdown) {
    std::fprintf(stderr, "[dqemu_run] per-thread time (ms):\n");
    for (const auto& [tid, b] : result.per_thread) {
      std::fprintf(stderr,
                   "  tid %-4u node %-2u exec %8.3f  fault %8.3f  syscall "
                   "%8.3f  idle %8.3f\n",
                   tid, cluster.thread_node(tid),
                   ps_to_seconds(b.execute + b.translate) * 1e3,
                   ps_to_seconds(b.pagefault) * 1e3,
                   ps_to_seconds(b.syscall) * 1e3,
                   ps_to_seconds(b.idle) * 1e3);
    }
  }
  if (dump_stats) {
    std::fprintf(stderr, "[dqemu_run] counters:\n%s",
                 cluster.stats().to_string().c_str());
  }
  if (dump_hot > 0) {
    // Hot-block census across every node's translation cache, hottest
    // first, plus every live superblock. A block's hot counter counts its
    // entries while no superblock heads it.
    std::vector<std::pair<NodeId, dbt::HotBlockInfo>> blocks;
    std::vector<std::pair<NodeId, dbt::SuperblockInfo>> sbs;
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      for (const dbt::HotBlockInfo& b : cluster.node(n).tcache().hot_census())
        blocks.emplace_back(n, b);
      for (const dbt::SuperblockInfo& s :
           cluster.node(n).tcache().superblock_census())
        sbs.emplace_back(n, s);
    }
    std::sort(blocks.begin(), blocks.end(), [](const auto& x, const auto& y) {
      return x.second.hot_count > y.second.hot_count;
    });
    std::sort(sbs.begin(), sbs.end(), [](const auto& x, const auto& y) {
      return x.second.exec_count > y.second.exec_count;
    });
    std::fprintf(stderr, "[dqemu_run] hottest blocks (top %u of %zu):\n",
                 dump_hot, blocks.size());
    for (std::size_t i = 0; i < blocks.size() && i < dump_hot; ++i) {
      const auto& [n, b] = blocks[i];
      std::fprintf(stderr,
                   "  node %-2u pc 0x%08x  insns %-3u hot %-10llu %s\n", n,
                   b.pc, b.insns,
                   static_cast<unsigned long long>(b.hot_count),
                   b.has_sb ? "[sb]" : "");
    }
    std::fprintf(stderr, "[dqemu_run] superblocks (%zu):\n", sbs.size());
    for (const auto& [n, s] : sbs) {
      std::fprintf(stderr,
                   "  node %-2u entry 0x%08x  blocks %-2u insns %-3u "
                   "fused %-2u %s exec %-10llu side_exits %llu\n",
                   n, s.entry_pc, s.blocks, s.insns, s.fused_pairs,
                   s.loops ? "loop    " : "straight",
                   static_cast<unsigned long long>(s.exec_count),
                   static_cast<unsigned long long>(s.side_exits));
    }
  }
  if (checkpoint_path != nullptr) {
    const auto& image = cluster.checkpoint_image();
    if (!image.has_value()) {
      std::fprintf(stderr,
                   "checkpoint: guest finished at %.6f s, before the armed "
                   "%.6f s cut\n",
                   ps_to_seconds(result.sim_time),
                   ps_to_seconds(*checkpoint_at));
      return 1;
    }
    if (!image->save(checkpoint_path)) {
      std::fprintf(stderr, "cannot write %s\n", checkpoint_path);
      return 1;
    }
    std::fprintf(stderr,
                 "[dqemu_run] checkpoint: t=%.6f s  %zu digests -> %s\n",
                 ps_to_seconds(image->virtual_time), image->digests.size(),
                 checkpoint_path);
  }
  if (restore_image.has_value()) {
    const auto& image = cluster.checkpoint_image();
    if (!image.has_value()) {
      std::fprintf(stderr,
                   "restore: guest finished at %.6f s, before the image's "
                   "%.6f s cut — wrong program or config?\n",
                   ps_to_seconds(result.sim_time),
                   ps_to_seconds(restore_image->virtual_time));
      return 1;
    }
    const std::vector<std::string> mismatched = restore_image->diff(*image);
    if (!mismatched.empty()) {
      std::fprintf(stderr,
                   "restore: state diverged from the checkpoint at %.6f s:\n",
                   ps_to_seconds(image->virtual_time));
      for (const std::string& name : mismatched) {
        std::fprintf(stderr, "  digest mismatch: %s\n", name.c_str());
      }
      return 1;
    }
    std::fprintf(stderr,
                 "[dqemu_run] restore: verified %zu digests at t=%.6f s "
                 "(match)\n",
                 image->digests.size(), ps_to_seconds(image->virtual_time));
  }
  return static_cast<int>(result.exit_code);
}
