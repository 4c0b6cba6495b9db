// perfbench — the repository benchmark.
//
//   perfbench --workload <paper_grid|serve_burst|shard_large|serve_open>
//             --seed <n>
//             --seconds <s> --trace <0|1> [--scale tiny] [--out-dir <dir>]
//
// Runs one named workload from a seed, checks every answer against a host
// oracle, and prints as its last stdout line one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See perfbench/README.md.

#include <malloc.h>
#include <sched.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void finish_trace(const Tracer& tr, Report& rep, std::uint64_t queries,
                  const Options& opt) {
  const std::map<std::string, double> self = tr.self_ms_by_layer();
  const double q = static_cast<double>(queries == 0 ? 1 : queries);
  for (const char* layer : {"bench", "core", "serve", "shard"}) {
    const auto it = self.find(layer);
    rep.set(std::string("self_ms.") + layer,
            it == self.end() ? 0.0 : it->second / q);
  }
  rep.set("trace.spans", static_cast<double>(tr.size()));
  const std::string path = out_path(opt, ".trace.json");
  tr.write_chrome_json(path);
  std::cout << "trace: " << path << "\n";
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <paper_grid|serve_burst|"
               "shard_large|serve_open> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale tiny] [--out-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--scale") {
      if (val != "tiny" && val != "full") return usage();
      opt.tiny = val == "tiny";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0.0)) return usage();
  // The emulator runs every simulated block on the calling thread: its
  // worker pool would otherwise claim every core, and wall time would measure
  // how the host schedules those workers beside its other tenants rather
  // than the work the library does.
  setenv("TOPK_SIM_THREADS", "1", 1);
  // The closed-loop workloads keep one query in flight, so nothing in them
  // runs in parallel: they stay on one core.  Pinning the process before any
  // thread starts (the service's threads inherit it) turns the serving
  // path's cross-core wake-ups, whose cost varies from run to run on a
  // shared VM, into context switches.  The open loop keeps both service
  // workers busy at once and is left unpinned.
  if (const int cpu = sched_getcpu(); cpu >= 0 && opt.workload != "serve_open") {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  // A fixed mmap threshold turns off glibc's dynamic one, which rises after
  // the first large free and then serves large blocks from heaps that keep
  // whatever their fragmentation leaves behind.  Blocks of 1 MiB and more
  // are mapped and unmapped as they come and go, so peak_rss_mb follows
  // live memory rather than the order frees happened in.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    perfbench::Report rep;
    if (opt.workload == "paper_grid") {
      rep = perfbench::run_paper_grid(opt);
    } else if (opt.workload == "serve_burst") {
      rep = perfbench::run_serve_burst(opt);
    } else if (opt.workload == "serve_open") {
      rep = perfbench::run_serve_open(opt);
    } else if (opt.workload == "shard_large") {
      rep = perfbench::run_shard_large(opt);
    } else {
      return usage();
    }
    rep.set("peak_rss_mb", perfbench::peak_rss_mb());
    rep.set("failed_share",
            rep.attempted == 0 ? 1.0
                               : static_cast<double>(rep.failed) /
                                     static_cast<double>(rep.attempted));
    rep.print_json(opt.trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
