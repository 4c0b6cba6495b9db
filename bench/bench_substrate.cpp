// bench_substrate — wall-clock throughput harness for the simgpu substrate.
//
// Unlike the fig*/table* binaries this does not reproduce a paper figure: it
// measures how fast the *emulator itself* moves elements (elements/second of
// wall-clock time, not modeled device time) for the ported hot-loop
// algorithms on the emulator's one unchecked path — tile scans, whole-tile
// SIMD filters and the threshold-gated warp rounds, with no sanitizer
// attached.  The per-element paths a sanitizer selects charge the same
// counters (tile_invariance_test) and are not timed here.
//
// The binary also counts heap allocations inside each timed run (a global
// operator-new hook) and GATES on them: it exits non-zero unless every
// warmed run_select() allocates exactly zero times (the two-phase
// plan/workspace contract), and unless GridSelect's cold-start allocations
// (plan + bind + first run) stay flat across N — per-block engine state must
// come from the pooled slab and the scratch freelists, not the heap.
//
// Output: a human-readable table on stdout and BENCH_substrate.json in the
// working directory (schema documented in docs/performance.md).  `--smoke`
// shrinks N and the repetition count for CI.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"

// Global operator-new calls so far (bench/alloc_hook.cpp, which replaces
// the global operator new/delete to count them).
std::uint64_t heap_allocs();

namespace {

struct Row {
  std::string algo;
  std::size_t n = 0;
  std::size_t k = 0;
  double wall_ms = 0.0;
  double elems_per_sec = 0.0;
  double model_us = 0.0;
  std::uint64_t allocs = 0;       ///< fewest heap allocations of a timed rep
  std::uint64_t cold_allocs = 0;  ///< plan + first (cold) run allocations
};

/// Best-of-`reps` wall clock of one algorithm, measured two-phase: the plan
/// is built and the pooled workspace warmed OUTSIDE the timed region (one
/// untimed warm-up run binds the slab, fills the scratch freelists and
/// sizes the event buffers), so every timed rep exercises run_select()'s
/// steady state.  The allocation column is the MINIMUM heap-allocation
/// count over the timed reps — the per-run steady state, gated at exactly
/// zero.
Row measure(simgpu::Device& dev, std::span<const float> data, std::size_t n,
            std::size_t k, topk::Algo algo, int reps) {
  simgpu::ScopedWorkspace arena(dev);
  auto in = dev.alloc<float>(n);
  std::copy(data.begin(), data.end(), in.data());
  auto out_vals = dev.alloc<float>(k);
  auto out_idx = dev.alloc<std::uint32_t>(k);
  Row row;
  row.n = n;
  row.k = k;
  row.wall_ms = 1e300;
  row.allocs = std::numeric_limits<std::uint64_t>::max();
  // Cold-start cost: plan construction, workspace bind, and the first run
  // — everything a fresh shape pays before the steady state.  Gated flat in
  // N for GridSelect below: per-block engine state must come from the
  // pooled slab and the scratch freelists, never from O(num_blocks) heap
  // allocs.
  const std::uint64_t cold0 = heap_allocs();
  const topk::ExecutionPlan plan = topk::plan_select(dev.spec(), 1, n, k, algo);
  simgpu::Workspace ws(dev);
  dev.clear_events();
  topk::run_select(dev, plan, ws, in, out_vals, out_idx);  // untimed warm-up
  row.cold_allocs = heap_allocs() - cold0;
  for (int r = 0; r < reps; ++r) {
    dev.clear_events();
    const std::uint64_t allocs0 = heap_allocs();
    const auto t0 = std::chrono::steady_clock::now();
    topk::run_select(dev, plan, ws, in, out_vals, out_idx);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    row.allocs = std::min(row.allocs, heap_allocs() - allocs0);
    if (ms < row.wall_ms) {
      row.wall_ms = ms;
      row.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
    }
  }
  row.elems_per_sec = static_cast<double>(n) / (row.wall_ms / 1e3);
  return row;
}

/// One swept leg: a row on uniform keys, or on radix-adversarial M = 20
/// keys (the first 20 bits shared), on which AIR re-scans its input every
/// pass and whole 16-key groups of Sort's and BucketSelect's histograms
/// fall in one bin; at k = 256 unless the leg says otherwise.
struct Leg {
  topk::Algo algo;
  bool adversarial = false;
  std::size_t k = 256;
};

std::string leg_name(const Leg& leg) {
  return topk::algo_name(leg.algo) +
         (leg.adversarial ? " (adversarial M=20)" : "") +
         (leg.k != 256 ? " k=" + std::to_string(leg.k) : "");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const auto scale = topk::bench::BenchScale::from_env();
  const int max_log_n = smoke ? 18 : std::min(scale.max_log_n, 22);
  const int reps = smoke ? 5 : 4;  // timed reps per row; min is reported
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();

  std::vector<int> log_ns;
  for (int ln = smoke ? 16 : 18; ln <= max_log_n; ln += 2) {
    log_ns.push_back(ln);
  }

  const Leg legs[] = {
      {topk::Algo::kAirTopk},      {topk::Algo::kAirTopk, true},
      {topk::Algo::kSort},         {topk::Algo::kRadixSelect},
      {topk::Algo::kRadixSelect, true},
      {topk::Algo::kGridSelect},   {topk::Algo::kWarpSelect},
      {topk::Algo::kBlockSelect, false, 2048},
      {topk::Algo::kSampleSelect}, {topk::Algo::kBitonicTopk},
      {topk::Algo::kQuickSelect},  {topk::Algo::kBucketSelect},
      {topk::Algo::kSort, true},   {topk::Algo::kBucketSelect, true}};

  std::vector<Row> rows;
  std::cout << "algo,n,k,wall_ms,elems_per_sec,model_us,allocs,cold_allocs\n";
  // (N, cold_allocs) per GridSelect row, for the flat-in-N gate below.
  std::vector<std::pair<std::size_t, std::uint64_t>> grid_cold;
  for (const Leg& leg : legs) {
    for (const int ln : log_ns) {
      const std::size_t n = std::size_t{1} << ln;
      const auto data =
          leg.adversarial
              ? topk::data::radix_adversarial_values(n, 20, 42 + ln)
              : topk::data::uniform_values(n, 42 + ln);
      simgpu::Device dev(spec);
      Row r = measure(dev, data, n, leg.k, leg.algo, reps);
      r.algo = leg_name(leg);
      if (leg.algo == topk::Algo::kGridSelect) {
        grid_cold.emplace_back(n, r.cold_allocs);
      }
      std::cout << r.algo << "," << r.n << "," << r.k << "," << r.wall_ms
                << "," << static_cast<std::uint64_t>(r.elems_per_sec) << ","
                << r.model_us << "," << r.allocs << "," << r.cold_allocs
                << "\n";
      rows.push_back(r);
    }
  }

  topk::bench::JsonReport report;
  report.meta()
      .add("bench", "bench_substrate")
      .add("smoke", smoke)
      .add("reps", reps)
      .add("pool_threads", simgpu::ThreadPool::instance().size())
      .add("device", spec.name)
      .add("metric",
           "wall-clock elements/sec of the emulator's unchecked path "
           "(modeled device time is the same with a sanitizer attached by "
           "construction)");
  for (const Row& r : rows) {
    report.add_row("results", topk::bench::JsonRow()
                                  .add("algo", r.algo)
                                  .add("n", r.n)
                                  .add("k", r.k)
                                  .add("wall_ms", r.wall_ms)
                                  .add("elems_per_sec", r.elems_per_sec)
                                  .add("model_us", r.model_us)
                                  .add("allocs", r.allocs)
                                  .add("cold_allocs", r.cold_allocs));
  }
  if (report.write("BENCH_substrate.json")) {
    std::cout << "wrote BENCH_substrate.json (" << rows.size() << " rows)\n";
  } else {
    std::cerr << "could not write BENCH_substrate.json\n";
  }

  bool ok = true;

  // ---- GridSelect cold-start allocation gate: flat in N -------------------
  // GridSelect's grid grows with N (more blocks, one shared-queue engine
  // each), so per-block engine state leaking onto the heap shows up as
  // cold_allocs scaling with N.  With the engines drawing from the pooled
  // slab and the thread-local scratch freelists, the cold count is a small
  // N-independent constant; allow a little slack for pool slab resizing.
  if (grid_cold.size() >= 2) {
    const std::uint64_t first = grid_cold.front().second;
    const std::uint64_t last = grid_cold.back().second;
    std::ostringstream vals;
    for (std::size_t i = 0; i < grid_cold.size(); ++i) {
      vals << (i == 0 ? "" : ",") << grid_cold[i].second;
    }
    const bool flat = last <= first + 16;
    std::cout << "gate: GridSelect cold-start allocs across N = {"
              << vals.str() << "} (flat-in-N, slack 16) -> "
              << (flat ? "PASS" : "FAIL") << "\n";
    if (!flat) ok = false;
  }

  // ---- steady-state allocation gate ---------------------------------------
  // A warmed run_select() must touch the heap exactly zero times: the plan
  // precomputes every size and name, the workspace rebinds its retained
  // slab, and the engine scratch comes from thread-local freelists.  Any
  // nonzero count is a regression in the zero-alloc contract.
  std::uint64_t worst = 0;
  std::string worst_row;
  for (const Row& r : rows) {
    if (r.allocs > worst) {
      worst = r.allocs;
      worst_row = r.algo + " n=" + std::to_string(r.n);
    }
  }
  std::cout << "gate: steady-state allocs (pooled) = " << worst
            << (worst == 0 ? " -> PASS" : " (" + worst_row + ") -> FAIL")
            << "\n";
  if (worst != 0) ok = false;
  return ok ? 0 : 1;
}
