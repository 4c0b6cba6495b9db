// bench_substrate — wall-clock throughput harness for the simgpu substrate.
//
// Unlike the fig*/table* binaries this does not reproduce a paper figure: it
// measures how fast the *emulator itself* moves elements (elements/second of
// wall-clock time, not modeled device time) for the ported hot-loop
// algorithms, across the substrate fast paths:
//
//   - the tile-granular fast path (TOPK_SIM_TILE, PR "tile"), A/B'd as
//     tile off vs on for every algorithm, and
//   - the threshold-gated warp fast path (TOPK_SIM_WARPFAST, "warpfast"),
//     A/B'd as warpfast off vs on (tile on in both) for the WarpSelect
//     family rows (GridSelect, WarpSelect), whose cost is per-lane round
//     emulation rather than memory accounting, and for the partition rows
//     (SampleSelect, QuickSelect, BucketSelect) and Bitonic Top-K, whose
//     splitter searches, scans and networks run packed or bulk-charged
//     with both fast paths on.
//
// The A/B ratios are the substrate speedups that let default sweeps raise
// TOPK_MAX_LOG_N toward the paper's N = 2^30 regime.  The binary also counts
// heap allocations inside each timed run (a global operator-new hook) — the
// regression canary for the per-block engine-construction cost — and it
// GATES: it exits non-zero when a gated row's fast-path speedup at the
// largest swept N falls below a floor: GridSelect 20× / WarpSelect 6× full
// run, 3× in --smoke, where shared-runner noise and tiny N compress ratios
// (WarpSelect's floor is lower because its exact path — per-thread register
// queues, no shared-queue insertion machinery — is already cheap, and its
// warpfast leg sits at the single-core memory-bandwidth floor); SampleSelect
// and Bitonic Top-K 6× full run, 4× in --smoke.  QuickSelect and
// BucketSelect are reported without a gate: their exact paths are already
// within about 2× of the fast one.
// The gated ratio is fast-paths-on (tile + warpfast, the default config)
// versus fast-paths-off — the scalar per-lane emulation, i.e. what every
// run cost before the fast paths existed and still costs under simcheck.
//
// Output: a human-readable table on stdout and BENCH_substrate.json in the
// working directory (schema documented in docs/performance.md).  `--smoke`
// shrinks N and the repetition count for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"

// ---- allocation counting ---------------------------------------------------
// Counts every global operator-new call so a timed region can report how many
// heap allocations it performed.  Deliberately simple: malloc/free plus one
// relaxed atomic increment; the increment is noise next to malloc itself.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

struct Row {
  std::string algo;
  std::size_t n = 0;
  std::size_t k = 0;
  bool tile = false;
  bool warpfast = false;
  double wall_ms = 0.0;
  double elems_per_sec = 0.0;
  double model_us = 0.0;
  std::uint64_t allocs = 0;       ///< heap allocations inside the best rep
  std::uint64_t cold_allocs = 0;  ///< plan + first (cold) run allocations
};

/// Best-of-`reps` wall clock of one algorithm run, measured two-phase: the
/// plan is built and the pooled workspace warmed OUTSIDE the timed region
/// (one untimed warm-up rep binds the slab, fills the scratch freelists and
/// sizes the event buffers), so every timed rep exercises run_select()'s
/// steady state.  The allocation column is the MINIMUM heap-allocation count
/// over the timed reps — the per-run steady state, which the pooled path
/// gates at exactly zero.
Row measure(simgpu::Device& dev, std::span<const float> data, std::size_t n,
            std::size_t k, topk::Algo algo, bool tile, bool warpfast,
            int reps) {
  simgpu::set_tile_path_enabled(tile);
  simgpu::set_warpfast_path_enabled(warpfast);
  Row row;
  row.algo = topk::algo_name(algo);
  row.n = n;
  row.k = k;
  row.tile = tile;
  row.warpfast = warpfast;
  row.wall_ms = 1e300;
  row.allocs = std::numeric_limits<std::uint64_t>::max();
  simgpu::ScopedWorkspace arena(dev);
  auto in = dev.alloc<float>(n);
  std::copy(data.begin(), data.end(), in.data());
  auto out_vals = dev.alloc<float>(k);
  auto out_idx = dev.alloc<std::uint32_t>(k);
  // Cold-start cost: plan construction, workspace bind, and the first run —
  // everything a fresh shape pays before the steady state.  Gated flat in N
  // for GridSelect below: per-block engine state must come from the pooled
  // slab and the scratch freelists, never from O(num_blocks) heap allocs.
  const std::uint64_t cold0 = g_alloc_count.load(std::memory_order_relaxed);
  const topk::ExecutionPlan plan =
      topk::plan_select(dev.spec(), 1, n, k, algo);
  simgpu::Workspace ws(dev);
  dev.clear_events();
  topk::run_select(dev, plan, ws, in, out_vals, out_idx);  // untimed warm-up
  row.cold_allocs = g_alloc_count.load(std::memory_order_relaxed) - cold0;
  for (int r = 0; r < reps; ++r) {
    dev.clear_events();
    const std::uint64_t allocs0 =
        g_alloc_count.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    topk::run_select(dev, plan, ws, in, out_vals, out_idx);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    row.allocs = std::min(
        row.allocs, g_alloc_count.load(std::memory_order_relaxed) - allocs0);
    if (ms < row.wall_ms) {
      row.wall_ms = ms;
      row.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
    }
  }
  row.elems_per_sec = static_cast<double>(n) / (row.wall_ms / 1e3);
  return row;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Rows that get the warpfast A/B leg (tile + warpfast, the default
/// config), with their speedup floors at the largest swept N (full run,
/// --smoke); a floor of 0 reports the ratio without gating it.
struct FastPathRow {
  topk::Algo algo;
  double floor_full;
  double floor_smoke;
};

constexpr FastPathRow kFastPathRows[] = {
    {topk::Algo::kGridSelect, 20.0, 3.0},
    {topk::Algo::kWarpSelect, 6.0, 3.0},
    {topk::Algo::kSampleSelect, 6.0, 4.0},
    {topk::Algo::kBitonicTopk, 6.0, 4.0},
    {topk::Algo::kQuickSelect, 0.0, 0.0},
    {topk::Algo::kBucketSelect, 0.0, 0.0},
};

const FastPathRow* fast_path_row(topk::Algo algo) {
  for (const FastPathRow& r : kFastPathRows) {
    if (r.algo == algo) return &r;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const auto scale = topk::bench::BenchScale::from_env();
  const int max_log_n = smoke ? 18 : std::min(scale.max_log_n, 22);
  const int reps = smoke ? 2 : 4;  // rep 1 warms allocations, min is warm
  const std::size_t k = 256;
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  const bool tile_default = simgpu::tile_path_enabled();
  const bool warpfast_default = simgpu::warpfast_path_enabled();

  std::vector<int> log_ns;
  for (int ln = smoke ? 16 : 18; ln <= max_log_n; ln += 2) {
    log_ns.push_back(ln);
  }

  const topk::Algo algos[] = {
      topk::Algo::kAirTopk,      topk::Algo::kSort,
      topk::Algo::kRadixSelect,  topk::Algo::kGridSelect,
      topk::Algo::kWarpSelect,   topk::Algo::kSampleSelect,
      topk::Algo::kBitonicTopk,  topk::Algo::kQuickSelect,
      topk::Algo::kBucketSelect};

  // Warpfast speedup (both fast paths on vs both off) at the largest swept
  // N, per warpfast-leg row; checked against the floors after the sweep.
  std::vector<std::pair<const FastPathRow*, double>> wf_speedups;

  std::vector<Row> rows;
  std::cout
      << "algo,n,k,tile,warpfast,wall_ms,elems_per_sec,model_us,allocs,"
         "cold_allocs,speedup\n";
  // (N, cold_allocs) per GridSelect default-config (tile+warpfast) row, for
  // the flat-in-N gate below.
  std::vector<std::pair<std::size_t, std::uint64_t>> grid_cold;
  for (const topk::Algo algo : algos) {
    for (const int ln : log_ns) {
      const std::size_t n = std::size_t{1} << ln;
      const auto data = topk::data::uniform_values(n, 42 + ln);
      simgpu::Device dev(spec);
      const Row off = measure(dev, data, n, k, algo, false, false, reps);
      const Row on = measure(dev, data, n, k, algo, true, false, reps);
      std::vector<const Row*> printed = {&off, &on};
      Row wf;
      if (const FastPathRow* fp = fast_path_row(algo)) {
        wf = measure(dev, data, n, k, algo, true, true, reps);
        printed.push_back(&wf);
        if (algo == topk::Algo::kGridSelect) {
          grid_cold.emplace_back(n, wf.cold_allocs);
        }
        if (ln == log_ns.back()) {
          wf_speedups.emplace_back(fp, off.wall_ms / wf.wall_ms);
        }
      }
      const double tile_speedup = off.wall_ms / on.wall_ms;
      for (const Row* r : printed) {
        // The speedup column reports tile-on vs tile-off for the tile leg,
        // and the gated ratio — both fast paths on vs both off — for the
        // warpfast leg.
        std::string speedup = "-";
        if (r == &on) speedup = fmt_double(tile_speedup);
        if (r->warpfast) speedup = fmt_double(off.wall_ms / r->wall_ms);
        std::cout << r->algo << "," << r->n << "," << r->k << ","
                  << (r->tile ? "on" : "off") << ","
                  << (r->warpfast ? "on" : "off") << "," << r->wall_ms << ","
                  << static_cast<std::uint64_t>(r->elems_per_sec) << ","
                  << r->model_us << "," << r->allocs << ","
                  << r->cold_allocs << "," << speedup << "\n";
        rows.push_back(*r);
      }
    }
  }
  simgpu::set_tile_path_enabled(tile_default);
  simgpu::set_warpfast_path_enabled(warpfast_default);

  std::ofstream out("BENCH_substrate.json");
  out << "{\n  \"meta\": {\n"
      << "    \"bench\": \"bench_substrate\",\n"
      << "    \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "    \"reps\": " << reps << ",\n"
      << "    \"pool_threads\": " << simgpu::ThreadPool::instance().size()
      << ",\n"
      << "    \"tile_path_default\": " << (tile_default ? "true" : "false")
      << ",\n"
      << "    \"warpfast_path_default\": "
      << (warpfast_default ? "true" : "false") << ",\n"
      << "    \"pool_enabled\": "
      << (simgpu::pool_enabled() ? "true" : "false") << ",\n"
      << "    \"device\": \"" << spec.name << "\",\n"
      << "    \"metric\": \"wall-clock elements/sec of the emulator "
         "(modeled device time is tile- and warpfast-invariant by "
         "construction)\"\n"
      << "  },\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"algo\": \"" << r.algo << "\", \"n\": " << r.n
        << ", \"k\": " << r.k << ", \"tile\": " << (r.tile ? "true" : "false")
        << ", \"warpfast\": " << (r.warpfast ? "true" : "false")
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"elems_per_sec\": " << fmt_double(r.elems_per_sec)
        << ", \"model_us\": " << r.model_us << ", \"allocs\": " << r.allocs
        << ", \"cold_allocs\": " << r.cold_allocs << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_substrate.json (" << rows.size() << " rows)\n";

  // ---- warpfast speedup gates ---------------------------------------------
  bool ok = true;
  for (const auto& [fp, got] : wf_speedups) {
    const double floor = smoke ? fp->floor_smoke : fp->floor_full;
    std::cout << (floor > 0.0 ? "gate: " : "report: ")
              << topk::algo_name(fp->algo) << " warpfast speedup at N=2^"
              << log_ns.back() << " = " << fmt_double(got);
    if (floor > 0.0) {
      std::cout << " (floor " << fmt_double(floor) << ") -> "
                << (got >= floor ? "PASS" : "FAIL");
      if (got < floor) ok = false;
    }
    std::cout << "\n";
  }

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
  // With the memory pool on (the default), a warmed run_select() must touch
  // the heap exactly zero times: the plan precomputes every size and name,
  // the workspace rebinds its retained slab, and the engine scratch comes
  // from thread-local freelists.  Any nonzero count is a regression in the
  // zero-alloc contract.
  if (simgpu::pool_enabled()) {
    std::uint64_t worst = 0;
    std::string worst_row;
    for (const Row& r : rows) {
      if (r.allocs > worst) {
        worst = r.allocs;
        std::ostringstream os;
        os << r.algo << " n=" << r.n << " tile=" << (r.tile ? "on" : "off")
           << " warpfast=" << (r.warpfast ? "on" : "off");
        worst_row = os.str();
      }
    }
    std::cout << "gate: steady-state allocs (pooled) = " << worst
              << (worst == 0 ? " -> PASS" : " (" + worst_row + ") -> FAIL")
              << "\n";
    if (worst != 0) ok = false;
  }
  return ok ? 0 : 1;
}
