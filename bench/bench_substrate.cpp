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
//     family rows (GridSelect, WarpSelect, BlockSelect at k = 2048; every
//     other leg runs at k = 256), whose cost is per-lane round
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
// warpfast leg sits at the single-core memory-bandwidth floor); BlockSelect
// at k = 2048 3.5× full run, 4.5× in --smoke (its flushes drain up to 320
// thread-queue candidates into a 2048-long list, the largest list the
// engines' scratch holds); SampleSelect
// and Bitonic Top-K 6× full run, 4× in --smoke; AIR Top-K 4× (2× smoke),
// AIR Top-K on radix-adversarial M = 20 keys 2.5× (1.25× smoke),
// RadixSelect 3.5× (2× smoke) and RadixSelect on radix-adversarial keys 3×
// (3.5× smoke), where every key is kept as a tie and the tile leg reserves
// a tile's appends at once (both gated with the workspace pool on, since
// with it off each rep faults in RadixSelect's n-sized candidate buffers in
// both legs).  QuickSelect and BucketSelect are reported
// without a gate: their exact paths are already within about 2× of the
// fast one.
// The gated ratio is fast-paths-on (tile + warpfast, the default config;
// tile alone for the radix rows, which have no warp fast path) versus
// fast-paths-off — the scalar per-lane emulation, i.e. what every run cost
// before the fast paths existed and still costs under simcheck.  The legs of
// one row run their timed reps interleaved, so host contention that comes
// and goes lands on both sides of a ratio.
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
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <utility>
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

/// One fast-path setting to measure a row under.
struct Mode {
  bool tile;
  bool warpfast;
};

/// Best-of-`reps` wall clock of one algorithm under each of `modes`,
/// measured two-phase: per mode the plan is built and the pooled workspace
/// warmed OUTSIDE the timed region (one untimed warm-up run binds the slab,
/// fills the scratch freelists and sizes the event buffers), so every timed
/// rep exercises run_select()'s steady state.  The modes' timed reps
/// interleave, one rep of each mode per round, so host contention that comes
/// and goes lands on every mode alike and the speedups between them keep
/// their meaning.  The allocation column is the MINIMUM heap-allocation
/// count over a mode's timed reps — the per-run steady state, which the
/// pooled path gates at exactly zero.
std::vector<Row> measure(simgpu::Device& dev, std::span<const float> data,
                         std::size_t n, std::size_t k, topk::Algo algo,
                         std::span<const Mode> modes, int reps) {
  struct Planned {
    Planned(topk::ExecutionPlan p, simgpu::Device& d)
        : plan(std::move(p)), ws(d) {}
    topk::ExecutionPlan plan;
    simgpu::Workspace ws;
  };
  simgpu::ScopedWorkspace arena(dev);
  auto in = dev.alloc<float>(n);
  std::copy(data.begin(), data.end(), in.data());
  auto out_vals = dev.alloc<float>(k);
  auto out_idx = dev.alloc<std::uint32_t>(k);
  std::vector<Row> rows(modes.size());
  std::vector<std::unique_ptr<Planned>> planned;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    simgpu::set_tile_path_enabled(modes[m].tile);
    simgpu::set_warpfast_path_enabled(modes[m].warpfast);
    Row& row = rows[m];
    row.algo = topk::algo_name(algo);
    row.n = n;
    row.k = k;
    row.tile = modes[m].tile;
    row.warpfast = modes[m].warpfast;
    row.wall_ms = 1e300;
    row.allocs = std::numeric_limits<std::uint64_t>::max();
    // Cold-start cost: plan construction, workspace bind, and the first run
    // — everything a fresh shape pays before the steady state.  Gated flat
    // in N for GridSelect below: per-block engine state must come from the
    // pooled slab and the scratch freelists, never from O(num_blocks) heap
    // allocs.
    const std::uint64_t cold0 = g_alloc_count.load(std::memory_order_relaxed);
    planned.push_back(std::make_unique<Planned>(
        topk::plan_select(dev.spec(), 1, n, k, algo), dev));
    dev.clear_events();
    topk::run_select(dev, planned[m]->plan, planned[m]->ws, in, out_vals,
                     out_idx);  // untimed warm-up
    row.cold_allocs = g_alloc_count.load(std::memory_order_relaxed) - cold0;
  }
  for (int r = 0; r < reps; ++r) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      simgpu::set_tile_path_enabled(modes[m].tile);
      simgpu::set_warpfast_path_enabled(modes[m].warpfast);
      Row& row = rows[m];
      dev.clear_events();
      const std::uint64_t allocs0 =
          g_alloc_count.load(std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      topk::run_select(dev, planned[m]->plan, planned[m]->ws, in, out_vals,
                       out_idx);
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
  }
  for (Row& row : rows) {
    row.elems_per_sec = static_cast<double>(n) / (row.wall_ms / 1e3);
  }
  return rows;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// One swept leg: a row on uniform keys, or on radix-adversarial M = 20
/// keys (the first 20 bits shared), on which AIR re-scans its input every
/// pass; at k = 256 unless the leg says otherwise.
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

/// Legs whose speedup against everything off at the largest swept N is
/// reported, with floors (full run, --smoke); a floor of 0 reports the ratio
/// without gating it.  The warp-queue rows, the partition rows and Bitonic
/// Top-K get a warpfast leg (tile + warpfast, the default config) and are
/// gated on it; the radix rows use no warp fast path and are gated on the
/// tile leg.
struct FastPathRow {
  Leg leg;
  bool warpfast_leg;
  double floor_full;
  double floor_smoke;
  /// Gate only with the workspace pool on.  With it off every timed rep
  /// binds the row's workspace afresh and faults it in, the same
  /// milliseconds in both legs; for RadixSelect (4n words of candidate
  /// buffers) that compresses the ratio to 1.1–2.6×, so it is reported.
  bool pooled_only = false;
};

constexpr FastPathRow kFastPathRows[] = {
    {{topk::Algo::kGridSelect}, true, 20.0, 3.0},
    {{topk::Algo::kWarpSelect}, true, 6.0, 3.0},
    {{topk::Algo::kBlockSelect, false, 2048}, true, 3.5, 4.5},
    {{topk::Algo::kSampleSelect}, true, 6.0, 4.0},
    {{topk::Algo::kBitonicTopk}, true, 6.0, 4.0},
    {{topk::Algo::kQuickSelect}, true, 0.0, 0.0},
    {{topk::Algo::kBucketSelect}, true, 0.0, 0.0},
    {{topk::Algo::kAirTopk}, false, 4.0, 2.0},
    {{topk::Algo::kAirTopk, true}, false, 2.5, 1.25},
    {{topk::Algo::kRadixSelect}, false, 3.5, 2.0, true},
    {{topk::Algo::kRadixSelect, true}, false, 3.0, 3.5, true},
};

const FastPathRow* fast_path_row(const Leg& leg) {
  for (const FastPathRow& r : kFastPathRows) {
    if (r.leg.algo == leg.algo && r.leg.adversarial == leg.adversarial &&
        r.leg.k == leg.k) {
      return &r;
    }
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
  const int reps = smoke ? 5 : 4;  // timed reps per mode; min is reported
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  const bool tile_default = simgpu::tile_path_enabled();
  const bool warpfast_default = simgpu::warpfast_path_enabled();

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
      {topk::Algo::kQuickSelect},  {topk::Algo::kBucketSelect}};

  // Gated speedup (the warpfast or the tile leg vs everything off) at the
  // largest swept N, per FastPathRow; checked against the floors after the
  // sweep.
  std::vector<std::pair<const FastPathRow*, double>> speedups;

  std::vector<Row> rows;
  std::cout
      << "algo,n,k,tile,warpfast,wall_ms,elems_per_sec,model_us,allocs,"
         "cold_allocs,speedup\n";
  // (N, cold_allocs) per GridSelect default-config (tile+warpfast) row, for
  // the flat-in-N gate below.
  std::vector<std::pair<std::size_t, std::uint64_t>> grid_cold;
  for (const Leg& leg : legs) {
    const topk::Algo algo = leg.algo;
    const FastPathRow* const fp = fast_path_row(leg);
    for (const int ln : log_ns) {
      const std::size_t n = std::size_t{1} << ln;
      const auto data =
          leg.adversarial
              ? topk::data::radix_adversarial_values(n, 20, 42 + ln)
              : topk::data::uniform_values(n, 42 + ln);
      simgpu::Device dev(spec);
      // Everything off, the tile leg, and for the warpfast rows both fast
      // paths on.
      const bool with_wf = fp != nullptr && fp->warpfast_leg;
      const Mode modes[] = {{false, false}, {true, false}, {true, true}};
      std::vector<Row> measured = measure(
          dev, data, n, leg.k, algo, std::span(modes, with_wf ? 3 : 2), reps);
      for (Row& r : measured) r.algo = leg_name(leg);
      const Row& off = measured[0];
      if (with_wf && algo == topk::Algo::kGridSelect) {
        grid_cold.emplace_back(n, measured[2].cold_allocs);
      }
      if (fp != nullptr && ln == log_ns.back()) {
        speedups.emplace_back(fp, off.wall_ms / measured.back().wall_ms);
      }
      for (const Row& r : measured) {
        // The speedup column is each leg against everything off: tile-on
        // for the tile leg, both fast paths on for the warpfast leg.
        const std::string speedup =
            r.tile ? fmt_double(off.wall_ms / r.wall_ms) : "-";
        std::cout << r.algo << "," << r.n << "," << r.k << ","
                  << (r.tile ? "on" : "off") << ","
                  << (r.warpfast ? "on" : "off") << "," << r.wall_ms << ","
                  << static_cast<std::uint64_t>(r.elems_per_sec) << ","
                  << r.model_us << "," << r.allocs << "," << r.cold_allocs
                  << "," << speedup << "\n";
        rows.push_back(r);
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

  // ---- fast-path speedup gates --------------------------------------------
  bool ok = true;
  for (const auto& [fp, got] : speedups) {
    double floor = smoke ? fp->floor_smoke : fp->floor_full;
    if (fp->pooled_only && !simgpu::pool_enabled()) floor = 0.0;
    std::cout << (floor > 0.0 ? "gate: " : "report: ") << leg_name(fp->leg)
              << (fp->warpfast_leg ? " warpfast" : " tile")
              << " speedup at N=2^" << log_ns.back() << " = "
              << fmt_double(got);
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
