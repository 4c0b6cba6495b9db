// paper_grid: the paper's §5 sweep as a closed loop with one caller.
//
// A fixed grid of cells (registry row x shape x key distribution x
// direction x dtype) runs round-robin, each through a cached ExecutionPlan
// and one warm Workspace, with the input uploaded to the device before each
// run (upload + run + download is the timed query).  Modeled device time is
// the CostModel over the events the run_select call recorded.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/key_codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using topk::Algo;

enum class Keys { kUniform, kAdversarial, kI32 };

const char* keys_name(Keys k) {
  switch (k) {
    case Keys::kUniform: return "uniform";
    case Keys::kAdversarial: return "adversarial";
    case Keys::kI32: return "i32";
  }
  return "?";
}

/// One shape of the grid.  `rows` lists its registry rows; an empty list
/// means every paper row legal at the shape (plus the fused row-wise family
/// at batch > 1).
struct Group {
  std::size_t batch;
  int log_n;
  std::size_t k;
  Keys keys;
  bool greatest;
  std::vector<std::string> rows;
};

std::vector<Group> grid_groups(bool tiny) {
  // Full scale: N = 2^22 at batch 1, except the slice that runs every row
  // (2^19: its slowest emulated rows, RadixSelect and the streaming row on
  // radix-adversarial keys, would otherwise dominate the round) and the
  // K = 2048 slice (2^21); 2^14 / 2^12 rows at batch 100; and the large-K
  // slice at N = 2^24, with the radix and streaming rows whose workspace
  // stays small there (RadixSelect and Sort would need a 256 MiB workspace).
  // Sort, Bitonic and GridSelect run only at the shapes where their
  // emulation takes tens of milliseconds, not hundreds: wall figures take
  // each cell's best round, and a shorter round gives every cell more
  // rounds to find the host's quiet moments in.
  const int big = tiny ? 13 : 22;
  const int k2048 = tiny ? 13 : 21;
  const int all_rows = tiny ? 12 : 19;
  const int row14 = tiny ? 10 : 14;
  const int row12 = tiny ? 9 : 12;
  const std::size_t rows = tiny ? 8 : 100;
  const int huge = tiny ? 15 : 24;
  const std::size_t k_huge = tiny ? 1024 : 65536;
  const std::vector<std::string> fast = {"auto", "air",  "grid",
                                         "warp", "block"};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> r = fast;
    r.insert(r.end(), extra.begin(), extra.end());
    return r;
  };
  return {
      {1, big, 256, Keys::kUniform, false,
       with({"radixselect", "bucket", "stream-radix"})},
      {1, all_rows, 256, Keys::kAdversarial, false, {}},
      {1, big, 32, Keys::kAdversarial, true, with({"bucket"})},
      {1, k2048, 2048, Keys::kUniform, true, {"auto", "air", "warp", "block"}},
      {rows, row14, 256, Keys::kAdversarial, false,
       with({"fused-warp", "fused-block", "sort", "bucket"})},
      {rows, row12, 32, Keys::kUniform, true, {}},
      {1, huge, k_huge, Keys::kUniform, false, {"auto", "air", "stream-radix"}},
      {1, big, 256, Keys::kI32, true, with({"radixselect", "stream-radix"})},
  };
}

/// The group's rows, minus those illegal at its shape or dtype.
std::vector<std::string> group_rows(const Group& g) {
  std::vector<std::string> rows = g.rows;
  if (rows.empty()) {
    rows = {"auto",  "air",   "grid",   "radixselect", "warp",
            "block", "bitonic", "quick", "bucket",     "sample",
            "sort",  "stream-radix"};
    if (g.batch > 1) {
      rows.push_back("fused-warp");
      rows.push_back("fused-block");
    }
  }
  const auto dtype =
      g.keys == Keys::kI32 ? topk::KeyType::kI32 : topk::KeyType::kF32;
  std::vector<std::string> legal;
  for (const std::string& r : rows) {
    const Algo a = *topk::parse_algo(r);
    if (a == Algo::kAuto ||
        (topk::max_k(a, std::size_t{1} << g.log_n) >= g.k &&
         topk::algo_supports_dtype(a, dtype))) {
      legal.push_back(r);
    }
  }
  return legal;
}

struct Input {
  std::size_t batch = 1;
  std::size_t n = 0;
  Keys keys = Keys::kUniform;
  std::vector<float> f;          // f32 keys
  std::vector<std::int32_t> i;   // i32 keys
  std::vector<std::uint32_t> u;  // i32 keys as u32-carrier ordinals
};

/// Exact per-query counts from the recorded event stream.
struct Counts {
  std::uint64_t kernels = 0;
  std::uint64_t bytes = 0;
  std::uint64_t lane_ops = 0;
  std::uint64_t syncs = 0;
  std::uint64_t memcpys = 0;
  std::uint64_t host_ops = 0;
};

struct Cell {
  std::string name;
  std::string row;
  std::size_t group = 0;
  std::size_t input = 0;
  std::size_t k = 0;
  bool greatest = false;
  topk::ExecutionPlan plan;
  std::vector<std::vector<double>>* oracle = nullptr;  // per batch row
  // Per-phase samples.
  std::vector<double> wall_ms;
  std::vector<double> modeled_us;
  double upload_ms = 0.0;
  double run_ms = 0.0;
  double download_ms = 0.0;
  // Last query's modeled breakdown and counts (exact, repeat per query).
  Counts counts;
  double device_busy_us = 0.0;
  double transfer_us = 0.0;
  double host_us = 0.0;
  double mem_sol_weighted_us = 0.0;  // sum of mem_sol * duration
  double kernel_us = 0.0;            // sum of kernel durations
  bool expanded = false;             // modeled spans already traced
};

struct Grid {
  explicit Grid(const Options& opt);

  simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  simgpu::CostModel cost{spec};
  std::vector<Input> inputs;
  std::map<std::tuple<std::size_t, std::size_t, bool>,
           std::vector<std::vector<double>>>
      oracles;
  simgpu::Device dev{spec};
  simgpu::Workspace ws{dev};
  simgpu::DeviceBuffer<float> in_f, out_f;
  simgpu::DeviceBuffer<std::uint32_t> in_u, out_u, out_idx;
  std::vector<float> host_f;
  std::vector<std::uint32_t> host_u, host_idx;
  std::vector<Cell> cells;
  std::vector<Group> groups;
  std::vector<double> plan_us;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> plan_times;
};

Grid::Grid(const Options& opt) : groups(grid_groups(opt.tiny)) {
  std::map<std::tuple<std::size_t, int, Keys>, std::size_t> input_of;
  std::size_t max_in_f = 0, max_in_u = 0, max_out = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    const auto key = std::make_tuple(g.batch, g.log_n, g.keys);
    if (!input_of.contains(key)) {
      Input in;
      in.batch = g.batch;
      in.n = std::size_t{1} << g.log_n;
      in.keys = g.keys;
      const std::size_t total = in.batch * in.n;
      const std::uint64_t seed = input_seed(opt, inputs.size());
      if (g.keys == Keys::kUniform) {
        in.f = topk::data::uniform_values(total, seed);
      } else if (g.keys == Keys::kAdversarial) {
        in.f = topk::data::radix_adversarial_values(total, 20, seed);
      } else {
        const std::vector<std::uint32_t> bits =
            topk::data::uniform_u32(total, seed);
        in.i.resize(total);
        in.u.resize(total);
        for (std::size_t j = 0; j < total; ++j) {
          std::int32_t v = static_cast<std::int32_t>(bits[j]);
          // Type extremes collide with the warp-queue rows' empty-slot
          // sentinels (a known correctness hole); they join the workload
          // once the key order is fixed.
          if (v == std::numeric_limits<std::int32_t>::min() ||
              v == std::numeric_limits<std::int32_t>::max()) {
            v = 0;
          }
          in.i[j] = v;
          in.u[j] = topk::codec::encode_i32(v);
        }
        max_in_u = std::max(max_in_u, total);
      }
      if (g.keys != Keys::kI32) max_in_f = std::max(max_in_f, total);
      input_of[key] = inputs.size();
      inputs.push_back(std::move(in));
    }
    max_out = std::max(max_out, g.batch * g.k);
    const std::size_t input = input_of[key];
    for (const std::string& row : group_rows(g)) {
      Cell c;
      c.row = row;
      c.group = gi;
      c.input = input;
      c.k = g.k;
      c.greatest = g.greatest;
      c.name = row + "/b" + std::to_string(g.batch) + "/n2^" +
               std::to_string(g.log_n) + "/k" + std::to_string(g.k) + "/" +
               keys_name(g.keys) + "/" + (g.greatest ? "largest" : "smallest");
      topk::SelectOptions so;
      so.greatest = g.greatest;
      so.dtype =
          g.keys == Keys::kI32 ? topk::KeyType::kI32 : topk::KeyType::kF32;
      const auto t0 = Clock::now();
      c.plan = topk::plan_select(spec, g.batch, std::size_t{1} << g.log_n,
                                 g.k, *topk::parse_algo(row), so);
      const auto t1 = Clock::now();
      plan_us.push_back(us_between(t0, t1));
      plan_times.emplace_back(t0, t1);
      c.oracle = &oracles[std::make_tuple(input, g.k, g.greatest)];
      cells.push_back(std::move(c));
    }
  }
  in_f = dev.alloc<float>(max_in_f, "grid input f32");
  in_u = dev.alloc<std::uint32_t>(std::max<std::size_t>(max_in_u, 1),
                                  "grid input u32");
  out_f = dev.alloc<float>(max_out, "grid out values f32");
  out_u = dev.alloc<std::uint32_t>(max_out, "grid out values u32");
  out_idx = dev.alloc<std::uint32_t>(max_out, "grid out indices");
  host_f.resize(max_out);
  host_u.resize(max_out);
  host_idx.resize(max_out);
}

struct QueryTimes {
  Clock::time_point t0, t1, t2, t3, t4;
  std::uint64_t allocs = 0;  ///< host allocations inside the timed calls
  simgpu::Timeline timeline;
};

/// One timed query: upload, run_select, download.  The modeled timeline is
/// computed between run and download, outside the timed segments.
QueryTimes run_query(Grid& g, const Cell& c) {
  const Input& in = g.inputs[c.input];
  const std::size_t total = in.batch * in.n;
  const std::size_t outn = in.batch * c.k;
  const bool u32 = c.plan.u32_carrier();
  QueryTimes q;
  const std::uint64_t a0 = host_allocs();
  q.t0 = Clock::now();
  if (u32) {
    g.dev.upload(g.in_u.subspan(0, total), std::span<const std::uint32_t>(in.u));
  } else {
    g.dev.upload(g.in_f.subspan(0, total), std::span<const float>(in.f));
  }
  q.t1 = Clock::now();
  g.dev.clear_events();
  if (u32) {
    topk::run_select(g.dev, c.plan, g.ws, g.in_u.subspan(0, total),
                     g.out_u.subspan(0, outn), g.out_idx.subspan(0, outn));
  } else {
    topk::run_select(g.dev, c.plan, g.ws, g.in_f.subspan(0, total),
                     g.out_f.subspan(0, outn), g.out_idx.subspan(0, outn));
  }
  q.t2 = Clock::now();
  const std::uint64_t a2 = host_allocs();
  q.timeline = g.cost.simulate(g.dev.events());
  const std::uint64_t a3 = host_allocs();
  q.t3 = Clock::now();
  if (u32) {
    g.dev.copy_to_host(g.out_u.subspan(0, outn),
                       std::span<std::uint32_t>(g.host_u.data(), outn));
  } else {
    g.dev.copy_to_host(g.out_f.subspan(0, outn),
                       std::span<float>(g.host_f.data(), outn));
  }
  g.dev.copy_to_host(g.out_idx.subspan(0, outn),
                     std::span<std::uint32_t>(g.host_idx.data(), outn));
  q.t4 = Clock::now();
  q.allocs = (a2 - a0) + (host_allocs() - a3);
  return q;
}

/// Exact counts and the mem-SOL weighting from the events run_select
/// recorded (the two download copies come after them and are skipped).
void record_counts(const Grid& g, Cell& c, const simgpu::Timeline& tl,
                   std::size_t run_events) {
  Counts n;
  double weighted = 0.0, kernel_us = 0.0;
  const simgpu::EventLog& ev = g.dev.events();
  for (std::size_t i = 0; i < run_events; ++i) {
    if (const auto* k = std::get_if<simgpu::KernelEvent>(&ev[i])) {
      ++n.kernels;
      n.bytes += k->stats.bytes_total();
      n.lane_ops += k->stats.lane_ops;
      const simgpu::KernelCost kc = g.cost.kernel_cost(k->stats);
      weighted += kc.mem_sol * kc.duration_us;
      kernel_us += kc.duration_us;
    } else if (std::holds_alternative<simgpu::SyncEvent>(ev[i])) {
      ++n.syncs;
    } else if (std::holds_alternative<simgpu::MemcpyEvent>(ev[i])) {
      ++n.memcpys;
    } else if (const auto* h = std::get_if<simgpu::HostComputeEvent>(&ev[i])) {
      n.host_ops += h->host_ops;
    }
  }
  c.counts = n;
  c.device_busy_us = tl.device_busy_us;
  c.transfer_us = tl.transfer_us;
  c.host_us = tl.host_us;
  c.mem_sol_weighted_us = weighted;
  c.kernel_us = kernel_us;
}

/// The host oracle of a cell's shape, computed once per (input, k,
/// direction) after set-up.
void ensure_oracle(Grid& g, const Cell& c) {
  const Input& in = g.inputs[c.input];
  std::vector<std::vector<double>>& oracle = *c.oracle;
  if (oracle.empty()) {
    for (std::size_t r = 0; r < in.batch; ++r) {
      if (in.keys == Keys::kI32) {
        oracle.push_back(oracle_topk<std::int32_t>(
            std::span<const std::int32_t>(in.i).subspan(r * in.n, in.n), c.k,
            c.greatest));
      } else {
        oracle.push_back(oracle_topk<float>(
            std::span<const float>(in.f).subspan(r * in.n, in.n), c.k,
            c.greatest));
      }
    }
  }
}

/// Check every row of the answer against the host oracle.  Returns "" or
/// the first violation.
std::string check_query(Grid& g, const Cell& c) {
  const Input& in = g.inputs[c.input];
  const std::vector<std::vector<double>>& oracle = *c.oracle;
  std::vector<double> values(c.k), scratch;
  std::vector<std::uint32_t> idx_scratch;
  for (std::size_t r = 0; r < in.batch; ++r) {
    const std::size_t base = r * c.k;
    for (std::size_t j = 0; j < c.k; ++j) {
      values[j] = in.keys == Keys::kI32
                      ? static_cast<double>(
                            topk::codec::decode_i32(g.host_u[base + j]))
                      : static_cast<double>(g.host_f[base + j]);
    }
    const std::size_t row0 = r * in.n;
    const auto key_at = [&](std::uint32_t idx) {
      return in.keys == Keys::kI32 ? static_cast<double>(in.i[row0 + idx])
                                   : static_cast<double>(in.f[row0 + idx]);
    };
    const std::string err = check_answer(
        values, std::span<const std::uint32_t>(g.host_idx).subspan(base, c.k),
        in.n, oracle[r], c.greatest, scratch, idx_scratch, key_at);
    if (!err.empty()) return "row " + std::to_string(r) + ": " + err;
  }
  return "";
}

/// Lay one query's modeled timeline on the modeled clock (pid 2): the raw
/// host / transfer / device lanes with KernelStats as arguments, plus a
/// critical-path lane that partitions [0, total] into device-busy,
/// transfer and host (white space) segments, so it sums to the modeled time.
void trace_modeled(Tracer& tr, const Grid& g, const simgpu::Timeline& tl,
                   std::uint64_t query, std::size_t cell, double& clock) {
  Span root;
  root.query = query;
  root.name = "query.modeled";
  root.pid = 2;
  root.tid = 4;
  root.ts_us = clock;
  root.dur_us = tl.total_us;
  root.args = {{"cell", static_cast<double>(cell)},
               {"modeled_us", tl.total_us}};
  const std::uint64_t root_id = tr.add(root);
  const simgpu::EventLog& ev = g.dev.events();
  // Sweep points where the device or transfer lane changes state.
  std::vector<std::pair<double, int>> edges;  // (time, +/-1 device, +/-2 xfer)
  for (const simgpu::SpanTiming& s : tl.spans) {
    Span sp;
    sp.parent = root_id;
    sp.query = query;
    sp.pid = 2;
    sp.ts_us = clock + s.start_us;
    sp.dur_us = s.end_us - s.start_us;
    sp.name = "simgpu." + s.label;
    if (s.lane == simgpu::SpanTiming::Lane::kHost) {
      sp.tid = 1;
    } else if (s.lane == simgpu::SpanTiming::Lane::kTransfer) {
      sp.tid = 2;
      edges.emplace_back(s.start_us, 2);
      edges.emplace_back(s.end_us, -2);
    } else {
      sp.tid = 3;
      edges.emplace_back(s.start_us, 1);
      edges.emplace_back(s.end_us, -1);
      if (const auto* k = std::get_if<simgpu::KernelEvent>(&ev[s.event_index])) {
        const simgpu::KernelStats& st = k->stats;
        const simgpu::KernelCost kc = g.cost.kernel_cost(st);
        sp.args = {{"grid_blocks", double(st.grid_blocks)},
                   {"block_threads", double(st.block_threads)},
                   {"bytes_read", double(st.bytes_read)},
                   {"bytes_written", double(st.bytes_written)},
                   {"lane_ops", double(st.lane_ops)},
                   {"atomic_ops", double(st.atomic_ops)},
                   {"scattered_atomic_ops", double(st.scattered_atomic_ops)},
                   {"block_syncs", double(st.block_syncs)},
                   {"mem_sol", kc.mem_sol},
                   {"compute_sol", kc.compute_sol}};
      }
    }
    tr.add(std::move(sp));
  }
  std::sort(edges.begin(), edges.end());
  int dev_active = 0, xfer_active = 0;
  double seg_start = 0.0;
  const auto state = [&] {
    return dev_active > 0 ? "device" : xfer_active > 0 ? "transfer" : "host";
  };
  std::string cur = state();
  const auto emit = [&](double end) {
    if (end <= seg_start) return;
    Span sp;
    sp.parent = root_id;
    sp.query = query;
    sp.pid = 2;
    sp.tid = 4;
    sp.name = "simgpu.critical." + cur;
    sp.ts_us = clock + seg_start;
    sp.dur_us = end - seg_start;
    tr.add(std::move(sp));
    seg_start = end;
  };
  for (const auto& [t, d] : edges) {
    const int mag = d > 0 ? d : -d;
    (mag == 1 ? dev_active : xfer_active) += d > 0 ? 1 : -1;
    const std::string next = state();
    if (next != cur) {
      emit(t);
      cur = next;
    }
  }
  emit(tl.total_us);
  clock += tl.total_us + 1.0;
}

/// One untimed pass over every cell: binds the workspace at its largest
/// layout and warms the emulator's scratch freelists.
void warm_up(Grid& g) {
  for (const Cell& c : g.cells) (void)run_query(g, c);
}

struct Phase {
  std::uint64_t queries = 0;
  std::vector<double> wall_ms;  // every query, in order
  std::uint64_t host_allocs = 0;
  std::uint64_t dev_allocs = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

Phase run_phase(Grid& g, Tracer& tr, Report& rep, double seconds) {
  for (Cell& c : g.cells) {
    c.wall_ms.clear();
    c.modeled_us.clear();
    c.upload_ms = c.run_ms = c.download_ms = 0.0;
  }
  Phase ph;
  const std::uint64_t dev_allocs0 = g.dev.alloc_calls();
  const simgpu::MemoryPool::Stats pool0 = g.dev.memory_pool().stats();
  double modeled_clock = 0.0;
  const auto start = Clock::now();
  do {
    for (std::size_t ci = 0; ci < g.cells.size(); ++ci) {
      Cell& c = g.cells[ci];
      const QueryTimes q = run_query(g, c);
      ph.host_allocs += q.allocs;
      const double up = ms_between(q.t0, q.t1);
      const double run = ms_between(q.t1, q.t2);
      const double down = ms_between(q.t3, q.t4);
      c.upload_ms += up;
      c.run_ms += run;
      c.download_ms += down;
      c.wall_ms.push_back(up + run + down);
      c.modeled_us.push_back(q.timeline.total_us);
      ph.wall_ms.push_back(up + run + down);
      ++ph.queries;
      const std::size_t run_events = g.dev.events().size() - 2;
      record_counts(g, c, q.timeline, run_events);
      if (tr.on()) {
        const std::uint64_t qid = tr.next_query();
        Span root;
        root.query = qid;
        root.name = "query";
        root.ts_us = tr.at_us(q.t0);
        root.dur_us = us_between(q.t0, q.t4);
        root.args = {{"cell", static_cast<double>(ci)},
                     {"modeled_us", q.timeline.total_us}};
        const std::uint64_t rid = tr.add(std::move(root));
        tr.wall("core.upload", rid, qid, q.t0, q.t1);
        tr.wall("core.run_select", rid, qid, q.t1, q.t2);
        tr.wall("core.download", rid, qid, q.t3, q.t4);
        if (!c.expanded) {
          trace_modeled(tr, g, q.timeline, qid, ci, modeled_clock);
          c.expanded = true;
        }
      }
      ++rep.attempted;
      const std::string err = check_query(g, c);
      if (!err.empty()) rep.fail(c.name + ": " + err);
    }
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
  const simgpu::MemoryPool::Stats pool1 = g.dev.memory_pool().stats();
  ph.dev_allocs = g.dev.alloc_calls() - dev_allocs0;
  ph.pool_hits = pool1.hits - pool0.hits;
  ph.pool_misses = pool1.misses - pool0.misses;
  return ph;
}

/// Per-cell median modeled µs.
double cell_modeled(const Cell& c) { return median(c.modeled_us); }

/// Tail percentile of the per-query wall latency (reported with the
/// per-layer figures): the grid's slowest cells make up the top few percent,
/// and a full run completes several hundred queries, so at least ten
/// samples lie beyond it.
constexpr double kGridTailPct = 98.0;

/// Best wall of a cell over the run's rounds.  Interference from the rest
/// of a shared host only ever adds time, so the minimum is the steadiest
/// estimate of the emulator's own speed.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

void end_to_end(const Grid& g, const Phase& ph, Report& rep) {
  std::vector<double> modeled, wall;
  double round_ms = 0.0;
  for (const Cell& c : g.cells) {
    modeled.push_back(cell_modeled(c));
    wall.push_back(best(c.wall_ms));
    round_ms += wall.back();
  }
  const double qps = static_cast<double>(g.cells.size()) / (round_ms / 1e3);
  rep.set("modeled_us_geomean", geomean(modeled));
  rep.set("wall_ms_geomean", geomean(wall));
  rep.set("wall_qps", qps);
  rep.set("sustained_qps", qps);
  rep.set("latency_p50_ms", median(wall));
  rep.set("latency_tail_ms", percentile(ph.wall_ms, kGridTailPct));
}

void per_layer(const Grid& g, const Phase& ph, Report& rep) {
  const double q = static_cast<double>(std::max<std::uint64_t>(ph.queries, 1));
  double up = 0, run = 0, down = 0;
  double keys_run = 0, keys = 0, b_run_us = 0, b_launches = 0;
  double busy = 0, xfer = 0, host = 0, weighted = 0, kernel_us = 0;
  double kernels = 0, mb = 0, lane = 0, syncs = 0, memcpys = 0, host_ops = 0;
  double workspace = 0, spread = 0;
  std::map<std::string, std::vector<double>> row_modeled, row_wall;
  std::vector<double> regret;
  for (const Cell& c : g.cells) {
    const Input& in = g.inputs[c.input];
    const double runs = static_cast<double>(c.wall_ms.size());
    up += c.upload_ms;
    run += c.run_ms;
    down += c.download_ms;
    keys_run += c.run_ms;
    keys += runs * static_cast<double>(in.batch * in.n);
    if (in.batch > 1) {
      b_run_us += c.run_ms * 1e3;
      b_launches += runs * static_cast<double>(c.counts.kernels);
    }
    busy += c.device_busy_us;
    xfer += c.transfer_us;
    host += c.host_us;
    weighted += c.mem_sol_weighted_us;
    kernel_us += c.kernel_us;
    kernels += static_cast<double>(c.counts.kernels);
    mb += static_cast<double>(c.counts.bytes) / 1e6;
    lane += static_cast<double>(c.counts.lane_ops);
    syncs += static_cast<double>(c.counts.syncs);
    memcpys += static_cast<double>(c.counts.memcpys);
    host_ops += static_cast<double>(c.counts.host_ops);
    workspace = std::max(workspace,
                         static_cast<double>(c.plan.workspace_bytes()) / 1048576.0);
    const auto [lo, hi] =
        std::minmax_element(c.modeled_us.begin(), c.modeled_us.end());
    if (lo != c.modeled_us.end() && *lo > 0) {
      spread = std::max(spread, (*hi - *lo) / *lo);
    }
    row_modeled[c.row].push_back(cell_modeled(c));
    row_wall[c.row].push_back(median(c.wall_ms));
    if (c.row == "auto") {
      double best = std::numeric_limits<double>::infinity();
      for (const Cell& o : g.cells) {
        if (o.group == c.group && o.row != "auto") {
          best = std::min(best, cell_modeled(o));
        }
      }
      regret.push_back(cell_modeled(c) / best);
    }
  }
  const double cells = static_cast<double>(g.cells.size());
  rep.set("core.plan_us", median(g.plan_us));
  rep.set("core.upload_ms", up / q);
  rep.set("core.run_ms", run / q);
  rep.set("core.download_ms", down / q);
  rep.set("core.host_allocs_per_query", static_cast<double>(ph.host_allocs) / q);
  rep.set("core.auto_regret", geomean(regret));
  for (const auto& [row, v] : row_modeled) {
    rep.set("topk." + row + ".modeled_us", geomean(v));
    rep.set("topk." + row + ".wall_ms", geomean(row_wall[row]));
  }
  rep.set("topk.kernels_per_query", kernels / cells);
  rep.set("topk.kernel_mb_per_query", mb / cells);
  rep.set("topk.lane_ops_per_query", lane / cells);
  rep.set("topk.syncs_per_query", syncs / cells);
  rep.set("topk.memcpys_per_query", memcpys / cells);
  rep.set("topk.host_ops_per_query", host_ops / cells);
  rep.set("topk.workspace_mb", workspace);
  rep.set("topk.modeled_spread", spread);
  rep.set("simgpu.device_busy_us", busy / cells);
  rep.set("simgpu.transfer_us", xfer / cells);
  rep.set("simgpu.host_us", host / cells);
  rep.set("simgpu.mem_sol", kernel_us > 0 ? weighted / kernel_us : 0.0);
  rep.set("simgpu.emu_ns_per_key", keys > 0 ? keys_run * 1e6 / keys : 0.0);
  rep.set("simgpu.launch_wall_us", b_launches > 0 ? b_run_us / b_launches : 0.0);
  const double binds = static_cast<double>(ph.pool_hits + ph.pool_misses);
  rep.set("simgpu.pool_hit_rate",
          binds > 0 ? static_cast<double>(ph.pool_hits) / binds : 0.0);
  rep.set("simgpu.steady_allocs", static_cast<double>(ph.dev_allocs) / q);
  rep.set("simgpu.peak_live_mb",
          static_cast<double>(g.dev.peak_live_bytes()) / 1048576.0);
}

/// Exact-count digest: one entry per cell with the counts of one query and
/// the modeled µs (median, and min / max across the run's queries, whose
/// spread is the thread-count dependence of the modeled charges).
void write_digest(const Grid& g, const Options& opt) {
  std::ofstream os(out_path(opt, "-digest.json"));
  os.precision(12);
  os << "{\"workload\": \"paper_grid\", \"seed\": " << opt.seed
     << ", \"sim_threads\": " << simgpu::ThreadPool::instance().size()
     << ", \"cells\": [\n";
  for (std::size_t i = 0; i < g.cells.size(); ++i) {
    const Cell& c = g.cells[i];
    const auto [lo, hi] =
        std::minmax_element(c.modeled_us.begin(), c.modeled_us.end());
    const bool any = lo != c.modeled_us.end();
    os << "  {\"cell\": \"" << c.name << "\", \"algo\": \""
       << topk::algo_key(c.plan.algo()) << "\", \"kernels\": "
       << c.counts.kernels << ", \"bytes\": " << c.counts.bytes
       << ", \"lane_ops\": " << c.counts.lane_ops
       << ", \"syncs\": " << c.counts.syncs
       << ", \"memcpys\": " << c.counts.memcpys
       << ", \"host_ops\": " << c.counts.host_ops
       << ", \"workspace_bytes\": " << c.plan.workspace_bytes()
       << ", \"modeled_us\": " << cell_modeled(c)
       << ", \"modeled_us_min\": " << (any ? *lo : 0.0)
       << ", \"modeled_us_max\": " << (any ? *hi : 0.0)
       << ", \"queries\": " << c.modeled_us.size() << "}"
       << (i + 1 < g.cells.size() ? "," : "") << "\n";
  }
  os << "]}\n";
}

}  // namespace

Report run_paper_grid(const Options& opt) {
  Report rep;
  Tracer tr(false);
  std::unique_ptr<Grid> g = timed_setup<Grid>(
      setup_reps(opt), rep, [&] {
        auto grid = std::make_unique<Grid>(opt);
        warm_up(*grid);
        return grid;
      });
  for (const Cell& c : g->cells) ensure_oracle(*g, c);
  std::cout << "paper_grid: " << g->cells.size() << " cells\n";
  const Phase ph = timed_phase(
      opt, tr, rep, "wall_ms_geomean",
      [&](double s) { return run_phase(*g, tr, rep, s); },
      [&](const Phase& p, Report& r) { end_to_end(*g, p, r); });
  if (opt.trace) {
    const std::uint64_t setup_root = tr.wall(
        "setup", 0, 0, g->plan_times.front().first, g->plan_times.back().second);
    for (const auto& [t0, t1] : g->plan_times) {
      tr.wall("core.plan_select", setup_root, 0, t0, t1);
    }
    per_layer(*g, ph, rep);
    finish_trace(tr, rep, ph.queries, opt);
  }
  write_digest(*g, opt);
  return rep;
}

}  // namespace perfbench
