#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/key_order.hpp"
#include "topk/level_loop.hpp"

namespace topk {

/// Execution plan for QuickSelect.  The recursion itself is data-dependent
/// (grids are sized per iteration from live candidate counts — pure
/// arithmetic, no allocation), so the plan is just the validated shape plus
/// the workspace segments, including the tiny pivot-probe buffer that used
/// to be allocated inside the loop.
template <typename T>
struct QuickSelectPlan {
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  std::size_t seg_val[3] = {0, 0, 0};
  std::size_t seg_idx[3] = {0, 0, 0};
  std::size_t seg_eq_val = 0;
  std::size_t seg_eq_idx = 0;
  std::size_t seg_counters = 0;
  std::size_t seg_probe = 0;
};

/// Footprint contracts for the QuickSelect kernels.  The partition writes
/// all three destinations through cursor-reserved aggregated appends; the
/// input operands are optional because the first iteration reads the raw
/// input while later iterations read a rotating candidate buffer.
inline void register_quick_select_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint({"collect_results", remainder_operands()});
  simgpu::register_footprint(
      {"pivot_probe",
       {
           {"in",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            8,
            /*optional=*/true},
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8,
            /*optional=*/true},
           {"probe",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kOne, 3}},
            8},
       }});
  simgpu::register_footprint(
      {"partition_memset",
       {
           {"counters",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kOne, 3}},
            4},
       }});
  simgpu::register_footprint(
      {"partition",
       {
           {"in",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            8,
            /*optional=*/true},
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8,
            /*optional=*/true},
           {"src_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4,
            /*optional=*/true},
           {"counters", Access::kAtomic, WriteScope::kNone,
            {{AffineVar::kOne, 3}}, 4},
           {"less_val", Access::kWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 8},
           {"less_idx", Access::kWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 4},
           {"eq_val", Access::kWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 8},
           {"eq_idx", Access::kWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 4},
           {"greater_val", Access::kWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 8},
           {"greater_idx", Access::kWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 4},
       }});
}

/// Phase 1 of QuickSelect: validate and lay out the rotating candidate
/// buffers, the pivot-equal buffer, the partition counters and the pivot
/// probe staging buffer.
template <typename T>
QuickSelectPlan<T> quick_select_plan(const Shape& s,
                                     const simgpu::DeviceSpec& spec,
                                     simgpu::WorkspaceLayout& layout,
                                     simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);

  QuickSelectPlan<T> p;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.order = KeyOrder<T>(s.greatest);
  // Three rotating candidate buffers: source, the "less" destination and
  // the "greater" destination; plus a buffer for pivot-equal elements.
  p.seg_val[0] = layout.add<T>("quick vals 0", s.n);
  p.seg_val[1] = layout.add<T>("quick vals 1", s.n);
  p.seg_val[2] = layout.add<T>("quick vals 2", s.n);
  p.seg_idx[0] = layout.add<std::uint32_t>("quick idx 0", s.n);
  p.seg_idx[1] = layout.add<std::uint32_t>("quick idx 1", s.n);
  p.seg_idx[2] = layout.add<std::uint32_t>("quick idx 2", s.n);
  p.seg_eq_val = layout.add<T>("quick eq vals", s.n);
  p.seg_eq_idx = layout.add<std::uint32_t>("quick eq idx", s.n);
  p.seg_counters = layout.add<std::uint32_t>("quick part counts", 3);
  p.seg_probe = layout.add<T>("quick pivot probe", 3);

  if (sched != nullptr) {
    register_quick_select_footprints();
    // Nominal per-problem unrolling: two partition iterations (input first,
    // then the rotated less-side buffer as if k_rem landed strictly below
    // the pivot) and the terminal less+equal collection.
    const GridShape shape = make_grid(1, s.n, spec);
    int src = 0, d_less = 1, d_greater = 2;
    for (int iter = 0; iter < 2; ++iter) {
      const bool fi = (iter == 0);
      std::vector<simgpu::OperandBind> probe_binds;
      if (fi) {
        probe_binds.push_back({"in", simgpu::kBindInput});
      } else {
        probe_binds.push_back({"src_val", static_cast<int>(p.seg_val[src])});
      }
      probe_binds.push_back({"probe", static_cast<int>(p.seg_probe)});
      simgpu::record_launch(sched, "pivot_probe", 1, 32, 1, s.n, s.k,
                            std::move(probe_binds));
      simgpu::record_host(sched, "pivot sample",
                          {{"probe", static_cast<int>(p.seg_probe),
                            simgpu::Access::kRead}});
      simgpu::record_launch(sched, "partition_memset", 1, 32, 1, s.n, s.k,
                            {{"counters", static_cast<int>(p.seg_counters)}});
      std::vector<simgpu::OperandBind> part_binds;
      if (fi) {
        part_binds.push_back({"in", simgpu::kBindInput});
      } else {
        part_binds.push_back({"src_val", static_cast<int>(p.seg_val[src])});
        part_binds.push_back({"src_idx", static_cast<int>(p.seg_idx[src])});
      }
      part_binds.push_back({"counters", static_cast<int>(p.seg_counters)});
      part_binds.push_back({"less_val", static_cast<int>(p.seg_val[d_less])});
      part_binds.push_back({"less_idx", static_cast<int>(p.seg_idx[d_less])});
      part_binds.push_back({"eq_val", static_cast<int>(p.seg_eq_val)});
      part_binds.push_back({"eq_idx", static_cast<int>(p.seg_eq_idx)});
      part_binds.push_back(
          {"greater_val", static_cast<int>(p.seg_val[d_greater])});
      part_binds.push_back(
          {"greater_idx", static_cast<int>(p.seg_idx[d_greater])});
      simgpu::record_launch(sched, "partition", shape.total_blocks(),
                            kBlockThreads, 1, s.n, s.k,
                            std::move(part_binds));
      simgpu::record_host(sched, "part counts",
                          {{"counters", static_cast<int>(p.seg_counters),
                            simgpu::Access::kRead}});
      std::swap(src, d_less);
    }
    simgpu::record_launch(sched, "collect_results", shape.total_blocks(),
                          kBlockThreads, 1, s.n, s.k,
                          {{"src_val", static_cast<int>(p.seg_val[src])},
                           {"src_idx", static_cast<int>(p.seg_idx[src])},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
    simgpu::record_launch(sched, "collect_results", shape.total_blocks(),
                          kBlockThreads, 1, s.n, s.k,
                          {{"src_val", static_cast<int>(p.seg_eq_val)},
                           {"src_idx", static_cast<int>(p.seg_eq_idx)},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
  }
  return p;
}

/// Phase 2 of QuickSelect (Dashti et al. 2013 / GpuSelection): single-pivot
/// recursive partitioning.  Each iteration the host reads back a
/// three-element sample to pick a median-of-three pivot, launches a
/// partition kernel that splits the candidates into (before the pivot,
/// equal, after it) under the plan's KeyOrder, copies the partition counts
/// back over PCIe and decides which side to recurse into.  One full host
/// round trip per iteration with a data-dependent iteration count — the
/// O(N^2) worst case of paper §2.2.
template <typename T>
void quick_select_run(simgpu::Device& dev, const QuickSelectPlan<T>& plan,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                      simgpu::DeviceBuffer<T> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const KeyOrder<T> ord = plan.order;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument("quick_select: buffer too small");
  }

  const simgpu::DeviceBuffer<T> bv[3] = {ws.get<T>(plan.seg_val[0]),
                                         ws.get<T>(plan.seg_val[1]),
                                         ws.get<T>(plan.seg_val[2])};
  const simgpu::DeviceBuffer<std::uint32_t> bi[3] = {
      ws.get<std::uint32_t>(plan.seg_idx[0]),
      ws.get<std::uint32_t>(plan.seg_idx[1]),
      ws.get<std::uint32_t>(plan.seg_idx[2])};
  auto eq_val = ws.get<T>(plan.seg_eq_val);
  auto eq_idx = ws.get<std::uint32_t>(plan.seg_eq_idx);
  auto counters = ws.get<std::uint32_t>(plan.seg_counters);
  auto probe_buf = ws.get<T>(plan.seg_probe);

  const LevelLoop<T> loop{dev, "quick_select", "collect_results", n, k, in,
                          out_vals, out_idx, bv, bi};
  loop.run(batch, [&](LevelRow& r) {
    const std::size_t prob = r.prob;
    const std::uint64_t count = r.count;
    const bool from_input = r.from_input;

    // ---- pivot: median of three values read back over PCIe ---------------
    const auto src_val = bv[r.side[0]];
    const auto src_idx = bi[r.side[0]];
    std::array<T, 3> probe;
    {
      const std::size_t s0 = 0, s1 = count / 2, s2 = count - 1;
      simgpu::LaunchConfig cfg{"pivot_probe", 1, 32, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        const auto fetch = [&](std::size_t i) {
          return from_input ? ctx.load(in, prob * n + i)
                            : ctx.load(src_val, i);
        };
        ctx.store(probe_buf, 0, fetch(s0));
        ctx.store(probe_buf, 1, fetch(s1));
        ctx.store(probe_buf, 2, fetch(s2));
      });
      dev.copy_to_host(probe_buf, std::span<T>(probe), "pivot sample");
    }
    dev.host_compute("median_of_three", 8);
    std::sort(probe.begin(), probe.end(),
              [&](T a, T b) { return ord.less(a, b); });
    const T pivot = ord.key(probe[1]);

    // ---- partition kernel --------------------------------------------------
    {
      simgpu::LaunchConfig cfg{"partition_memset", 1, 32, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        ctx.store<std::uint32_t>(counters, 0, 0);
        ctx.store<std::uint32_t>(counters, 1, 0);
        ctx.store<std::uint32_t>(counters, 2, 0);
      });
    }
    const GridShape shape = make_grid(1, count, dev.spec());
    const int bpp = shape.blocks_per_problem;
    const auto less_val = bv[r.side[1]];
    const auto less_idx = bi[r.side[1]];
    const auto greater_val = bv[r.side[2]];
    const auto greater_idx = bi[r.side[2]];
    {
      simgpu::LaunchConfig cfg{"partition", shape.total_blocks(),
                               kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
        // GpuSelection partitions with warp-aggregated atomics: one
        // appender per side, indexed by the side (less, equal, greater).
        AggregatedAppender<T, std::uint32_t> side[3] = {
            {less_val, less_idx, 0, counters, 0, count, "quick_select less"},
            {eq_val, eq_idx, 0, counters, 1, count, "quick_select eq"},
            {greater_val, greater_idx, 0, counters, 2, count,
             "quick_select greater"}};
        scan_candidates(ctx, from_input, in, prob * n, src_val, src_idx,
                        begin, end, [&](T v, std::uint32_t id) {
                          // Branch-free side pick on keys (pivot is one); a
                          // key unordered with the pivot (NaN) goes to the
                          // greater side.
                          const T kv = ord.key(v);
                          const unsigned s =
                              2u - 2u * static_cast<unsigned>(kv < pivot) -
                              static_cast<unsigned>(kv == pivot);
                          side[s].push(ctx, v, id);
                        });
        for (auto& app : side) app.flush(ctx);
        ctx.ops(3 * (end - begin));
      });
    }
    std::array<std::uint32_t, 3> host_counts;
    dev.copy_to_host(counters, std::span<std::uint32_t>(host_counts),
                     "part counts");
    dev.host_compute("select_branch", 8);
    const std::uint64_t n_less = host_counts[0];
    const std::uint64_t n_eq = host_counts[1];

    if (r.k_rem <= n_less) {
      // Recurse into the strictly-less partition.
      r.count = n_less;
      std::swap(r.side[0], r.side[1]);
      r.from_input = false;
      return false;
    }
    // The less partition is fully in.
    loop.collect(r, false, less_val, less_idx, n_less);
    if (r.k_rem <= n_less + n_eq) {
      // Pivot-equal elements fill the rest.
      loop.collect(r, false, eq_val, eq_idx, r.k_rem - n_less);
      return true;
    }
    // less + equal are all results; recurse into the greater partition.
    loop.collect(r, false, eq_val, eq_idx, n_eq);
    r.k_rem -= n_less + n_eq;
    r.count = host_counts[2];
    std::swap(r.side[0], r.side[2]);
    r.from_input = false;
    return false;
  });
}

}  // namespace topk
