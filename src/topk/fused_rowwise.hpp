#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/grid_select.hpp"
#include "topk/partial_sort_common.hpp"
#include "topk/warp_scan.hpp"
#include "topk/warp_select.hpp"

namespace topk {

/// Options for the fused row-wise family (serving-shaped batches: many rows
/// of small-to-mid n — MoE routing, attention sparsity, ANN re-ranking).
struct FusedRowwiseOptions {
  /// Warp variant: independent rows packed into one block, one warp each.
  int rows_per_block = 8;
  /// Block variant: warps cooperating on one row (shrunk to shared memory).
  int warps_per_block = 8;
  /// Optional input indices (size batch*n), as in RAFT's select_k: result
  /// indices are taken from here instead of row positions — the natural
  /// shape for re-ranking shortlists that carry original candidate ids.
  simgpu::DeviceBuffer<std::uint32_t> in_idx{};
};

/// Execution plan for the fused row-wise kernels.  The warp variant is
/// fully register-resident (no segments); the block variant publishes one
/// sorted per-warp partial list per row into the workspace segments below
/// and prunes them in a second grid-spanning launch.
template <typename T>
struct FusedRowwisePlan {
  FusedRowwiseOptions opt;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t cap = 0;  // next_pow2(k)
  bool block_variant = false;
  int rows_per_block = 1;  // warp variant: rows (= warps) per block
  int num_warps = 1;       // block variant: warps per row
  int grid = 1;
  std::size_t seg_part_val = 0;  // valid iff block_variant
  std::size_t seg_part_idx = 0;
};

/// Footprint contracts for the fused row-wise kernel family.  The warp
/// variant reads the input once and writes each row's k-slice from the one
/// block that owns the row.  The block variant's scan kernel publishes
/// per-warp partial lists into segment-bounded buffers (cap and warp count
/// are tuning-dependent), which the merge kernel consumes — the auditor
/// proves the publish-before-merge ordering statically.
inline void register_fused_rowwise_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"FusedRowwise_warp",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
           {"in_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            4,
            /*optional=*/true},
           {"out_vals",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            8},
           {"out_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            4},
       }});
  simgpu::register_footprint(
      {"FusedRowwise_block",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
           {"in_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            4,
            /*optional=*/true},
           {"part_val",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            8},
           {"part_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            4},
       }});
  simgpu::register_footprint(
      {"FusedRowwise_block_merge",
       {
           {"part_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8},
           {"part_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4},
           {"out_vals",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            8},
           {"out_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            4},
       }});
}

/// Phase 1 of the fused row-wise family: validate, size the launch so the
/// grid spans all rows of the micro-batch, and — for the block variant —
/// lay out the per-row partial-list segments.
template <typename T>
FusedRowwisePlan<T> fused_rowwise_plan(const Shape& s,
                                       const simgpu::DeviceSpec& spec,
                                       const FusedRowwiseOptions& opt,
                                       bool block_variant,
                                       simgpu::WorkspaceLayout& layout,
                                       simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);
  if (s.k > kMaxSelectionK) {
    throw std::invalid_argument("fused_rowwise: k exceeds the " +
                                std::to_string(kMaxSelectionK) +
                                " warp-queue limit");
  }
  if (!opt.in_idx.empty() && opt.in_idx.size() < s.batch * s.n) {
    throw std::invalid_argument("fused_rowwise: in_idx too small");
  }

  FusedRowwisePlan<T> p;
  p.opt = opt;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.cap = next_pow2(s.k);
  p.block_variant = block_variant;
  register_fused_rowwise_footprints();

  if (!block_variant) {
    p.rows_per_block = static_cast<int>(std::min<std::size_t>(
        s.batch,
        static_cast<std::size_t>(
            std::clamp(opt.rows_per_block, 1, simgpu::kMaxWarpsPerBlock))));
    p.grid = static_cast<int>(
        (s.batch + static_cast<std::size_t>(p.rows_per_block) - 1) /
        static_cast<std::size_t>(p.rows_per_block));
    std::vector<simgpu::OperandBind> binds = {{"in", simgpu::kBindInput}};
    if (!opt.in_idx.empty()) binds.push_back({"in_idx", simgpu::kBindInput});
    binds.push_back({"out_vals", simgpu::kBindOutVals});
    binds.push_back({"out_idx", simgpu::kBindOutIdx});
    simgpu::record_launch(sched, "FusedRowwise_warp", p.grid,
                          p.rows_per_block * simgpu::kWarpSize, s.batch, s.n,
                          s.k, std::move(binds));
    return p;
  }

  // Block variant: one block of shared-queue warps per row.  Shrink the
  // warp count until the per-warp queue + list state fits shared memory,
  // exactly as grid_select does.
  p.num_warps = std::clamp(opt.warps_per_block, 1, simgpu::kMaxWarpsPerBlock);
  const std::size_t per_warp_shared =
      (simgpu::kWarpSize + p.cap) * (sizeof(T) + sizeof(std::uint32_t));
  while (p.num_warps > 1 && static_cast<std::size_t>(p.num_warps) *
                                    per_warp_shared >
                                spec.shared_mem_per_block) {
    p.num_warps /= 2;
  }
  if (static_cast<std::size_t>(p.num_warps) * per_warp_shared >
      spec.shared_mem_per_block) {
    throw std::invalid_argument(
        "fused_rowwise: k too large for this device's shared memory");
  }
  p.grid = static_cast<int>(s.batch);
  const std::size_t warps = static_cast<std::size_t>(p.num_warps);
  p.seg_part_val =
      layout.add<T>("fused rowwise partial vals", s.batch * warps * p.cap);
  p.seg_part_idx = layout.add<std::uint32_t>("fused rowwise partial idx",
                                             s.batch * warps * p.cap);
  {
    std::vector<simgpu::OperandBind> binds = {{"in", simgpu::kBindInput}};
    if (!opt.in_idx.empty()) binds.push_back({"in_idx", simgpu::kBindInput});
    binds.push_back({"part_val", static_cast<int>(p.seg_part_val)});
    binds.push_back({"part_idx", static_cast<int>(p.seg_part_idx)});
    simgpu::record_launch(sched, "FusedRowwise_block", p.grid,
                          p.num_warps * simgpu::kWarpSize, s.batch, s.n, s.k,
                          std::move(binds));
    simgpu::record_launch(sched, "FusedRowwise_block_merge", p.grid, 1024,
                          s.batch, s.n, s.k,
                          {{"part_val", static_cast<int>(p.seg_part_val)},
                           {"part_idx", static_cast<int>(p.seg_part_idx)},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
  }
  return p;
}

/// Phase 2, warp variant: one launch covers the whole micro-batch.  Each
/// block packs rows_per_block independent rows, one warp per row, each warp
/// a register-resident WarpSelect engine scanning its whole row — no
/// cross-warp merge, no sync, results written directly.
template <typename T>
void fused_rowwise_run_warp(simgpu::Device& dev,
                            const FusedRowwisePlan<T>& plan,
                            simgpu::DeviceBuffer<T> in,
                            simgpu::DeviceBuffer<T> out_vals,
                            simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const int rpb = plan.rows_per_block;
  const auto ext_idx = plan.opt.in_idx;

  simgpu::LaunchConfig cfg{"FusedRowwise_warp", plan.grid,
                           rpb * simgpu::kWarpSize, batch, n, k};
  simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
    const std::size_t row0 =
        static_cast<std::size_t>(ctx.block_idx()) * static_cast<std::size_t>(rpb);
    const int rows = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(rpb), batch - row0));
    // Each warp scans its whole row contiguously, which is what lets the
    // warpfast leg pack-and-replay the row instead of gating regions.
    warp_scan::WarpEngines<faiss_detail::WarpSelectEngine<T>> engines(rows,
                                                                      ctx, k);
    warp_scan::scan_contiguous(ctx, engines, in, ext_idx, [&](int w) {
      return warp_scan::WarpRange{(row0 + static_cast<std::size_t>(w)) * n,
                                  0, n};
    });
    // Direct output: each warp owns its row's k-slice.
    for (int w = 0; w < rows; ++w) {
      const auto& list = engines[w].list();
      warp_scan::store_list(ctx, list.keys(), list.indices(), out_vals,
                            out_idx, (row0 + static_cast<std::size_t>(w)) * k,
                            k);
    }
  });
}

/// Phase 2, block variant: one block of shared-queue warps per row.  The
/// scan kernel publishes each warp's sorted partial list (padded to cap)
/// into the per-row workspace segments; the grid-spanning merge kernel
/// prunes them down to k per row.  Two launches cover the whole
/// micro-batch, independent of the row count.
template <typename T>
void fused_rowwise_run_block(simgpu::Device& dev,
                             const FusedRowwisePlan<T>& plan,
                             simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                             simgpu::DeviceBuffer<T> out_vals,
                             simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const std::size_t cap = plan.cap;
  const int num_warps = plan.num_warps;
  const auto warps = static_cast<std::size_t>(num_warps);
  const auto ext_idx = plan.opt.in_idx;
  const auto part_val = ws.get<T>(plan.seg_part_val);
  const auto part_idx = ws.get<std::uint32_t>(plan.seg_part_idx);

  // ---- kernel 1: per-row scan, one sorted partial list per warp ---------
  {
    simgpu::LaunchConfig cfg{"FusedRowwise_block", plan.grid,
                             num_warps * simgpu::kWarpSize, batch, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto row = static_cast<std::size_t>(ctx.block_idx());
      // Region length of the warpfast leg: 64 rounds per warp.
      constexpr std::size_t kRegionRounds = 64;
      warp_scan::WarpEngines<SharedQueueEngine<T>> engines(num_warps, ctx,
                                                           k);
      warp_scan::scan_interleaved(ctx, engines, in, ext_idx, row * n, 0, n,
                                  kRegionRounds);
      ctx.sync();
      // Publish each warp's sorted list into the row's slice of the
      // partial segments; the merge kernel prunes them.
      for (int w = 0; w < num_warps; ++w) {
        warp_scan::publish_padded(
            ctx, engines[w].list(), part_val, part_idx,
            (row * warps + static_cast<std::size_t>(w)) * cap, cap);
      }
    });
  }

  // ---- kernel 2: per-row merge of the warp partial lists -----------------
  simgpu::LaunchConfig cfg{"FusedRowwise_block_merge", plan.grid, 1024, batch,
                           n, k};
  simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
    const auto row = static_cast<std::size_t>(ctx.block_idx());
    warp_scan::merge_lists(ctx, part_val, part_idx, row * warps * cap, warps,
                           cap, out_vals, out_idx, row * k, k);
  });
}

/// Phase 2 dispatcher shared by both registry rows.
template <typename T>
void fused_rowwise_run(simgpu::Device& dev, const FusedRowwisePlan<T>& plan,
                       simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                       simgpu::DeviceBuffer<T> out_vals,
                       simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  if (in.size() < plan.batch * plan.n ||
      out_vals.size() < plan.batch * plan.k ||
      out_idx.size() < plan.batch * plan.k) {
    throw std::invalid_argument("fused_rowwise: buffer too small");
  }
  if (plan.block_variant) {
    fused_rowwise_run_block(dev, plan, ws, in, out_vals, out_idx);
  } else {
    fused_rowwise_run_warp(dev, plan, in, out_vals, out_idx);
  }
}

/// One-shot entry point: plan + bind a local workspace + run.
template <typename T>
void fused_rowwise(simgpu::Device& dev, simgpu::DeviceBuffer<T> in,
                   std::size_t batch, std::size_t n, std::size_t k,
                   simgpu::DeviceBuffer<T> out_vals,
                   simgpu::DeviceBuffer<std::uint32_t> out_idx,
                   bool block_variant, const FusedRowwiseOptions& opt = {}) {
  simgpu::WorkspaceLayout layout;
  const auto plan = fused_rowwise_plan<T>(Shape{batch, n, k, false},
                                          dev.spec(), opt, block_variant,
                                          layout);
  simgpu::Workspace ws(dev);
  ws.bind(layout);
  fused_rowwise_run(dev, plan, ws, in, out_vals, out_idx);
}

}  // namespace topk
