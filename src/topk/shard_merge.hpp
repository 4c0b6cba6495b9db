#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/partial_sort_common.hpp"
#include "topk/warp_scan.hpp"

namespace topk {

/// Execution plan for the shard candidate merge: sort fixed-length runs of
/// the input, then reduce them with a binary merge-prune tree.  Built as the
/// reduction stage of topk::shard — per-shard candidate lists land
/// concatenated on the merge device and this plan boils them down to one
/// exact top-k — but it is a complete registry algorithm in its own right
/// (any input is "a concatenation of candidate lists" of one element each),
/// which is what lets the ordinary algorithm test matrix and the static
/// auditor cover the merge machinery without a multi-device harness.
template <typename T>
struct ShardMergePlan {
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  std::size_t cap = 0;      ///< next_pow2(k): per-run candidate list length
  std::size_t run_len = 0;  ///< sorted-run length L (power of two, >= cap)
  std::size_t runs = 0;     ///< R = ceil(n / L) runs per problem
  int levels = 0;           ///< merge rounds until one run remains
  /// Ping-pong candidate buffers: buffer 0 holds the sorted runs and every
  /// even-round output, buffer 1 (allocated only when runs > 1) the odd
  /// rounds.  `stride` is the buffer's runs-per-problem capacity.
  std::size_t seg_val[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
  std::size_t stride[2] = {0, 0};
};

/// Footprint contracts for the shard-merge kernel family.  The run buffers
/// are tuning-sized (cap and run count depend on k and run_len), so their
/// extents are segment-bounded; per-level kernels launch under interned
/// "ShardMergeLevel(level)" names and resolve to the bare family row.
inline void register_shard_merge_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"ShardMergeSort",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
           {"run_val",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            8},
           {"run_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            4},
       }});
  simgpu::register_footprint(
      {"ShardMergeSortEmit",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
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
      {"ShardMergeLevel",
       {
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8},
           {"src_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4},
           {"dst_val",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            8},
           {"dst_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            4},
       }});
  simgpu::register_footprint(
      {"ShardMergeEmit",
       {
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8},
           {"src_idx",
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

/// Phase 1: size the run decomposition and the merge tree, lay out the
/// ping-pong candidate buffers, and record the full kernel sequence.
///
/// Correctness of the pruning: within one sorted run, any element ranked
/// <= k in the whole problem is ranked <= k <= cap in its run, so keeping
/// each run's cap smallest loses nothing; merge_prune keeps the cap
/// smallest of a union of two such lists, preserving the invariant up the
/// tree (the standard tournament argument).  Short tail runs are padded
/// with the +inf sentinel, which can never displace a real candidate.
template <typename T>
ShardMergePlan<T> shard_merge_plan(const Shape& s,
                                   const simgpu::DeviceSpec& spec,
                                   simgpu::WorkspaceLayout& layout,
                                   simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);
  if (s.k > kMaxSelectionK) {
    throw std::invalid_argument("shard_merge: k exceeds the " +
                                std::to_string(kMaxSelectionK) +
                                " candidate-list limit");
  }

  ShardMergePlan<T> p;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.order = KeyOrder<T>(s.greatest);
  p.cap = next_pow2(s.k);
  register_shard_merge_footprints();

  // Run length: min(next_pow2(n), max(cap, 4096)) — long enough that the
  // sort amortizes, short enough for one block's shared memory (keys +
  // indices, shrunk to fit); never below cap, so every run can seed a full
  // candidate list.
  const std::size_t elem_bytes = sizeof(T) + sizeof(std::uint32_t);
  p.run_len = std::min(next_pow2(s.n), std::max<std::size_t>(p.cap, 4096));
  while (p.run_len > p.cap &&
         p.run_len * elem_bytes > spec.shared_mem_per_block) {
    p.run_len /= 2;
  }
  if (p.run_len * elem_bytes > spec.shared_mem_per_block ||
      2 * p.cap * elem_bytes > spec.shared_mem_per_block) {
    throw std::invalid_argument(
        "shard_merge: k too large for this device's shared memory");
  }

  p.runs = (s.n + p.run_len - 1) / p.run_len;
  for (std::size_t r = p.runs; r > 1; r = (r + 1) / 2) ++p.levels;

  // Single-run fast path: the whole problem fits one sorted run, so the
  // sort kernel emits the k best directly — no run buffers, no tree, no
  // separate emit launch.  This is the common shape for the cross-shard
  // reduction (shards * k candidates are few) and halves its launch count.
  if (p.runs == 1) {
    simgpu::record_launch(sched, "ShardMergeSortEmit",
                          static_cast<int>(s.batch), 1024, s.batch, s.n, s.k,
                          {{"in", simgpu::kBindInput},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
    return p;
  }

  p.stride[0] = p.runs;
  p.seg_val[0] =
      layout.add<T>("shard merge runs val", s.batch * p.runs * p.cap);
  p.seg_idx[0] = layout.add<std::uint32_t>("shard merge runs idx",
                                           s.batch * p.runs * p.cap);
  p.stride[1] = (p.runs + 1) / 2;
  p.seg_val[1] =
      layout.add<T>("shard merge pong val", s.batch * p.stride[1] * p.cap);
  p.seg_idx[1] = layout.add<std::uint32_t>("shard merge pong idx",
                                           s.batch * p.stride[1] * p.cap);

  simgpu::record_launch(sched, "ShardMergeSort",
                        static_cast<int>(s.batch * p.runs), 1024, s.batch,
                        s.n, s.k,
                        {{"in", simgpu::kBindInput},
                         {"run_val", static_cast<int>(p.seg_val[0])},
                         {"run_idx", static_cast<int>(p.seg_idx[0])}});
  std::size_t r_in = p.runs;
  for (int level = 1; level <= p.levels; ++level) {
    const std::size_t r_out = (r_in + 1) / 2;
    const int src = (level - 1) % 2;
    const int dst = level % 2;
    simgpu::record_launch(
        sched,
        simgpu::intern_name("ShardMergeLevel(" + std::to_string(level) + ")"),
        static_cast<int>(s.batch * r_out), 1024, s.batch, s.n, s.k,
        {{"src_val", static_cast<int>(p.seg_val[src])},
         {"src_idx", static_cast<int>(p.seg_idx[src])},
         {"dst_val", static_cast<int>(p.seg_val[dst])},
         {"dst_idx", static_cast<int>(p.seg_idx[dst])}});
    r_in = r_out;
  }
  const int fin = p.levels % 2;
  simgpu::record_launch(sched, "ShardMergeEmit", static_cast<int>(s.batch),
                        1024, s.batch, s.n, s.k,
                        {{"src_val", static_cast<int>(p.seg_val[fin])},
                         {"src_idx", static_cast<int>(p.seg_idx[fin])},
                         {"out_vals", simgpu::kBindOutVals},
                         {"out_idx", simgpu::kBindOutIdx}});
  return p;
}

namespace shard_merge_detail {

/// Load one run of `count` input values starting at flat offset `in_base`
/// into shared views (indices seeded `begin + i`, tail padded with the
/// worst key), then sort it best-first (sort_pairs; the first `keep` pairs
/// are guaranteed written back).
template <typename T, typename KS, typename IS>
void sort_run(simgpu::BlockCtx& ctx, simgpu::DeviceBuffer<T> in,
              std::size_t in_base, std::size_t begin, std::size_t count,
              std::size_t L, std::size_t keep, KS& keys, IS& idx,
              KeyOrder<T> ord) {
  const auto rk = raw_view(keys);
  for (std::size_t i = 0; i < count; i += simgpu::kTileElems) {
    const std::span<const T> tv =
        ctx.load_tile(in, in_base + i, std::min(simgpu::kTileElems, count - i));
    if (!rk.empty()) {
      std::copy(tv.begin(), tv.end(),
                rk.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      for (std::size_t u = 0; u < tv.size(); ++u) keys[i + u] = tv[u];
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    idx[i] = static_cast<std::uint32_t>(begin + i);
  }
  for (std::size_t i = count; i < L; ++i) {
    keys[i] = ord.worst();
    idx[i] = 0;
  }
  sort_pairs(ctx, keys, idx, L, keep, ord);
}

}  // namespace shard_merge_detail

/// Phase 2: three launches — sort the runs, reduce them pairwise level by
/// level, emit the k smallest of the last run.  When the whole problem fits
/// a single run (the common cross-shard reduction shape: S*k candidates,
/// S*k <= run length) the plan collapses to ONE launch that sorts in shared
/// memory and emits the k best directly — no run buffers, no tree, no
/// separate emit kernel.
template <typename T>
void shard_merge_run(simgpu::Device& dev, const ShardMergePlan<T>& plan,
                     simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                     simgpu::DeviceBuffer<T> out_vals,
                     simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  if (in.size() < plan.batch * plan.n ||
      out_vals.size() < plan.batch * plan.k ||
      out_idx.size() < plan.batch * plan.k) {
    throw std::invalid_argument("shard_merge: buffer too small");
  }
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const std::size_t cap = plan.cap;
  const std::size_t L = plan.run_len;
  const std::size_t R = plan.runs;
  const KeyOrder<T> ord = plan.order;

  // ---- single-run fast path: sort once, emit directly --------------------
  if (R == 1) {
    simgpu::LaunchConfig cfg{"ShardMergeSortEmit", static_cast<int>(batch),
                             1024, batch, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto prob = static_cast<std::size_t>(ctx.block_idx());
      auto keys = ctx.shared<T>(L, "shard sort keys");
      auto idx = ctx.shared<std::uint32_t>(L, "shard sort idx");
      shard_merge_detail::sort_run(ctx, in, prob * n, 0, n, L, k, keys, idx,
                                   ord);
      warp_scan::store_list(ctx, keys, idx, out_vals, out_idx,
                                     prob * k, k);
    });
    return;
  }

  simgpu::DeviceBuffer<T> run_val[2];
  simgpu::DeviceBuffer<std::uint32_t> run_idx[2];
  run_val[0] = ws.get<T>(plan.seg_val[0]);
  run_idx[0] = ws.get<std::uint32_t>(plan.seg_idx[0]);
  run_val[1] = ws.get<T>(plan.seg_val[1]);
  run_idx[1] = ws.get<std::uint32_t>(plan.seg_idx[1]);

  // ---- kernel 1: sort fixed-length runs, publish each run's cap smallest -
  {
    simgpu::LaunchConfig cfg{"ShardMergeSort",
                             static_cast<int>(batch * R), 1024, batch, n, k};
    const auto rv = run_val[0];
    const auto ri = run_idx[0];
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto bi = static_cast<std::size_t>(ctx.block_idx());
      const std::size_t prob = bi / R;
      const std::size_t run = bi % R;
      const std::size_t begin = run * L;
      const std::size_t count = std::min(L, n - begin);
      auto keys = ctx.shared<T>(L, "shard sort keys");
      auto idx = ctx.shared<std::uint32_t>(L, "shard sort idx");
      shard_merge_detail::sort_run(ctx, in, prob * n + begin, begin, count, L,
                                   cap, keys, idx, ord);
      warp_scan::store_list(ctx, keys, idx, rv, ri,
                                     (prob * R + run) * cap, cap);
    });
  }

  // ---- kernels 2..: pairwise merge-prune tree over the runs -------------
  std::size_t r_in = R;
  for (int level = 1; level <= plan.levels; ++level) {
    const std::size_t r_out = (r_in + 1) / 2;
    const int src = (level - 1) % 2;
    const int dst = level % 2;
    const std::size_t src_stride = plan.stride[src];
    const std::size_t dst_stride = plan.stride[dst];
    const auto sv = run_val[src];
    const auto si = run_idx[src];
    const auto dv = run_val[dst];
    const auto di = run_idx[dst];
    const std::size_t r_in_now = r_in;
    const std::string_view level_name =
        simgpu::intern_name("ShardMergeLevel(" + std::to_string(level) + ")");
    simgpu::LaunchConfig cfg{level_name, static_cast<int>(batch * r_out), 1024,
                             batch, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto bi = static_cast<std::size_t>(ctx.block_idx());
      const std::size_t prob = bi / r_out;
      const std::size_t j = bi % r_out;
      const std::size_t src_base = (prob * src_stride + 2 * j) * cap;
      const std::size_t dst_base = (prob * dst_stride + j) * cap;
      if (2 * j + 1 < r_in_now) {
        warp_scan::merge_lists(ctx, sv, si, src_base, 2, cap, dv, di,
                               dst_base, cap, ord);
      } else {
        // Odd leftover run: pass it through to the next level unchanged.
        copy_pairs(ctx, sv, si, src_base, dv, di, dst_base, cap);
      }
    });
    r_in = r_out;
  }

  // ---- final kernel: emit the k smallest of the surviving run ------------
  {
    const int fin = plan.levels % 2;
    const std::size_t fin_stride = plan.stride[fin];
    const auto fv = run_val[fin];
    const auto fi = run_idx[fin];
    simgpu::LaunchConfig cfg{"ShardMergeEmit", static_cast<int>(batch), 1024,
                             batch, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto prob = static_cast<std::size_t>(ctx.block_idx());
      copy_pairs(ctx, fv, fi, prob * fin_stride * cap, out_vals, out_idx,
                 prob * k, k);
    });
  }
}

}  // namespace topk
