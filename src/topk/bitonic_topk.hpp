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
#include "topk/partial_sort_common.hpp"

namespace topk {

/// Execution plan for Bitonic Top-K: the full halving-pass schedule (with
/// per-pass kernel names interned once, so running the plan never builds a
/// string) plus the double-buffer workspace segments.
template <typename T>
struct BitonicTopkPlan {
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  std::size_t cap = 0;     // next_pow2(k), the chunk length
  std::size_t chunks0 = 0;
  std::size_t half0 = 0;
  GridShape shape0;  // pass-0 sort+prune grid

  struct MergePass {
    std::string_view name;  // interned "BitonicTopK_merge(<pass>)"
    std::size_t pairs = 0;
    std::size_t src_chunks = 0;
    GridShape shape;
  };
  std::vector<MergePass> passes;

  std::size_t seg_val[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
};

/// Footprint contracts for the Bitonic Top-K kernel family.  The per-pass
/// merge kernels register under the bare family name ("BitonicTopK_merge");
/// the "(pass)" suffix of the launch names is stripped on lookup.  The
/// double-buffer bounds depend on the halving schedule, so they are
/// segment-sized.
inline void register_bitonic_topk_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"BitonicTopK_sort_prune",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
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
      {"BitonicTopK_merge",
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
      {"BitonicTopK_emit",
       {
           {"fin_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8},
           {"fin_idx",
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

/// Phase 1 of Bitonic Top-K: validate, precompute the halving schedule
/// (every pass's grid and interned kernel name — the pass count is a pure
/// function of n and k), and describe the two double buffers as workspace
/// segments.
template <typename T>
BitonicTopkPlan<T> bitonic_topk_plan(const Shape& s,
                                     const simgpu::DeviceSpec& spec,
                                     simgpu::WorkspaceLayout& layout,
                                     simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);
  if (s.k > kMaxBitonicTopkK) {
    throw std::invalid_argument("bitonic_topk: k exceeds the " +
                                std::to_string(kMaxBitonicTopkK) + " limit");
  }

  BitonicTopkPlan<T> p;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.order = KeyOrder<T>(s.greatest);
  p.cap = next_pow2(s.k);
  p.chunks0 = (s.n + p.cap - 1) / p.cap;
  p.half0 = (p.chunks0 + 1) / 2;
  p.shape0 = make_grid(s.batch, p.half0 * p.cap, spec, kBlockThreads,
                       8 * p.cap);

  std::size_t chunks = p.half0;
  int pass = 1;
  while (chunks > 1) {
    typename BitonicTopkPlan<T>::MergePass mp;
    mp.pairs = (chunks + 1) / 2;
    mp.src_chunks = chunks;
    mp.shape = make_grid(s.batch, mp.pairs * p.cap, spec, kBlockThreads,
                         8 * p.cap);
    mp.name = simgpu::intern_name("BitonicTopK_merge(" +
                                  std::to_string(pass) + ")");
    p.passes.push_back(mp);
    chunks = mp.pairs;
    ++pass;
  }

  p.seg_val[0] = layout.add<T>("bitonic work vals 0", s.batch * p.half0 * p.cap);
  p.seg_val[1] = layout.add<T>("bitonic work vals 1",
                               s.batch * ((p.half0 + 1) / 2) * p.cap);
  p.seg_idx[0] = layout.add<std::uint32_t>("bitonic work idx 0",
                                           s.batch * p.half0 * p.cap);
  p.seg_idx[1] = layout.add<std::uint32_t>(
      "bitonic work idx 1", s.batch * ((p.half0 + 1) / 2) * p.cap);

  register_bitonic_topk_footprints();
  simgpu::record_launch(sched, "BitonicTopK_sort_prune(0)",
                        p.shape0.total_blocks(), p.shape0.block_threads,
                        s.batch, s.n, s.k,
                        {{"in", simgpu::kBindInput},
                         {"dst_val", static_cast<int>(p.seg_val[0])},
                         {"dst_idx", static_cast<int>(p.seg_idx[0])}});
  int cur = 0;
  for (const auto& mp : p.passes) {
    simgpu::record_launch(
        sched, mp.name, mp.shape.total_blocks(), mp.shape.block_threads,
        s.batch, s.n, s.k,
        {{"src_val", static_cast<int>(p.seg_val[cur])},
         {"src_idx", static_cast<int>(p.seg_idx[cur])},
         {"dst_val", static_cast<int>(p.seg_val[1 - cur])},
         {"dst_idx", static_cast<int>(p.seg_idx[1 - cur])}});
    cur = 1 - cur;
  }
  simgpu::record_launch(sched, "BitonicTopK_emit", static_cast<int>(s.batch),
                        kBlockThreads, s.batch, s.n, s.k,
                        {{"fin_val", static_cast<int>(p.seg_val[cur])},
                         {"fin_idx", static_cast<int>(p.seg_idx[cur])},
                         {"out_vals", simgpu::kBindOutVals},
                         {"out_idx", simgpu::kBindOutIdx}});
  return p;
}

namespace detail {

/// Split packed entries back into keys and indices (KeyOrder::pack
/// inverted).
template <typename T>
inline void unpack_pairs(KeyOrder<T> ord, const std::uint64_t* packed,
                         std::size_t len, T* keys, std::uint32_t* idx) {
  for (std::size_t i = 0; i < len; ++i) {
    keys[i] = ord.unpack(packed[i]);
    idx[i] = static_cast<std::uint32_t>(packed[i]);
  }
}

}  // namespace detail

/// Phase 2 of Bitonic Top-K (Shanbhag, Pirk, Madden 2018): a pure
/// partial-sorting method that halves the working set once per pass.  The
/// input is viewed as next_pow2(k)-sized chunks; pass 0 sorts each pair of
/// chunks and merge-prunes it to one sorted chunk, and every later pass
/// merges chunk pairs again, until a single chunk — the top K — remains.
///
/// Faithful cost structure: the whole (shrinking) working set is read and
/// written back to device memory every pass (~log2(N/K) kernels), and every
/// merge is an O(k log k) bitonic network — which is why its running time
/// climbs steeply with K (paper Fig. 6) and why K is capped at 256 by
/// shared-memory capacity (paper §2.2).
///
/// Keys are 32-bit (kPackableKey: the f32 and u32 carriers).  Under the
/// warpfast gate each network step runs as a packed sort instead of an
/// emulated network, as TopkList does: chunks move as (key, index) uint64s
/// (KeyOrder::pack), pass 0 sorts each chunk pair and keeps the cap best
/// (simd::sort_u64 with keep = cap), and the halving passes keep the cap
/// best of two sorted chunks with one merge.  Every block charges the exact
/// networks' closed forms (bitonic_sort_ops, merge_prune_ops — pinned
/// against the networks in partial_sort_test) and the same tile traffic, so
/// KernelStats and modeled time are unchanged.  Keys order by the packed
/// radix ordinal, then index: among keys tied at the K-th value the
/// returned indices may differ from the network's, which the result
/// contract leaves open.  Pads are ~0, above every real entry, so the
/// network's worst-key pads are never returned.
template <typename T>
void bitonic_topk_run(simgpu::Device& dev, const BitonicTopkPlan<T>& plan,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                      simgpu::DeviceBuffer<T> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument("bitonic_topk: buffer too small");
  }

  const std::size_t cap = plan.cap;
  const std::size_t chunks0 = plan.chunks0;
  const KeyOrder<T> ord = plan.order;
  simgpu::DeviceBuffer<T> work_val[2] = {ws.get<T>(plan.seg_val[0]),
                                         ws.get<T>(plan.seg_val[1])};
  simgpu::DeviceBuffer<std::uint32_t> work_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_idx[0]),
      ws.get<std::uint32_t>(plan.seg_idx[1])};

  // ---- pass 0: sort chunk pairs from the raw input, prune to one chunk ---
  {
    const std::size_t pairs = plan.half0;
    const GridShape shape = plan.shape0;
    const int bpp = shape.blocks_per_problem;
    simgpu::LaunchConfig cfg{"BitonicTopK_sort_prune(0)",
                             shape.total_blocks(), shape.block_threads,
                             batch, n, k};
    const auto dst_val = work_val[0];
    const auto dst_idx = work_idx[0];
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const std::size_t prob = shape.problem_of(ctx.block_idx());
      const int bip = shape.block_in_problem(ctx.block_idx());
      const auto [pbegin, pend] = block_chunk(pairs, bpp, bip);
      if (ctx.warpfast_enabled()) {
        const std::size_t len = std::max<std::size_t>(32, 2 * cap);
        std::uint64_t buf[2 * kMaxBitonicTopkK];
        std::uint64_t tmp[2 * kMaxBitonicTopkK];
        T keys[kMaxBitonicTopkK];
        std::uint32_t idx[kMaxBitonicTopkK];
        for (std::size_t p = pbegin; p < pend; ++p) {
          // The pair's real elements are one contiguous input run; the
          // network reads exactly these and pads the rest.
          const std::size_t first = 2 * p * cap;
          const std::size_t m = std::min(2 * cap, n - first);
          const std::span<const T> in_tile =
              ctx.load_tile(in, prob * n + first, m);
          for (std::size_t i = 0; i < m; ++i) {
            buf[i] =
                ord.pack(in_tile[i], static_cast<std::uint32_t>(first + i));
          }
          std::fill(buf + m, buf + len, ~std::uint64_t{0});
          simgpu::simd::sort_u64(buf, len, tmp, cap);
          detail::unpack_pairs(ord, buf, cap, keys, idx);
          ctx.ops(2 * bitonic_sort_ops(cap) + merge_prune_ops(cap));
          const std::size_t at = (prob * pairs + p) * cap;
          ctx.store_tile(dst_val, at, std::span<const T>(keys, cap));
          ctx.store_tile(dst_idx, at,
                         std::span<const std::uint32_t>(idx, cap));
        }
        return;
      }
      auto a_keys = ctx.shared<T>(cap, "bitonic chunk a keys");
      auto a_idx = ctx.shared<std::uint32_t>(cap, "bitonic chunk a idx");
      auto b_keys = ctx.shared<T>(cap, "bitonic chunk b keys");
      auto b_idx = ctx.shared<std::uint32_t>(cap, "bitonic chunk b idx");
      for (std::size_t p = pbegin; p < pend; ++p) {
        // Generic over the view type so SharedSpan stays instrumented.
        const auto load_chunk = [&](std::size_t chunk, auto keys, auto idx) {
          for (std::size_t i = 0; i < cap; ++i) {
            const std::size_t src = chunk * cap + i;
            if (chunk < chunks0 && src < n) {
              keys[i] = ctx.load(in, prob * n + src);
              idx[i] = static_cast<std::uint32_t>(src);
            } else {
              keys[i] = ord.worst();
              idx[i] = 0;
            }
          }
        };
        load_chunk(2 * p, a_keys, a_idx);
        load_chunk(2 * p + 1, b_keys, b_idx);
        bitonic_sort(ctx, a_keys, a_idx, ord);
        bitonic_sort(ctx, b_keys, b_idx, ord);
        merge_prune(ctx, a_keys, a_idx, b_keys, b_idx, ord);
        for (std::size_t i = 0; i < cap; ++i) {
          ctx.store(dst_val, (prob * pairs + p) * cap + i, a_keys[i]);
          ctx.store(dst_idx, (prob * pairs + p) * cap + i, a_idx[i]);
        }
      }
    });
  }

  // ---- halving passes: merge sorted chunk pairs until one remains --------
  int cur = 0;
  for (const auto& mp : plan.passes) {
    const std::size_t pairs = mp.pairs;
    const std::size_t src_chunks = mp.src_chunks;
    const GridShape shape = mp.shape;
    const int bpp = shape.blocks_per_problem;
    simgpu::LaunchConfig cfg{mp.name, shape.total_blocks(),
                             shape.block_threads, batch, n, k};
    const auto src_val = work_val[cur];
    const auto src_idx = work_idx[cur];
    const auto dst_val = work_val[1 - cur];
    const auto dst_idx = work_idx[1 - cur];
    const std::size_t src_stride = src_chunks;  // chunks per problem in src
    const std::size_t dst_stride = pairs;       // chunks per problem in dst
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const std::size_t prob = shape.problem_of(ctx.block_idx());
      const int bip = shape.block_in_problem(ctx.block_idx());
      const auto [pbegin, pend] = block_chunk(pairs, bpp, bip);
      if (ctx.warpfast_enabled()) {
        std::uint64_t buf[2 * kMaxBitonicTopkK];
        std::uint64_t merged[kMaxBitonicTopkK];
        T keys[kMaxBitonicTopkK];
        std::uint32_t idx[kMaxBitonicTopkK];
        for (std::size_t p = pbegin; p < pend; ++p) {
          const std::size_t src = (prob * src_stride + 2 * p) * cap;
          const std::size_t dst = (prob * dst_stride + p) * cap;
          if (2 * p + 1 >= src_chunks) {
            copy_pairs(ctx, src_val, src_idx, src, dst_val, dst_idx, dst, cap);
            continue;
          }
          // Chunks 2p and 2p + 1 are adjacent: one tile each for keys and
          // indices covers both.
          const std::span<const T> tk = ctx.load_tile(src_val, src, 2 * cap);
          const std::span<const std::uint32_t> ti =
              ctx.load_tile(src_idx, src, 2 * cap);
          for (std::size_t i = 0; i < 2 * cap; ++i) {
            buf[i] = ord.pack(tk[i], ti[i]);
          }
          simgpu::simd::merge_sorted_u64(buf, cap, buf + cap, cap, merged,
                                         cap);
          detail::unpack_pairs(ord, merged, cap, keys, idx);
          ctx.ops(merge_prune_ops(cap));
          ctx.store_tile(dst_val, dst, std::span<const T>(keys, cap));
          ctx.store_tile(dst_idx, dst,
                         std::span<const std::uint32_t>(idx, cap));
        }
        return;
      }
      auto a_keys = ctx.shared<T>(cap, "bitonic merge a keys");
      auto a_idx = ctx.shared<std::uint32_t>(cap, "bitonic merge a idx");
      auto b_keys = ctx.shared<T>(cap, "bitonic merge b keys");
      auto b_idx = ctx.shared<std::uint32_t>(cap, "bitonic merge b idx");
      for (std::size_t p = pbegin; p < pend; ++p) {
        for (std::size_t i = 0; i < cap; ++i) {
          const std::size_t src = (prob * src_stride + 2 * p) * cap + i;
          a_keys[i] = ctx.load(src_val, src);
          a_idx[i] = ctx.load(src_idx, src);
        }
        if (2 * p + 1 < src_chunks) {
          for (std::size_t i = 0; i < cap; ++i) {
            const std::size_t src = (prob * src_stride + 2 * p + 1) * cap + i;
            b_keys[i] = ctx.load(src_val, src);
            b_idx[i] = ctx.load(src_idx, src);
          }
          merge_prune(ctx, a_keys, a_idx, b_keys, b_idx, ord);
        }
        for (std::size_t i = 0; i < cap; ++i) {
          ctx.store(dst_val, (prob * dst_stride + p) * cap + i, a_keys[i]);
          ctx.store(dst_idx, (prob * dst_stride + p) * cap + i, a_idx[i]);
        }
      }
    });
    cur = 1 - cur;
  }

  // ---- emit the surviving chunk's first K pairs ---------------------------
  {
    simgpu::LaunchConfig cfg{"BitonicTopK_emit", static_cast<int>(batch),
                             kBlockThreads, batch, n, k};
    const auto fin_val = work_val[cur];
    const auto fin_idx = work_idx[cur];
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto prob = static_cast<std::size_t>(ctx.block_idx());
      copy_pairs(ctx, fin_val, fin_idx, prob * cap, out_vals, out_idx,
                 prob * k, k);
    });
  }
}

}  // namespace topk
