#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/key_order.hpp"

namespace topk {

/// Digit width of the full-sort baseline's LSD passes: four passes over
/// 32-bit keys, 256 buckets each.
inline constexpr int kSortDigitBits = 8;
inline constexpr int kSortBuckets = 1 << kSortDigitBits;

/// Execution plan of the sort baseline (see sort_topk_plan): precomputed
/// grids, pass count and workspace segment ids.  Cheap to copy and cache;
/// sort_topk_run() consumes it without allocating.
template <typename T>
struct SortTopkPlan {
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  int num_passes = 0;
  GridShape shape;   // full-n scan grid
  GridShape cshape;  // take-k copy grid
  std::size_t seg_keys[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
  std::size_t seg_hist = 0;
};

/// Footprint contracts for the full-sort baseline kernels.  The key width
/// is declared at its 8-byte maximum (double instantiations) so one contract
/// covers every element type; the scan is the lone single-block kernel.
inline void register_sort_topk_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"radix_transform",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
           {"dst_keys",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchN}},
            8},
           {"dst_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchN}},
            4},
       }});
  simgpu::register_footprint(
      {"sort_histogram",
       {
           {"src_keys", Access::kRead, WriteScope::kNone,
            {{AffineVar::kBatchN}}, 8},
           {"hist",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            4},
       }});
  simgpu::register_footprint(
      {"sort_scan",
       {
           {"hist",
            Access::kReadWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kSegElems}},
            4},
       }});
  simgpu::register_footprint(
      {"sort_scatter",
       {
           {"src_keys", Access::kRead, WriteScope::kNone,
            {{AffineVar::kBatchN}}, 8},
           {"src_idx", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}},
            4},
           {"hist", Access::kRead, WriteScope::kNone, {{AffineVar::kSegElems}},
            4},
           {"dst_keys",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kBatchN}},
            8},
           {"dst_idx",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kBatchN}},
            4},
       }});
  simgpu::register_footprint(
      {"sort_take_k",
       {
           {"fin_keys", Access::kRead, WriteScope::kNone,
            {{AffineVar::kBatchK}}, 8},
           {"fin_idx", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchK}},
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

/// Phase 1 of the sort baseline: validate the shape, size the grids, and
/// describe every scratch buffer as a named workspace segment in `layout`.
/// Performs no device work; the returned plan plus a Workspace bound to
/// `layout` is everything sort_topk_run needs.
template <typename T>
SortTopkPlan<T> sort_topk_plan(const Shape& s, const simgpu::DeviceSpec& spec,
                               simgpu::WorkspaceLayout& layout,
                               simgpu::KernelSchedule* sched = nullptr) {
  using Traits = RadixTraits<T>;
  using Bits = typename Traits::Bits;

  validate_problem(s.n, s.k, s.batch);

  SortTopkPlan<T> p;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.order = KeyOrder<T>(s.greatest);
  p.num_passes = (Traits::kBits + kSortDigitBits - 1) / kSortDigitBits;
  p.shape = make_grid(1, s.n, spec);
  p.cshape = make_grid(1, s.k, spec);

  p.seg_keys[0] = layout.add<Bits>("sort keys 0", s.n);
  p.seg_keys[1] = layout.add<Bits>("sort keys 1", s.n);
  p.seg_idx[0] = layout.add<std::uint32_t>("sort idx 0", s.n);
  p.seg_idx[1] = layout.add<std::uint32_t>("sort idx 1", s.n);
  // Per-(block, digit) counts; rewritten as scatter offsets by the scan.
  p.seg_hist = layout.add<std::uint32_t>(
      "sort block hist",
      static_cast<std::size_t>(p.shape.blocks_per_problem) * kSortBuckets);

  if (sched != nullptr) {
    register_sort_topk_footprints();
    // Nominal per-problem unrolling of the full LSD pipeline.
    const int bpp = p.shape.blocks_per_problem;
    simgpu::record_launch(sched, "radix_transform", bpp, kBlockThreads, 1, s.n,
                          s.k,
                          {{"in", simgpu::kBindInput},
                           {"dst_keys", static_cast<int>(p.seg_keys[0])},
                           {"dst_idx", static_cast<int>(p.seg_idx[0])}});
    int cur = 0;
    for (int pass = 0; pass < p.num_passes; ++pass) {
      simgpu::record_launch(
          sched, "sort_histogram", bpp, kBlockThreads, 1, s.n, s.k,
          {{"src_keys", static_cast<int>(p.seg_keys[cur])},
           {"hist", static_cast<int>(p.seg_hist)}});
      simgpu::record_launch(sched, "sort_scan", 1, kBlockThreads, 1, s.n, s.k,
                            {{"hist", static_cast<int>(p.seg_hist)}});
      simgpu::record_launch(
          sched, "sort_scatter", bpp, kBlockThreads, 1, s.n, s.k,
          {{"src_keys", static_cast<int>(p.seg_keys[cur])},
           {"src_idx", static_cast<int>(p.seg_idx[cur])},
           {"hist", static_cast<int>(p.seg_hist)},
           {"dst_keys", static_cast<int>(p.seg_keys[1 - cur])},
           {"dst_idx", static_cast<int>(p.seg_idx[1 - cur])}});
      cur = 1 - cur;
    }
    simgpu::record_launch(sched, "sort_take_k",
                          p.cshape.blocks_per_problem, kBlockThreads, 1,
                          s.n, s.k,
                          {{"fin_keys", static_cast<int>(p.seg_keys[cur])},
                           {"fin_idx", static_cast<int>(p.seg_idx[cur])},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
  }
  return p;
}

/// Phase 2 of the sort baseline: a CUB-style device-wide LSD radix sort of
/// (key, index) pairs followed by taking the first K.  Stable, fully
/// parallel, and oblivious to K — but it moves every element through device
/// memory once per pass, which is why "sorting the full list is
/// time-intensive and unnecessary" (paper §1).
///
/// Each of the four 8-bit passes runs the classic three-kernel pipeline:
/// per-block digit histogram, digit-major exclusive scan, stable scatter.
///
/// Zero-allocation contract: all scratch comes from `ws` (bound to the
/// layout the plan was built against); nothing in this function touches the
/// device or host allocator.
template <typename T>
void sort_topk_run(simgpu::Device& dev, const SortTopkPlan<T>& plan,
                   simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                   simgpu::DeviceBuffer<T> out_vals,
                   simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  using Traits = RadixTraits<T>;
  using Bits = typename Traits::Bits;

  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument("sort_topk: buffer too small");
  }

  constexpr int nb = kSortBuckets;
  constexpr std::uint32_t mask = nb - 1;
  // Sort the keys' radix ordinals: largest-K sorts them complemented.
  const Bits order = plan.order.radix_mask();
  const int bpp = plan.shape.blocks_per_problem;

  simgpu::DeviceBuffer<Bits> keys[2] = {ws.get<Bits>(plan.seg_keys[0]),
                                        ws.get<Bits>(plan.seg_keys[1])};
  simgpu::DeviceBuffer<std::uint32_t> idx[2] = {
      ws.get<std::uint32_t>(plan.seg_idx[0]),
      ws.get<std::uint32_t>(plan.seg_idx[1])};
  auto block_hist = ws.get<std::uint32_t>(plan.seg_hist);

  for (std::size_t prob = 0; prob < batch; ++prob) {
    // ---- transform kernel: monotone bit reinterpretation + iota indices --
    {
      simgpu::LaunchConfig cfg{"radix_transform", bpp, kBlockThreads, 1, n, k};
      const auto dst_keys = keys[0];
      const auto dst_idx = idx[0];
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        const auto [begin, end] = block_chunk(n, bpp, ctx.block_idx());
        // Stage one tile of transformed keys + iota indices, then store
        // both with a single accounted (and shadow-exact) bulk write.
        Bits kbuf[simgpu::kTileElems];
        std::uint32_t ibuf[simgpu::kTileElems];
        for (std::size_t i = begin; i < end; i += simgpu::kTileElems) {
          const std::size_t c = std::min(simgpu::kTileElems, end - i);
          const std::span<const T> tv = ctx.load_tile(in, prob * n + i, c);
          for (std::size_t u = 0; u < tv.size(); ++u) {
            kbuf[u] = Traits::to_radix(tv[u]) ^ order;
            ibuf[u] = static_cast<std::uint32_t>(i + u);
          }
          ctx.store_tile(dst_keys, i, std::span<const Bits>(kbuf, c));
          ctx.store_tile(dst_idx, i, std::span<const std::uint32_t>(ibuf, c));
        }
        ctx.ops(end - begin);
      });
    }

    int cur = 0;
    for (int p = 0; p < plan.num_passes; ++p) {
      const int start_bit = p * kSortDigitBits;
      const auto src_keys = keys[cur];
      const auto src_idx = idx[cur];
      const auto dst_keys = keys[1 - cur];
      const auto dst_idx = idx[1 - cur];

      // ---- kernel 1: per-block digit histogram --------------------------
      {
        simgpu::LaunchConfig cfg{"sort_histogram", bpp, kBlockThreads, 1, n,
                                 k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          auto shist =
              ctx.shared_zero<std::uint32_t>(static_cast<std::size_t>(nb));
          std::uint32_t* const hraw = shist.unchecked_data();
          const auto [begin, end] = block_chunk(n, bpp, ctx.block_idx());
          const int sb = start_bit;
          const std::uint32_t dm = mask;
          if (hraw != nullptr) {
            ctx.for_each_elem(src_keys, begin, end - begin,
                              [&](std::size_t, Bits key) {
                                ++hraw[static_cast<std::uint32_t>(key >> sb) &
                                       dm];
                              });
          } else {
            ctx.for_each_elem(src_keys, begin, end - begin,
                              [&](std::size_t, Bits key) {
                                ++shist[static_cast<std::uint32_t>(key >> sb) &
                                        dm];
                              });
          }
          ctx.ops(2 * (end - begin));
          ctx.sync();
          const std::size_t row =
              static_cast<std::size_t>(ctx.block_idx()) *
              static_cast<std::size_t>(nb);
          for (int d = 0; d < nb; ++d) {
            ctx.store<std::uint32_t>(block_hist,
                                     row + static_cast<std::size_t>(d),
                                     shist[static_cast<std::size_t>(d)]);
          }
        });
      }

      // ---- kernel 2: digit-major exclusive scan --------------------------
      {
        simgpu::LaunchConfig cfg{"sort_scan", 1, kBlockThreads, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          std::uint32_t running = 0;
          for (int d = 0; d < nb; ++d) {
            for (int b = 0; b < bpp; ++b) {
              const std::size_t at =
                  static_cast<std::size_t>(b) * static_cast<std::size_t>(nb) +
                  static_cast<std::size_t>(d);
              const std::uint32_t c = ctx.load(block_hist, at);
              ctx.store<std::uint32_t>(block_hist, at, running);
              running += c;
            }
          }
          ctx.ops(static_cast<std::uint64_t>(nb) *
                  static_cast<std::uint64_t>(bpp));
        });
      }

      // ---- kernel 3: stable scatter --------------------------------------
      {
        simgpu::LaunchConfig cfg{"sort_scatter", bpp, kBlockThreads, 1, n,
                                 k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          // Running per-digit cursors start at this block's scanned bases.
          auto cursor =
              ctx.shared<std::uint32_t>(static_cast<std::size_t>(nb));
          const std::size_t row =
              static_cast<std::size_t>(ctx.block_idx()) *
              static_cast<std::size_t>(nb);
          for (int d = 0; d < nb; ++d) {
            cursor[static_cast<std::size_t>(d)] =
                ctx.load(block_hist, row + static_cast<std::size_t>(d));
          }
          ctx.sync();
          const auto [begin, end] = block_chunk(n, bpp, ctx.block_idx());
          // Loads go by tile.  The stores scatter by digit, so store_tile
          // does not apply, but every element stores exactly one (key, idx)
          // pair — a ScatterWriter bulk-charges that known count and writes
          // raw while no sanitizer is attached.
          auto wkey = ctx.scatter_writer(dst_keys, end - begin);
          auto widx = ctx.scatter_writer(dst_idx, end - begin);
          std::uint32_t* const craw = cursor.unchecked_data();
          const int sb = start_bit;
          const std::uint32_t dm = mask;
          if (craw != nullptr) {
            scan_pairs(ctx, src_keys, src_idx, 0, begin, end,
                       [&](std::size_t, Bits key, std::uint32_t id) {
                         const std::uint32_t at =
                             craw[static_cast<std::uint32_t>(key >> sb) &
                                  dm]++;
                         wkey.put(at, key);
                         widx.put(at, id);
                       });
          } else {
            scan_pairs(ctx, src_keys, src_idx, 0, begin, end,
                       [&](std::size_t, Bits key, std::uint32_t id) {
                         const std::uint32_t at =
                             cursor[static_cast<std::uint32_t>(key >> sb) &
                                    dm]++;
                         wkey.put(at, key);
                         widx.put(at, id);
                       });
          }
          ctx.ops(3 * (end - begin));
        });
      }
      cur = 1 - cur;
    }

    // ---- copy kernel: first K sorted pairs back to values ----------------
    {
      const auto fin_keys = keys[cur];
      const auto fin_idx = idx[cur];
      const int cbpp = plan.cshape.blocks_per_problem;
      simgpu::LaunchConfig cfg{"sort_take_k", cbpp, kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        const auto [begin, end] = block_chunk(k, cbpp, ctx.block_idx());
        T vbuf[simgpu::kTileElems];
        for (std::size_t i = begin; i < end; i += simgpu::kTileElems) {
          const std::size_t c = std::min(simgpu::kTileElems, end - i);
          const std::span<const Bits> tk = ctx.load_tile(fin_keys, i, c);
          const std::span<const std::uint32_t> ti =
              ctx.load_tile(fin_idx, i, c);
          for (std::size_t u = 0; u < tk.size(); ++u) {
            vbuf[u] = Traits::from_radix(tk[u] ^ order);
          }
          ctx.store_tile(out_vals, prob * k + i, std::span<const T>(vbuf, c));
          ctx.store_tile(out_idx, prob * k + i, ti);
        }
        ctx.ops(end - begin);
      });
    }
  }
}

}  // namespace topk
