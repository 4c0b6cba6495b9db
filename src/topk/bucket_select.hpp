#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/key_order.hpp"
#include "topk/level_loop.hpp"

namespace topk {

/// Buckets per BucketSelect refinement level.
inline constexpr int kBucketSelectBuckets = 256;

/// Execution plan for BucketSelect: validated shape plus workspace segments,
/// including a host staging segment for the copied-back histogram (the
/// per-iteration grids are data-dependent arithmetic computed in run()).
template <typename T>
struct BucketSelectPlan {
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  std::size_t seg_val[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
  std::size_t seg_minmax = 0;
  std::size_t seg_hist = 0;
  std::size_t seg_counters = 0;
  std::size_t seg_host_hist = 0;  // host staging
};

/// Footprint contracts for the BucketSelect kernels.  Histogram and
/// candidate bounds are segment-sized (the bucket count is a tuning constant
/// and the candidate set shrinks data-dependently); the filter's output writes
/// go through cursor-reserved aggregated appends.
inline void register_bucket_select_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"minmax_memset",
       {
           {"minmax",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kOne, 2}},
            8},
           {"counters",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kOne, 2}},
            4},
       }});
  simgpu::register_footprint(
      {"minmax_reduce",
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
           {"minmax", Access::kAtomic, WriteScope::kNone, {{AffineVar::kOne, 2}},
            8},
       }});
  // Shared with SampleSelect, which also clears its cursors here.
  simgpu::register_footprint({"hist_memset", memset_operands(true)});
  simgpu::register_footprint({"bucket_histogram", hist_operands()});
  simgpu::register_footprint(
      {"bucket_filter", filter_operands("out_vals", "out_idx",
                                        simgpu::AffineVar::kBatchK)});
  register_copy_remainder_footprint();
}

/// Phase 1 of BucketSelect.
template <typename T>
BucketSelectPlan<T> bucket_select_plan(const Shape& s,
                                       const simgpu::DeviceSpec& spec,
                                       simgpu::WorkspaceLayout& layout,
                                       simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);

  BucketSelectPlan<T> p;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.order = KeyOrder<T>(s.greatest);
  constexpr auto nb = static_cast<std::size_t>(kBucketSelectBuckets);
  p.seg_val[0] = layout.add<T>("bucket cand vals 0", s.n);
  p.seg_val[1] = layout.add<T>("bucket cand vals 1", s.n);
  p.seg_idx[0] = layout.add<std::uint32_t>("bucket cand idx 0", s.n);
  p.seg_idx[1] = layout.add<std::uint32_t>("bucket cand idx 1", s.n);
  p.seg_minmax = layout.add<T>("bucket minmax", 2);
  p.seg_hist = layout.add<std::uint32_t>("bucket histogram", nb);
  p.seg_counters = layout.add<std::uint32_t>("bucket cursors", 2);
  p.seg_host_hist = layout.add<std::uint32_t>("bucket host hist", nb,
                                              /*host=*/true);

  if (sched != nullptr) {
    register_bucket_select_footprints();
    // Nominal per-problem unrolling: two refinement iterations (the first
    // scans the input, the second the ping-pong candidates — together they
    // exercise both buffer sides) followed by the terminal remainder copy.
    const GridShape shape = make_grid(1, s.n, spec);
    const LevelSteps steps{
        .hist_name = "bucket_histogram",
        .filter_name = "bucket_filter",
        .copy_label = "bucket hist",
        .scan_label = "scan+find_bkt",
        .grid = shape.total_blocks(),
        .n = s.n,
        .k = s.k,
        .seg_hist = static_cast<int>(p.seg_hist),
        .seg_host_hist = static_cast<int>(p.seg_host_hist),
        .seg_counters = static_cast<int>(p.seg_counters)};
    int cur = 0;
    for (int iter = 0; iter < 2; ++iter) {
      const bool fi = (iter == 0);
      simgpu::record_launch(sched, "minmax_memset", 1, 32, 1, s.n, s.k,
                            {{"minmax", static_cast<int>(p.seg_minmax)},
                             {"counters", static_cast<int>(p.seg_counters)}});
      std::vector<simgpu::OperandBind> reduce_binds;
      if (fi) {
        reduce_binds.push_back({"in", simgpu::kBindInput});
      } else {
        reduce_binds.push_back({"src_val", static_cast<int>(p.seg_val[cur])});
      }
      reduce_binds.push_back({"minmax", static_cast<int>(p.seg_minmax)});
      simgpu::record_launch(sched, "minmax_reduce", shape.total_blocks(),
                            kBlockThreads, 1, s.n, s.k,
                            std::move(reduce_binds));
      simgpu::record_host(sched, "minmax",
                          {{"minmax", static_cast<int>(p.seg_minmax),
                            simgpu::Access::kRead}});
      simgpu::record_launch(sched, "hist_memset", 1, 32, 1, s.n, s.k,
                            {{"hist", static_cast<int>(p.seg_hist)}});
      record_level(sched, steps,
                   fi ? simgpu::kBindInput : static_cast<int>(p.seg_val[cur]),
                   fi ? simgpu::kBindInput : static_cast<int>(p.seg_idx[cur]),
                   {}, {"out_vals", simgpu::kBindOutVals},
                   {"out_idx", simgpu::kBindOutIdx},
                   static_cast<int>(p.seg_val[1 - cur]),
                   static_cast<int>(p.seg_idx[1 - cur]));
      cur = 1 - cur;
    }
    simgpu::record_launch(sched, "CopyRemainder", shape.total_blocks(),
                          kBlockThreads, 1, s.n, s.k,
                          {{"src_val", static_cast<int>(p.seg_val[cur])},
                           {"src_idx", static_cast<int>(p.seg_idx[cur])},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
  }
  return p;
}

/// Phase 2 of BucketSelect (Alabi et al. 2012 / GpuSelection):
/// partition-based selection whose pivots are derived from the minimum and
/// maximum of the candidates (paper §2.2).  Each iteration runs a min/max
/// reduction, copies the extrema to the host, buckets the candidates by
/// linear interpolation, copies the histogram back, and filters into the
/// target bucket — two host round trips per iteration.
template <typename T>
void bucket_select_run(simgpu::Device& dev, const BucketSelectPlan<T>& plan,
                       simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                       simgpu::DeviceBuffer<T> out_vals,
                       simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument("bucket_select: buffer too small");
  }

  constexpr int nb = kBucketSelectBuckets;
  const KeyOrder<T> ord = plan.order;
  const simgpu::DeviceBuffer<T> cand_val[2] = {ws.get<T>(plan.seg_val[0]),
                                               ws.get<T>(plan.seg_val[1])};
  const simgpu::DeviceBuffer<std::uint32_t> cand_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_idx[0]),
      ws.get<std::uint32_t>(plan.seg_idx[1])};
  auto minmax = ws.get<T>(plan.seg_minmax);
  auto ghist = ws.get<std::uint32_t>(plan.seg_hist);
  auto counters = ws.get<std::uint32_t>(plan.seg_counters);
  const std::span<std::uint32_t> host_hist(
      ws.host_ptr<std::uint32_t>(plan.seg_host_hist),
      static_cast<std::size_t>(nb));

  const LevelLoop<T> loop{dev, "bucket_select", "CopyRemainder", n, k, in,
                          out_vals, out_idx, cand_val, cand_idx};
  loop.run(batch, [&](LevelRow& r) {
    const std::size_t prob = r.prob;
    const std::uint64_t count = r.count;
    const bool from_input = r.from_input;
    const auto src_val = cand_val[r.side[0]];
    const auto src_idx = cand_idx[r.side[0]];

    // ---- kernel 1: min/max reduction (of keys) -----------------------------
    {
      simgpu::LaunchConfig cfg{"minmax_memset", 1, 32, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        ctx.store(minmax, 0, std::numeric_limits<T>::max());
        ctx.store(minmax, 1, std::numeric_limits<T>::lowest());
        ctx.store<std::uint32_t>(counters, 0, 0);
        ctx.store<std::uint32_t>(counters, 1, 0);
      });
    }
    const GridShape shape = make_grid(1, count, dev.spec());
    const int bpp = shape.blocks_per_problem;
    {
      simgpu::LaunchConfig cfg{"minmax_reduce", shape.total_blocks(),
                               kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
        T lo = std::numeric_limits<T>::max();
        T hi = std::numeric_limits<T>::lowest();
        const auto src = from_input ? in : src_val;
        const std::size_t base = from_input ? prob * n : 0;
        if (ctx.unchecked_tiles()) {
          ctx.for_each_tile(src, base + begin, end - begin,
                            [&](std::size_t, std::span<const T> tv) {
                              simgpu::simd::key_minmax(tv, ord.mask(), lo, hi);
                            });
        } else {
          ctx.for_each_elem(src, base + begin, end - begin,
                            [&](std::size_t, T v) {
                              const T kv = ord.key(v);
                              lo = std::min(lo, kv);
                              hi = std::max(hi, kv);
                            });
        }
        ctx.ops(2 * (end - begin));
        if (begin < end) {
          ctx.atomic_min(minmax, 0, lo);
          ctx.atomic_max(minmax, 1, hi);
        }
      });
    }
    std::array<T, 2> host_minmax;
    dev.copy_to_host(minmax, std::span<T>(host_minmax), "minmax");
    const double lo = static_cast<double>(host_minmax[0]);
    const double hi = static_cast<double>(host_minmax[1]);
    if (!(lo < hi)) {
      // All remaining candidates are identical: any k_rem of them work.
      loop.collect_live(r, r.k_rem);
      return true;
    }
    if (!std::isfinite(hi - lo)) {
      // An infinite range makes scale 0: every key lands in bucket 0 and
      // no pass ever shrinks the candidates.  A finite range always
      // progresses (the minimum lands in bucket 0, the maximum in nb-1).
      std::ostringstream err;
      err << "bucket_select: row " << prob << " has the non-finite key "
          << "range [" << lo << ", " << hi << "]; interpolation bucketing "
          << "cannot split it";
      throw std::runtime_error(err.str());
    }
    const double scale = static_cast<double>(nb) / (hi - lo);
    constexpr std::uint32_t top = nb - 1;
    // Interpolated bucket of a value's key, clamped to [0, nb).
    const auto bucket_of = [=](T v) {
      return simgpu::simd::interpolation_bucket(ord.key(v), lo, scale, top);
    };

    // ---- kernel 2: interpolation histogram --------------------------------
    {
      simgpu::LaunchConfig cfg{"hist_memset", 1, 32, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        for (int d = 0; d < nb; ++d) {
          ctx.store<std::uint32_t>(ghist, static_cast<std::size_t>(d), 0);
        }
      });
    }
    {
      simgpu::LaunchConfig cfg{"bucket_histogram", shape.total_blocks(),
                               kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        auto shist =
            ctx.shared_zero<std::uint32_t>(static_cast<std::size_t>(nb));
        const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
        std::uint32_t* const hist = shist.unchecked_data();
        const auto src = from_input ? in : src_val;
        const std::size_t base = from_input ? prob * n : 0;
        if (hist != nullptr) {
          simgpu::simd::SplitCounts256 counts;
          std::uint8_t bins[simgpu::kTileElems];
          ctx.for_each_tile(src, base + begin, end - begin,
                            [&](std::size_t, std::span<const T> tv) {
                              simgpu::simd::interpolation_buckets(
                                  tv, ord.mask(), lo, scale, top, bins);
                              counts.add({bins, tv.size()});
                            });
          counts.fold_into({hist, static_cast<std::size_t>(nb)});
        } else {
          ctx.for_each_elem(src, base + begin, end - begin,
                            [&](std::size_t, T v) { ++shist[bucket_of(v)]; });
        }
        ctx.ops(4 * (end - begin));
        ctx.sync();
        ctx.flush_counts(ghist, 0, shist);
      });
    }
    const LevelTarget t = find_target(dev, ghist, host_hist, "bucket hist",
                                      "scan+find_bkt", r.k_rem);

    // ---- kernel 3: filter --------------------------------------------------
    const auto dst_val = cand_val[r.side[1]];
    const auto dst_idx = cand_idx[r.side[1]];
    const std::uint64_t out_base = r.out_cursor;
    {
      simgpu::LaunchConfig cfg{"bucket_filter", shape.total_blocks(),
                               kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
        AggregatedAppender<T, std::uint32_t> out_app(
            out_vals, out_idx, out_base, counters, 0, t.less,
            "bucket_select results");
        AggregatedAppender<T, std::uint32_t> cand_app(
            dst_val, dst_idx, 0, counters, 1, count,
            "bucket_select candidates");
        // Below the target bucket a candidate is a result, in it a
        // candidate of the next level; each appender sees its pushes in
        // element order on either path.
        const auto keep = [&](std::uint32_t b, T v, std::uint32_t id) {
          if (b < t.cls) {
            out_app.push(ctx, v, id);
          } else if (b == t.cls) {
            cand_app.push(ctx, v, id);
          }
        };
        if (ctx.unchecked_tiles()) {
          std::uint8_t bins[simgpu::kTileElems];
          scan_candidate_tiles(
              ctx, from_input, in, prob * n, src_val, src_idx, begin, end,
              [&](std::span<const T> tv, std::span<const std::uint32_t> ti) {
                simgpu::simd::interpolation_buckets(tv, ord.mask(), lo, scale,
                                                    top, bins);
                for (std::size_t u = 0; u < tv.size(); ++u) {
                  keep(bins[u], tv[u], ti[u]);
                }
              });
        } else {
          scan_candidates(ctx, from_input, in, prob * n, src_val, src_idx,
                          begin, end, [&](T v, std::uint32_t id) {
                            keep(bucket_of(v), v, id);
                          });
        }
        out_app.flush(ctx);
        cand_app.flush(ctx);
        ctx.ops(5 * (end - begin));
      });
    }
    dev.synchronize("host check");
    r.keep(t);
    return false;
  });
}

}  // namespace topk
