#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/bitonic.hpp"
#include "topk/common.hpp"
#include "topk/level_loop.hpp"

namespace topk {

/// SampleSelect's tuning: 256 buckets per level (255 splitters, so every
/// splitter search takes exactly 8 probes), a 1024-element sample, and a
/// final on-chip sort once at most 4096 candidates remain.
inline constexpr int kSplitterProbes = 8;
inline constexpr int kSampleBuckets = 1 << kSplitterProbes;
inline constexpr std::size_t kSampleSize = 1024;
inline constexpr std::size_t kSampleSmallThreshold = 4096;

/// Execution plan for SampleSelect: validated shape plus workspace segments.
/// Host staging for the copied-back sample, the splitters (sorted on the
/// host, then uploaded into the pre-planned device segment with
/// upload_recorded — the allocation-free H2D path) and the class histogram.
template <typename T>
struct SampleSelectPlan {
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  std::size_t seg_val[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
  std::size_t seg_hist = 0;
  std::size_t seg_counters = 0;
  std::size_t seg_sample = 0;
  std::size_t seg_splitters = 0;   // device copy of the splitters
  std::size_t seg_host_hist = 0;   // host staging
  std::size_t seg_host_sample = 0;
  std::size_t seg_host_split = 0;
};

/// Footprint contracts for the SampleSelect kernels.  "hist_memset" is
/// shared with BucketSelect (identical spelling, first registration wins);
/// the splitter operand is optional because degenerate levels fall back to
/// a single-pivot partition that never touches it.
inline void register_sample_select_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint({"hist_memset", memset_operands(true)});
  simgpu::register_footprint(
      {"sample",
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
           {"sample",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kSegElems}},
            8},
       }});
  simgpu::register_footprint(
      {"small_sort",
       {
           {"src_val", Access::kRead, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 8},
           {"src_idx", Access::kRead, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 4},
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
  simgpu::register_footprint({"sample_histogram", hist_operands("splitters")});
  simgpu::register_footprint(
      {"sample_filter", filter_operands("out_vals", "out_idx",
                                        simgpu::AffineVar::kBatchK,
                                        "splitters")});
  register_copy_remainder_footprint();
}

/// Phase 1 of SampleSelect.
template <typename T>
SampleSelectPlan<T> sample_select_plan(const Shape& s,
                                       const simgpu::DeviceSpec& spec,
                                       simgpu::WorkspaceLayout& layout,
                                       simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);

  SampleSelectPlan<T> p;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.order = KeyOrder<T>(s.greatest);
  constexpr auto nb = static_cast<std::size_t>(kSampleBuckets);
  p.seg_val[0] = layout.add<T>("sample cand vals 0", s.n);
  p.seg_val[1] = layout.add<T>("sample cand vals 1", s.n);
  p.seg_idx[0] = layout.add<std::uint32_t>("sample cand idx 0", s.n);
  p.seg_idx[1] = layout.add<std::uint32_t>("sample cand idx 1", s.n);
  p.seg_hist = layout.add<std::uint32_t>("sample bucket histogram", nb);
  p.seg_counters = layout.add<std::uint32_t>("sample cursors", 2);
  p.seg_sample = layout.add<T>("sample probe", kSampleSize);
  p.seg_splitters = layout.add<T>("splitters", nb - 1);
  p.seg_host_hist = layout.add<std::uint32_t>("sample host hist", nb,
                                              /*host=*/true);
  p.seg_host_sample = layout.add<T>("sample host buf", kSampleSize,
                                    /*host=*/true);
  p.seg_host_split = layout.add<T>("sample host split", nb - 1,
                                   /*host=*/true);

  if (sched != nullptr) {
    register_sample_select_footprints();
    // Nominal per-problem unrolling: two splitter levels (input, then the
    // ping-pong candidates) followed by the terminal on-chip sort.
    const LevelSteps steps{
        .hist_name = "sample_histogram",
        .filter_name = "sample_filter",
        .copy_label = "class histogram",
        .scan_label = "scan+find_bkt",
        .grid = make_grid(1, s.n, spec).total_blocks(),
        .n = s.n,
        .k = s.k,
        .seg_hist = static_cast<int>(p.seg_hist),
        .seg_host_hist = static_cast<int>(p.seg_host_hist),
        .seg_counters = static_cast<int>(p.seg_counters)};
    int cur = 0;
    for (int level = 0; level < 2; ++level) {
      const bool fi = (level == 0);
      std::vector<simgpu::OperandBind> sample_binds;
      if (fi) {
        sample_binds.push_back({"in", simgpu::kBindInput});
      } else {
        sample_binds.push_back({"src_val", static_cast<int>(p.seg_val[cur])});
      }
      sample_binds.push_back({"sample", static_cast<int>(p.seg_sample)});
      simgpu::record_launch(sched, "sample", 1, kBlockThreads, 1, s.n,
                            s.k, std::move(sample_binds));
      simgpu::record_host(
          sched, "sample",
          {{"sample", static_cast<int>(p.seg_sample), simgpu::Access::kRead},
           {"host_sample", static_cast<int>(p.seg_host_sample),
            simgpu::Access::kWrite}});
      simgpu::record_host(
          sched, "sort_sample",
          {{"host_sample", static_cast<int>(p.seg_host_sample),
            simgpu::Access::kRead},
           {"host_split", static_cast<int>(p.seg_host_split),
            simgpu::Access::kWrite}});
      simgpu::record_host(
          sched, "splitters",
          {{"host_split", static_cast<int>(p.seg_host_split),
            simgpu::Access::kRead},
           {"splitters", static_cast<int>(p.seg_splitters),
            simgpu::Access::kWrite}});
      simgpu::record_launch(sched, "hist_memset", 1, 32, 1, s.n, s.k,
                            {{"hist", static_cast<int>(p.seg_hist)},
                             {"counters", static_cast<int>(p.seg_counters)}});
      record_level(sched, steps,
                   fi ? simgpu::kBindInput : static_cast<int>(p.seg_val[cur]),
                   fi ? simgpu::kBindInput : static_cast<int>(p.seg_idx[cur]),
                   {"splitters", static_cast<int>(p.seg_splitters)},
                   {"out_vals", simgpu::kBindOutVals},
                   {"out_idx", simgpu::kBindOutIdx},
                   static_cast<int>(p.seg_val[1 - cur]),
                   static_cast<int>(p.seg_idx[1 - cur]));
      cur = 1 - cur;
    }
    simgpu::record_launch(sched, "small_sort", 1, kBlockThreads, 1, s.n,
                          s.k,
                          {{"src_val", static_cast<int>(p.seg_val[cur])},
                           {"src_idx", static_cast<int>(p.seg_idx[cur])},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
  }
  return p;
}

/// Phase 2 of SampleSelect (Ribizel & Anzt 2020 / GpuSelection):
/// partition-based selection that samples the candidates, sorts the sample
/// on the host, and uses order-statistic splitters as pivots.  Each level
/// costs a sample kernel + D2H, a host sort, an H2D splitter upload, a
/// bucketing kernel (binary search per element) + histogram D2H, and a
/// filter kernel — the statistics gathering the paper contrasts with
/// RadixSelect's data-independent pivots (§2.2).
template <typename T>
void sample_select_run(simgpu::Device& dev, const SampleSelectPlan<T>& plan,
                       simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                       simgpu::DeviceBuffer<T> out_vals,
                       simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const KeyOrder<T> ord = plan.order;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument("sample_select: buffer too small");
  }

  constexpr int nb = kSampleBuckets;
  const simgpu::DeviceBuffer<T> cand_val[2] = {ws.get<T>(plan.seg_val[0]),
                                               ws.get<T>(plan.seg_val[1])};
  const simgpu::DeviceBuffer<std::uint32_t> cand_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_idx[0]),
      ws.get<std::uint32_t>(plan.seg_idx[1])};
  auto ghist = ws.get<std::uint32_t>(plan.seg_hist);
  auto counters = ws.get<std::uint32_t>(plan.seg_counters);
  auto sample_buf = ws.get<T>(plan.seg_sample);
  auto splitter_buf = ws.get<T>(plan.seg_splitters);
  const std::span<std::uint32_t> host_hist(
      ws.host_ptr<std::uint32_t>(plan.seg_host_hist),
      static_cast<std::size_t>(nb));
  T* const host_sample = ws.host_ptr<T>(plan.seg_host_sample);
  const std::span<T> splitters(ws.host_ptr<T>(plan.seg_host_split),
                               static_cast<std::size_t>(nb - 1));

  const LevelLoop<T> loop{dev, "sample_select", "CopyRemainder", n, k, in,
                          out_vals, out_idx, cand_val, cand_idx};
  loop.run(batch, [&](LevelRow& r) {
    const std::size_t prob = r.prob;
    const std::uint64_t count = r.count;
    const bool from_input = r.from_input;
    const auto src_val = cand_val[r.side[0]];
    const auto src_idx = cand_idx[r.side[0]];

    if (!from_input && count <= kSampleSmallThreshold) {
      // Final level: on-chip bitonic sort of the remaining candidates.
      const std::size_t padded = next_pow2(count);
      const std::uint64_t take = r.k_rem;
      const std::uint64_t dst = r.out_cursor;
      simgpu::LaunchConfig cfg{"small_sort", 1, kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        auto keys = ctx.shared<T>(padded, "sample sort keys");
        auto idx = ctx.shared<std::uint32_t>(padded, "sample sort idx");
        T* const rk = keys.unchecked_data();
        std::uint32_t* const ri = idx.unchecked_data();
        if (rk != nullptr && ri != nullptr) {
          // Unchecked path: stage and emit through raw shared memory.
          scan_pairs(ctx, src_val, src_idx, 0, 0, count,
                     [&](std::size_t i, T v, std::uint32_t id) {
                       rk[i] = v;
                       ri[i] = id;
                     });
          std::fill(rk + count, rk + padded, ord.worst());
          std::fill(ri + count, ri + padded, 0u);
          bitonic_sort(ctx, keys, idx, ord);
          ctx.store_tile(out_vals, dst, std::span<const T>(rk, take));
          ctx.store_tile(out_idx, dst,
                         std::span<const std::uint32_t>(ri, take));
          return;
        }
        for (std::size_t i = 0; i < padded; ++i) {
          if (i < count) {
            keys[i] = ctx.load(src_val, i);
            idx[i] = ctx.load(src_idx, i);
          } else {
            keys[i] = ord.worst();
            idx[i] = 0;
          }
        }
        bitonic_sort(ctx, keys, idx, ord);
        for (std::uint64_t i = 0; i < take; ++i) {
          ctx.store(out_vals, dst + i, keys[i]);
          ctx.store(out_idx, dst + i, idx[i]);
        }
      });
      r.out_cursor += take;
      return true;
    }

    // ---- sample kernel + host sort ------------------------------------------
    const std::size_t s = std::min<std::size_t>(kSampleSize, count);
    {
      simgpu::LaunchConfig cfg{"sample", 1, kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        for (std::size_t i = 0; i < s; ++i) {
          const std::size_t at = i * count / s;
          const T v = from_input ? ctx.load(in, prob * n + at)
                                 : ctx.load(src_val, at);
          ctx.store(sample_buf, i, v);
        }
        ctx.ops(2 * s);
      });
    }
    const std::span<T> sample(host_sample, s);
    dev.copy_to_host(sample_buf.subspan(0, s), sample, "sample");
    dev.host_compute("sort_sample", static_cast<std::uint64_t>(s) * 10);
    std::sort(sample.begin(), sample.end(),
              [&](T a, T b) { return ord.less(a, b); });

    for (int i = 1; i < nb; ++i) {
      splitters[static_cast<std::size_t>(i - 1)] =
          sample[static_cast<std::size_t>(i) * s /
                 static_cast<std::size_t>(nb)];
    }
    // Degenerate sample (duplicate-dominated data), or splitter buckets that
    // failed to shrink the candidates last level (the sample missed the
    // diversity of the data): fall back to a three-way pivot partition
    // around the middle splitter (as a key), which always makes progress on
    // keys ordered with the pivot.
    const bool degenerate =
        !ord.less(splitters.front(), splitters.back()) || r.stalled;
    const T pivot = ord.key(splitters[splitters.size() / 2]);
    dev.upload_recorded(splitter_buf, std::span<const T>(splitters),
                        "splitters");

    const GridShape shape = make_grid(1, count, dev.spec());
    const int bpp = shape.blocks_per_problem;
    const int classes = degenerate ? 3 : nb;

    // ---- classify + histogram -----------------------------------------------
    {
      simgpu::LaunchConfig cfg{"hist_memset", 1, 32, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        for (int d = 0; d < classes; ++d) {
          ctx.store<std::uint32_t>(ghist, static_cast<std::size_t>(d), 0);
        }
        ctx.store<std::uint32_t>(counters, 0, 0);
        ctx.store<std::uint32_t>(counters, 1, 0);
      });
    }
    const std::size_t num_splitters = splitters.size();
    // Every splitter search takes exactly kSplitterProbes probes, so a
    // block's splitter reads are known before its scan and can be charged
    // in bulk (prepaid_reads); pivot mode reads no splitter.
    const int probes = degenerate ? 0 : kSplitterProbes;
    // The element's class, on keys: in pivot mode less / equal / greater,
    // else the number of splitters <= v by binary search, one load per
    // probe.
    const auto classify = [=](simgpu::BlockCtx& ctx, T v) -> std::uint32_t {
      const T kv = ord.key(v);
      if (degenerate) {
        return kv < pivot ? 0u : (kv == pivot ? 1u : 2u);
      }
      std::size_t lo = 0, hi = num_splitters;
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (ord.key(ctx.load(splitter_buf, mid)) <= kv) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return static_cast<std::uint32_t>(lo);
    };
    // The block's splitter table when its searches' reads can be prepaid
    // (then simd::splitter_classes, probing the same positions
    // branch-free, replaces classify), else null.
    const auto prepaid_splitters = [=](simgpu::BlockCtx& ctx,
                                       std::size_t elems) -> const T* {
      if (probes == 0) return nullptr;
      return ctx.prepaid_reads(splitter_buf,
                               static_cast<std::uint64_t>(probes) * elems);
    };
    {
      simgpu::LaunchConfig cfg{"sample_histogram", shape.total_blocks(),
                               kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        auto shist = ctx.shared_zero<std::uint32_t>(
            static_cast<std::size_t>(classes));
        const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
        std::uint32_t* const hist = shist.unchecked_data();
        const auto bump = [&](std::uint32_t c) {
          if (hist != nullptr) {
            ++hist[c];
          } else {
            ++shist[c];
          }
        };
        const auto src = from_input ? in : src_val;
        const std::size_t base = from_input ? prob * n : 0;
        if (const T* const split = prepaid_splitters(ctx, end - begin);
            split != nullptr) {
          std::uint32_t cls[simgpu::kTileElems];
          for (std::size_t i = begin; i < end; i += simgpu::kTileElems) {
            const std::span<const T> tile = ctx.load_tile(
                src, base + i, std::min(simgpu::kTileElems, end - i));
            simgpu::simd::splitter_classes(split, probes, tile, cls,
                                           ord.mask());
            for (std::size_t u = 0; u < tile.size(); ++u) bump(cls[u]);
          }
        } else {
          ctx.for_each_elem(src, base + begin, end - begin,
                            [&](std::size_t, T v) { bump(classify(ctx, v)); });
        }
        ctx.ops(10 * (end - begin));  // ~log2(255) compares per element
        ctx.sync();
        ctx.flush_counts(ghist, 0, shist);
      });
    }
    const auto nclasses = static_cast<std::size_t>(classes);
    const LevelTarget t =
        find_target(dev, ghist.subspan(0, nclasses),
                    host_hist.subspan(0, nclasses), "class histogram",
                    "scan+find_bkt", r.k_rem);

    // ---- filter -------------------------------------------------------------
    const auto dst_val = cand_val[r.side[1]];
    const auto dst_idx = cand_idx[r.side[1]];
    const std::uint64_t out_base = r.out_cursor;
    {
      simgpu::LaunchConfig cfg{"sample_filter", shape.total_blocks(),
                               kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
        AggregatedAppender<T, std::uint32_t> out_app(
            out_vals, out_idx, out_base, counters, 0, t.less,
            "sample_select results");
        AggregatedAppender<T, std::uint32_t> cand_app(
            dst_val, dst_idx, 0, counters, 1, count,
            "sample_select candidates");
        const auto route = [&](std::uint32_t b, T v, std::uint32_t id) {
          if (b < t.cls) {
            out_app.push(ctx, v, id);
          } else if (b == t.cls) {
            cand_app.push(ctx, v, id);
          }
        };
        if (const T* const split = prepaid_splitters(ctx, end - begin);
            split != nullptr) {
          std::uint32_t cls[simgpu::kTileElems];
          scan_candidate_tiles(
              ctx, from_input, in, prob * n, src_val, src_idx, begin, end,
              [&](std::span<const T> tv, std::span<const std::uint32_t> ti) {
                simgpu::simd::splitter_classes(split, probes, tv, cls,
                                               ord.mask());
                for (std::size_t u = 0; u < tv.size(); ++u) {
                  route(cls[u], tv[u], ti[u]);
                }
              });
        } else {
          scan_candidates(ctx, from_input, in, prob * n, src_val, src_idx,
                          begin, end, [&](T v, std::uint32_t id) {
                            route(classify(ctx, v), v, id);
                          });
        }
        out_app.flush(ctx);
        cand_app.flush(ctx);
        ctx.ops(11 * (end - begin));
      });
    }
    dev.synchronize("host check");
    r.keep(t);

    if (degenerate && t.cls == 1) {
      // Pivot mode landed in the *equal* class: every remaining candidate
      // has the same value, so any k_rem of them complete the result.
      const auto fv = cand_val[r.side[0]];
      const auto fi = cand_idx[r.side[0]];
      const std::uint64_t take = r.k_rem;
      const std::uint64_t dst = r.out_cursor;
      simgpu::LaunchConfig cfg{"CopyRemainder", 1, kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        copy_pairs(ctx, fv, fi, 0, out_vals, out_idx, dst, take);
      });
      r.out_cursor += take;
      return true;
    }
    return false;
  });
}

}  // namespace topk
