#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "simgpu/simd.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/key_order.hpp"
#include "topk/level_loop.hpp"

namespace topk {

/// The host-driven radix pass loop: one k-selection over `count` source
/// elements, shared by RadixSelect (one loop per batch row) and the
/// streaming large-K row (one per chunk and per union fold).  Per pass the
/// host launches a histogram kernel, copies the histogram back, scans it
/// for the target digit and launches a filter; winners append to the
/// destination, ties at the target digit move to the candidate ping-pong.
///
/// The direction is the Shape's KeyOrder: `order` (its radix_mask) is
/// xor-ed into every radix key, so the smallest masked key is always the
/// best.  The kernel names belong to the owning plan, so each row keeps its
/// own KernelStats, footprints and schedule.  Digits are 8 bits wide (256
/// buckets), as in DrTopK.
template <typename T>
struct RadixPassLoop {
  using Bits = typename RadixTraits<T>::Bits;
  static constexpr int kDigitBits = 8;
  static constexpr int kBuckets = 1 << kDigitBits;
  static constexpr std::uint32_t kMask = kBuckets - 1;

  std::size_t n = 0;  ///< row length (launch shape context only)
  std::size_t k = 0;  ///< winners per loop
  Bits order = 0;  ///< 0 selects the smallest K, all-ones the largest

  struct Pass {
    std::string_view hist_name;
    std::string_view filter_name;
    int start_bit = 0;
  };
  std::vector<Pass> passes;
  std::string_view take_name;  ///< terminal copy of the tied remainder

  std::size_t seg_hist = 0;
  std::size_t seg_counters = 0;
  std::size_t seg_val[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
  std::size_t seg_host_hist = 0;
};

/// Plan one radix pass loop: the per-pass digit schedule (kernel names are
/// left for the owning plan to intern) and its workspace segments, with
/// `cand_cap` elements per candidate buffer.
template <typename T>
RadixPassLoop<T> radix_pass_loop_plan(const Shape& s, std::size_t cand_cap,
                                      simgpu::WorkspaceLayout& layout) {
  using Traits = RadixTraits<T>;
  using Loop = RadixPassLoop<T>;
  Loop l;
  l.n = s.n;
  l.k = s.k;
  l.order = KeyOrder<T>(s.greatest).radix_mask();
  const int num_passes =
      (Traits::kBits + Loop::kDigitBits - 1) / Loop::kDigitBits;
  l.passes.resize(static_cast<std::size_t>(num_passes));
  for (int pass = 0; pass < num_passes; ++pass) {
    l.passes[static_cast<std::size_t>(pass)].start_bit =
        std::max(0, Traits::kBits - (pass + 1) * Loop::kDigitBits);
  }
  l.seg_hist = layout.add<std::uint32_t>("radix digit histogram",
                                         Loop::kBuckets);
  l.seg_counters = layout.add<std::uint32_t>("radix cursors", 2);
  l.seg_val[0] = layout.add<T>("radix cand vals 0", cand_cap);
  l.seg_val[1] = layout.add<T>("radix cand vals 1", cand_cap);
  l.seg_idx[0] = layout.add<std::uint32_t>("radix cand idx 0", cand_cap);
  l.seg_idx[1] = layout.add<std::uint32_t>("radix cand idx 1", cand_cap);
  l.seg_host_hist = layout.add<std::uint32_t>("radix host hist", Loop::kBuckets,
                                              /*host=*/true);
  return l;
}

/// Record one radix pass loop into the nominal schedule for the static
/// auditor.  Every pass is assumed to scan all `count` source elements (the
/// real pass and candidate counts shrink data-dependently, so this is the
/// conservative superset of any run).  `src_val == kBindInput` reads the
/// caller's input; otherwise (src_val, src_idx) name a segment pair.  The
/// winner binds carry the owning row's operand spellings.
template <typename T>
void record_radix_pass_loop(simgpu::KernelSchedule* sched,
                            const RadixPassLoop<T>& l,
                            const simgpu::DeviceSpec& spec, std::size_t count,
                            int src_val, int src_idx,
                            const simgpu::OperandBind& win_val,
                            const simgpu::OperandBind& win_idx) {
  const auto seg = [](std::size_t id) { return static_cast<int>(id); };
  LevelSteps steps{.copy_label = "histogram",
                   .scan_label = "scan+find_digit",
                   .grid = make_grid(1, count, spec).total_blocks(),
                   .n = l.n,
                   .k = l.k,
                   .seg_hist = seg(l.seg_hist),
                   .seg_host_hist = seg(l.seg_host_hist),
                   .seg_counters = seg(l.seg_counters)};
  int cur = 0;
  for (std::size_t pass = 0; pass < l.passes.size(); ++pass) {
    simgpu::record_launch(sched, "Memset", 1, kBlockThreads, 1, l.n, l.k,
                          {{"hist", seg(l.seg_hist)},
                           {"counters", seg(l.seg_counters)}});
    steps.hist_name = l.passes[pass].hist_name;
    steps.filter_name = l.passes[pass].filter_name;
    record_level(sched, steps, pass == 0 ? src_val : seg(l.seg_val[cur]),
                 pass == 0 ? src_idx : seg(l.seg_idx[cur]), {}, win_val,
                 win_idx, seg(l.seg_val[1 - cur]), seg(l.seg_idx[1 - cur]));
    cur = 1 - cur;
  }
  simgpu::record_launch(sched, l.take_name, 1, kBlockThreads, 1, l.n, l.k,
                        {{"src_val", seg(l.seg_val[cur])},
                         {"src_idx", seg(l.seg_idx[cur])},
                         win_val, win_idx});
}

/// Run one radix pass loop: write the k best of `src` (under the loop's
/// order) to (win_val, win_idx) at [win_base, win_base + k), in digit order
/// of discovery, then the tied remainder.  This is the classic host-managed
/// radix top-K (Alabi et al. 2012 / DrTopK): the per-pass D2H histogram
/// copy and the synchronizations it implies are exactly the overhead AIR
/// Top-K's iteration-fused design eliminates (paper §3.1, Fig. 8).
template <typename T>
void radix_pass_loop_run(simgpu::Device& dev, const RadixPassLoop<T>& l,
                         simgpu::Workspace& ws, const RadixSource<T>& src,
                         simgpu::DeviceBuffer<T> win_val,
                         simgpu::DeviceBuffer<std::uint32_t> win_idx,
                         std::size_t win_base) {
  using Traits = RadixTraits<T>;
  using Bits = typename Traits::Bits;

  const std::size_t n = l.n;
  const std::size_t k = l.k;
  constexpr int nb = RadixPassLoop<T>::kBuckets;
  constexpr std::uint32_t mask = RadixPassLoop<T>::kMask;
  const Bits order = l.order;
  auto ghist = ws.get<std::uint32_t>(l.seg_hist);
  auto counters = ws.get<std::uint32_t>(l.seg_counters);
  const simgpu::DeviceBuffer<T> cand_val[2] = {ws.get<T>(l.seg_val[0]),
                                               ws.get<T>(l.seg_val[1])};
  const simgpu::DeviceBuffer<std::uint32_t> cand_idx[2] = {
      ws.get<std::uint32_t>(l.seg_idx[0]),
      ws.get<std::uint32_t>(l.seg_idx[1])};
  const std::span<std::uint32_t> host_hist(
      ws.host_ptr<std::uint32_t>(l.seg_host_hist),
      static_cast<std::size_t>(nb));

  std::uint64_t k_rem = k;
  std::uint64_t count = src.count;
  std::uint64_t out_written = 0;
  int cur = 0;  // candidate ping-pong side holding the current candidates

  for (std::size_t p = 0; p < l.passes.size(); ++p) {
    const int start_bit = l.passes[p].start_bit;
    // Pass 0 reads the source; later passes the candidates the last filter
    // kept.  The histogram reads their values only.
    const RadixSource<T> from =
        p == 0 ? src
               : RadixSource<T>{cand_val[cur], cand_idx[cur], 0, count, 0};
    const RadixSource<T> keys{from.vals, {}, from.base, count, from.idx0};
    const auto dst_val = cand_val[1 - cur];
    const auto dst_idx = cand_idx[1 - cur];
    const auto digit_of = [=](T v) {
      return static_cast<std::uint32_t>((Traits::to_radix(v) ^ order) >>
                                        start_bit) &
             mask;
    };

    // ---- kernel 0: cudaMemset analogue for histogram + cursors -----------
    {
      simgpu::LaunchConfig cfg{"Memset", 1, kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        zero_fill(ctx, ghist, 0, static_cast<std::size_t>(nb));
        ctx.store<std::uint32_t>(counters, 0, 0);
        ctx.store<std::uint32_t>(counters, 1, 0);
      });
    }

    // ---- kernel 1: histogram over the current candidates -----------------
    const GridShape hshape = make_grid(1, count, dev.spec());
    const int bpp = hshape.blocks_per_problem;
    {
      simgpu::LaunchConfig cfg{l.passes[p].hist_name, hshape.total_blocks(),
                               kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        auto shist =
            ctx.shared_zero<std::uint32_t>(static_cast<std::size_t>(nb));
        std::uint32_t* const hraw = shist.unchecked_data();
        const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
        bool tiled = false;
        if constexpr (simgpu::simd::kRadixCarrier<T>) {
          if (hraw != nullptr) {
            histogram_tiles(ctx, keys, begin, end, order, start_bit, mask,
                            hraw);
            tiled = true;
          }
        }
        if (!tiled) {
          scan_source(ctx, keys, begin, end,
                      [&](T v, std::uint32_t) { ++shist[digit_of(v)]; });
        }
        ctx.ops(3 * (end - begin));
        ctx.sync();
        ctx.flush_counts(ghist, 0, shist);
        ctx.ops(static_cast<std::uint64_t>(nb));
      });
    }

    // ---- host round trip: copy histogram, prefix-sum, pick digit ---------
    const LevelTarget t = find_target(dev, ghist, host_hist, "histogram",
                                      "scan+find_digit", k_rem);
    const std::uint32_t target_digit = t.cls;

    // ---- kernel 2: filter (winners out, ties to the other buffer) --------
    {
      simgpu::LaunchConfig cfg{l.passes[p].filter_name, hshape.total_blocks(),
                               kBlockThreads, 1, n, k};
      const std::uint64_t out_cursor_base = win_base + out_written;
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
        // A winner (digit below the target) appends through cursor 0, a tie
        // through cursor 1: one counted atomic per element.
        const auto keep = [&](T v, std::uint32_t id, bool winner) {
          if (winner) {
            const std::uint32_t pos = ctx.atomic_add(counters, 0, 1u);
            ctx.store(win_val, out_cursor_base + pos, v);
            ctx.store(win_idx, out_cursor_base + pos, id);
          } else {
            const std::uint32_t pos = ctx.atomic_add(counters, 1, 1u);
            ctx.store(dst_val, pos, v);
            ctx.store(dst_idx, pos, id);
          }
        };
        bool tiled = false;
        if constexpr (simgpu::simd::kRadixCarrier<T>) {
          if (ctx.unchecked_tiles()) {
            // keep() a tile at a time: the tile's winners and its ties each
            // reserve their run with one atomic_reserve (charged one atomic
            // per element) and land with store_tile, in the slots, in
            // element order, that keep() would give them on one emulator
            // thread.
            T win_v[simgpu::kTileElems];
            std::uint32_t win_i[simgpu::kTileElems];
            T tie_v[simgpu::kTileElems];
            std::uint32_t tie_i[simgpu::kTileElems];
            const auto append = [&](std::size_t cursor, std::size_t base,
                                    simgpu::DeviceBuffer<T> vals,
                                    simgpu::DeviceBuffer<std::uint32_t> ids,
                                    const T* v, const std::uint32_t* id,
                                    std::size_t count) {
              if (count == 0) return;
              const std::size_t at =
                  base + ctx.atomic_reserve(
                             counters, cursor,
                             static_cast<std::uint32_t>(count));
              ctx.store_tile(vals, at, std::span<const T>(v, count));
              ctx.store_tile(ids, at,
                             std::span<const std::uint32_t>(id, count));
            };
            const simgpu::simd::DigitRule rule{
                .order = order, .shift = start_bit, .mask = mask,
                .target = target_digit};
            scan_classified_tiles(
                ctx, from, begin, end, rule,
                [&](const ClassifiedTile<T>& t) {
                  std::size_t wins = 0;
                  std::size_t ties = 0;
                  for (std::size_t s = 0; s < t.kept; ++s) {
                    const T v = t.value(s);
                    const std::uint32_t id = t.index(s);
                    const bool win = t.tag[s] == simgpu::simd::kBelowTag;
                    win_v[wins] = v;
                    win_i[wins] = id;
                    tie_v[ties] = v;
                    tie_i[ties] = id;
                    wins += win ? 1 : 0;
                    ties += win ? 0 : 1;
                  }
                  append(0, out_cursor_base, win_val, win_idx, win_v, win_i,
                         wins);
                  append(1, 0, dst_val, dst_idx, tie_v, tie_i, ties);
                });
            tiled = true;
          }
        }
        if (!tiled) {
          scan_source(ctx, from, begin, end, [&](T v, std::uint32_t id) {
            const std::uint32_t digit = digit_of(v);
            if (digit <= target_digit) keep(v, id, digit < target_digit);
          });
        }
        ctx.ops(4 * (end - begin));
      });
    }

    out_written += t.less;
    k_rem -= t.less;
    count = t.count;
    cur = 1 - cur;

    // The host decides whether more passes are needed; it must synchronize
    // to know the device state is consistent before the next decision.
    dev.synchronize("host check");
    if (k_rem == count || p + 1 == l.passes.size()) {
      // All remaining candidates tie at the K-th value (or digits are
      // exhausted): copy the first k_rem of them to the destination.
      const std::uint64_t take = k_rem;
      const auto fin_val = cand_val[cur];
      const auto fin_idx = cand_idx[cur];
      const std::uint64_t out_cursor_base = win_base + out_written;
      simgpu::LaunchConfig cfg{l.take_name, 1, kBlockThreads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        copy_pairs(ctx, fin_val, fin_idx, 0, win_val, win_idx,
                   out_cursor_base, take);
        ctx.ops(take);
      });
      dev.synchronize("final");
      out_written += take;
      break;
    }
  }
  if (out_written != k) {
    throw std::logic_error("radix pass loop: wrote " +
                           std::to_string(out_written) + " of " +
                           std::to_string(k) + " results");
  }
}

/// Execution plan for RadixSelect: one radix pass loop over n-sized
/// candidate buffers, run once per batch row.
template <typename T>
struct RadixSelectPlan {
  std::size_t batch = 0;
  RadixPassLoop<T> loop;
};

/// Footprint contracts for the host-managed RadixSelect kernels.  The
/// per-pass kernels register under their bare family names; winners land
/// directly in the caller's output.
inline void register_radix_select_footprints() {
  simgpu::register_footprint({"Memset", memset_operands()});
  simgpu::register_footprint({"CalculateOccurence", hist_operands()});
  simgpu::register_footprint(
      {"Filter", filter_operands("out_vals", "out_idx",
                                 simgpu::AffineVar::kBatchK)});
  register_copy_remainder_footprint();
}

/// Phase 1 of RadixSelect: validate, plan the pass loop under this row's
/// kernel names and lay out the workspace.
template <typename T>
RadixSelectPlan<T> radix_select_plan(const Shape& s,
                                     const simgpu::DeviceSpec& spec,
                                     simgpu::WorkspaceLayout& layout,
                                     simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);

  RadixSelectPlan<T> p;
  p.batch = s.batch;
  p.loop = radix_pass_loop_plan<T>(s, s.n, layout);
  for (std::size_t pass = 0; pass < p.loop.passes.size(); ++pass) {
    const std::string id = std::to_string(pass);
    p.loop.passes[pass].hist_name =
        simgpu::intern_name("CalculateOccurence(" + id + ")");
    p.loop.passes[pass].filter_name =
        simgpu::intern_name("Filter(" + id + ")");
  }
  p.loop.take_name = simgpu::intern_name("CopyRemainder");

  if (sched != nullptr) {
    register_radix_select_footprints();
    record_radix_pass_loop(sched, p.loop, spec, s.n, simgpu::kBindInput,
                           simgpu::kBindInput,
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx});
  }
  return p;
}

/// Phase 2 of RadixSelect: the pass loop once per batch row, each row's
/// winners straight into its output slice.  Nothing amortizes the
/// per-iteration host round trips across rows, which is why the paper sees
/// up to 574x speedups at batch size 100.
template <typename T>
void radix_select_run(simgpu::Device& dev, const RadixSelectPlan<T>& plan,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                      simgpu::DeviceBuffer<T> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t n = plan.loop.n;
  const std::size_t k = plan.loop.k;
  if (in.size() < plan.batch * n) {
    throw std::invalid_argument("radix_select: input too small");
  }
  if (out_vals.size() < plan.batch * k || out_idx.size() < plan.batch * k) {
    throw std::invalid_argument("radix_select: output buffers too small");
  }
  for (std::size_t prob = 0; prob < plan.batch; ++prob) {
    radix_pass_loop_run(dev, plan.loop, ws,
                        RadixSource<T>{in, {}, prob * n, n, 0}, out_vals,
                        out_idx, prob * k);
  }
}

}  // namespace topk
