#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/partial_sort_common.hpp"

/// The one scan driver of the warp-queue family (GridSelect in both queue
/// flavours, WarpSelect/BlockSelect, fused-warp, fused-block and
/// bucket-approx) plus the sorted partial-list I/O their kernels and the
/// shard merge share.  Everything here is templated on the selection engine
/// (SharedQueueEngine or faiss_detail::WarpSelectEngine — the two queue
/// designs paper Fig. 11 compares), which only has to offer kth(), order(),
/// round(), round_span() (interleaved fast leg), span_rounds() (contiguous
/// fast leg), finalize() and list().
///
/// Every leg loads each element of a warp's range exactly once and drives
/// the same engine rounds, so KernelStats are identical on the exact leg
/// (a sanitizer attached) and on the warpfast legs; the fast legs only skip
/// emulation work.
namespace topk::warp_scan {

/// One selection engine per warp of a block, constructed in place (no
/// per-block heap traffic).
template <typename Engine>
class WarpEngines {
 public:
  template <typename... Args>
  WarpEngines(int warps, simgpu::BlockCtx& ctx, const Args&... args)
      : warps_(warps) {
    for (int w = 0; w < warps; ++w) {
      slots_[static_cast<std::size_t>(w)].emplace(ctx, args...);
    }
  }

  [[nodiscard]] int size() const { return warps_; }
  Engine& operator[](int w) { return *slots_[static_cast<std::size_t>(w)]; }

  /// Merge every warp's sorted list into warp 0's and return it.
  auto& merged_list(simgpu::BlockCtx& ctx) {
    auto& acc = (*this)[0].list();
    for (int w = 1; w < warps_; ++w) acc.merge_list(ctx, (*this)[w].list());
    return acc;
  }

 private:
  std::array<std::optional<Engine>, simgpu::kMaxWarpsPerBlock> slots_;
  int warps_;
};

/// Exact leg: one warp's 32-lane rounds at positions first, first + stride,
/// ... below `end` of the row at flat offset `base`.  Each round is one
/// tile load fed to round(); finalize() drains the queue.  Indices are row
/// positions, or in_idx entries when in_idx is bound.
template <typename Engine, typename T>
void exact_rounds(simgpu::BlockCtx& ctx, simgpu::Warp& warp, Engine& eng,
                  simgpu::DeviceBuffer<T> in,
                  simgpu::DeviceBuffer<std::uint32_t> in_idx,
                  std::size_t base, std::size_t first, std::size_t end,
                  std::size_t stride) {
  const bool has_idx = !in_idx.empty();
  T values[simgpu::kWarpSize];
  std::uint32_t indices[simgpu::kWarpSize];
  bool valid[simgpu::kWarpSize];
  for (std::size_t pos = first; pos < end; pos += stride) {
    const std::size_t c = std::min<std::size_t>(simgpu::kWarpSize, end - pos);
    const std::span<const T> tv = ctx.load_tile(in, base + pos, c);
    const std::span<const std::uint32_t> ti =
        has_idx ? ctx.load_tile(in_idx, base + pos, c)
                : std::span<const std::uint32_t>{};
    warp.each([&](int lane) {
      const auto u = static_cast<std::size_t>(lane);
      valid[lane] = u < tv.size();
      if (valid[lane]) {
        values[lane] = tv[u];
        indices[lane] = has_idx ? ti[u] : static_cast<std::uint32_t>(pos + u);
      }
    });
    eng.round(ctx, values, indices, valid);
  }
  eng.finalize(ctx);
}

/// Interleaved scan of [begin, end) of the row at `base`: warp w runs the
/// rounds starting at begin + 32w with stride 32 * warps.
///
/// Warpfast leg: one load_tile per region of `region_rounds` rounds per
/// warp keeps the region L1-hot across every warp's rounds.  Byte charges
/// equal the per-round loads (each element is loaded once into per-block
/// counters), and engines are independent, so only the charge order
/// changes.  The region gate counts a warp's candidates under its
/// region-entry threshold, the loosest any round in the region will see
/// (thresholds only tighten, and only at flushes, which need candidates):
/// zero proves every round empty, so one bulk charge of the per-round floor
/// replaces them.  A failed gate wastes its count pass and failures cluster
/// while a threshold is loose, so after each failure the warp's gate sleeps
/// for twice as many regions as before (capped at 8); a success resets it.
/// Gated and ungated regions charge identically, so the region length and
/// the backoff only affect wall clock.
template <typename Engine, typename T>
void scan_interleaved(simgpu::BlockCtx& ctx, WarpEngines<Engine>& engines,
                      simgpu::DeviceBuffer<T> in,
                      simgpu::DeviceBuffer<std::uint32_t> in_idx,
                      std::size_t base, std::size_t begin, std::size_t end,
                      std::size_t region_rounds) {
  const int warps = engines.size();
  const std::size_t stride =
      static_cast<std::size_t>(warps) * simgpu::kWarpSize;
  if (!ctx.warpfast_enabled()) {
    ctx.for_each_warp([&](simgpu::Warp& warp) {
      const auto warp_off =
          static_cast<std::size_t>(warp.index()) * simgpu::kWarpSize;
      exact_rounds(ctx, warp, engines[warp.index()], in, in_idx, base,
                   begin + warp_off, end, stride);
    });
    return;
  }
  const bool has_idx = !in_idx.empty();
  const std::size_t region = stride * region_rounds;
  std::array<std::uint8_t, simgpu::kMaxWarpsPerBlock> gate_sleep{};
  std::array<std::uint8_t, simgpu::kMaxWarpsPerBlock> gate_backoff{};
  for (std::size_t r = begin; r < end; r += region) {
    const std::size_t rc = std::min(region, end - r);
    const std::span<const T> tv = ctx.load_tile(in, base + r, rc);
    const std::span<const std::uint32_t> ti =
        has_idx ? ctx.load_tile(in_idx, base + r, rc)
                : std::span<const std::uint32_t>{};
    for (int w = 0; w < warps; ++w) {
      auto& eng = engines[w];
      auto& sleep = gate_sleep[static_cast<std::size_t>(w)];
      auto& backoff = gate_backoff[static_cast<std::size_t>(w)];
      const std::size_t warp_off =
          static_cast<std::size_t>(w) * simgpu::kWarpSize;
      if (sleep == 0) {
        const T gate = eng.kth();
        std::size_t rounds = 0;
        std::size_t below = 0;
        for (std::size_t off = warp_off; off < rc; off += stride) {
          const std::size_t c =
              std::min<std::size_t>(simgpu::kWarpSize, rc - off);
          below += eng.order().count_less(tv.subspan(off, c), gate);
          ++rounds;
        }
        if (below == 0) {
          backoff = 0;
          ctx.ops(rounds * kEmptyRoundLaneOps);
          continue;
        }
        backoff = backoff == 0
                      ? 1
                      : static_cast<std::uint8_t>(std::min(2 * backoff, 8));
        sleep = backoff;
      } else {
        --sleep;
      }
      for (std::size_t off = warp_off; off < rc; off += stride) {
        const std::size_t c =
            std::min<std::size_t>(simgpu::kWarpSize, rc - off);
        eng.round_span(ctx, tv.subspan(off, c),
                       has_idx ? ti.subspan(off, c) : ti,
                       static_cast<std::uint32_t>(r + off));
      }
    }
  }
  for (int w = 0; w < warps; ++w) engines[w].finalize(ctx);
}

/// A warp's own contiguous range for scan_contiguous: row positions
/// [first, end) of the row at flat offset `base`.
struct WarpRange {
  std::size_t base;
  std::size_t first;
  std::size_t end;
};

/// Contiguous scan: warp w < engines.size() runs 32-wide rounds over its
/// own range `range(w)` (a WarpRange).  Warpfast leg: pack-and-replay, one
/// load_tile per 4096-element span fed to span_rounds(), which filters the
/// span once and replays only the candidate-bearing rounds.
template <typename Engine, typename T, typename RangeOf>
void scan_contiguous(simgpu::BlockCtx& ctx, WarpEngines<Engine>& engines,
                     simgpu::DeviceBuffer<T> in,
                     simgpu::DeviceBuffer<std::uint32_t> in_idx,
                     const RangeOf& range) {
  if (!ctx.warpfast_enabled()) {
    ctx.for_each_warp([&](simgpu::Warp& warp) {
      if (warp.index() >= engines.size()) return;
      const WarpRange wr = range(warp.index());
      exact_rounds(ctx, warp, engines[warp.index()], in, in_idx, wr.base,
                   wr.first, wr.end, simgpu::kWarpSize);
    });
    return;
  }
  const bool has_idx = !in_idx.empty();
  constexpr std::size_t kSpan = 4096;
  for (int w = 0; w < engines.size(); ++w) {
    const WarpRange wr = range(w);
    for (std::size_t r = wr.first; r < wr.end; r += kSpan) {
      const std::size_t rc = std::min(kSpan, wr.end - r);
      const std::span<const T> tv = ctx.load_tile(in, wr.base + r, rc);
      const std::span<const std::uint32_t> ti =
          has_idx ? ctx.load_tile(in_idx, wr.base + r, rc)
                  : std::span<const std::uint32_t>{};
      engines[w].span_rounds(ctx, tv, ti, static_cast<std::uint32_t>(r));
    }
    engines[w].finalize(ctx);
  }
}

/// Pull `count` already-sorted (value, index) pairs from device memory into
/// a pair of shared-memory views, one tile at a time.
template <typename T, typename KS, typename IS>
void load_list(simgpu::BlockCtx& ctx, simgpu::DeviceBuffer<T> val,
               simgpu::DeviceBuffer<std::uint32_t> idx, std::size_t base,
               KS& dst_keys, IS& dst_idx, std::size_t count) {
  const auto rk = raw_view(dst_keys);
  const auto ri = raw_view(dst_idx);
  for (std::size_t i = 0; i < count; i += simgpu::kTileElems) {
    const std::size_t c = std::min(simgpu::kTileElems, count - i);
    const std::span<const T> tk = ctx.load_tile(val, base + i, c);
    const std::span<const std::uint32_t> tix = ctx.load_tile(idx, base + i, c);
    if (!rk.empty() && !ri.empty()) {
      std::copy(tk.begin(), tk.end(),
                rk.begin() + static_cast<std::ptrdiff_t>(i));
      std::copy(tix.begin(), tix.end(),
                ri.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      for (std::size_t u = 0; u < tk.size(); ++u) {
        dst_keys[i + u] = tk[u];
        dst_idx[i + u] = tix[u];
      }
    }
  }
}

/// Store the first `count` pairs of a pair of shared or register views to
/// device memory: tile by tile from raw views, per element through the
/// proxies while a sanitizer is attached.
template <typename T, typename KS, typename IS>
void store_list(simgpu::BlockCtx& ctx, const KS& src_keys, const IS& src_idx,
                simgpu::DeviceBuffer<T> val,
                simgpu::DeviceBuffer<std::uint32_t> idx, std::size_t base,
                std::size_t count) {
  const auto rk = raw_view(src_keys);
  const auto ri = raw_view(src_idx);
  if (!rk.empty() && !ri.empty()) {
    for (std::size_t i = 0; i < count; i += simgpu::kTileElems) {
      const std::size_t c = std::min(simgpu::kTileElems, count - i);
      ctx.store_tile(val, base + i, std::span<const T>(rk.data() + i, c));
      ctx.store_tile(idx, base + i,
                     std::span<const std::uint32_t>(ri.data() + i, c));
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    ctx.store(val, base + i, src_keys[i]);
    ctx.store(idx, base + i, src_idx[i]);
  }
}

/// Publish a sorted top-k list as one cap-long partial list at `base`: the
/// k live pairs, then (worst key, 0) padding up to cap, so the merge kernel
/// can run fixed cap-sized merge_prune networks.
template <typename T, typename List>
void publish_padded(simgpu::BlockCtx& ctx, const List& list,
                    simgpu::DeviceBuffer<T> val,
                    simgpu::DeviceBuffer<std::uint32_t> idx, std::size_t base,
                    std::size_t cap) {
  store_list(ctx, list.keys(), list.indices(), val, idx, base, list.k());
  for (std::size_t i = list.k(); i < cap; ++i) {
    ctx.store(val, base + i, list.order().worst());
    ctx.store(idx, base + i, std::uint32_t{0});
  }
}

/// Block body of the partial-list merge kernels (GridSelect_merge,
/// FusedRowwise_block_merge, ShardMergeLevel): fold the `lists` cap-long
/// lists, sorted under `ord` and stored back to back at `src`, with
/// merge_prune, then store the first `count` pairs of the result at `dst`.
template <typename T>
void merge_lists(simgpu::BlockCtx& ctx, simgpu::DeviceBuffer<T> val,
                 simgpu::DeviceBuffer<std::uint32_t> idx, std::size_t src,
                 std::size_t lists, std::size_t cap,
                 simgpu::DeviceBuffer<T> out_val,
                 simgpu::DeviceBuffer<std::uint32_t> out_idx, std::size_t dst,
                 std::size_t count, KeyOrder<T> ord) {
  auto acc_keys = ctx.shared<T>(cap, "merge acc keys");
  auto acc_idx = ctx.shared<std::uint32_t>(cap, "merge acc idx");
  auto tmp_keys = ctx.shared<T>(cap, "merge tmp keys");
  auto tmp_idx = ctx.shared<std::uint32_t>(cap, "merge tmp idx");
  load_list(ctx, val, idx, src, acc_keys, acc_idx, cap);
  for (std::size_t l = 1; l < lists; ++l) {
    load_list(ctx, val, idx, src + l * cap, tmp_keys, tmp_idx, cap);
    merge_prune(ctx, acc_keys, acc_idx, tmp_keys, tmp_idx, ord);
  }
  store_list(ctx, acc_keys, acc_idx, out_val, out_idx, dst, count);
}

}  // namespace topk::warp_scan
