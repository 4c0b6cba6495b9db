#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "simgpu/simd.hpp"
#include "simgpu/simgpu.hpp"

namespace topk {

/// The problem shape every two-phase plan is built from: the batched
/// (batch, n, k) triple plus the selection direction.  The few per-algorithm
/// knobs callers set (AIR's ablation flags, GridSelect's queue design, input
/// ids) live in the Options structs of those rows, which their plan
/// functions take alongside the Shape.  The direction has one home: every
/// plan function turns `greatest` into its KeyOrder (topk/key_order.hpp),
/// which every comparison, sentinel and packed key of the row goes through.
struct Shape {
  std::size_t batch = 1;
  std::size_t n = 0;
  std::size_t k = 0;
  bool greatest = false;
};

/// Launch tuning shared by the radix and partition rows: 256-thread blocks,
/// each owning up to 16 Ki elements of a scan, and at most 4096 blocks per
/// batched launch.
inline constexpr int kBlockThreads = 256;
inline constexpr std::size_t kItemsPerBlock = 16 * 1024;
inline constexpr std::size_t kMaxTotalBlocks = 4096;

/// Grid shape for a batched data-parallel kernel: every problem of the batch
/// gets the same number of blocks, laid out problem-major
/// (block_idx = problem * blocks_per_problem + block_in_problem).
struct GridShape {
  int blocks_per_problem = 1;
  int block_threads = kBlockThreads;
  std::size_t batch = 1;

  [[nodiscard]] int total_blocks() const {
    return static_cast<int>(batch) * blocks_per_problem;
  }
  [[nodiscard]] std::size_t problem_of(int block_idx) const {
    return static_cast<std::size_t>(block_idx) / blocks_per_problem;
  }
  [[nodiscard]] int block_in_problem(int block_idx) const {
    return block_idx % blocks_per_problem;
  }
};

/// Choose a grid for scanning `n` elements per problem.  Mirrors how RAFT
/// sizes radix kernels: enough blocks to cover the device a couple of times,
/// each block owning a contiguous chunk, with a cap on the total grid so
/// huge batches do not drown the (simulated) block scheduler.
inline GridShape make_grid(std::size_t batch, std::size_t n,
                           const simgpu::DeviceSpec& spec,
                           int block_threads = kBlockThreads,
                           std::size_t items_per_block = kItemsPerBlock) {
  GridShape g;
  g.batch = batch;
  g.block_threads = block_threads;
  const std::size_t needed = (n + items_per_block - 1) / items_per_block;
  const std::size_t device_cap =
      static_cast<std::size_t>(2 * spec.sm_count);
  const std::size_t per_problem_cap = std::max<std::size_t>(
      1, kMaxTotalBlocks / std::max<std::size_t>(1, batch));
  g.blocks_per_problem = static_cast<int>(
      std::clamp<std::size_t>(std::min(needed, device_cap), 1,
                              per_problem_cap));
  return g;
}

/// Balanced [begin, end) chunk of `count` items for part `part` of `parts`.
inline std::pair<std::size_t, std::size_t> block_chunk(std::size_t count,
                                                       int parts, int part) {
  const std::size_t base = count / static_cast<std::size_t>(parts);
  const std::size_t rem = count % static_cast<std::size_t>(parts);
  const auto p = static_cast<std::size_t>(part);
  const std::size_t begin = p * base + std::min(p, rem);
  const std::size_t end = begin + base + (p < rem ? 1 : 0);
  return {begin, end};
}

/// Visit the (value, index) pairs of rows [begin, end) of two parallel
/// buffers offset by `base`, one tile at a time, calling `f(i, value, index)`
/// with i in [begin, end).  The single entry point used by the input scans
/// of the radix-family kernels.
template <typename T, typename F>
inline void scan_pairs(simgpu::BlockCtx& ctx, simgpu::DeviceBuffer<T> vals,
                       simgpu::DeviceBuffer<std::uint32_t> idx,
                       std::size_t base, std::size_t begin, std::size_t end,
                       F&& f) {
  for (std::size_t i = begin; i < end; i += simgpu::kTileElems) {
    const std::size_t c = std::min(simgpu::kTileElems, end - i);
    const std::span<const T> tv = ctx.load_tile(vals, base + i, c);
    const std::span<const std::uint32_t> ti = ctx.load_tile(idx, base + i, c);
    const std::size_t n = std::min(tv.size(), ti.size());
    for (std::size_t u = 0; u < n; ++u) f(i + u, tv[u], ti[u]);
  }
}

/// Accounted tile-granular copy of `count` (value, index) pairs from
/// src[src_base...] to dst[dst_base...].
template <typename T>
inline void copy_pairs(simgpu::BlockCtx& ctx, simgpu::DeviceBuffer<T> src_val,
                       simgpu::DeviceBuffer<std::uint32_t> src_idx,
                       std::size_t src_base, simgpu::DeviceBuffer<T> dst_val,
                       simgpu::DeviceBuffer<std::uint32_t> dst_idx,
                       std::size_t dst_base, std::size_t count) {
  for (std::size_t i = 0; i < count; i += simgpu::kTileElems) {
    const std::size_t c = std::min(simgpu::kTileElems, count - i);
    ctx.store_tile(dst_val, dst_base + i,
                   ctx.load_tile(src_val, src_base + i, c));
    ctx.store_tile(dst_idx, dst_base + i,
                   ctx.load_tile(src_idx, src_base + i, c));
  }
}

/// What a radix scan reads: `count` elements of `vals` from `base`.  With
/// `idx` empty the source is an input-row slice whose element i has index
/// idx0 + i; otherwise element i is the pair (vals, idx)[base + i] — a
/// candidate buffer, or an input row with external ids.
template <typename T>
struct RadixSource {
  simgpu::DeviceBuffer<T> vals;
  simgpu::DeviceBuffer<std::uint32_t> idx;
  std::size_t base = 0;
  std::size_t count = 0;
  std::size_t idx0 = 0;
};

/// Tile-granular visit of the elements [begin, end) of `src`:
/// `f(vals, ids, first)` once per tile of up to kTileElems elements
/// starting at element `first`.  `ids` holds the tile's indices when
/// `src.idx` is bound and is empty otherwise (vals[u] then has index
/// src.idx0 + first + u).  Charges what scan_source charges.
template <typename T, typename F>
inline void scan_source_tiles(simgpu::BlockCtx& ctx, const RadixSource<T>& src,
                              std::size_t begin, std::size_t end, F&& f) {
  for (std::size_t i = begin; i < end;) {
    const std::size_t c = std::min(simgpu::kTileElems, end - i);
    std::span<const T> tv = ctx.load_tile(src.vals, src.base + i, c);
    std::span<const std::uint32_t> ti;
    if (!src.idx.empty()) {
      ti = ctx.load_tile(src.idx, src.base + i, c);
      const std::size_t m = std::min(tv.size(), ti.size());
      tv = tv.first(m);
      ti = ti.first(m);
    }
    f(tv, ti, i);
    i += c;
  }
}

/// Tile-granular visit of the candidates [begin, end) of one partition
/// level: `f(vals, ids)` once per tile of up to kTileElems candidates, where
/// ids[u] is the index of vals[u].  On the first level the candidates are
/// the raw input row in[in_base + i] with index i, afterwards the
/// (value, index) pairs of a candidate buffer.
template <typename T, typename F>
inline void scan_candidate_tiles(simgpu::BlockCtx& ctx, bool from_input,
                                 simgpu::DeviceBuffer<T> in,
                                 std::size_t in_base,
                                 simgpu::DeviceBuffer<T> src_val,
                                 simgpu::DeviceBuffer<std::uint32_t> src_idx,
                                 std::size_t begin, std::size_t end, F&& f) {
  std::uint32_t positions[simgpu::kTileElems];
  const RadixSource<T> src = from_input
                                 ? RadixSource<T>{in, {}, in_base, end, 0}
                                 : RadixSource<T>{src_val, src_idx, 0, end, 0};
  scan_source_tiles(ctx, src, begin, end,
                    [&](std::span<const T> tv,
                        std::span<const std::uint32_t> ti, std::size_t first) {
                      if (from_input) {
                        for (std::size_t u = 0; u < tv.size(); ++u) {
                          positions[u] = static_cast<std::uint32_t>(first + u);
                        }
                        ti = std::span<const std::uint32_t>(positions,
                                                            tv.size());
                      }
                      f(tv, ti);
                    });
}

/// Visit the candidates [begin, end) of one partition level (see
/// scan_candidate_tiles), calling `f(value, index)` per candidate.  The
/// input scan of the partition rows (QuickSelect, SampleSelect,
/// BucketSelect).
template <typename T, typename F>
inline void scan_candidates(simgpu::BlockCtx& ctx, bool from_input,
                            simgpu::DeviceBuffer<T> in, std::size_t in_base,
                            simgpu::DeviceBuffer<T> src_val,
                            simgpu::DeviceBuffer<std::uint32_t> src_idx,
                            std::size_t begin, std::size_t end, F&& f) {
  scan_candidate_tiles(ctx, from_input, in, in_base, src_val, src_idx, begin,
                       end,
                       [&](std::span<const T> tv,
                           std::span<const std::uint32_t> ti) {
                         for (std::size_t u = 0; u < tv.size(); ++u) {
                           f(tv[u], ti[u]);
                         }
                       });
}

/// Copy the candidates [begin, end) of a partition level (see
/// scan_candidate_tiles) to dst[dst_base + begin ...]: value plus index,
/// where a raw input candidate's index is its position.  Charges one value
/// read, plus one index read for buffered candidates, and two stores per
/// element.
template <typename T>
inline void copy_candidates(simgpu::BlockCtx& ctx, bool from_input,
                            simgpu::DeviceBuffer<T> in, std::size_t in_base,
                            simgpu::DeviceBuffer<T> src_val,
                            simgpu::DeviceBuffer<std::uint32_t> src_idx,
                            std::size_t begin, std::size_t end,
                            simgpu::DeviceBuffer<T> dst_val,
                            simgpu::DeviceBuffer<std::uint32_t> dst_idx,
                            std::size_t dst_base) {
  std::size_t at = dst_base + begin;
  scan_candidate_tiles(ctx, from_input, in, in_base, src_val, src_idx, begin,
                       end,
                       [&](std::span<const T> tv,
                           std::span<const std::uint32_t> ti) {
                         ctx.store_tile(dst_val, at, tv);
                         ctx.store_tile(dst_idx, at, ti);
                         at += tv.size();
                       });
}

/// Visit the elements [begin, end) of `src`, calling `f(value, index)` per
/// element.  Charges one value read per element, plus one index read when
/// `src.idx` is bound.  The per-element reference of scan_classified.
template <typename T, typename F>
inline void scan_source(simgpu::BlockCtx& ctx, const RadixSource<T>& src,
                        std::size_t begin, std::size_t end, F&& f) {
  if (src.idx.empty()) {
    ctx.for_each_elem(src.vals, src.base + begin, end - begin,
                      [&](std::size_t j, T value) {
                        f(value,
                          static_cast<std::uint32_t>(src.idx0 + begin + j));
                      });
  } else {
    scan_pairs(ctx, src.vals, src.idx, src.base, begin, end,
               [&](std::size_t, T value, std::uint32_t index) {
                 f(value, index);
               });
  }
}

/// The whole-tile form of a radix histogram pass: bump
/// hist[((ord(x) ^ order) >> shift) & digit_mask] for each element x of
/// [begin, end) of `src`.  Up to 256 bins (the radix pass loop's 8-bit
/// digits) count in a simd::SplitCounts256 folded into `hist` at the end;
/// wider digits (AIR's 11-bit pass 0) with simd::histogram_digits.
/// Charges what scan_source charges.  For the unchecked path
/// (BlockCtx::unchecked_tiles) on carrier keys.
template <typename T>
  requires simgpu::simd::kRadixCarrier<T>
inline void histogram_tiles(simgpu::BlockCtx& ctx, const RadixSource<T>& src,
                            std::size_t begin, std::size_t end,
                            std::uint32_t order, int shift,
                            std::uint32_t digit_mask, std::uint32_t* hist) {
  if (digit_mask < simgpu::simd::SplitCounts256::kBins) {
    simgpu::simd::SplitCounts256 counts;
    scan_source_tiles(ctx, src, begin, end,
                      [&](std::span<const T> tv,
                          std::span<const std::uint32_t>, std::size_t) {
                        counts.add_digits(tv, order, shift, digit_mask);
                      });
    counts.fold_into({hist, std::size_t{digit_mask} + 1});
    return;
  }
  scan_source_tiles(ctx, src, begin, end,
                    [&](std::span<const T> tv, std::span<const std::uint32_t>,
                        std::size_t) {
                      simgpu::simd::histogram_digits(tv, order, shift,
                                                     digit_mask, hist);
                    });
}

/// One tile of a radix filter after simd::classify_digits: its `kept`
/// below or equal elements in element order, element s being
/// vals[pos[s]] with tag tag[s] (simd::kBelowTag for a below element, the
/// equal element's next digit otherwise).
template <typename T>
struct ClassifiedTile {
  std::span<const T> vals;
  std::span<const std::uint32_t> ids;  ///< bound indices, or empty
  std::size_t idx0 = 0;  ///< index of vals[0] when `ids` is empty
  const std::uint32_t* pos = nullptr;
  const std::uint32_t* tag = nullptr;
  std::size_t kept = 0;

  [[nodiscard]] T value(std::size_t s) const { return vals[pos[s]]; }
  [[nodiscard]] std::uint32_t index(std::size_t s) const {
    return ids.empty() ? static_cast<std::uint32_t>(idx0 + pos[s])
                       : ids[pos[s]];
  }
};

/// The whole-tile form of a radix filter: classify the elements [begin,
/// end) of `src` under `rule` with simd::classify_digits and call `f(tile)`
/// with each tile's ClassifiedTile, in element order — the order, and so
/// the appends, a per-element loop over scan_source makes.  Charges what
/// scan_source charges.  For the unchecked path (BlockCtx::unchecked_tiles)
/// on carrier keys.
template <typename T, typename F>
  requires simgpu::simd::kRadixCarrier<T>
inline void scan_classified_tiles(simgpu::BlockCtx& ctx,
                                  const RadixSource<T>& src, std::size_t begin,
                                  std::size_t end,
                                  const simgpu::simd::DigitRule& rule, F&& f) {
  std::uint32_t pos[simgpu::kTileElems];
  std::uint32_t tag[simgpu::kTileElems];
  scan_source_tiles(ctx, src, begin, end,
                    [&](std::span<const T> tv,
                        std::span<const std::uint32_t> ti, std::size_t first) {
                      const std::size_t m =
                          simgpu::simd::classify_digits(tv, rule, pos, tag);
                      f(ClassifiedTile<T>{tv, ti, src.idx0 + first, pos, tag,
                                          m});
                    });
}

/// scan_classified_tiles calling `f(value, index, tag)` for each below or
/// equal element.
template <typename T, typename F>
  requires simgpu::simd::kRadixCarrier<T>
inline void scan_classified(simgpu::BlockCtx& ctx, const RadixSource<T>& src,
                            std::size_t begin, std::size_t end,
                            const simgpu::simd::DigitRule& rule, F&& f) {
  scan_classified_tiles(ctx, src, begin, end, rule,
                        [&](const ClassifiedTile<T>& t) {
                          for (std::size_t s = 0; s < t.kept; ++s) {
                            f(t.value(s), t.index(s), t.tag[s]);
                          }
                        });
}

/// Accounted zero-fill of b[first, first + count): store_tile from a zero
/// tile, charging count elements written.
template <typename T>
inline void zero_fill(simgpu::BlockCtx& ctx, simgpu::DeviceBuffer<T> b,
                      std::size_t first, std::size_t count) {
  static constexpr T kZeros[simgpu::kTileElems] = {};
  for (std::size_t i = 0; i < count; i += simgpu::kTileElems) {
    ctx.store_tile(b, first + i,
                   std::span<const T>(kZeros,
                                      std::min(simgpu::kTileElems, count - i)));
  }
}

/// Warp-aggregated append into parallel (value, index) output arrays that
/// share one atomic cursor — the standard GPU idiom (used by RAFT's
/// select_radix and GpuSelection) where a warp ballots its writers, the
/// leader reserves a slot range with a single atomicAdd, and lanes write to
/// their offsets.  Emulated by staging up to kWarpSize entries and paying
/// one contended atomic per batch instead of one per element.
///
/// `flush()` must be called before the block retires.
template <typename T, typename Cursor>
class AggregatedAppender {
 public:
  AggregatedAppender(simgpu::DeviceBuffer<T> vals,
                     simgpu::DeviceBuffer<std::uint32_t> idx,
                     std::size_t dst_base,
                     simgpu::DeviceBuffer<Cursor> cursor,
                     std::size_t cursor_index, std::size_t capacity,
                     const char* overflow_what)
      : vals_(vals),
        idx_(idx),
        dst_base_(dst_base),
        cursor_(cursor),
        cursor_index_(cursor_index),
        capacity_(capacity),
        overflow_what_(overflow_what) {}

  void push(simgpu::BlockCtx& ctx, T value, std::uint32_t index) {
    staged_v_[staged_] = value;
    staged_i_[staged_] = index;
    if (++staged_ == kStage) flush(ctx);
  }

  void flush(simgpu::BlockCtx& ctx) {
    if (staged_ == 0) return;
    const Cursor base =
        ctx.atomic_add(cursor_, cursor_index_, static_cast<Cursor>(staged_));
    if (static_cast<std::size_t>(base) + staged_ > capacity_) {
      throw std::logic_error(std::string(overflow_what_) +
                             ": aggregated append overflow");
    }
    // The reserved slots are contiguous, so the staged run is two tiles.
    const std::size_t at = dst_base_ + static_cast<std::size_t>(base);
    ctx.store_tile(vals_, at, std::span<const T>(staged_v_, staged_));
    ctx.store_tile(idx_, at,
                   std::span<const std::uint32_t>(staged_i_, staged_));
    ctx.ops(2);  // ballot + leader election of the aggregated atomic
    staged_ = 0;
  }

 private:
  static constexpr std::size_t kStage = 32;
  simgpu::DeviceBuffer<T> vals_;
  simgpu::DeviceBuffer<std::uint32_t> idx_;
  std::size_t dst_base_;
  simgpu::DeviceBuffer<Cursor> cursor_;
  std::size_t cursor_index_;
  std::size_t capacity_;
  const char* overflow_what_;
  T staged_v_[kStage];
  std::uint32_t staged_i_[kStage];
  std::size_t staged_ = 0;
};

/// Validate the (n, k, batch) triple shared by all algorithms.
inline void validate_problem(std::size_t n, std::size_t k, std::size_t batch) {
  if (batch == 0) throw std::invalid_argument("top-k: batch must be > 0");
  if (n == 0) throw std::invalid_argument("top-k: n must be > 0");
  if (k == 0 || k > n) {
    throw std::invalid_argument("top-k: k must be in [1, n]");
  }
}

}  // namespace topk
