#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/partial_sort_common.hpp"
#include "topk/warp_scan.hpp"
#include "topk/warp_select.hpp"

namespace topk {

/// Warps per block of GridSelect and the fused row-wise launches (one warp
/// per row in the fused warp variant).  GridSelect and the fused block
/// variant halve it until their queues fit shared memory.
inline constexpr int kQueueWarpsPerBlock = 8;

/// Options for GridSelect (paper §4).
struct GridSelectOptions {
  std::size_t items_per_block = kItemsPerBlock;
  /// false reproduces the Fig. 11 ablation: per-thread register queues
  /// (BlockSelect-style) inside the multi-block structure.
  bool shared_queue = true;
  /// Optional input indices (size batch*n), as in RAFT's select_k: result
  /// indices are taken from here instead of input positions.
  simgpu::DeviceBuffer<std::uint32_t> in_idx{};
};

/// One warp's GridSelect state: a single 32-entry *shared-memory* queue with
/// parallel two-step insertion (paper Fig. 5) in front of a sorted top-K
/// list.  Compared with per-thread register queues this reduces register
/// pressure and calls the expensive sort+merge only when the queue is
/// actually full.
///
/// This class is also the paper's "process data on-the-fly" device-function
/// building block: any kernel can instantiate it and push values as it
/// produces them (see examples/streaming_topk.cpp).  Keys are 32-bit
/// (kPackableKey), as TopkList requires.
template <typename T>
  requires kPackableKey<T>
class SharedQueueEngine {
 public:
  /// TopkList view over the engine's shared-memory storage.
  using SharedList =
      TopkList<T, simgpu::SharedSpan<T>, simgpu::SharedSpan<std::uint32_t>>;

  SharedQueueEngine(simgpu::BlockCtx& ctx, std::size_t k,
                    KeyOrder<T> ord = {})
      : q_keys_(ctx.shared<T>(simgpu::kWarpSize, "gridselect queue keys")),
        q_idx_(ctx.shared<std::uint32_t>(simgpu::kWarpSize,
                                         "gridselect queue idx")),
        list_keys_(ctx.shared<T>(next_pow2(k), "gridselect list keys")),
        list_idx_(ctx.shared<std::uint32_t>(next_pow2(k),
                                            "gridselect list idx")),
        list_(list_keys_, list_idx_, k, ord),
        packed_q_(ctx.warpfast_enabled()) {}

  [[nodiscard]] T kth() const { return list_.kth(); }
  [[nodiscard]] KeyOrder<T> order() const { return list_.order(); }

  /// Process one warp-wide round of up to 32 loaded elements with the
  /// parallel two-step insertion of Fig. 5.
  void round(simgpu::BlockCtx& ctx, const T* values,
             const std::uint32_t* indices, const bool* valid) {
    const T threshold = list_.kth();
    const KeyOrder<T> ord = order();
    const std::uint32_t mask = simgpu::Warp::ballot([&](int lane) {
      return valid[lane] && ord.less(values[lane], threshold);
    });
    // The per-round floor (threshold compare per lane + the ballot) is the
    // one authoritative formula shared with the warpfast bulk charge; a
    // mask == 0 round costs exactly this and nothing else.
    ctx.ops(kEmptyRoundLaneOps);
    if (mask == 0) return;

    const std::size_t incoming =
        static_cast<std::size_t>(simgpu::Warp::popc(mask));
    // Step 1: lanes whose storing position fits insert immediately.  Walk
    // only the set mask bits (rank == popcount of lower bits, i.e.
    // Warp::rank_below); positions grow with the rank, so the first
    // overflow ends the loop — on the device the predicated store issues
    // for the candidate lanes either way, hence the same `incoming` charge.
    std::size_t rank = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1, ++rank) {
      const std::size_t pos = q_count_ + rank;
      if (pos >= simgpu::kWarpSize) break;
      const int lane = std::countr_zero(m);
      q_put(pos, values[lane], indices[lane]);
    }
    ctx.ops(incoming);
    const std::size_t total = q_count_ + incoming;
    if (total < simgpu::kWarpSize) {
      q_count_ = total;
      return;
    }
    // Queue full: sort + merge, clear, then step 2 inserts the overflow
    // (the set bits whose position ran past the queue end in step 1).
    flush(ctx, simgpu::kWarpSize);
    rank = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1, ++rank) {
      const std::size_t pos = q_count_overflow_base_ + rank;
      if (pos < simgpu::kWarpSize) continue;
      const int lane = std::countr_zero(m);
      q_put(pos - simgpu::kWarpSize, values[lane], indices[lane]);
    }
    ctx.ops(incoming);
    q_count_ = total - simgpu::kWarpSize;
  }

  /// round() for prefix-valid lane batches (the first `count` lanes hold
  /// loaded elements), with the threshold-gated fast path: when the block's
  /// warpfast gate is on and no element beats the current threshold, charge
  /// the exact per-round cost in bulk and return without touching any
  /// state — bit-identical to the full emulation, which would have found
  /// mask == 0.  Rounds with candidates take the exact path.
  void round_gated(simgpu::BlockCtx& ctx, const T* values,
                   const std::uint32_t* indices, std::size_t count) {
    if (ctx.warpfast_enabled() &&
        order().count_less(std::span<const T>(values, count), list_.kth()) ==
            0) {
      ctx.ops(kEmptyRoundLaneOps);
      return;
    }
    bool valid[simgpu::kWarpSize];
    for (int lane = 0; lane < simgpu::kWarpSize; ++lane) {
      valid[lane] = static_cast<std::size_t>(lane) < count;
    }
    round(ctx, values, indices, valid);
  }

  /// Vectorized round over one contiguous prefix-valid tile (warpfast
  /// path, so the queue is staged packed).  Queue/list state and
  /// BlockCounters end up identical to round() over the same elements:
  /// candidates are extracted in lane order — exactly the ballot's bit
  /// order — and appended with the same two-step placement, and the
  /// charges are the same per-round floor + `incoming` per insert step.
  /// Only the emulation work (per-lane ballot closure, bit walking) is
  /// elided.  Indices come from `ext_idx` when non-empty, else
  /// `base_index + offset`.
  void round_span(simgpu::BlockCtx& ctx, std::span<const T> tile,
                  std::span<const std::uint32_t> ext_idx,
                  std::uint32_t base_index) {
    const T threshold = list_.kth();
    const KeyOrder<T> ord = order();
    ctx.ops(kEmptyRoundLaneOps);
    // Fused filter + pack, compressed straight onto the staging queue tail
    // (qpack_ has kWarpSize slots of slack for exactly this).  Candidates
    // land in lane order — the ballot's bit order — packed once as 8-byte
    // units that stay packed through staging and the list merge.  Float
    // keys take the vcompress path in simgpu::simd; other keys use the
    // branchless cursor loop.
    std::uint64_t* dst = qpack_.data() + q_count_;
    std::size_t m;
    if constexpr (std::is_same_v<T, float>) {
      m = simgpu::simd::pack_below_f32(
          tile.data(), ext_idx.empty() ? nullptr : ext_idx.data(), base_index,
          tile.size(), ord.key(threshold), dst, ord.mask());
    } else {
      m = 0;
      for (std::size_t u = 0; u < tile.size(); ++u) {
        dst[m] = ord.pack(tile[u],
                          ext_idx.empty()
                              ? base_index + static_cast<std::uint32_t>(u)
                              : ext_idx[u]);
        m += ord.less(tile[u], threshold) ? 1 : 0;
      }
    }
    if (m == 0) return;
    ctx.ops(m);
    const std::size_t total = q_count_ + m;
    if (total < simgpu::kWarpSize) {
      q_count_ = total;
      return;
    }
    // Queue full: sort + merge, then step 2 moves the overflow to the
    // front — the same two-step placement as the exact round.
    flush(ctx, simgpu::kWarpSize);
    const std::size_t rem = total - simgpu::kWarpSize;
    for (std::size_t i = 0; i < rem; ++i) {
      qpack_[i] = qpack_[simgpu::kWarpSize + i];
    }
    ctx.ops(m);
    q_count_ = rem;
  }

  /// Drain whatever is queued into the list.
  void finalize(simgpu::BlockCtx& ctx) {
    if (q_count_ > 0) flush(ctx, q_count_);
  }

  [[nodiscard]] SharedList& list() { return list_; }

 private:
  void flush(simgpu::BlockCtx& ctx, std::size_t count) {
    q_count_overflow_base_ = q_count_;
    if (packed_q_) {
      list_.merge_packed(ctx, qpack_.data(), count);
    } else {
      list_.merge(ctx, q_keys_, q_idx_, count);
    }
    q_count_ = 0;
  }

  /// One queue insert, honoring the staging layout (see packed_q_).
  void q_put(std::size_t pos, T v, std::uint32_t index) {
    if (packed_q_) {
      qpack_[pos] = order().pack(v, index);
      return;
    }
    q_keys_[pos] = v;
    q_idx_[pos] = index;
  }

  simgpu::SharedSpan<T> q_keys_;
  simgpu::SharedSpan<std::uint32_t> q_idx_;
  simgpu::SharedSpan<T> list_keys_;
  simgpu::SharedSpan<std::uint32_t> list_idx_;
  SharedList list_;
  // Staging queue for packed candidates: kWarpSize live slots plus
  // kWarpSize slots of slack so round_span can compress a full round onto
  // the tail before splitting it across a flush.
  std::array<std::uint64_t, 2 * simgpu::kWarpSize> qpack_{};
  // Under the warpfast gate, candidates are staged pre-packed (see
  // KeyOrder::pack) in qpack_ instead of the shared-memory queue: one
  // 8-byte store per insert, and the flush hands uint64s straight to the
  // list's packed state.  The shared queue is still allocated
  // (shared-memory capacity modeling is unchanged) but not written — its
  // contents are unobservable except through the merge, and the gate is
  // per-block constant, so a queue never mixes layouts.
  bool packed_q_;
  std::size_t q_count_ = 0;
  std::size_t q_count_overflow_base_ = 0;
};

/// Execution plan for GridSelect: the shared-memory-constrained warp count,
/// the launch grid, and — for multi-block problems — the partial-result
/// segments consumed by the cross-block merge kernel.
template <typename T>
struct GridSelectPlan {
  GridSelectOptions opt;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  std::size_t cap = 0;  // next_pow2(k)
  int num_warps = 0;
  GridShape shape;
  bool direct_output = false;
  std::size_t seg_part_val = 0;  // valid iff !direct_output
  std::size_t seg_part_idx = 0;
};

/// Footprint contracts for the GridSelect kernel family.  The partial
/// kernels read the input once and publish either the final outputs
/// (single-block-per-problem regime) or per-block partial lists, so the
/// output operands are optional and the partial-list bounds are
/// segment-sized (cap and blocks-per-problem are tuning-dependent).
inline void register_grid_select_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  const std::vector<simgpu::OperandSpec> partial_ops = {
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
       8,
       /*optional=*/true},
      {"out_idx",
       Access::kWrite,
       WriteScope::kBlockLocal,
       {{AffineVar::kBatchK}},
       4,
       /*optional=*/true},
      {"part_val",
       Access::kWrite,
       WriteScope::kBlockLocal,
       {{AffineVar::kSegElems}},
       8,
       /*optional=*/true},
      {"part_idx",
       Access::kWrite,
       WriteScope::kBlockLocal,
       {{AffineVar::kSegElems}},
       4,
       /*optional=*/true},
  };
  simgpu::register_footprint({"GridSelect_partial", partial_ops});
  simgpu::register_footprint({"GridSelect_partial_threadqueue", partial_ops});
  simgpu::register_footprint(
      {"GridSelect_merge",
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

/// Phase 1 of GridSelect: validate, size the block to the device's shared
/// memory and lay out the partial-list segments (none when a single block
/// per problem writes the final results directly).
template <typename T>
GridSelectPlan<T> grid_select_plan(const Shape& s,
                                   const simgpu::DeviceSpec& spec,
                                   const GridSelectOptions& opt,
                                   simgpu::WorkspaceLayout& layout,
                                   simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);
  if (s.k > kMaxSelectionK) {
    throw std::invalid_argument("grid_select: k exceeds the " +
                                std::to_string(kMaxSelectionK) + " limit");
  }
  if (!opt.in_idx.empty() && opt.in_idx.size() < s.batch * s.n) {
    throw std::invalid_argument("grid_select: in_idx too small");
  }

  GridSelectPlan<T> p;
  p.opt = opt;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.order = KeyOrder<T>(s.greatest);
  p.cap = next_pow2(s.k);
  // Shrink the block until the per-warp queue + list state fits the
  // device's shared memory (large K on small-shared-memory devices like
  // the A10 runs with fewer warps per block).
  p.num_warps = kQueueWarpsPerBlock;
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
        "grid_select: k too large for this device's shared memory");
  }
  p.shape = make_grid(s.batch, s.n, spec, p.num_warps * simgpu::kWarpSize,
                      opt.items_per_block);
  // With a single block per problem no cross-block merge is needed: the
  // partial kernel writes the final results directly (this is the regime
  // where GridSelect degenerates to a BlockSelect-shaped launch).
  p.direct_output = (p.shape.blocks_per_problem == 1);
  if (!p.direct_output) {
    const std::size_t bpp =
        static_cast<std::size_t>(p.shape.blocks_per_problem);
    p.seg_part_val =
        layout.add<T>("gridselect partial vals", s.batch * bpp * p.cap);
    p.seg_part_idx = layout.add<std::uint32_t>("gridselect partial idx",
                                               s.batch * bpp * p.cap);
  }
  register_grid_select_footprints();
  {
    std::vector<simgpu::OperandBind> binds = {{"in", simgpu::kBindInput}};
    if (!opt.in_idx.empty()) binds.push_back({"in_idx", simgpu::kBindInput});
    if (p.direct_output) {
      binds.push_back({"out_vals", simgpu::kBindOutVals});
      binds.push_back({"out_idx", simgpu::kBindOutIdx});
    } else {
      binds.push_back({"part_val", static_cast<int>(p.seg_part_val)});
      binds.push_back({"part_idx", static_cast<int>(p.seg_part_idx)});
    }
    simgpu::record_launch(sched,
                          opt.shared_queue ? "GridSelect_partial"
                                           : "GridSelect_partial_threadqueue",
                          p.shape.total_blocks(), p.shape.block_threads,
                          s.batch, s.n, s.k, std::move(binds));
    if (!p.direct_output) {
      simgpu::record_launch(sched, "GridSelect_merge",
                            static_cast<int>(s.batch), 1024, s.batch, s.n,
                            s.k,
                            {{"part_val", static_cast<int>(p.seg_part_val)},
                             {"part_idx", static_cast<int>(p.seg_part_idx)},
                             {"out_vals", simgpu::kBindOutVals},
                             {"out_idx", simgpu::kBindOutIdx}});
    }
  }
  return p;
}

/// Phase 2 of GridSelect (paper §4): WarpSelect with (a) a shared-memory
/// queue with parallel two-step insertion and (b) a multi-block launch so
/// the whole device participates, followed by a cross-block merge kernel.
template <typename T>
void grid_select_run(simgpu::Device& dev, const GridSelectPlan<T>& plan,
                     simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                     simgpu::DeviceBuffer<T> out_vals,
                     simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const GridSelectOptions& opt = plan.opt;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument("grid_select: buffer too small");
  }

  const std::size_t cap = plan.cap;
  const int num_warps = plan.num_warps;
  const KeyOrder<T> ord = plan.order;
  const GridShape shape = plan.shape;
  const std::size_t bpp = static_cast<std::size_t>(shape.blocks_per_problem);
  const bool shared_queue = opt.shared_queue;
  const auto ext_idx = opt.in_idx;
  const bool direct_output = plan.direct_output;
  simgpu::DeviceBuffer<T> part_val;
  simgpu::DeviceBuffer<std::uint32_t> part_idx;
  if (!direct_output) {
    part_val = ws.get<T>(plan.seg_part_val);
    part_idx = ws.get<std::uint32_t>(plan.seg_part_idx);
  }

  // ---- kernel 1: per-block partial selection ----------------------------
  {
    simgpu::LaunchConfig cfg{shared_queue ? "GridSelect_partial"
                                          : "GridSelect_partial_threadqueue",
                             shape.total_blocks(), shape.block_threads,
                             batch, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const std::size_t prob = shape.problem_of(ctx.block_idx());
      const int bip = shape.block_in_problem(ctx.block_idx());
      const auto [begin, end] = block_chunk(n, static_cast<int>(bpp), bip);
      // Region length of the warpfast leg: 64 rounds per warp.
      constexpr std::size_t kRegionRounds = 64;
      // Both queue designs run the same scan; the block's warp lists are
      // merged into one, which is either the result (one block per
      // problem) or this block's partial list (padded to cap).
      const auto select = [&](auto& engines) {
        warp_scan::scan_interleaved(ctx, engines, in, ext_idx, prob * n,
                                    begin, end, kRegionRounds);
        ctx.sync();
        const auto& merged = engines.merged_list(ctx);
        if (direct_output) {
          warp_scan::store_list(ctx, merged.keys(), merged.indices(),
                                out_vals, out_idx, prob * k, k);
        } else {
          const std::size_t slot = prob * bpp + static_cast<std::size_t>(bip);
          warp_scan::publish_padded(ctx, merged, part_val, part_idx,
                                    slot * cap, cap);
        }
      };
      if (shared_queue) {
        warp_scan::WarpEngines<SharedQueueEngine<T>> engines(num_warps, ctx,
                                                             k, ord);
        select(engines);
      } else {
        warp_scan::WarpEngines<faiss_detail::WarpSelectEngine<T>> engines(
            num_warps, ctx, k, ord);
        select(engines);
      }
    });
  }
  if (direct_output) return;

  // ---- kernel 2: cross-block merge ---------------------------------------
  // One wide block per problem: the real kernel tree-merges the partial
  // lists across its warps, so the launch shape (and hence the modeled
  // bandwidth share) uses a full 1024-thread block.
  simgpu::LaunchConfig cfg{"GridSelect_merge", static_cast<int>(batch), 1024,
                           batch, n, k};
  simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
    const auto prob = static_cast<std::size_t>(ctx.block_idx());
    warp_scan::merge_lists(ctx, part_val, part_idx, prob * bpp * cap, bpp,
                           cap, out_vals, out_idx, prob * k, k, ord);
  });
}

}  // namespace topk
