#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/partial_sort_common.hpp"
#include "topk/warp_scan.hpp"

namespace topk {

namespace faiss_detail {

/// One warp's WarpSelect state: a warp-wide sorted top-K list plus 32
/// per-lane thread queues, both register-resident (Faiss WarpSelect /
/// BlockSelect).  Elements are pushed per lane; when any lane's queue fills,
/// all queues are sorted and merged into the list with bitonic networks —
/// the "costly operations" GridSelect's shared queue reduces (paper §4).
/// Keys are 32-bit (kPackableKey), as TopkList requires.
template <typename T>
  requires kPackableKey<T>
class WarpSelectEngine {
 public:
  WarpSelectEngine(simgpu::BlockCtx& ctx, std::size_t k,
                   KeyOrder<T> ord = {})
      : qlen_(thread_queue_len(k)),
        list_keys_(next_pow2(k)),
        list_idx_(next_pow2(k)),
        list_(std::span<T>(list_keys_), std::span<std::uint32_t>(list_idx_), k,
              ord),
        tq_keys_(32 * qlen_),
        tq_idx_(32 * qlen_),
        tq_count_(32, 0) {
    (void)ctx;
  }

  /// Threshold an element must come before to be a candidate.
  [[nodiscard]] T kth() const { return list_.kth(); }
  [[nodiscard]] KeyOrder<T> order() const { return list_.order(); }

  /// Process one warp-wide round of up to 32 loaded elements.
  /// `valid[lane]` marks lanes whose load was in range.
  void round(simgpu::BlockCtx& ctx, const T* values,
             const std::uint32_t* indices, const bool* valid) {
    const T threshold = list_.kth();
    const KeyOrder<T> ord = order();
    bool any_insert = false;
    for (int lane = 0; lane < simgpu::kWarpSize; ++lane) {
      if (!valid[lane]) continue;
      if (ord.less(values[lane], threshold)) {
        auto& n = tq_count_[static_cast<std::size_t>(lane)];
        tq_keys_[static_cast<std::size_t>(lane) * qlen_ + n] = values[lane];
        tq_idx_[static_cast<std::size_t>(lane) * qlen_ + n] = indices[lane];
        ++n;
        any_insert = true;
      }
    }
    // Per-round floor: threshold compare per lane + the queue-full ballot
    // below.  This is the same authoritative kEmptyRoundLaneOps formula the
    // warpfast bulk charge uses — an insert-free round cannot trip the
    // full vote (flushes reset the counts), so it costs exactly the floor.
    ctx.ops(kEmptyRoundLaneOps);
    if (any_insert) {
      // SIMT predication: the sorted-insert shift chain (O(queue length))
      // is issued warp-wide whenever any lane takes the insert branch —
      // the register-queue overhead GridSelect's ballot-based two-step
      // insertion avoids (paper §4).
      ctx.ops(simgpu::kWarpSize * qlen_);
    }
    // __ballot_sync: does any lane's queue need draining?
    const std::uint32_t full_mask = simgpu::Warp::ballot([&](int lane) {
      return tq_count_[static_cast<std::size_t>(lane)] >= qlen_;
    });
    if (full_mask != 0) flush(ctx);
  }

  /// Vectorized round over one contiguous prefix-valid tile (warpfast
  /// path).  Lane u holds tile[u], exactly as round() sees it, so the
  /// queue state and the charges are identical: per-round floor, plus the
  /// warp-wide shift chain when any lane inserts.  A lane can only be full
  /// after inserting this round (flushes reset all counts), so tracking
  /// fills during insertion reproduces the queue-full ballot.  Indices
  /// come from `ext_idx` when non-empty, else `base_index + offset`.
  void round_span(simgpu::BlockCtx& ctx, std::span<const T> tile,
                  std::span<const std::uint32_t> ext_idx,
                  std::uint32_t base_index) {
    const T threshold = list_.kth();
    const KeyOrder<T> ord = order();
    ctx.ops(kEmptyRoundLaneOps);
    // Vectorized precheck: a candidate-free round inserts nothing and
    // cannot trip the queue-full vote, so the per-lane loop below would
    // only rediscover the empty mask.
    if (ord.count_less(tile, threshold) == 0) return;
    bool any_insert = false;
    bool any_full = false;
    for (std::size_t u = 0; u < tile.size(); ++u) {
      if (ord.less(tile[u], threshold)) {
        auto& c = tq_count_[u];
        tq_keys_[u * qlen_ + c] = tile[u];
        tq_idx_[u * qlen_ + c] =
            ext_idx.empty() ? base_index + static_cast<std::uint32_t>(u)
                            : ext_idx[u];
        ++c;
        any_insert = true;
        any_full |= c >= qlen_;
      }
    }
    if (!any_insert) return;
    ctx.ops(simgpu::kWarpSize * qlen_);
    if (any_full) flush(ctx);
  }

  /// Multi-round scan over one contiguous prefix-valid span (warpfast
  /// path): filter-and-pack the candidate set once with a vectorized
  /// compare under the entry threshold, then replay only the
  /// candidate-bearing rounds.  Charge-identical to calling round_span()
  /// per 32-element round:
  ///   - every round costs the kEmptyRoundLaneOps floor (charged in bulk
  ///     up front — the counters are sums, ordering is immaterial);
  ///   - the entry threshold only tightens (merges never raise kth), so
  ///     the packed set is a superset of every round's true candidates;
  ///     re-checking each candidate against the *current* threshold at
  ///     its round's replay point reproduces the exact insert set, lane
  ///     order, shift-chain charge and queue-full flushes round_span()
  ///     would produce — a round whose packed candidates all fail the
  ///     re-check degenerates to the floor, same as its count_less gate.
  void span_rounds(simgpu::BlockCtx& ctx, std::span<const T> tile,
                   std::span<const std::uint32_t> ext_idx,
                   std::uint32_t base_index) {
    if constexpr (std::is_same_v<T, float>) {
      if (ctx.warpfast_enabled()) {
        const std::size_t rounds =
            (tile.size() + simgpu::kWarpSize - 1) / simgpu::kWarpSize;
        ctx.ops(rounds * kEmptyRoundLaneOps);
        // Warm-up segment, then one big pack: the first pack runs under
        // the worst-key threshold and would compress-store nearly every
        // element, so cap it at kSeg rounds; once the list has merged a
        // segment's worth the threshold is tight enough that packing the
        // whole remainder stays cheap (the stale-trim below re-packs if a
        // merge tightens it mid-replay).
        constexpr std::size_t kSeg = 16 * simgpu::kWarpSize;
        const KeyOrder<T> ord = order();
        span_pack_.resize(std::max(span_pack_.size(), tile.size()));
        // Pack positions (base 0, no ext_idx) so lane/round recovery is
        // arithmetic; external ids are looked up per candidate below.
        std::size_t start = 0;  // first unprocessed element, round-aligned
        while (start < tile.size()) {
          const std::size_t seg_end =
              start < kSeg ? std::min(kSeg, tile.size()) : tile.size();
          const std::size_t m = simgpu::simd::pack_below_f32(
              tile.data() + start, nullptr, 0, seg_end - start,
              ord.key(list_.kth()), span_pack_.data(), ord.mask());
          if (m == 0) {
            start = seg_end;
            continue;
          }
          std::size_t i = 0;
          std::size_t dead = 0;  // re-check failures since this pack
          std::size_t next_start = seg_end;
          while (i < m) {
            const auto rel0 =
                static_cast<std::uint32_t>(span_pack_[i] & 0xffffffffu);
            const std::size_t round_end =
                (rel0 / simgpu::kWarpSize + 1) * simgpu::kWarpSize;
            const T threshold = list_.kth();
            bool any_insert = false;
            bool any_full = false;
            for (; i < m; ++i) {
              const auto rel =
                  static_cast<std::uint32_t>(span_pack_[i] & 0xffffffffu);
              if (rel >= round_end) break;
              const std::size_t pos = start + rel;
              const T v = tile[pos];
              if (!ord.less(v, threshold)) {  // pack threshold was looser
                ++dead;
                continue;
              }
              const std::size_t lane = rel % simgpu::kWarpSize;
              auto& c = tq_count_[lane];
              tq_keys_[lane * qlen_ + c] = v;
              tq_idx_[lane * qlen_ + c] =
                  ext_idx.empty()
                      ? base_index + static_cast<std::uint32_t>(pos)
                      : ext_idx[pos];
              ++c;
              any_insert = true;
              any_full |= c >= qlen_;
            }
            if (any_insert) {
              ctx.ops(simgpu::kWarpSize * qlen_);
              if (any_full) flush(ctx);
            }
            // Stale-pack trim: merges tighten the threshold, so a pack
            // taken early (worst: the warm-up threshold) can leave a
            // long mostly-dead tail.  When the replay has burned through
            // enough dead candidates and plenty remain, re-pack the
            // unprocessed tail under the current threshold — still a
            // superset of every later round's true candidates, and round
            // floors were charged up front, so charges are unchanged.
            if (dead >= 128 && m - i > 256) {
              next_start = start + round_end;
              break;
            }
          }
          start = i >= m ? seg_end : next_start;
        }
        return;
      }
    }
    for (std::size_t off = 0; off < tile.size(); off += simgpu::kWarpSize) {
      const std::size_t c =
          std::min<std::size_t>(simgpu::kWarpSize, tile.size() - off);
      round_span(ctx, tile.subspan(off, c),
                 ext_idx.empty() ? ext_idx : ext_idx.subspan(off, c),
                 static_cast<std::uint32_t>(base_index + off));
    }
  }

  /// Drain all thread queues into the list (also called at end of input).
  void flush(simgpu::BlockCtx& ctx) {
    // Packed drain under the warpfast gate: collect (ord, idx) pairs and
    // fold them in with merge_packed — charge-identical to merge() over the
    // same count (see TopkList::merge_packed), and the hot ≤32-item flush
    // runs the fixed sort network instead of a general sort.  (flush_pack_
    // is distinct from span_pack_: a flush can fire while span_rounds is
    // still iterating its packed candidates.)
    if (ctx.warpfast_enabled()) {
      const KeyOrder<T> ord = order();
      flush_pack_.resize(
          std::max(flush_pack_.size(), simgpu::kWarpSize * qlen_));
      std::size_t count = 0;
      for (int lane = 0; lane < simgpu::kWarpSize; ++lane) {
        const auto base = static_cast<std::size_t>(lane) * qlen_;
        const auto n = tq_count_[static_cast<std::size_t>(lane)];
        for (std::size_t j = 0; j < n; ++j) {
          flush_pack_[count++] =
              ord.pack(tq_keys_[base + j], tq_idx_[base + j]);
        }
        tq_count_[static_cast<std::size_t>(lane)] = 0;
      }
      if (count == 0) return;
      list_.merge_packed(ctx, flush_pack_.data(), count);
      return;
    }
    std::size_t count = 0;
    for (int lane = 0; lane < simgpu::kWarpSize; ++lane) {
      const auto n = tq_count_[static_cast<std::size_t>(lane)];
      for (std::size_t j = 0; j < n; ++j) {
        flush_keys_.resize(std::max<std::size_t>(flush_keys_.size(), count + 1));
        flush_idx_.resize(flush_keys_.size());
        flush_keys_[count] = tq_keys_[static_cast<std::size_t>(lane) * qlen_ + j];
        flush_idx_[count] = tq_idx_[static_cast<std::size_t>(lane) * qlen_ + j];
        ++count;
      }
      tq_count_[static_cast<std::size_t>(lane)] = 0;
    }
    if (count == 0) return;
    list_.merge(ctx, std::span<T>(flush_keys_), std::span<std::uint32_t>(flush_idx_),
                count);
  }

  /// Alias for flush() so generic scan loops can treat both engine
  /// families (this and SharedQueueEngine) uniformly at end of input.
  void finalize(simgpu::BlockCtx& ctx) { flush(ctx); }

  [[nodiscard]] TopkList<T>& list() { return list_; }

 private:
  // ScratchVec: engine storage recycles through the thread-local freelist,
  // so steady-state kernel execution performs no heap allocation.
  std::size_t qlen_;
  simgpu::ScratchVec<T> list_keys_;
  simgpu::ScratchVec<std::uint32_t> list_idx_;
  TopkList<T> list_;
  simgpu::ScratchVec<T> tq_keys_;
  simgpu::ScratchVec<std::uint32_t> tq_idx_;
  simgpu::ScratchVec<std::size_t> tq_count_;
  simgpu::ScratchVec<T> flush_keys_;
  simgpu::ScratchVec<std::uint32_t> flush_idx_;
  simgpu::ScratchVec<std::uint64_t> span_pack_;
  simgpu::ScratchVec<std::uint64_t> flush_pack_;
};

/// Execution plan for WarpSelect / BlockSelect.  The whole computation is
/// register- and shared-memory-resident, so the plan carries no workspace
/// segments — just the validated shape, the warp count and the (static)
/// kernel name.
template <typename T>
struct FaissSelectPlan {
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  int num_warps = 0;
  std::string_view kernel_name;
};

/// Footprint contracts for the two register-resident selection kernels: one
/// pass over the input, final results written block-locally (each block owns
/// one problem's k-slice of the outputs).
inline void register_faiss_select_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  const std::vector<simgpu::OperandSpec> ops = {
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
  };
  simgpu::register_footprint({"WarpSelect", ops});
  simgpu::register_footprint({"BlockSelect", ops});
}

/// Phase 1 of WarpSelect / BlockSelect: validation only (no segments).
template <typename T>
FaissSelectPlan<T> faiss_select_plan(const Shape& s,
                                     const simgpu::DeviceSpec& /*spec*/,
                                     int num_warps,
                                     std::string_view kernel_name,
                                     simgpu::WorkspaceLayout& /*layout*/,
                                     simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);
  if (s.k > kMaxSelectionK) {
    throw std::invalid_argument(std::string(kernel_name) + ": k exceeds the " +
                                std::to_string(kMaxSelectionK) +
                                " register-resident limit");
  }
  register_faiss_select_footprints();
  simgpu::record_launch(sched, kernel_name, static_cast<int>(s.batch),
                        num_warps * simgpu::kWarpSize, s.batch, s.n, s.k,
                        {{"in", simgpu::kBindInput},
                         {"out_vals", simgpu::kBindOutVals},
                         {"out_idx", simgpu::kBindOutIdx}});
  return FaissSelectPlan<T>{s.batch, s.n, s.k, KeyOrder<T>(s.greatest),
                            num_warps, kernel_name};
}

/// Phase 2 — shared implementation of WarpSelect (1 warp per problem) and
/// BlockSelect (4 warps per problem): each warp scans an interleaved slice
/// with its own engine; BlockSelect merges the warp lists at the end.
template <typename T>
void faiss_select_run(simgpu::Device& dev, const FaissSelectPlan<T>& plan,
                      simgpu::Workspace& /*ws*/, simgpu::DeviceBuffer<T> in,
                      simgpu::DeviceBuffer<T> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const int num_warps = plan.num_warps;
  const KeyOrder<T> ord = plan.order;
  const std::string_view kernel_name = plan.kernel_name;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument(std::string(kernel_name) +
                                ": buffer too small");
  }

  simgpu::LaunchConfig cfg{kernel_name, static_cast<int>(batch),
                           num_warps * simgpu::kWarpSize, batch, n, k};
  simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
    const auto prob = static_cast<std::size_t>(ctx.block_idx());
    // Region length of the warpfast leg: 8 rounds per warp.
    constexpr std::size_t kRegionRounds = 8;
    warp_scan::WarpEngines<WarpSelectEngine<T>> engines(num_warps, ctx, k,
                                                        ord);
    warp_scan::scan_interleaved(ctx, engines, in, {}, prob * n, 0, n,
                                kRegionRounds);
    ctx.sync();
    // BlockSelect: merge the warp lists into warp 0's list.
    const auto& list = engines.merged_list(ctx);
    warp_scan::store_list(ctx, list.keys(), list.indices(), out_vals, out_idx,
                          prob * k, k);
  });
}

}  // namespace faiss_detail

}  // namespace topk
