#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simgpu/kernel.hpp"
#include "simgpu/scratch_alloc.hpp"
#include "simgpu/simd.hpp"
#include "topk/bitonic.hpp"
#include "topk/key_order.hpp"

namespace topk {

/// Hard K limits of the partial-sorting family (paper §2.2): the selection
/// structures live in registers/shared memory, which bounds K.
inline constexpr std::size_t kMaxSelectionK = 2048;   // WarpSelect family
inline constexpr std::size_t kMaxBitonicTopkK = 256;  // Bitonic Top-K

/// Authoritative lane-op cost of one candidate-free warp round, shared by
/// the exact `round()` implementations and the warpfast bulk-charging scan:
/// every lane compares its element against the selection threshold
/// (kWarpSize ops) and the warp votes once (ballot in SharedQueueEngine,
/// the queue-full vote in WarpSelectEngine — which cannot fire on a round
/// that inserted nothing, since flushes reset the queue counts).  Any round
/// with zero candidates therefore costs exactly this much in BOTH engines,
/// which is what lets the fast path skip it and stay bit-identical.
inline constexpr std::uint64_t kEmptyRoundLaneOps = simgpu::kWarpSize + 1;

/// A sorted top-K list with merge-and-prune updates, the common core of
/// WarpSelect, BlockSelect, GridSelect and Bitonic Top-K.  `keys`/`idx` are
/// caller-provided storage of `capacity()` elements (registers for the Faiss
/// selections, shared memory for GridSelect), kept sorted best-first under
/// `ord` and padded with ord.worst().  The storage view types are template
/// parameters so the list works over plain spans (register-resident state)
/// and simgpu::SharedSpan (sanitizer-shadowed shared memory) alike.
///
/// All compare-exchange work is charged to the BlockCtx as lane ops; the
/// storage itself is on-chip and therefore free of device-memory traffic,
/// exactly like the real kernels.
template <typename T, typename KeyStore = std::span<T>,
          typename IdxStore = std::span<std::uint32_t>>
class TopkList {
 public:
  TopkList(KeyStore keys, IdxStore idx, std::size_t k,
           KeyOrder<T> ord = {})
      : keys_(keys), idx_(idx), k_(k), ord_(ord) {
    if (keys_.size() != idx_.size() || keys_.size() < k) {
      throw std::invalid_argument("TopkList: bad storage");
    }
    cap_ = next_pow2(k);
    if (keys_.size() < cap_) {
      throw std::invalid_argument("TopkList: storage must hold next_pow2(k)");
    }
    const T worst = ord_.worst();
    for (std::size_t i = 0; i < cap_; ++i) {
      keys_[i] = worst;
      idx_[i] = 0;
    }
  }

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  [[nodiscard]] KeyOrder<T> order() const { return ord_; }

  /// Current K-th best value seen (the selection threshold).
  [[nodiscard]] T kth() const {
    if constexpr (kPackedHeap) {
      if (!tsorted_.empty()) return ord_.unpack(tsorted_[k_ - 1]);
    } else {
      if (!hkeys_.empty()) return hkeys_[0];
    }
    return keys_[k_ - 1];
  }

  /// Merge `count` candidate pairs into the list, keeping the best k.
  /// Requires `cand_keys.size() == cand_idx.size()` and both at least
  /// `count`.  Any indexable stores work (spans, vectors, SharedSpan).
  ///
  /// Under the warpfast gate (BlockCtx::warpfast_enabled) the merge takes
  /// the fast path: the exact network charges are applied in one bulk
  /// ctx.ops (the networks are data-oblivious, so the charge is a closed
  /// form of the lengths — see bitonic_sort_ops/merge_prune_ops) while the
  /// list content is maintained as the k smallest pairs — packed and
  /// sorted for 32-bit keys (merge_packed), a max-heap otherwise — and
  /// materialized into sorted storage lazily.  The retained *value*
  /// multiset is identical to the network path; index choice can differ
  /// only between elements tying at the K-th value, which the result
  /// contract already leaves open (tile_invariance_test compares sorted
  /// values, verify_topk compares the value multiset).  The gate is
  /// constant for a block's lifetime, so a list never mixes the two
  /// representations.
  template <typename CandKeys, typename CandIdx>
  void merge(simgpu::BlockCtx& ctx, const CandKeys& cand_keys,
             const CandIdx& cand_idx, std::size_t count) {
    if (count == 0) return;
    if (ctx.warpfast_enabled()) {
      if constexpr (kPackedHeap) {
        // Pack the candidates (through raw spans when the stores are
        // SharedSpan proxies; shared reads are never charged) and take
        // the engines' packed update path.
        cand_pack_.resize(count);
        const auto pack = [&](const auto& keys, const auto& idx) {
          for (std::size_t i = 0; i < count; ++i) {
            cand_pack_[i] = ord_.pack(keys[i], idx[i]);
          }
        };
        if constexpr (kProxyView<CandKeys> && kProxyView<CandIdx>) {
          const auto rk = raw_view(cand_keys);
          const auto ri = raw_view(cand_idx);
          if (!rk.empty() && !ri.empty()) {
            pack(rk, ri);
          } else {
            pack(cand_keys, cand_idx);
          }
        } else {
          pack(cand_keys, cand_idx);
        }
        merge_packed(ctx, cand_pack_.data(), count);
      } else {
        charge_flush(ctx, count);
        ensure_heap();
        if constexpr (kProxyView<CandKeys> && kProxyView<CandIdx>) {
          const auto rk = raw_view(cand_keys);
          const auto ri = raw_view(cand_idx);
          if (!rk.empty() && !ri.empty()) {
            for (std::size_t i = 0; i < count; ++i) heap_offer(rk[i], ri[i]);
            storage_dirty_ = true;
            return;
          }
        }
        for (std::size_t i = 0; i < count; ++i) {
          heap_offer(cand_keys[i], cand_idx[i]);
        }
        storage_dirty_ = true;
      }
      return;
    }
    // Process candidates in sorted chunks of the list capacity so the
    // merge network size matches the real kernels' fixed-size networks.
    const std::size_t q = next_pow2(count);
    scratch_keys_.assign(q, ord_.worst());
    scratch_idx_.assign(q, 0);
    // The candidate stores may be SharedSpans; copy through raw pointers
    // when no sanitizer is attached (shared-memory reads are never
    // charged, so the charges below are unaffected).
    if constexpr (kProxyView<CandKeys> && kProxyView<CandIdx>) {
      const auto rk = raw_view(cand_keys);
      const auto ri = raw_view(cand_idx);
      if (!rk.empty() && !ri.empty()) {
        std::copy_n(rk.begin(), count, scratch_keys_.begin());
        std::copy_n(ri.begin(), count, scratch_idx_.begin());
      } else {
        for (std::size_t i = 0; i < count; ++i) {
          scratch_keys_[i] = cand_keys[i];
          scratch_idx_[i] = cand_idx[i];
        }
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        scratch_keys_[i] = cand_keys[i];
        scratch_idx_[i] = cand_idx[i];
      }
    }
    bitonic_sort<T>(ctx, scratch_keys_, scratch_idx_, ord_);
    for (std::size_t base = 0; base < q; base += cap_) {
      const std::size_t len = std::min(cap_, q - base);
      merge_sorted_chunk(ctx,
                         std::span<T>(scratch_keys_).subspan(base, len),
                         std::span<std::uint32_t>(scratch_idx_)
                             .subspan(base, len));
    }
  }

  /// Fast-path-only variant of merge() taking candidates already packed by
  /// order().pack (the engines stage candidates packed so each one moves
  /// through a single 8-byte store/load/compare end to end).  Charges are
  /// identical to merge() over the same count; callers must be inside the
  /// warpfast gate — the exact network path has no packed form.
  ///
  /// Warm-up: until k candidates have arrived, the k-th entry of the state
  /// is a sentinel whatever order the others are in, so candidates are
  /// appended unsorted ahead of the sentinels (kth() reads the sentinel, as
  /// a merge would leave it) and the state is sorted once, with networks,
  /// when the k-th candidate arrives.  A batch crossing k fills the list,
  /// settles it and merges its remainder.
  void merge_packed(simgpu::BlockCtx& ctx, const std::uint64_t* cands,
                    std::size_t count)
    requires kPackableKey<T>
  {
    if (count == 0) return;
    charge_flush(ctx, count);
    ensure_heap();
    storage_dirty_ = true;
    if (!settled_) {
      // A candidate above the sentinel would lose to it in a merge, so it
      // is appended as the sentinel.
      const std::uint64_t pad = sentinel();
      const std::size_t take = std::min(count, k_ - fill_);
      for (std::size_t i = 0; i < take; ++i) {
        tsorted_[fill_ + i] = std::min(cands[i], pad);
      }
      fill_ += take;
      if (fill_ < k_) return;
      settle();
      cands += take;
      count -= take;
      if (count == 0) return;
    }
    // Sort the batch with networks (simd::sort_u64: one 16- or 32-entry
    // network for a queue flush, 32-entry chunks and vector merges for a
    // thread-queue drain of up to 32 x the queue length; ~0 pads sort past
    // the batch) and fold it in with one merge.
    const std::size_t room = simgpu::simd::sort_u64_room(count);
    pack_scratch_.resize(std::max(pack_scratch_.size(), 2 * room));
    std::copy_n(cands, count, pack_scratch_.begin());
    simgpu::simd::sort_u64(pack_scratch_.data(), count,
                           pack_scratch_.data() + room);
    sorted_batch_merge(pack_scratch_.data(), count);
  }

  /// Merge a chunk of at most capacity() pairs, already sorted under
  /// order().  The chunk is consumed (its storage is clobbered).
  template <SortableView ChunkKeys, SortableView ChunkIdx>
  void merge_sorted_chunk(simgpu::BlockCtx& ctx, ChunkKeys chunk_keys,
                          ChunkIdx chunk_idx) {
    const std::size_t len = chunk_keys.size();
    if (len == cap_) {
      merge_prune(ctx, keys_.subspan(0, cap_), idx_.subspan(0, cap_),
                  chunk_keys, chunk_idx, ord_);
      return;
    }
    // Short chunk: pad into a capacity-sized scratch and run the same
    // fixed-size network.
    pad_keys_.assign(cap_, ord_.worst());
    pad_idx_.assign(cap_, 0);
    for (std::size_t i = 0; i < len; ++i) {
      pad_keys_[i] = chunk_keys[i];
      pad_idx_[i] = chunk_idx[i];
    }
    merge_prune(ctx, keys_.subspan(0, cap_), idx_.subspan(0, cap_),
                std::span<T>(pad_keys_), std::span<std::uint32_t>(pad_idx_),
                ord_);
  }

  /// Merge another sorted TopkList of the same capacity into this one.
  template <typename KS2, typename IS2>
  void merge_list(simgpu::BlockCtx& ctx, TopkList<T, KS2, IS2>& other) {
    if (other.cap_ != cap_) {
      throw std::invalid_argument("TopkList::merge_list: capacity mismatch");
    }
    if (ctx.warpfast_enabled()) {
      // An element ranked <= k in the union is ranked <= k in its own
      // list, so merging the other list's k entries is enough; the charge
      // is the exact merge-prune network cost below.  (Sentinel entries
      // from a not-yet-full other list are pruned or kept exactly as the
      // exact path's sentinel padding would be.)
      ctx.ops(merge_prune_ops(cap_));
      ensure_heap();
      other.ensure_heap();
      if constexpr (kPackedHeap) {
        settle();
        other.settle();
        sorted_batch_merge(other.tsorted_.data(), other.k_);
      } else {
        for (std::size_t i = 0; i < other.k_; ++i) {
          heap_offer(other.hkeys_[i], other.hidx_[i]);
        }
      }
      storage_dirty_ = true;
      return;
    }
    merge_prune(ctx, keys_.subspan(0, cap_), idx_.subspan(0, cap_),
                other.keys_.subspan(0, cap_), other.idx_.subspan(0, cap_),
                ord_);
  }

  [[nodiscard]] KeyStore keys() const {
    if (storage_dirty_) materialize();
    return keys_.subspan(0, k_);
  }
  [[nodiscard]] IdxStore indices() const {
    if (storage_dirty_) materialize();
    return idx_.subspan(0, k_);
  }

 private:
  template <typename, typename, typename>
  friend class TopkList;

  /// 32-bit key types keep the fast-path selection state as a flat
  /// ascending-sorted array of packed (key, index) uint64s, updated one
  /// whole candidate batch at a time: sort the batch (branchless
  /// networks), then one merge keeps the k first of the union
  /// (simd::merge_sorted_u64, whose streams have no carry chain in common).
  /// Exactness is only ever observed at batch boundaries (the selection
  /// threshold is read between flushes, never mid-flush).  The k first of
  /// the union are unique bytes — indices are distinct and sentinels are
  /// one bit pattern — so the state after every flush does not depend on
  /// how it was computed.  During the warm-up the first fill_ entries
  /// are unsorted; settle() sorts them before anything but kth() reads the
  /// state.  Materialization is a plain unpack.  Wider key types
  /// use the generic struct-of-arrays 4-ary heap below.
  static constexpr bool kPackedHeap = kPackableKey<T>;

  /// Lane-op charge of one fast-path flush of `count` candidates: the
  /// exact path's sort network over next_pow2(count) plus its merge-prune
  /// networks.  Memoized: flushes almost always carry a full queue, so
  /// `count` is nearly constant and the formula loops would otherwise run
  /// per flush.
  void charge_flush(simgpu::BlockCtx& ctx, std::size_t count) {
    if (count != fast_charge_count_) {
      const std::size_t q = next_pow2(count);
      fast_charge_count_ = count;
      fast_charge_ = bitonic_sort_ops(q) +
                     ((q + cap_ - 1) / cap_) * merge_prune_ops(cap_);
    }
    ctx.ops(fast_charge_);
  }

  /// The packed empty slot: worst() at index 0, as the storage is padded.
  [[nodiscard]] std::uint64_t sentinel() const
    requires kPackedHeap
  {
    return ord_.pack(ord_.worst(), 0);
  }

  /// End the packed warm-up: sort the fill_ appended entries in place (the
  /// sentinels after them are already in order) and mark the state sorted.
  void settle() const {
    if constexpr (kPackedHeap) {
      if (settled_) return;
      simgpu::simd::sort_u64(tsorted_.data(), fill_, tscratch_.data());
      // The sort pads its last chunk past fill_; put the sentinels back.
      std::fill(tsorted_.begin() + static_cast<std::ptrdiff_t>(fill_),
                tsorted_.begin() + static_cast<std::ptrdiff_t>(k_),
                sentinel());
      settled_ = true;
    }
  }

  /// Generic-heap pad value that can never win a max comparison nor be
  /// displaced by a real entry: the first key of the order, the reverse of
  /// worst().  (lowest() alone would be wrong for floats: a real -inf key
  /// would rank below the pad and a sift could then drag the pad into the
  /// heap.)
  [[nodiscard]] T pad_key() const {
    return KeyOrder<T>(!ord_.greatest()).worst();
  }

  /// Seed the fast-path state: k_ sentinel entries mirroring the storage
  /// fill in the constructor (same idx-0 padding the exact path reports
  /// when fewer than k candidates exist), so the threshold stays worst()
  /// until k candidates have arrived.  Packed: both buffers hold
  /// simd::sort_u64_room(k_) entries, the room settle()'s sort needs.
  /// Generic: a 4-ary max-heap (halved depth versus binary — the sift is a
  /// serial address-dependent chain, so depth is the dominant latency term)
  /// whose root is the threshold, with three pad entries at k_..k_+2 so
  /// the larger-child scan can read c..c+3 unconditionally.
  void ensure_heap() const {
    if constexpr (kPackedHeap) {
      if (!tsorted_.empty()) return;
      tsorted_.assign(simgpu::simd::sort_u64_room(k_), sentinel());
      tscratch_.resize(tsorted_.size());
      return;
    } else {
      if (!hkeys_.empty()) return;
      hkeys_.assign(k_ + 3, ord_.worst());
      hidx_.assign(k_ + 3, 0);
      for (std::size_t i = k_; i < k_ + 3; ++i) hkeys_[i] = pad_key();
      fill_ = 0;
    }
  }

  /// Replace the sorted state with the k first of (state ∪ candidates).
  /// `c` must be ascending-sorted with `count` live entries.  One forward
  /// merge pass into the double buffer — the 8-lane bitonic register
  /// merge when the host supports it, a branchless clamp-then-select
  /// two-pointer loop otherwise (see simgpu::simd::merge_sorted_u64).
  /// Equal packed entries are interchangeable (the index lives in the
  /// low bits), so the result does not depend on which body runs; ties
  /// on key alone resolve low-index-first, a choice the result contract
  /// leaves open.
  void sorted_batch_merge(const std::uint64_t* c, std::size_t count) const {
    simgpu::simd::merge_sorted_u64(tsorted_.data(), k_, c, count,
                                   tscratch_.data(), k_);
    tsorted_.swap(tscratch_);
  }

  /// Sift `v` down from `hole` to its resting place.  The child pick is
  /// branchless (data-dependent branches mispredict ~50% here and dominate
  /// the sift cost otherwise): the children are read into registers once
  /// and a cmov tree selects the max.
  void sift_hole(std::size_t hole, T v, std::uint32_t index) const
    requires(!kPackedHeap)
  {
    for (;;) {
      const std::size_t c = 4 * hole + 1;
      if (c >= k_) break;
      const T c0 = hkeys_[c];
      const T c1 = hkeys_[c + 1];
      const T c2 = hkeys_[c + 2];
      const T c3 = hkeys_[c + 3];
      const bool b1 = ord_.less(c0, c1);
      const bool b2 = ord_.less(c2, c3);
      const T v1 = b1 ? c1 : c0;
      const T v2 = b2 ? c3 : c2;
      const bool b3 = ord_.less(v1, v2);
      const T vc = b3 ? v2 : v1;
      if (!ord_.less(v, vc)) break;
      const std::size_t mc = b3 ? c + 2 + static_cast<std::size_t>(b2)
                                : c + static_cast<std::size_t>(b1);
      hkeys_[hole] = vc;
      hidx_[hole] = hidx_[mc];
      hole = mc;
    }
    hkeys_[hole] = v;
    hidx_[hole] = index;
  }

  /// Offer one candidate to the generic heap: replace-top + sift-down
  /// when it beats the threshold (strict less() on the key, matching the
  /// exact path's rejection of ties).  Warm-up: while the threshold is
  /// still the sentinel every element is a candidate and would full-depth
  /// sift through an all-sentinel heap, so the first k_ offers just fill
  /// slots back-to-front (the root keeps the sentinel, i.e. kth() stays
  /// worst() exactly like the exact path's list) and one bottom-up build
  /// establishes the invariant.
  void heap_offer(T v, std::uint32_t index) const
    requires(!kPackedHeap)
  {
    {
      if (fill_ < k_) {
        const std::size_t at = k_ - 1 - fill_;
        hkeys_[at] = v;
        hidx_[at] = index;
        if (++fill_ == k_ && k_ > 1) {
          for (std::size_t i = (k_ - 2) / 4 + 1; i-- > 0;) {
            sift_hole(i, hkeys_[i], hidx_[i]);
          }
        }
        return;
      }
      if (!ord_.less(v, hkeys_[0])) return;
      sift_hole(0, v, index);
    }
  }

  /// Write the heap contents through the sorted storage (best-first by
  /// value, index-tiebroken for determinism — exactly the packed uint64
  /// order).  Lazy: only runs when the sorted view is actually requested.
  void materialize() const {
    if constexpr (kPackedHeap) {
      // Once settled, the packed state is sorted (ascending by key, then
      // index), so materialization is a straight unpack.
      settle();
      for (std::size_t i = 0; i < k_; ++i) {
        keys_[i] = ord_.unpack(tsorted_[i]);
        idx_[i] = static_cast<std::uint32_t>(tsorted_[i]);
      }
    } else {
      sorted_scratch_.resize(k_);
      for (std::size_t i = 0; i < k_; ++i) {
        sorted_scratch_[i] = {hkeys_[i], hidx_[i]};
      }
      std::sort(sorted_scratch_.begin(), sorted_scratch_.end(),
                [this](const auto& a, const auto& b) {
                  if (ord_.less(a.first, b.first)) return true;
                  if (ord_.less(b.first, a.first)) return false;
                  return a.second < b.second;
                });
      for (std::size_t i = 0; i < k_; ++i) {
        keys_[i] = sorted_scratch_[i].first;
        idx_[i] = sorted_scratch_[i].second;
      }
    }
    storage_dirty_ = false;
  }

  KeyStore keys_;
  IdxStore idx_;
  std::size_t k_;
  KeyOrder<T> ord_;
  std::size_t cap_ = 0;
  // Flush scratch: lives in registers/shared memory on the device, so it is
  // modeled as on-chip (ops only, no DRAM traffic).  All scratch vectors
  // draw from the per-thread freelist (simgpu::ScratchVec) so repeated
  // kernel executions perform no host allocations after warm-up — part of
  // the two-phase run() zero-allocation contract.
  simgpu::ScratchVec<T> scratch_keys_;
  simgpu::ScratchVec<std::uint32_t> scratch_idx_;
  simgpu::ScratchVec<T> pad_keys_;
  simgpu::ScratchVec<std::uint32_t> pad_idx_;
  // Warpfast fast-path state (see merge()); mutable because the lazy
  // materialization happens behind the const keys()/indices() accessors.
  // Exactly one of the sorted-array (tsorted_, tscratch_) / heap (hkeys_,
  // hidx_) layouts is used, per kPackedHeap.
  mutable simgpu::ScratchVec<std::uint64_t> tsorted_;
  mutable simgpu::ScratchVec<std::uint64_t> tscratch_;
  simgpu::ScratchVec<std::uint64_t> pack_scratch_;
  simgpu::ScratchVec<std::uint64_t> cand_pack_;
  mutable simgpu::ScratchVec<T> hkeys_;
  mutable simgpu::ScratchVec<std::uint32_t> hidx_;
  mutable simgpu::ScratchVec<std::pair<T, std::uint32_t>> sorted_scratch_;
  // Entries filled so far (generic heap) or appended during the packed
  // warm-up, which ends when settle() sorts them.
  mutable std::size_t fill_ = 0;
  mutable bool settled_ = false;
  mutable bool storage_dirty_ = false;
  std::size_t fast_charge_count_ = static_cast<std::size_t>(-1);
  std::uint64_t fast_charge_ = 0;
};

/// Faiss-style thread-queue length for a given K (NumThreadQ in Faiss).
inline std::size_t thread_queue_len(std::size_t k) {
  if (k <= 32) return 2;
  if (k <= 128) return 3;
  if (k <= 256) return 4;
  if (k <= 1024) return 8;
  return 10;
}

}  // namespace topk
