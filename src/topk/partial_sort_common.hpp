#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "simgpu/kernel.hpp"
#include "simgpu/scratch_alloc.hpp"
#include "simgpu/simd.hpp"
#include "topk/bitonic.hpp"
#include "topk/radix_traits.hpp"

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

/// True when (key, index) pairs of key type T can be packed into one
/// uint64 whose integer order is (key asc, index asc) — see pack_key_idx.
/// The warpfast fast path uses this to move candidates through single
/// 8-byte loads/stores/compares end to end (extraction buffer, staging
/// queue, selection heap).
template <typename T>
inline constexpr bool kPackableKey = sizeof(T) == 4 && std::is_arithmetic_v<T>;

/// (key, index) -> uint64 ordered by (key asc, index asc): the key's radix
/// ordinal (RadixTraits, the monotone map the radix rows sort by) above the
/// index.  No value is reserved: on the u32 carrier key 0 at index 0 packs
/// to 0, and a key equal to sort_sentinel<T>() packs like the sentinel pads
/// of the selection state, so such keys collide with empty slots (an open
/// defect: the pad needs an index no real element has).
template <typename T>
  requires kPackableKey<T>
[[nodiscard]] inline std::uint64_t pack_key_idx(T v, std::uint32_t index) {
  return (static_cast<std::uint64_t>(RadixTraits<T>::to_radix(v)) << 32) |
         index;
}

namespace detail {

/// Branchless sort of 32 uint64s in place, used to sort one staged
/// candidate batch before the tournament-free batch merge in TopkList.
/// Data-independent cost and far cheaper than 32 serial heap sifts; the
/// implementation (simgpu::simd) is an AVX-512 bitonic network when the
/// host supports it, else register-resident sort8 networks plus branchless
/// binary merges.
inline void sort32_packed(std::uint64_t* v) { simgpu::simd::sort32_u64(v); }

}  // namespace detail

/// A sorted top-K list with merge-and-prune updates, the common core of
/// WarpSelect, BlockSelect, GridSelect and Bitonic Top-K.  `keys`/`idx` are
/// caller-provided storage of `capacity()` elements (registers for the Faiss
/// selections, shared memory for GridSelect), kept ascending-sorted and
/// padded with the +inf sentinel.  The storage view types are template
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
  TopkList(KeyStore keys, IdxStore idx, std::size_t k)
      : keys_(keys), idx_(idx), k_(k) {
    if (keys_.size() != idx_.size() || keys_.size() < k) {
      throw std::invalid_argument("TopkList: bad storage");
    }
    cap_ = next_pow2(k);
    if (keys_.size() < cap_) {
      throw std::invalid_argument("TopkList: storage must hold next_pow2(k)");
    }
    for (std::size_t i = 0; i < cap_; ++i) {
      keys_[i] = sort_sentinel<T>();
      idx_[i] = 0;
    }
  }

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Current K-th smallest value seen (the selection threshold).
  [[nodiscard]] T kth() const {
    if constexpr (kPackedHeap) {
      if (!tsorted_.empty()) {
        return RadixTraits<T>::from_radix(
            static_cast<std::uint32_t>(tsorted_[k_ - 1] >> 32));
      }
    } else {
      if (!hkeys_.empty()) return hkeys_[0];
    }
    return keys_[k_ - 1];
  }

  /// Merge `count` candidate pairs into the list, keeping the smallest k.
  /// Requires `cand_keys.size() == cand_idx.size()` and both at least
  /// `count`.  Any indexable stores work (spans, vectors, SharedSpan).
  ///
  /// Under the warpfast gate (BlockCtx::warpfast_enabled) the merge takes
  /// the fast path: the exact network charges are applied in one bulk
  /// ctx.ops (the networks are data-oblivious, so the charge is a closed
  /// form of the lengths — see bitonic_sort_ops/merge_prune_ops) while the
  /// list content is maintained as a k-entry max-heap of the smallest pairs
  /// and materialized into sorted storage lazily.  The retained *value*
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
      // Memoized: flushes almost always carry a full queue, so `count` is
      // nearly constant and the formula loops would otherwise run per
      // flush.
      if (count != fast_charge_count_) {
        const std::size_t q = next_pow2(count);
        fast_charge_count_ = count;
        fast_charge_ = bitonic_sort_ops(q) +
                       ((q + cap_ - 1) / cap_) * merge_prune_ops(cap_);
      }
      ctx.ops(fast_charge_);
      ensure_heap();
      if constexpr (kPackedHeap) {
        // Pack the candidates (through raw spans when the stores are
        // SharedSpan proxies; shared reads are never charged), sort, and
        // fold them in with one batch merge.
        pack_scratch_.resize(count);
        if constexpr (kProxyView<CandKeys> && kProxyView<CandIdx>) {
          const auto rk = raw_view(cand_keys);
          const auto ri = raw_view(cand_idx);
          if (!rk.empty() && !ri.empty()) {
            for (std::size_t i = 0; i < count; ++i) {
              pack_scratch_[i] = pack_key_idx<T>(rk[i], ri[i]);
            }
          } else {
            for (std::size_t i = 0; i < count; ++i) {
              pack_scratch_[i] = pack_key_idx<T>(cand_keys[i], cand_idx[i]);
            }
          }
        } else {
          for (std::size_t i = 0; i < count; ++i) {
            pack_scratch_[i] = pack_key_idx<T>(cand_keys[i], cand_idx[i]);
          }
        }
        std::sort(pack_scratch_.begin(), pack_scratch_.end());
        sorted_batch_merge(pack_scratch_.data(), count);
      } else {
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
      }
      storage_dirty_ = true;
      return;
    }
    // Process candidates in sorted chunks of the list capacity so the
    // merge network size matches the real kernels' fixed-size networks.
    const std::size_t q = next_pow2(count);
    scratch_keys_.assign(q, sort_sentinel<T>());
    scratch_idx_.assign(q, 0);
    // The candidate stores may be SharedSpans; copy through raw pointers
    // when the tile path makes that legal (shared-memory reads are never
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
    bitonic_sort<T>(ctx, scratch_keys_, scratch_idx_);
    for (std::size_t base = 0; base < q; base += cap_) {
      const std::size_t len = std::min(cap_, q - base);
      merge_sorted_chunk(ctx,
                         std::span<T>(scratch_keys_).subspan(base, len),
                         std::span<std::uint32_t>(scratch_idx_)
                             .subspan(base, len));
    }
  }

  /// Fast-path-only variant of merge() taking candidates already packed by
  /// pack_key_idx (the engines stage candidates packed so each one moves
  /// through a single 8-byte store/load/compare end to end).  Charges are
  /// identical to merge() over the same count; callers must be inside the
  /// warpfast gate — the exact network path has no packed form.
  void merge_packed(simgpu::BlockCtx& ctx, const std::uint64_t* cands,
                    std::size_t count)
    requires kPackableKey<T>
  {
    if (count == 0) return;
    if (count != fast_charge_count_) {
      const std::size_t q = next_pow2(count);
      fast_charge_count_ = count;
      fast_charge_ = bitonic_sort_ops(q) +
                     ((q + cap_ - 1) / cap_) * merge_prune_ops(cap_);
    }
    ctx.ops(fast_charge_);
    ensure_heap();
    if (count <= 16) {
      // The typical drain is well under half a queue's capacity, and the
      // charge above already prices the next_pow2(count) network — run the
      // matching half-width one instead of padding out a full sort32.
      std::uint64_t buf[16];
      std::size_t i = 0;
      for (; i < count; ++i) buf[i] = cands[i];
      for (; i < 16; ++i) buf[i] = ~std::uint64_t{0};
      simgpu::simd::sort16_u64(buf);
      sorted_batch_merge(buf, count);
    } else if (count <= 32) {
      // The hot flush shape: sort one staged batch with the fixed network
      // (+inf-max pads sort to the tail and sit beyond the merge's
      // candidate bound) and fold it in with one branchless merge pass.
      std::uint64_t buf[32];
      std::size_t i = 0;
      for (; i < count; ++i) buf[i] = cands[i];
      for (; i < 32; ++i) buf[i] = ~std::uint64_t{0};
      detail::sort32_packed(buf);
      sorted_batch_merge(buf, count);
    } else {
      pack_scratch_.assign(cands, cands + count);
      std::sort(pack_scratch_.begin(), pack_scratch_.end());
      sorted_batch_merge(pack_scratch_.data(), count);
    }
    storage_dirty_ = true;
  }

  /// Merge an already ascending-sorted chunk of at most capacity() pairs.
  /// The chunk is consumed (its storage is clobbered).
  template <SortableView ChunkKeys, SortableView ChunkIdx>
  void merge_sorted_chunk(simgpu::BlockCtx& ctx, ChunkKeys chunk_keys,
                          ChunkIdx chunk_idx) {
    const std::size_t len = chunk_keys.size();
    if (len == cap_) {
      merge_prune(ctx, keys_.subspan(0, cap_), idx_.subspan(0, cap_),
                  chunk_keys, chunk_idx);
      return;
    }
    // Short chunk: pad into a capacity-sized scratch and run the same
    // fixed-size network.
    pad_keys_.assign(cap_, sort_sentinel<T>());
    pad_idx_.assign(cap_, 0);
    for (std::size_t i = 0; i < len; ++i) {
      pad_keys_[i] = chunk_keys[i];
      pad_idx_[i] = chunk_idx[i];
    }
    merge_prune(ctx, keys_.subspan(0, cap_), idx_.subspan(0, cap_),
                std::span<T>(pad_keys_), std::span<std::uint32_t>(pad_idx_));
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
                other.keys_.subspan(0, cap_), other.idx_.subspan(0, cap_));
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
  /// whole candidate batch at a time: sort the batch (branchless network),
  /// then one 256-step two-pointer merge keeps the k smallest of the
  /// union.  Unlike a per-candidate heap, the batch update has no serial
  /// dependent-address chain — the merge is a straight-line cmov loop —
  /// and exactness is only ever observed at batch boundaries (the
  /// selection threshold is read between flushes, never mid-flush).  A
  /// pleasant side effect: materialization is a plain unpack, the state is
  /// already sorted.  Wider key types use the generic struct-of-arrays
  /// 4-ary heap below.
  static constexpr bool kPackedHeap = kPackableKey<T>;

  /// Generic-heap pad value that can never win a max comparison nor be
  /// displaced by a real entry: -inf when it exists, else lowest().
  /// (lowest() alone would be wrong for floats: a real -inf key would rank
  /// below the pad and a sift could then drag the pad into the heap.)
  static constexpr T pad_key() {
    if constexpr (std::numeric_limits<T>::has_infinity) {
      return -std::numeric_limits<T>::infinity();
    } else {
      return std::numeric_limits<T>::lowest();
    }
  }

  /// Seed the fast-path state: k_ sentinel entries mirroring the storage
  /// fill in the constructor (same idx-0 padding the exact path reports
  /// when fewer than k candidates exist), so the threshold stays +inf and
  /// every early offer is accepted and replaces a sentinel — warm-up needs
  /// no special casing in either layout.  Tournament (packed): slots are
  /// padded to a multiple of 32.  Generic: a 4-ary max-heap (halved depth
  /// versus binary — the sift is a serial address-dependent chain, so
  /// depth is the dominant latency term) whose root is the threshold,
  /// with three pad entries at k_..k_+2 so the larger-child scan can read
  /// c..c+3 unconditionally.
  void ensure_heap() const {
    if constexpr (kPackedHeap) {
      if (!tsorted_.empty()) return;
      tsorted_.assign(k_, pack_key_idx<T>(sort_sentinel<T>(), 0));
      tscratch_.resize(k_);
      return;
    } else {
      if (!hkeys_.empty()) return;
      hkeys_.assign(k_ + 3, sort_sentinel<T>());
      hidx_.assign(k_ + 3, 0);
      for (std::size_t i = k_; i < k_ + 3; ++i) hkeys_[i] = pad_key();
      fill_ = 0;
    }
  }

  /// Replace the sorted state with the k smallest of (state ∪ candidates).
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
      const bool b1 = c0 < c1;
      const bool b2 = c2 < c3;
      const T v1 = b1 ? c1 : c0;
      const T v2 = b2 ? c3 : c2;
      const bool b3 = v1 < v2;
      const T vc = b3 ? v2 : v1;
      if (!(v < vc)) break;
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
  /// when it beats the threshold (strict `<` on the key, matching the
  /// exact path's rejection of ties).  Warm-up: while the threshold is
  /// still the sentinel every element is a candidate and would full-depth
  /// sift through an all-sentinel heap, so the first k_ offers just fill
  /// slots back-to-front (the root keeps the sentinel, i.e. kth() stays
  /// +inf exactly like the exact path's list) and one bottom-up build
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
      if (!(v < hkeys_[0])) return;
      sift_hole(0, v, index);
    }
  }

  /// Write the heap contents through the sorted storage (ascending by
  /// value, index-tiebroken for determinism — exactly the packed uint64
  /// order).  Lazy: only runs when the sorted view is actually requested.
  void materialize() const {
    if constexpr (kPackedHeap) {
      // The packed state is kept sorted (ascending by key, then index),
      // so materialization is a straight unpack.
      for (std::size_t i = 0; i < k_; ++i) {
        keys_[i] = RadixTraits<T>::from_radix(
            static_cast<std::uint32_t>(tsorted_[i] >> 32));
        idx_[i] = static_cast<std::uint32_t>(tsorted_[i]);
      }
    } else {
      sorted_scratch_.resize(k_);
      for (std::size_t i = 0; i < k_; ++i) {
        sorted_scratch_[i] = {hkeys_[i], hidx_[i]};
      }
      std::sort(sorted_scratch_.begin(), sorted_scratch_.end(),
                [](const auto& a, const auto& b) {
                  if (a.first < b.first) return true;
                  if (b.first < a.first) return false;
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
  mutable simgpu::ScratchVec<std::uint64_t> pack_scratch_;
  mutable simgpu::ScratchVec<T> hkeys_;
  mutable simgpu::ScratchVec<std::uint32_t> hidx_;
  mutable simgpu::ScratchVec<std::pair<T, std::uint32_t>> sorted_scratch_;
  mutable std::size_t fill_ = 0;
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
