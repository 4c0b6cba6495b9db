#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
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
/// and simgpu::SharedSpan (sanitizer-shadowed shared memory) alike.  Keys
/// are 32-bit (kPackableKey), so a (key, index) pair packs into one uint64.
///
/// All compare-exchange work is charged to the BlockCtx as lane ops; the
/// storage itself is on-chip and therefore free of device-memory traffic,
/// exactly like the real kernels.
template <typename T, typename KeyStore = std::span<T>,
          typename IdxStore = std::span<std::uint32_t>>
  requires kPackableKey<T>
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
    if (!tsorted_.empty()) return ord_.unpack(tsorted_[k_ - 1]);
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
  /// list content is maintained as the k smallest pairs, packed and sorted
  /// (merge_packed), and materialized into sorted storage lazily.  The
  /// retained *value* multiset is identical to the network path; index
  /// choice can differ only between elements tying at the K-th value, which
  /// the result contract already leaves open (tile_invariance_test compares
  /// sorted values, verify_topk compares the value multiset).  The gate is
  /// constant for a block's lifetime, so a list never mixes the two
  /// representations.
  template <typename CandKeys, typename CandIdx>
  void merge(simgpu::BlockCtx& ctx, const CandKeys& cand_keys,
             const CandIdx& cand_idx, std::size_t count) {
    if (count == 0) return;
    if (ctx.warpfast_enabled()) {
      // Pack the candidates (through raw spans when the stores are
      // SharedSpan proxies, which have one under the gate; shared reads are
      // never charged) and take the engines' packed update path.
      cand_pack_.resize(count);
      const auto pack = [&](const auto& keys, const auto& idx) {
        for (std::size_t i = 0; i < count; ++i) {
          cand_pack_[i] = ord_.pack(keys[i], idx[i]);
        }
      };
      if constexpr (kProxyView<CandKeys> && kProxyView<CandIdx>) {
        pack(raw_view(cand_keys), raw_view(cand_idx));
      } else {
        pack(cand_keys, cand_idx);
      }
      merge_packed(ctx, cand_pack_.data(), count);
      return;
    }
    // Process candidates in sorted chunks of the list capacity so the
    // merge network size matches the real kernels' fixed-size networks.
    const std::size_t q = next_pow2(count);
    scratch_keys_.assign(q, ord_.worst());
    scratch_idx_.assign(q, 0);
    // Off the gate a sanitizer is attached, so SharedSpan candidates have
    // no raw view and are read through their checked proxies.
    for (std::size_t i = 0; i < count; ++i) {
      scratch_keys_[i] = cand_keys[i];
      scratch_idx_[i] = cand_idx[i];
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
                    std::size_t count) {
    if (count == 0) return;
    charge_flush(ctx, count);
    ensure_packed();
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
      ensure_packed();
      other.ensure_packed();
      settle();
      other.settle();
      sorted_batch_merge(other.tsorted_.data(), other.k_);
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
  template <typename U, typename KS2, typename IS2>
    requires kPackableKey<U>
  friend class TopkList;

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
  [[nodiscard]] std::uint64_t sentinel() const {
    return ord_.pack(ord_.worst(), 0);
  }

  /// End the packed warm-up: sort the fill_ appended entries in place (the
  /// sentinels after them are already in order) and mark the state sorted.
  void settle() const {
    if (settled_) return;
    simgpu::simd::sort_u64(tsorted_.data(), fill_, tscratch_.data());
    // The sort pads its last chunk past fill_; put the sentinels back.
    std::fill(tsorted_.begin() + static_cast<std::ptrdiff_t>(fill_),
              tsorted_.begin() + static_cast<std::ptrdiff_t>(k_), sentinel());
    settled_ = true;
  }

  /// Seed the fast-path state: k_ sentinel entries mirroring the storage
  /// fill in the constructor (same idx-0 padding the exact path reports
  /// when fewer than k candidates exist), so the threshold stays worst()
  /// until k candidates have arrived.  Both buffers hold
  /// simd::sort_u64_room(k_) entries, the room settle()'s sort needs.
  void ensure_packed() const {
    if (!tsorted_.empty()) return;
    tsorted_.assign(simgpu::simd::sort_u64_room(k_), sentinel());
    tscratch_.resize(tsorted_.size());
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

  /// Write the packed state through the sorted storage (best-first by
  /// value, index-tiebroken: the packed uint64 order).  Once settled the
  /// state is sorted, so this is a straight unpack.  Lazy: only runs when
  /// the sorted view is actually requested.
  void materialize() const {
    settle();
    for (std::size_t i = 0; i < k_; ++i) {
      keys_[i] = ord_.unpack(tsorted_[i]);
      idx_[i] = static_cast<std::uint32_t>(tsorted_[i]);
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
  // Warpfast fast-path state: a flat ascending-sorted array of packed
  // (key, index) uint64s, updated one whole candidate batch at a time: sort
  // the batch (branchless networks), then one merge keeps the k first of
  // the union (simd::merge_sorted_u64, whose streams have no carry chain in
  // common).  Exactness is only ever observed at batch boundaries (the
  // selection threshold is read between flushes, never mid-flush).  The k
  // first of the union are unique bytes — indices are distinct and
  // sentinels are one bit pattern — so the state after every flush does
  // not depend on how it was computed.  Mutable because the lazy
  // materialization happens behind the const keys()/indices() accessors.
  mutable simgpu::ScratchVec<std::uint64_t> tsorted_;
  mutable simgpu::ScratchVec<std::uint64_t> tscratch_;
  simgpu::ScratchVec<std::uint64_t> pack_scratch_;
  simgpu::ScratchVec<std::uint64_t> cand_pack_;
  // Entries appended during the warm-up, which ends when settle() sorts
  // them; until then the first fill_ entries are unsorted and only kth()
  // reads the state.
  mutable std::size_t fill_ = 0;
  mutable bool settled_ = false;
  mutable bool storage_dirty_ = false;
  std::size_t fast_charge_count_ = static_cast<std::size_t>(-1);
  std::uint64_t fast_charge_ = 0;
};

/// Sort L shared-memory (key, index) pairs best-first under `ord`; only the
/// first `keep` pairs are guaranteed written back.  Under the warpfast gate
/// the exact network's closed-form charge is applied and the pairs are
/// sorted packed (simd::sort_u64, whose last merge writes only `keep`).
/// Packed pairs are distinct apart from identical pads, so the first `keep`
/// are the bytes any correct sort leaves; against the network only the
/// order of equal keys can differ, which the result contract leaves open.
template <typename KS, typename IS>
void sort_pairs(simgpu::BlockCtx& ctx, KS& keys, IS& idx, std::size_t L,
                std::size_t keep, KeyOrder<typename KS::value_type> ord) {
  if (ctx.warpfast_enabled()) {
    ctx.ops(bitonic_sort_ops(L));
    const auto rk = raw_view(keys);
    const auto rx = raw_view(idx);
    const std::size_t room = simgpu::simd::sort_u64_room(L);
    simgpu::ScratchVec<std::uint64_t> packed;
    packed.resize(2 * room);
    for (std::size_t i = 0; i < L; ++i) packed[i] = ord.pack(rk[i], rx[i]);
    simgpu::simd::sort_u64(packed.data(), L, packed.data() + room, keep);
    for (std::size_t i = 0; i < keep; ++i) {
      rk[i] = ord.unpack(packed[i]);
      rx[i] = static_cast<std::uint32_t>(packed[i]);
    }
    return;
  }
  bitonic_sort(ctx, keys, idx, ord);
}

/// Faiss-style thread-queue length for a given K (NumThreadQ in Faiss).
inline std::size_t thread_queue_len(std::size_t k) {
  if (k <= 32) return 2;
  if (k <= 128) return 3;
  if (k <= 256) return 4;
  if (k <= 1024) return 8;
  return 10;
}

}  // namespace topk
