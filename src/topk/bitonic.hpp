#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "simgpu/kernel.hpp"
#include "topk/key_order.hpp"

namespace topk {

/// A key/index store the bitonic networks can sort: any indexable view with
/// an element_type (std::span, simgpu::SharedSpan).  Plain containers like
/// std::vector do not satisfy this — wrap them in a span (the std::span
/// overloads below do it implicitly).
template <typename S>
concept SortableView = requires(const S& s, std::size_t i) {
  typename S::element_type;
  typename S::value_type;
  s.size();
  s[i];
};

/// True for views whose operator[] returns a sanitizer-aware proxy
/// (simgpu::SharedSpan); false for raw std::span views.
template <typename V>
inline constexpr bool kProxyView = requires(const V& v) {
  v.unchecked_data();
};

/// Unwrap a view to an equivalent raw std::span when uncounted raw element
/// access is legal.  For std::span views this is the identity; for
/// simgpu::SharedSpan it is unchecked_data(), which is non-null only while
/// no sanitizer is attached (shared-memory accesses are never charged to
/// BlockCounters, so bypassing the proxies cannot perturb KernelStats).  An empty return means "not available" —
/// callers fall back to the proxy view.
template <SortableView V>
[[nodiscard]] std::span<typename V::element_type> raw_view(const V& v) {
  if constexpr (kProxyView<V>) {
    typename V::element_type* p = v.unchecked_data();
    if (p == nullptr) return {};
    return {p, v.size()};
  } else {
    return {v.data(), v.size()};
  }
}

namespace detail {

template <SortableView KS, SortableView IS>
inline void compare_exchange(const KS& keys, const IS& idx, std::size_t i,
                             std::size_t j, bool ascending,
                             KeyOrder<typename KS::value_type> ord) {
  using K = typename KS::value_type;
  using I = typename IS::value_type;
  // Read-both / write-both instead of std::swap: the views may hand out
  // proxy references (SharedSpan) rather than K&.
  const K ki = keys[i];
  const K kj = keys[j];
  const bool do_swap = ascending ? ord.less(kj, ki) : ord.less(ki, kj);
  if (do_swap) {
    keys[i] = kj;
    keys[j] = ki;
    const I ii = idx[i];
    const I ij = idx[j];
    idx[i] = ij;
    idx[j] = ii;
  }
}

}  // namespace detail

/// Bitonic merge network: `keys[lo, lo+n)` must form a bitonic sequence;
/// afterwards it is sorted (ascending under `ord` if `ascending`).  `n` must
/// be a power of two.  Charges one lane op per compare-exchange, as each
/// exchange is one SIMT instruction on the device.
template <SortableView KS, SortableView IS>
void bitonic_merge(simgpu::BlockCtx& ctx, KS keys, IS idx, std::size_t lo,
                   std::size_t n, bool ascending,
                   KeyOrder<typename KS::value_type> ord = {}) {
  // Proxy views (SharedSpan) route every element access through the
  // sanitizer hook; when raw access is legal, run the same network over the
  // unwrapped spans so the inner compare-exchange loop stays tight.  The
  // charges below do not depend on the view type, so KernelStats are
  // identical either way.
  if constexpr (kProxyView<KS> || kProxyView<IS>) {
    const auto rk = raw_view(keys);
    const auto ri = raw_view(idx);
    if (!rk.empty() && !ri.empty()) {
      bitonic_merge(ctx, rk, ri, lo, n, ascending, ord);
      return;
    }
  }
  for (std::size_t stride = n / 2; stride > 0; stride /= 2) {
    for (std::size_t i = lo; i < lo + n; ++i) {
      if ((i - lo) & stride) continue;  // partner handled from lower index
      detail::compare_exchange(keys, idx, i, i + stride, ascending, ord);
    }
    ctx.ops(n / 2);
  }
}

/// Full bitonic sort network over `keys[lo, lo+n)` (ascending under `ord`
/// if `ascending`); `n` must be a power of two.  O(n log^2 n)
/// compare-exchanges, all charged as lane ops.
template <SortableView KS, SortableView IS>
void bitonic_sort(simgpu::BlockCtx& ctx, KS keys, IS idx, std::size_t lo,
                  std::size_t n, bool ascending = true,
                  KeyOrder<typename KS::value_type> ord = {}) {
  if constexpr (kProxyView<KS> || kProxyView<IS>) {
    const auto rk = raw_view(keys);
    const auto ri = raw_view(idx);
    if (!rk.empty() && !ri.empty()) {
      bitonic_sort(ctx, rk, ri, lo, n, ascending, ord);
      return;
    }
  }
  for (std::size_t size = 2; size <= n; size *= 2) {
    for (std::size_t chunk = lo; chunk < lo + n; chunk += size) {
      const bool dir = ascending == (((chunk - lo) / size) % 2 == 0);
      bitonic_merge(ctx, keys, idx, chunk, size, dir, ord);
    }
  }
}

/// Convenience overloads covering a whole view, ascending under `ord`.
template <SortableView KS, SortableView IS>
void bitonic_sort(simgpu::BlockCtx& ctx, KS keys, IS idx,
                  KeyOrder<typename KS::value_type> ord = {}) {
  bitonic_sort(ctx, keys, idx, 0, keys.size(), true, ord);
}

/// std::span form, kept so callers holding containers keep the implicit
/// container-to-span conversion (`bitonic_sort<float>(ctx, vec, ivec)`).
template <typename K>
void bitonic_sort(simgpu::BlockCtx& ctx, std::span<K> keys,
                  std::span<std::uint32_t> idx, KeyOrder<K> ord = {}) {
  bitonic_sort<std::span<K>, std::span<std::uint32_t>>(ctx, keys, idx, 0,
                                                       keys.size(), true, ord);
}

/// ---- Closed-form lane-op charges of the networks above ------------------
///
/// The warpfast fast path (docs/performance.md) replaces the network
/// *execution* with cheaper host-side data structures but must charge
/// BlockCounters exactly what the emulated network would.  The networks are
/// data-oblivious, so their charges are pure functions of the length; these
/// helpers are the single source of truth and are asserted against the
/// actual networks in partial_sort_test.
///
/// Lane ops charged by bitonic_merge over a length-n network.
constexpr std::uint64_t bitonic_merge_ops(std::size_t n) {
  std::uint64_t ops = 0;
  for (std::size_t stride = n / 2; stride > 0; stride /= 2) ops += n / 2;
  return ops;
}

/// Lane ops charged by bitonic_sort over a length-n network.
constexpr std::uint64_t bitonic_sort_ops(std::size_t n) {
  std::uint64_t ops = 0;
  for (std::size_t size = 2; size <= n; size *= 2) {
    ops += (n / size) * bitonic_merge_ops(size);
  }
  return ops;
}

/// Lane ops charged by merge_prune over two length-n lists.
constexpr std::uint64_t merge_prune_ops(std::size_t n) {
  return n + bitonic_merge_ops(n);
}

/// Stack-scratch bound of merge_prune's warpfast two-pointer fast path;
/// covers every selection-family capacity (kMaxSelectionK).  Longer lists
/// fall back to the exact network.
inline constexpr std::size_t kMergePruneScratch = 2048;

/// Merge-and-prune, the core partial-sorting step of WarpSelect and
/// Bitonic Top-K: `a` and `b` are both sorted ascending under `ord`, same
/// power-of-two length n.  Afterwards `a` holds the n first of the 2n
/// elements, sorted; `b` is clobbered.
///
/// Works by the classic trick: element-wise min/max of a[i] and b[n-1-i]
/// leaves the n first in `a` as a bitonic sequence, which one merge network
/// pass then sorts.
template <SortableView AK, SortableView AI, SortableView BK, SortableView BI>
void merge_prune(simgpu::BlockCtx& ctx, AK a_keys, AI a_idx, BK b_keys,
                 BI b_idx, KeyOrder<typename AK::value_type> ord = {}) {
  // Unwrap proxy views to raw spans when legal (see bitonic_merge) — this
  // is the hot inner loop of every queue/list merge in the WarpSelect
  // family.  unchecked_data() is all-or-nothing per block (one sanitizer
  // test), so a partial unwrap cannot happen in practice; the fallback
  // keeps the code correct if it ever does.
  if constexpr (kProxyView<AK> || kProxyView<AI> || kProxyView<BK> ||
                kProxyView<BI>) {
    const auto rak = raw_view(a_keys);
    const auto rai = raw_view(a_idx);
    const auto rbk = raw_view(b_keys);
    const auto rbi = raw_view(b_idx);
    if (!rak.empty() && !rai.empty() && !rbk.empty() && !rbi.empty()) {
      merge_prune(ctx, rak, rai, rbk, rbi, ord);
      return;
    }
  }
  using K = typename AK::value_type;
  using I = typename AI::value_type;
  const std::size_t n = a_keys.size();
  // Warpfast fast path: both inputs are ascending sorted, so the n smallest
  // of the union fall out of one two-pointer pass — no min/max exchange and
  // no merge network.  The network is data-oblivious, so its closed-form
  // charge (asserted against the real network in partial_sort_test) keeps
  // KernelStats and modeled time bit-identical.  Only the order of equal
  // keys can differ from the network's, which the result contract leaves
  // open; b's leftovers are documented clobbered either way.
  if (n <= kMergePruneScratch && ctx.warpfast_enabled()) {
    ctx.ops(merge_prune_ops(n));
    K ak[kMergePruneScratch];
    I ai[kMergePruneScratch];
    for (std::size_t i = 0; i < n; ++i) {
      ak[i] = a_keys[i];
      ai[i] = a_idx[i];
    }
    std::size_t i = 0;
    std::size_t j = 0;
    for (std::size_t t = 0; t < n; ++t) {
      // i, j < n for every step: each advances at most once per element
      // taken and only n elements are taken.  Ties keep the a side.
      const K bv = b_keys[j];
      const bool takeb = ord.less(bv, ak[i]);
      a_keys[t] = takeb ? bv : ak[i];
      a_idx[t] = takeb ? static_cast<I>(b_idx[j]) : ai[i];
      j += takeb ? 1 : 0;
      i += takeb ? 0 : 1;
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = n - 1 - i;
    const K av = a_keys[i];
    const K bv = b_keys[j];
    if (ord.less(bv, av)) {
      a_keys[i] = bv;
      b_keys[j] = av;
      const I ai = a_idx[i];
      const I bi = b_idx[j];
      a_idx[i] = bi;
      b_idx[j] = ai;
    }
  }
  ctx.ops(n);
  bitonic_merge(ctx, a_keys, a_idx, 0, n, /*ascending=*/true, ord);
}

/// std::span form (container-to-span convenience, as for bitonic_sort).
template <typename K>
void merge_prune(simgpu::BlockCtx& ctx, std::span<K> a_keys,
                 std::span<std::uint32_t> a_idx, std::span<K> b_keys,
                 std::span<std::uint32_t> b_idx, KeyOrder<K> ord = {}) {
  merge_prune<std::span<K>, std::span<std::uint32_t>, std::span<K>,
              std::span<std::uint32_t>>(ctx, a_keys, a_idx, b_keys, b_idx,
                                        ord);
}

/// Round up to the next power of two (minimum 1).
constexpr std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p *= 2;
  return p;
}

}  // namespace topk
