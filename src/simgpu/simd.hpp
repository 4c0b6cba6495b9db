#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

/// Host-side vector kernels for the emulator's warpfast scan path.  These are
/// pure compute helpers: they never touch BlockCounters, so they cannot
/// perturb KernelStats or modeled time — only wall clock.  Each entry point
/// dispatches once (cached cpuid probe) between a hand-written AVX-512 body
/// and a portable scalar fallback, so the library still builds and runs on
/// baseline x86-64 and non-x86 hosts.
///
/// Dispatch happens per call through a predictable branch rather than an
/// ifunc so the helpers stay header-only and work in static archives.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SIMGPU_SIMD_X86 1
// GCC 12's intrinsic headers self-initialize their "undefined" vectors
// (`__m512i __Y = __Y;`), which -Wall reports at every inlined use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#define SIMGPU_SIMD_X86 0
#endif

namespace simgpu::simd {

/// The unsigned word as wide as a 4- or 8-byte key: the type of a key-order
/// xor mask (topk::KeyOrder), which the masked helpers xor into every key.
template <typename T>
using KeyBits =
    std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

#if SIMGPU_SIMD_X86
[[nodiscard]] inline bool have_avx512f() {
  static const bool v = __builtin_cpu_supports("avx512f");
  return v;
}
#endif

/// The 32-bit key carriers the radix scan helpers (histogram_digits,
/// classify_digits) take: float and uint32.
template <typename T>
inline constexpr bool kRadixCarrier =
    std::is_same_v<T, float> || std::is_same_v<T, std::uint32_t>;

/// The monotone radix ordinal of a carrier key: for float the sign-flip map
/// of topk::RadixTraits<float>::to_radix (negative floats get all bits
/// flipped, the others the sign bit set; NaNs order by their bits), for
/// uint32 the key itself.
template <typename T>
  requires kRadixCarrier<T>
[[nodiscard]] inline std::uint32_t radix_ordinal(T x) {
  const auto b = std::bit_cast<std::uint32_t>(x);
  if constexpr (std::is_same_v<T, float>) {
    return (b & 0x80000000u) ? ~b : (b | 0x80000000u);
  } else {
    return b;
  }
}

/// The rule classify_digits applies to each key x of a tile.  With
/// o = radix_ordinal(x) ^ order and v = (o >> shift) & mask, x is *below*
/// when lo <= v < target and *equal* when v == target; every other key is
/// out.  An equal key is tagged with its next digit, (o >> tag_shift) &
/// tag_mask, a below key with kBelowTag.  Shifts are in [0, 31].
struct DigitRule {
  std::uint32_t order = 0;
  int shift = 0;
  std::uint32_t mask = ~std::uint32_t{0};
  std::uint32_t lo = 0;
  std::uint32_t target = 0;
  int tag_shift = 0;
  std::uint32_t tag_mask = 0;
};

/// The tag of a below key.  A rule's tag_mask leaves bit 31 clear, so no
/// equal key's tag can take this value.
inline constexpr std::uint32_t kBelowTag = ~std::uint32_t{0};

/// BucketSelect's interpolation bucket of `key`: d = (double(key) - lo) *
/// scale, truncated toward zero and clamped to [0, top].  Defined for every
/// d: a NaN d (a NaN key) gives 0, as does a negative one, and d >= top
/// (+inf included) gives top.  For a key in [lo, hi] with scale =
/// (top + 1) / (hi - lo) this is the clamped integer cast of d.
template <typename T>
[[nodiscard]] inline std::uint32_t interpolation_bucket(T key, double lo,
                                                        double scale,
                                                        std::uint32_t top) {
  const double d = (static_cast<double>(key) - lo) * scale;
  if (!(d >= 0.0)) return 0;
  return d >= static_cast<double>(top) ? top : static_cast<std::uint32_t>(d);
}

namespace detail {

inline void ce(std::uint64_t& x, std::uint64_t& y) {
  // Min/max selects rather than a conditional swap: the compare outcome is
  // data-dependent, so this must compile to cmovs.
  const std::uint64_t mn = x < y ? x : y;
  const std::uint64_t mx = x < y ? y : x;
  x = mn;
  y = mx;
}

/// Batcher odd-even 19-comparator sorting network for 8 elements.  Eight
/// uint64s fit the x86-64 integer register file, so unlike a monolithic
/// 32-element network (32 live values, heavy spilling) every exchange stays
/// register-resident.
inline void sort8_u64(std::uint64_t* v) {
  std::uint64_t a = v[0], b = v[1], c = v[2], d = v[3];
  std::uint64_t e = v[4], f = v[5], g = v[6], h = v[7];
  ce(a, b); ce(c, d); ce(e, f); ce(g, h);
  ce(a, c); ce(b, d); ce(e, g); ce(f, h);
  ce(b, c); ce(f, g); ce(a, e); ce(d, h);
  ce(b, f); ce(c, g);
  ce(b, e); ce(d, g);
  ce(c, e); ce(d, f);
  ce(d, e);
  v[0] = a; v[1] = b; v[2] = c; v[3] = d;
  v[4] = e; v[5] = f; v[6] = g; v[7] = h;
}

/// Branchless clamped-index merge of two sorted runs of length H into
/// dst[2H].  Ties prefer x, so equal pad entries (~0) drain in a stable
/// order and the cursors can never index past the clamp.
template <std::size_t H>
inline void merge_runs_u64(std::uint64_t* dst, const std::uint64_t* x,
                           const std::uint64_t* y) {
  std::size_t i = 0, j = 0;
  for (std::size_t t = 0; t < 2 * H; ++t) {
    const std::uint64_t xv = x[i < H ? i : H - 1];
    const std::uint64_t yv = y[j < H ? j : H - 1];
    const bool tx = (j >= H) | ((i < H) & (xv <= yv));
    dst[t] = tx ? xv : yv;
    i += tx ? 1 : 0;
    j += tx ? 0 : 1;
  }
}

/// Scalar sort16: two register-resident sort8 networks plus one branchless
/// binary merge (same construction as sort32 below, one level down).
inline void sort16_u64_scalar(std::uint64_t* v) {
  sort8_u64(v);
  sort8_u64(v + 8);
  std::uint64_t tmp[16];
  merge_runs_u64<8>(tmp, v, v + 8);
  for (std::size_t i = 0; i < 16; ++i) v[i] = tmp[i];
}

/// Portable bodies of count_below_f32, pack_below_f32 and
/// splitter_classes (see those for the contracts).  The scalar pack writes
/// (then overwrites) at the cursor branchlessly.
inline std::size_t count_below_f32_scalar(const float* p, std::size_t n,
                                          float threshold,
                                          std::uint32_t mask) {
  std::size_t below = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float key =
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(p[i]) ^ mask);
    below += static_cast<std::size_t>(key < threshold);
  }
  return below;
}

inline std::size_t pack_below_f32_scalar(const float* p,
                                         const std::uint32_t* ext_idx,
                                         std::uint32_t base_index,
                                         std::size_t n, float threshold,
                                         std::uint64_t* out,
                                         std::uint32_t mask) {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = std::bit_cast<std::uint32_t>(p[i]) ^ mask;
    const std::uint32_t ord = (b & 0x80000000u) ? ~b : (b | 0x80000000u);
    const std::uint32_t idx =
        ext_idx != nullptr ? ext_idx[i]
                           : base_index + static_cast<std::uint32_t>(i);
    out[m] = (static_cast<std::uint64_t>(ord) << 32) | idx;
    m += static_cast<std::size_t>(std::bit_cast<float>(b) < threshold);
  }
  return m;
}

/// The key of x under an order mask: x's bits xor `mask`.
template <typename T>
[[nodiscard]] inline T masked_key(T x, KeyBits<T> mask) {
  return std::bit_cast<T>(
      static_cast<KeyBits<T>>(std::bit_cast<KeyBits<T>>(x) ^ mask));
}

template <typename T>
inline void splitter_classes_scalar(const T* split, std::uint32_t first_step,
                                    std::span<const T> v, std::uint32_t* cls,
                                    KeyBits<T> mask) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    const T kv = masked_key(v[i], mask);
    std::uint32_t pos = 0;
    for (std::uint32_t step = first_step; step > 0; step /= 2) {
      pos += masked_key(split[pos + step - 1], mask) <= kv ? step : 0;
    }
    cls[i] = pos;
  }
}

/// Portable bodies of histogram_digits and classify_digits (see those for
/// the contracts).  The scalar classify writes (then overwrites) at the
/// cursor branchlessly.
template <typename T>
inline void histogram_digits_scalar(std::span<const T> keys,
                                    std::uint32_t order, int shift,
                                    std::uint32_t digit_mask,
                                    std::uint32_t* hist) {
  for (const T x : keys) {
    ++hist[((radix_ordinal(x) ^ order) >> shift) & digit_mask];
  }
}

template <typename T>
inline std::size_t classify_digits_scalar(std::span<const T> keys,
                                          const DigitRule& r,
                                          std::span<std::uint32_t> pos,
                                          std::span<std::uint32_t> tag) {
  std::size_t m = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t o = radix_ordinal(keys[i]) ^ r.order;
    const std::uint32_t v = (o >> r.shift) & r.mask;
    const bool below = v >= r.lo && v < r.target;
    pos[m] = static_cast<std::uint32_t>(i);
    tag[m] = below ? kBelowTag : (o >> r.tag_shift) & r.tag_mask;
    m += static_cast<std::size_t>(below || v == r.target);
  }
  return m;
}

/// Portable bodies of key_minmax, interpolation_buckets and radix_digits
/// (see those for the contracts).  The min/max fold keeps eight lanes of
/// bounds, so consecutive keys do not wait on each other's compare.
template <typename T>
inline void key_minmax_scalar(std::span<const T> keys, KeyBits<T> mask, T& lo,
                              T& hi) {
  constexpr std::size_t kLanes = 8;
  T lane_lo[kLanes];
  T lane_hi[kLanes];
  std::fill(lane_lo, lane_lo + kLanes, lo);
  std::fill(lane_hi, lane_hi + kLanes, hi);
  std::size_t i = 0;
  for (; i + kLanes <= keys.size(); i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      const T kv = masked_key(keys[i + j], mask);
      lane_lo[j] = std::min(lane_lo[j], kv);
      lane_hi[j] = std::max(lane_hi[j], kv);
    }
  }
  for (; i < keys.size(); ++i) {
    const T kv = masked_key(keys[i], mask);
    lo = std::min(lo, kv);
    hi = std::max(hi, kv);
  }
  for (std::size_t j = 0; j < kLanes; ++j) {
    lo = std::min(lo, lane_lo[j]);
    hi = std::max(hi, lane_hi[j]);
  }
}

template <typename T>
inline void interpolation_buckets_scalar(std::span<const T> keys,
                                         KeyBits<T> mask, double lo,
                                         double scale, std::uint32_t top,
                                         std::uint8_t* out) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        interpolation_bucket(masked_key(keys[i], mask), lo, scale, top));
  }
}

/// The ordinal a digit is cut from: radix_ordinal for a carrier key, the
/// key itself for a uint64 (a 64-bit radix key already in ordinal form).
template <typename T>
[[nodiscard]] inline KeyBits<T> digit_ordinal(T x) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    return x;
  } else {
    return radix_ordinal(x);
  }
}

template <typename T>
inline void radix_digits_scalar(std::span<const T> keys, KeyBits<T> order,
                                int shift, std::uint32_t digit_mask,
                                std::uint8_t* out) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        static_cast<std::uint32_t>((digit_ordinal(keys[i]) ^ order) >> shift) &
        digit_mask);
  }
}

/// Scalar sort32: four register-resident sort8 networks plus three
/// branchless binary merges.  ~1.6x faster than the monolithic bitonic
/// network, whose 32 live values spill every exchange through the stack.
inline void sort32_u64_scalar(std::uint64_t* v) {
  sort8_u64(v);
  sort8_u64(v + 8);
  sort8_u64(v + 16);
  sort8_u64(v + 24);
  std::uint64_t tmp[32];
  merge_runs_u64<8>(tmp, v, v + 8);
  merge_runs_u64<8>(tmp + 16, v + 16, v + 24);
  merge_runs_u64<16>(v, tmp, tmp + 16);
}

/// The merge-path split of merge_sorted_u64: how many of the first t
/// outputs of merging ascending runs a[0..an) and b[0..bn) come from b
/// (t <= an + bn).  Ties go to a; equal values are equal bit patterns, so
/// any split of a tie yields the same output.  A stream that starts here
/// and emits the next outputs depends on no other stream.
inline std::size_t merge_split(const std::uint64_t* a, std::size_t an,
                               const std::uint64_t* b, std::size_t bn,
                               std::size_t t) {
  std::size_t lo = t > an ? t - an : 0;
  std::size_t hi = t < bn ? t : bn;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool take = b[mid] < a[t - 1 - mid];
    lo = take ? mid + 1 : lo;
    hi = take ? hi : mid;
  }
  return lo;
}

/// One step of the portable merge: emit the smaller head of a[i..an) and
/// b[j..bn) and advance its cursor.  Clamp-then-select instead of
/// branching: the take side alternates data-dependently, so a branch would
/// mispredict about half the time.  Requires an, bn >= 1.
inline std::uint64_t merge_take(const std::uint64_t* a, std::size_t an,
                                const std::uint64_t* b, std::size_t bn,
                                std::size_t& i, std::size_t& j) {
  const std::uint64_t av = a[i < an ? i : an - 1];
  const std::uint64_t bv = b[j < bn ? j : bn - 1];
  const bool takeb = (i >= an) | ((j < bn) & (bv < av));
  j += takeb ? 1 : 0;
  i += takeb ? 0 : 1;
  return takeb ? bv : av;
}

/// Portable body of merge_sorted_u64 (see there for the contract).  One
/// two-pointer loop is a serial chain of about 10 cycles per output (each
/// cursor update waits on the compare of the loads it addresses), so a
/// merge of 32 or more outputs splits them at the middle diagonal into two
/// merge-path streams and interleaves their loops (four streams measured
/// slower inside the list update).  Requires an, bn >= 1.
inline void merge_sorted_u64_scalar(const std::uint64_t* a, std::size_t an,
                                    const std::uint64_t* b, std::size_t bn,
                                    std::uint64_t* out, std::size_t outn) {
  std::size_t i0 = 0;
  std::size_t j0 = 0;
  if (outn < 32) {
    for (std::size_t t = 0; t < outn; ++t) {
      out[t] = merge_take(a, an, b, bn, i0, j0);
    }
    return;
  }
  const std::size_t half = outn / 2;
  std::size_t j1 = merge_split(a, an, b, bn, half);
  std::size_t i1 = half - j1;
  for (std::size_t t = 0; t < half; ++t) {
    out[t] = merge_take(a, an, b, bn, i0, j0);
    out[half + t] = merge_take(a, an, b, bn, i1, j1);
  }
  // An odd outn leaves the second stream one output longer.
  if (outn % 2 != 0) out[outn - 1] = merge_take(a, an, b, bn, i1, j1);
}

#if SIMGPU_SIMD_X86

/// One intra-register bitonic stage: compare-exchange each lane with lane^j
/// (the permutation), keeping min or max per the stage's direction mask.
__attribute__((target("avx512f"))) inline __m512i ce_stage(__m512i v,
                                                           __m512i perm,
                                                           __mmask8 take_max) {
  const __m512i w = _mm512_permutexvar_epi64(perm, v);
  const __m512i mn = _mm512_min_epu64(v, w);
  const __m512i mx = _mm512_max_epu64(v, w);
  return _mm512_mask_mov_epi64(mn, take_max, mx);
}

/// Full bitonic sort-32 over four zmm registers of uint64 lanes.  Stages
/// with partner distance j < 8 are intra-register permute/min/max/blend
/// triples; j >= 8 stages are whole-register min/max pairs.  The blend
/// masks encode, per lane i, whether it keeps the max — i.e. whether bit j
/// of i is set XOR the subsequence at i is descending ((i & k) != 0).
__attribute__((target("avx512f"))) inline void sort32_u64_avx512(
    std::uint64_t* v) {
  const __m512i p1 = _mm512_setr_epi64(1, 0, 3, 2, 5, 4, 7, 6);
  const __m512i p2 = _mm512_setr_epi64(2, 3, 0, 1, 6, 7, 4, 5);
  const __m512i p4 = _mm512_setr_epi64(4, 5, 6, 7, 0, 1, 2, 3);
  __m512i z0 = _mm512_loadu_si512(v);
  __m512i z1 = _mm512_loadu_si512(v + 8);
  __m512i z2 = _mm512_loadu_si512(v + 16);
  __m512i z3 = _mm512_loadu_si512(v + 24);
  // k=2
  z0 = ce_stage(z0, p1, 0x66); z1 = ce_stage(z1, p1, 0x66);
  z2 = ce_stage(z2, p1, 0x66); z3 = ce_stage(z3, p1, 0x66);
  // k=4
  z0 = ce_stage(z0, p2, 0x3C); z1 = ce_stage(z1, p2, 0x3C);
  z2 = ce_stage(z2, p2, 0x3C); z3 = ce_stage(z3, p2, 0x3C);
  z0 = ce_stage(z0, p1, 0x5A); z1 = ce_stage(z1, p1, 0x5A);
  z2 = ce_stage(z2, p1, 0x5A); z3 = ce_stage(z3, p1, 0x5A);
  // k=8
  z0 = ce_stage(z0, p4, 0xF0); z1 = ce_stage(z1, p4, 0x0F);
  z2 = ce_stage(z2, p4, 0xF0); z3 = ce_stage(z3, p4, 0x0F);
  z0 = ce_stage(z0, p2, 0xCC); z1 = ce_stage(z1, p2, 0x33);
  z2 = ce_stage(z2, p2, 0xCC); z3 = ce_stage(z3, p2, 0x33);
  z0 = ce_stage(z0, p1, 0xAA); z1 = ce_stage(z1, p1, 0x55);
  z2 = ce_stage(z2, p1, 0xAA); z3 = ce_stage(z3, p1, 0x55);
  // k=16, j=8: cross-register, z0/z1 ascending, z2/z3 descending
  {
    const __m512i a = _mm512_min_epu64(z0, z1);
    const __m512i b = _mm512_max_epu64(z0, z1);
    z0 = a; z1 = b;
    const __m512i c = _mm512_max_epu64(z2, z3);
    const __m512i d = _mm512_min_epu64(z2, z3);
    z2 = c; z3 = d;
  }
  z0 = ce_stage(z0, p4, 0xF0); z1 = ce_stage(z1, p4, 0xF0);
  z2 = ce_stage(z2, p4, 0x0F); z3 = ce_stage(z3, p4, 0x0F);
  z0 = ce_stage(z0, p2, 0xCC); z1 = ce_stage(z1, p2, 0xCC);
  z2 = ce_stage(z2, p2, 0x33); z3 = ce_stage(z3, p2, 0x33);
  z0 = ce_stage(z0, p1, 0xAA); z1 = ce_stage(z1, p1, 0xAA);
  z2 = ce_stage(z2, p1, 0x55); z3 = ce_stage(z3, p1, 0x55);
  // k=32, j=16 then j=8: cross-register, all ascending
  {
    const __m512i a = _mm512_min_epu64(z0, z2);
    const __m512i b = _mm512_max_epu64(z0, z2);
    z0 = a; z2 = b;
    const __m512i c = _mm512_min_epu64(z1, z3);
    const __m512i d = _mm512_max_epu64(z1, z3);
    z1 = c; z3 = d;
  }
  {
    const __m512i a = _mm512_min_epu64(z0, z1);
    const __m512i b = _mm512_max_epu64(z0, z1);
    z0 = a; z1 = b;
    const __m512i c = _mm512_min_epu64(z2, z3);
    const __m512i d = _mm512_max_epu64(z2, z3);
    z2 = c; z3 = d;
  }
  z0 = ce_stage(z0, p4, 0xF0); z1 = ce_stage(z1, p4, 0xF0);
  z2 = ce_stage(z2, p4, 0xF0); z3 = ce_stage(z3, p4, 0xF0);
  z0 = ce_stage(z0, p2, 0xCC); z1 = ce_stage(z1, p2, 0xCC);
  z2 = ce_stage(z2, p2, 0xCC); z3 = ce_stage(z3, p2, 0xCC);
  z0 = ce_stage(z0, p1, 0xAA); z1 = ce_stage(z1, p1, 0xAA);
  z2 = ce_stage(z2, p1, 0xAA); z3 = ce_stage(z3, p1, 0xAA);
  _mm512_storeu_si512(v, z0);
  _mm512_storeu_si512(v + 8, z1);
  _mm512_storeu_si512(v + 16, z2);
  _mm512_storeu_si512(v + 24, z3);
}

/// Bitonic sort-16 over two zmm registers — sort32_u64_avx512 truncated one
/// level: the same intra-register stage schedule, one cross-register
/// min/max at k=16, and the final three clean-up stages.
__attribute__((target("avx512f"))) inline void sort16_u64_avx512(
    std::uint64_t* v) {
  const __m512i p1 = _mm512_setr_epi64(1, 0, 3, 2, 5, 4, 7, 6);
  const __m512i p2 = _mm512_setr_epi64(2, 3, 0, 1, 6, 7, 4, 5);
  const __m512i p4 = _mm512_setr_epi64(4, 5, 6, 7, 0, 1, 2, 3);
  __m512i z0 = _mm512_loadu_si512(v);
  __m512i z1 = _mm512_loadu_si512(v + 8);
  // k=2
  z0 = ce_stage(z0, p1, 0x66); z1 = ce_stage(z1, p1, 0x66);
  // k=4
  z0 = ce_stage(z0, p2, 0x3C); z1 = ce_stage(z1, p2, 0x3C);
  z0 = ce_stage(z0, p1, 0x5A); z1 = ce_stage(z1, p1, 0x5A);
  // k=8: z0 ascending, z1 descending
  z0 = ce_stage(z0, p4, 0xF0); z1 = ce_stage(z1, p4, 0x0F);
  z0 = ce_stage(z0, p2, 0xCC); z1 = ce_stage(z1, p2, 0x33);
  z0 = ce_stage(z0, p1, 0xAA); z1 = ce_stage(z1, p1, 0x55);
  // k=16, j=8: cross-register, both ascending
  {
    const __m512i a = _mm512_min_epu64(z0, z1);
    const __m512i b = _mm512_max_epu64(z0, z1);
    z0 = a; z1 = b;
  }
  z0 = ce_stage(z0, p4, 0xF0); z1 = ce_stage(z1, p4, 0xF0);
  z0 = ce_stage(z0, p2, 0xCC); z1 = ce_stage(z1, p2, 0xCC);
  z0 = ce_stage(z0, p1, 0xAA); z1 = ce_stage(z1, p1, 0xAA);
  _mm512_storeu_si512(v, z0);
  _mm512_storeu_si512(v + 8, z1);
}

/// The next 8-lane block of one merge stream: 8 entries from whichever of
/// a[ai..an) and b[bi..bn) has the smaller head, ~0-padded past the run's
/// end (an exhausted run's head reads as ~0, so once both are exhausted
/// the block is all pads and no memory is touched).  The side choice stays
/// a branch: it is mostly predictable, and a select would put the loads
/// it addresses on the cursor chain.  A full block is a plain load; the
/// masked load's merge into the pad vector would take a vector-port slot
/// from the merge network.  Requires an, bn >= 1.
__attribute__((target("avx512f"), always_inline)) inline __m512i
merge_next_block(const std::uint64_t* a, std::size_t an,
                 const std::uint64_t* b, std::size_t bn, std::size_t& ai,
                 std::size_t& bi) {
  const std::size_t arem = ai < an ? an - ai : 0;
  const std::size_t brem = bi < bn ? bn - bi : 0;
  const std::uint64_t ah = arem > 0 ? a[ai] : ~std::uint64_t{0};
  const std::uint64_t bh = brem > 0 ? b[bi] : ~std::uint64_t{0};
  const std::uint64_t* p;
  std::size_t rem;
  if (bh < ah) {
    p = b + bi;
    rem = brem;
    bi += 8;
  } else {
    p = a + (an - arem);
    rem = arem;
    ai += 8;
  }
  if (rem >= 8) return _mm512_loadu_si512(p);
  return _mm512_mask_loadu_epi64(_mm512_set1_epi64(-1),
                                 static_cast<__mmask8>((1u << rem) - 1u), p);
}

/// One 16-element bitonic merge step of a merge stream: `u` is the next
/// sorted block, `r` the stream's carry (its 8 largest so far, reversed).
/// Stores the low 8 of the union, sorted, at `out` and returns the new
/// reversed carry.  The three half-cleaner stages run on both halves at
/// once through two-source permutes — two permutes and one min/max pair per
/// stage, where a per-register stage needs a permute, a min, a max and a
/// blend for each half — and the final permutes fold the output
/// interleave and the next step's reversal into one shuffle each.
__attribute__((target("avx512f"), always_inline)) inline __m512i merge_step8(
    __m512i u, __m512i r, std::uint64_t* out) {
  const __m512i i4a = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i i4b = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
  const __m512i i2a = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i i2b = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  const __m512i i1a = _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14);
  const __m512i i1b = _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15);
  const __m512i lo8 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i hi8_rev = _mm512_setr_epi64(15, 7, 14, 6, 13, 5, 12, 4);
  // Low and high halves, each bitonic, every low entry <= every high one.
  __m512i mn = _mm512_min_epu64(u, r);
  __m512i mx = _mm512_max_epu64(u, r);
  __m512i x = _mm512_permutex2var_epi64(mn, i4a, mx);
  __m512i y = _mm512_permutex2var_epi64(mn, i4b, mx);
  mn = _mm512_min_epu64(x, y);
  mx = _mm512_max_epu64(x, y);
  x = _mm512_permutex2var_epi64(mn, i2a, mx);
  y = _mm512_permutex2var_epi64(mn, i2b, mx);
  mn = _mm512_min_epu64(x, y);
  mx = _mm512_max_epu64(x, y);
  x = _mm512_permutex2var_epi64(mn, i1a, mx);
  y = _mm512_permutex2var_epi64(mn, i1b, mx);
  mn = _mm512_min_epu64(x, y);
  mx = _mm512_max_epu64(x, y);
  _mm512_storeu_si512(out, _mm512_permutex2var_epi64(mn, lo8, mx));
  return _mm512_permutex2var_epi64(mn, hi8_rev, mx);
}

/// Vector body of merge_sorted_u64 (see below for the contract).  The
/// classic 8-lane register merge — keep an 8-element carry, load 8 from
/// the run with the smaller head, emit the low 8 of one 16-element bitonic
/// merge, keep the high 8 — in two independent streams: the output splits
/// at the merge-path diagonal `half`, and each stream starts at its own
/// split, so the two carry chains interleave instead of one waiting on the
/// other.  Emitted batches are a stream's smallest among everything it has
/// not loaded: any unloaded element is >= its run's head, and the low 8 of
/// the 16 in registers cannot contain an element above either head.  A
/// stream may load past its split; those entries are >= everything it
/// emits.  ~0 pads never reach the output while real entries remain, and
/// once both runs are exhausted an all-pad block flushes the carry, which
/// is how a full merge (outn == an + bn) emits its last 8.  Requires
/// an, bn >= 1 and outn % 8 == 0.
__attribute__((target("avx512f"))) inline void merge_sorted_u64_avx512(
    const std::uint64_t* a, std::size_t an, const std::uint64_t* b,
    std::size_t bn, std::uint64_t* out, std::size_t outn) {
  const __m512i rev = _mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const std::size_t half = outn / 16 * 8;
  std::size_t ai0 = 0;
  std::size_t bi0 = 0;
  std::size_t bi1 = merge_split(a, an, b, bn, half);
  std::size_t ai1 = half - bi1;
  __m512i r0 = _mm512_permutexvar_epi64(
      rev, merge_next_block(a, an, b, bn, ai0, bi0));
  __m512i r1 = _mm512_permutexvar_epi64(
      rev, merge_next_block(a, an, b, bn, ai1, bi1));
  for (std::size_t t = 0; t < half; t += 8) {
    const __m512i u0 = merge_next_block(a, an, b, bn, ai0, bi0);
    const __m512i u1 = merge_next_block(a, an, b, bn, ai1, bi1);
    r0 = merge_step8(u0, r0, out + t);
    r1 = merge_step8(u1, r1, out + half + t);
  }
  // An odd block count leaves the second stream one step longer.
  if (outn - half > half) {
    merge_step8(merge_next_block(a, an, b, bn, ai1, bi1), r1, out + 2 * half);
  }
}

/// Monotone float->uint32 ordinal map (sign-flip trick), vectorized:
/// ord = bits ^ (0x80000000 | (bits >> 31 arithmetic)).  Negative floats get
/// all bits flipped, non-negatives get the sign bit set.
__attribute__((target("avx512f"))) inline __m512i ord_f32_avx512(__m512 v) {
  const __m512i b = _mm512_castps_si512(v);
  const __m512i flip = _mm512_or_si512(_mm512_srai_epi32(b, 31),
                                       _mm512_set1_epi32(INT32_MIN));
  return _mm512_xor_si512(b, flip);
}

/// One 16-lane step of pack_below_f32: pack (ord << 32 | idx) for every lane
/// whose key is strictly below the threshold and compress-store the packed
/// candidates at `out`, preserving lane order.  Returns how many were kept.
__attribute__((target("avx512f"))) inline std::size_t pack_below16_avx512(
    __m512 v, __mmask16 livemask, __m512i idx, __m512 t, std::uint64_t* out) {
  const __mmask16 below =
      _mm512_mask_cmp_ps_mask(livemask, v, t, _CMP_LT_OQ);
  const __m512i ord = ord_f32_avx512(v);
  // Widen (ord, idx) pairs to u64 lanes: packed = ord << 32 | idx.
  const __m512i lo = _mm512_or_si512(
      _mm512_slli_epi64(
          _mm512_cvtepu32_epi64(_mm512_castsi512_si256(ord)), 32),
      _mm512_cvtepu32_epi64(_mm512_castsi512_si256(idx)));
  const __m512i hi = _mm512_or_si512(
      _mm512_slli_epi64(
          _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(ord, 1)), 32),
      _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(idx, 1)));
  const auto mlo = static_cast<__mmask8>(below);
  const auto mhi = static_cast<__mmask8>(below >> 8);
  _mm512_mask_compressstoreu_epi64(out, mlo, lo);
  std::size_t m = static_cast<std::size_t>(__builtin_popcount(mlo));
  _mm512_mask_compressstoreu_epi64(out + m, mhi, hi);
  m += static_cast<std::size_t>(__builtin_popcount(mhi));
  return m;
}

/// Fused threshold-filter + pack for one warp round (n <= 32 floats):
/// append (ord << 32 | index) for every key (bits xor `mask`) strictly below
/// `threshold` to `out`, in lane order, and return the candidate count.
/// Indices are ext_idx[u] when given, else base_index + u.
__attribute__((target("avx512f"))) inline std::size_t pack_below_f32_avx512(
    const float* p, const std::uint32_t* ext_idx, std::uint32_t base_index,
    std::size_t n, float threshold, std::uint64_t* out, std::uint32_t mask) {
  const __m512 t = _mm512_set1_ps(threshold);
  const __m512i xm = _mm512_set1_epi32(static_cast<int>(mask));
  const __m512i iota =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live =
        n - i >= 16 ? static_cast<__mmask16>(0xFFFF)
                    : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 v = _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(_mm512_maskz_loadu_ps(live, p + i)), xm));
    const __m512i idx =
        ext_idx != nullptr
            ? _mm512_maskz_loadu_epi32(live, ext_idx + i)
            : _mm512_add_epi32(
                  _mm512_set1_epi32(
                      static_cast<int>(base_index + static_cast<std::uint32_t>(i))),
                  iota);
    m += pack_below16_avx512(v, live, idx, t, out + m);
  }
  return m;
}

/// The radix ordinals of 16 carrier keys given as raw 32-bit lanes.
template <bool kFloat>
__attribute__((target("avx512f"))) inline __m512i ord_avx512(__m512i bits) {
  if constexpr (kFloat) {
    return ord_f32_avx512(_mm512_castsi512_ps(bits));
  } else {
    return bits;
  }
}

/// The 16 digits of keys p[0..16): ((ord ^ xm) >> sh) & dm, stored to
/// `out`; returns whether all 16 are equal.
template <bool kFloat, typename T>
__attribute__((target("avx512f"))) inline bool digit_group_avx512(
    const T* p, __m512i xm, __m128i sh, __m512i dm, std::uint32_t* out) {
  const __m512i ord = ord_avx512<kFloat>(_mm512_loadu_si512(p));
  const __m512i d =
      _mm512_and_si512(_mm512_srl_epi32(_mm512_xor_si512(ord, xm), sh), dm);
  _mm512_store_si512(out, d);
  const __m512i lane0 =
      _mm512_permutexvar_epi32(_mm512_setzero_si512(), d);
  return _mm512_cmpeq_epi32_mask(d, lane0) == 0xFFFF;
}

/// Vector body of histogram_digits: 16 keys per group through the ordinal
/// map, xor, shift and mask.  The bumps stay scalar (radix 256/2048 bins
/// alias too heavily for conflict-detection gathers to win) but never wait
/// on the digits just stored: group g is bumped while group g + 1's digits
/// are computed and stored, by which time g's store has left the store
/// buffer.  A group whose 16 digits are equal (every group of a pass whose
/// keys share the digit, as on radix-adversarial keys) adds 16 to its bin
/// at once instead of running a 16-deep chain of increments on it.  The
/// tail runs the scalar body.
template <bool kFloat, typename T>
__attribute__((target("avx512f"))) inline void histogram_digits_avx512(
    std::span<const T> keys, std::uint32_t order, int shift,
    std::uint32_t digit_mask, std::uint32_t* hist) {
  const __m512i xm = _mm512_set1_epi32(static_cast<int>(order));
  const __m512i dm = _mm512_set1_epi32(static_cast<int>(digit_mask));
  const __m128i sh = _mm_cvtsi32_si128(shift);
  alignas(64) std::uint32_t digits[2][16];
  const auto bump = [hist](const std::uint32_t* d, bool same) {
    if (same) {
      hist[d[0]] += 16;
      return;
    }
    for (std::size_t u = 0; u < 16; ++u) ++hist[d[u]];
  };
  const std::size_t groups = keys.size() / 16;
  if (groups > 0) {
    bool same = digit_group_avx512<kFloat>(keys.data(), xm, sh, dm, digits[0]);
    for (std::size_t g = 1; g < groups; ++g) {
      const bool next = digit_group_avx512<kFloat>(keys.data() + 16 * g, xm,
                                                   sh, dm, digits[g & 1]);
      bump(digits[(g - 1) & 1], same);
      same = next;
    }
    bump(digits[(groups - 1) & 1], same);
  }
  histogram_digits_scalar(keys.subspan(16 * groups), order, shift, digit_mask,
                          hist);
}

/// Vector body of classify_digits: 16 keys per iteration, the tail masked.
/// Survivor lanes (below or equal) are compressed in register and written
/// with a masked store of exactly their count, so nothing lands past them.
template <bool kFloat, typename T>
__attribute__((target("avx512f"))) inline std::size_t classify_digits_avx512(
    std::span<const T> keys, const DigitRule& r, std::uint32_t* pos,
    std::uint32_t* tag) {
  const __m512i om = _mm512_set1_epi32(static_cast<int>(r.order));
  const __m512i mask = _mm512_set1_epi32(static_cast<int>(r.mask));
  const __m512i lo = _mm512_set1_epi32(static_cast<int>(r.lo));
  const __m512i target = _mm512_set1_epi32(static_cast<int>(r.target));
  const __m512i tmask = _mm512_set1_epi32(static_cast<int>(r.tag_mask));
  const __m512i below_tag = _mm512_set1_epi32(static_cast<int>(kBelowTag));
  const __m128i sh = _mm_cvtsi32_si128(r.shift);
  const __m128i tsh = _mm_cvtsi32_si128(r.tag_shift);
  const __m512i iota =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const std::size_t n = keys.size();
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live =
        n - i >= 16 ? static_cast<__mmask16>(0xFFFF)
                    : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512i o = _mm512_xor_si512(
        ord_avx512<kFloat>(_mm512_maskz_loadu_epi32(live, &keys[i])), om);
    const __m512i v = _mm512_and_si512(_mm512_srl_epi32(o, sh), mask);
    const __mmask16 below = _mm512_mask_cmplt_epu32_mask(
        _mm512_mask_cmpge_epu32_mask(live, v, lo), v, target);
    const __mmask16 keep = static_cast<__mmask16>(
        below | _mm512_mask_cmpeq_epu32_mask(live, v, target));
    if (keep == 0) continue;
    const __m512i t = _mm512_mask_mov_epi32(
        _mm512_and_si512(_mm512_srl_epi32(o, tsh), tmask), below, below_tag);
    const __m512i at = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(i)), iota);
    const auto kept = static_cast<unsigned>(__builtin_popcount(keep));
    const auto out = static_cast<__mmask16>((1u << kept) - 1u);
    _mm512_mask_storeu_epi32(pos + m, out, _mm512_maskz_compress_epi32(keep, at));
    _mm512_mask_storeu_epi32(tag + m, out, _mm512_maskz_compress_epi32(keep, t));
    m += kept;
  }
  return m;
}

/// The live-lane mask of the 16-lane step at i of an n-lane loop.
[[nodiscard]] inline __mmask16 live16(std::size_t i, std::size_t n) {
  return n - i >= 16 ? static_cast<__mmask16>(0xFFFF)
                     : static_cast<__mmask16>((1u << (n - i)) - 1u);
}

/// Vector body of key_minmax for float keys (BucketSelect's carrier): one
/// 16-lane bound pair, each lane folded with min/max instructions, which
/// keep their second operand (the bound) when a compare is false, as
/// std::min and std::max do; then the lanes, in lane order.  Dead tail
/// lanes keep their bounds.
__attribute__((target("avx512f"))) inline void key_minmax_avx512(
    std::span<const float> keys, std::uint32_t mask, float& lo, float& hi) {
  const __m512i xm = _mm512_set1_epi32(static_cast<int>(mask));
  __m512 vlo = _mm512_set1_ps(lo);
  __m512 vhi = _mm512_set1_ps(hi);
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live = live16(i, n);
    const __m512 k = _mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_maskz_loadu_epi32(live, &keys[i]), xm));
    vlo = _mm512_mask_min_ps(vlo, live, k, vlo);
    vhi = _mm512_mask_max_ps(vhi, live, k, vhi);
  }
  alignas(64) float lane_lo[16];
  alignas(64) float lane_hi[16];
  _mm512_store_ps(lane_lo, vlo);
  _mm512_store_ps(lane_hi, vhi);
  for (std::size_t j = 0; j < 16; ++j) {
    lo = std::min(lo, lane_lo[j]);
    hi = std::max(hi, lane_hi[j]);
  }
}

/// Eight interpolation buckets: (key - lo) * scale in double, raised to 0
/// (max keeps its second operand, 0, for a NaN), lowered to top, then
/// truncated — interpolation_bucket's steps in its order.
__attribute__((target("avx512f"))) inline __m256i bucket8_avx512(
    __m512d key, __m512d lo, __m512d scale, __m512d top) {
  __m512d d = _mm512_mul_pd(_mm512_sub_pd(key, lo), scale);
  d = _mm512_max_pd(d, _mm512_setzero_pd());
  d = _mm512_min_pd(d, top);
  return _mm512_cvttpd_epi32(d);
}

/// Vector body of interpolation_buckets for float keys: 16 keys per step,
/// widened exactly to doubles in two halves; the tail is masked.
__attribute__((target("avx512f"))) inline void interpolation_buckets_avx512(
    std::span<const float> keys, std::uint32_t mask, double lo, double scale,
    std::uint32_t top, std::uint8_t* out) {
  const __m512i xm = _mm512_set1_epi32(static_cast<int>(mask));
  const __m512d vlo = _mm512_set1_pd(lo);
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vtop = _mm512_set1_pd(static_cast<double>(top));
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live = live16(i, n);
    const __m512i k =
        _mm512_xor_si512(_mm512_maskz_loadu_epi32(live, &keys[i]), xm);
    const __m512d k0 =
        _mm512_cvtps_pd(_mm256_castsi256_ps(_mm512_castsi512_si256(k)));
    const __m512d k1 =
        _mm512_cvtps_pd(_mm256_castsi256_ps(_mm512_extracti64x4_epi64(k, 1)));
    const __m512i b = _mm512_inserti64x4(
        _mm512_castsi256_si512(bucket8_avx512(k0, vlo, vscale, vtop)),
        bucket8_avx512(k1, vlo, vscale, vtop), 1);
    _mm512_mask_cvtepi32_storeu_epi8(out + i, live, b);
  }
}

/// Vector body of radix_digits for carrier keys: 16 keys per step through
/// the ordinal map, xor, shift and mask, narrowed to bytes; the tail is
/// masked.
template <bool kFloat, typename T>
__attribute__((target("avx512f"))) inline void radix_digits_avx512(
    std::span<const T> keys, std::uint32_t order, int shift,
    std::uint32_t digit_mask, std::uint8_t* out) {
  const __m512i xm = _mm512_set1_epi32(static_cast<int>(order));
  const __m512i dm = _mm512_set1_epi32(static_cast<int>(digit_mask));
  const __m128i sh = _mm_cvtsi32_si128(shift);
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live = live16(i, n);
    const __m512i o = _mm512_xor_si512(
        ord_avx512<kFloat>(_mm512_maskz_loadu_epi32(live, &keys[i])), xm);
    _mm512_mask_cvtepi32_storeu_epi8(
        out + i, live, _mm512_and_si512(_mm512_srl_epi32(o, sh), dm));
  }
}

__attribute__((target("avx512f"))) inline std::size_t count_below_f32_avx512(
    const float* p, std::size_t n, float threshold, std::uint32_t mask) {
  const __m512 t = _mm512_set1_ps(threshold);
  const __m512i xm = _mm512_set1_epi32(static_cast<int>(mask));
  std::size_t below = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_loadu_si512(p + i), xm));
    const __mmask16 m = _mm512_cmp_ps_mask(v, t, _CMP_LT_OQ);
    below += static_cast<std::size_t>(__builtin_popcount(m));
  }
  if (i < n) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 v = _mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_maskz_loadu_epi32(tail, p + i), xm));
    const __mmask16 m = _mm512_mask_cmp_ps_mask(tail, v, t, _CMP_LT_OQ);
    below += static_cast<std::size_t>(__builtin_popcount(m));
  }
  return below;
}

/// One probe of splitter_classes for 16 keys: which lanes' splitter at
/// index `at`, its bits xor `xm`, is <= the lane's key.  Keys travel as
/// 32-bit lanes, already masked.
template <bool kFloat, typename T>
__attribute__((target("avx512f"))) inline __mmask16 splitter_le(
    const T* split, __m512i at, __m512i key, __m512i xm) {
  const __m512i s = _mm512_xor_si512(_mm512_i32gather_epi32(at, split, 4), xm);
  if constexpr (kFloat) {
    // Ordered compare: false when either side is NaN, like C++ <=.
    return _mm512_cmp_ps_mask(_mm512_castsi512_ps(s), _mm512_castsi512_ps(key),
                              _CMP_LE_OQ);
  } else {
    return _mm512_cmple_epu32_mask(s, key);
  }
}

/// Vector body of splitter_classes.  Each probe is a gather that depends on
/// the previous one, so eight 16-key searches run interleaved to keep several
/// gathers in flight; the tail runs 16 keys at a time, lanes past n
/// searching with key 0 (their gather indices stay inside the table) and not
/// stored.
template <bool kFloat, typename T>
__attribute__((target("avx512f"))) inline void splitter_classes_avx512(
    const T* split, std::uint32_t first_step, const T* v, std::size_t n,
    std::uint32_t* cls, std::uint32_t mask) {
  constexpr int kGroups = 8;
  const __m512i xm = _mm512_set1_epi32(static_cast<int>(mask));
  std::size_t i = 0;
  for (; i + 16 * kGroups <= n; i += 16 * kGroups) {
    __m512i key[kGroups];
    __m512i pos[kGroups];
    for (int g = 0; g < kGroups; ++g) {
      key[g] = _mm512_xor_si512(_mm512_loadu_si512(v + i + 16 * g), xm);
      pos[g] = _mm512_setzero_si512();
    }
    for (std::uint32_t step = first_step; step > 0; step /= 2) {
      const __m512i back = _mm512_set1_epi32(static_cast<int>(step - 1));
      const __m512i stride = _mm512_set1_epi32(static_cast<int>(step));
      for (int g = 0; g < kGroups; ++g) {
        const __mmask16 le = splitter_le<kFloat>(
            split, _mm512_add_epi32(pos[g], back), key[g], xm);
        pos[g] = _mm512_mask_add_epi32(pos[g], le, pos[g], stride);
      }
    }
    for (int g = 0; g < kGroups; ++g) {
      _mm512_storeu_si512(cls + i + 16 * g, pos[g]);
    }
  }
  for (; i < n; i += 16) {
    const __mmask16 live =
        n - i >= 16 ? static_cast<__mmask16>(0xFFFF)
                    : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512i key =
        _mm512_xor_si512(_mm512_maskz_loadu_epi32(live, v + i), xm);
    __m512i pos = _mm512_setzero_si512();
    for (std::uint32_t step = first_step; step > 0; step /= 2) {
      const __mmask16 le = splitter_le<kFloat>(
          split,
          _mm512_add_epi32(pos, _mm512_set1_epi32(static_cast<int>(step - 1))),
          key, xm);
      pos = _mm512_mask_add_epi32(pos, le, pos,
                                  _mm512_set1_epi32(static_cast<int>(step)));
    }
    _mm512_mask_storeu_epi32(cls + i, live, pos);
  }
}

#endif  // SIMGPU_SIMD_X86

}  // namespace detail

/// Sort 32 uint64s ascending, in place.  Data-independent cost; pad short
/// batches with ~0 so pads sort to the tail.
inline void sort32_u64(std::uint64_t* v) {
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    detail::sort32_u64_avx512(v);
    return;
  }
#endif
  detail::sort32_u64_scalar(v);
}

/// Branch-free search of a sorted table of 2^probes - 1 splitters: for each
/// key v[i], cls[i] = its probe-sequence position, that is the number of
/// splitters <= v[i] (the binary search lo = 0, hi = 2^probes - 1,
/// mid = (lo + hi) / 2 makes exactly these probes, so the result matches it
/// even for an unsorted table).  `mask` is xor-ed into keys and splitters
/// alike before they compare.  A NaN key compares false at every probe and
/// gets 0.  Float and uint32 keys search 16 at a time, one gather per probe,
/// when the host has AVX-512; requires probes >= 1.
template <typename T>
inline void splitter_classes(const T* split, int probes, std::span<const T> v,
                             std::uint32_t* cls, KeyBits<T> mask = 0) {
  const std::uint32_t first_step = std::uint32_t{1} << (probes - 1);
#if SIMGPU_SIMD_X86
  if constexpr (std::is_same_v<T, float> || std::is_same_v<T, std::uint32_t>) {
    if (have_avx512f()) {
      detail::splitter_classes_avx512<std::is_same_v<T, float>>(
          split, first_step, v.data(), v.size(), cls, mask);
      return;
    }
  }
#endif
  detail::splitter_classes_scalar(split, first_step, v, cls, mask);
}

/// How many of p[0..n), their bits xor `mask`, are strictly below
/// `threshold` (float keys).
[[nodiscard]] inline std::size_t count_below_f32(const float* p, std::size_t n,
                                                 float threshold,
                                                 std::uint32_t mask = 0) {
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    return detail::count_below_f32_avx512(p, n, threshold, mask);
  }
#endif
  return detail::count_below_f32_scalar(p, n, threshold, mask);
}

/// Write the `outn` smallest of the union of two ascending-sorted uint64
/// runs a[0..an) and b[0..bn) into out[0..outn), ascending.  Requires
/// outn <= an + bn; `out` must not alias either input.  Equal values are
/// interchangeable bit patterns, so the result does not depend on which
/// body runs.  Both bodies split the output at merge-path diagonals into
/// independent streams; the vector body takes any outn that is a multiple
/// of 8, the portable one the rest.
inline void merge_sorted_u64(const std::uint64_t* a, std::size_t an,
                             const std::uint64_t* b, std::size_t bn,
                             std::uint64_t* out, std::size_t outn) {
  if (an == 0 || bn == 0) {
    const std::uint64_t* s = an == 0 ? b : a;
    for (std::size_t t = 0; t < outn; ++t) out[t] = s[t];
    return;
  }
#if SIMGPU_SIMD_X86
  if (outn % 8 == 0 && have_avx512f()) {
    detail::merge_sorted_u64_avx512(a, an, b, bn, out, outn);
    return;
  }
#endif
  detail::merge_sorted_u64_scalar(a, an, b, bn, out, outn);
}

/// Entries sort_u64 needs in each of its two buffers to sort n values.
[[nodiscard]] constexpr std::size_t sort_u64_room(std::size_t n) {
  return (n + 31) / 32 * 32;
}

namespace detail {

/// The body of sort_u64 (see there): `vector` runs the AVX-512 networks
/// (the caller checked have_avx512f), otherwise the portable ones.
inline void sort_u64_body(std::uint64_t* v, std::size_t n, std::uint64_t* tmp,
                          [[maybe_unused]] bool vector, std::size_t keep) {
  if (n <= 1) return;
  const std::size_t room = n <= 16 ? 16 : sort_u64_room(n);
  for (std::size_t i = n; i < room; ++i) v[i] = ~std::uint64_t{0};
#if SIMGPU_SIMD_X86
  if (vector && room == 16) {
    sort16_u64_avx512(v);
    return;
  }
#endif
  if (room == 16) {
    sort16_u64_scalar(v);
    return;
  }
  std::size_t passes = 0;
  for (std::size_t w = 32; w < room; w *= 2) ++passes;
  // Sort the chunks where an even number of passes leaves the result in v.
  std::uint64_t* src = v;
  std::uint64_t* dst = tmp;
  if (passes % 2 == 1) {
    for (std::size_t i = 0; i < room; ++i) tmp[i] = v[i];
    std::swap(src, dst);
  }
  for (std::size_t c = 0; c < room; c += 32) {
#if SIMGPU_SIMD_X86
    if (vector) {
      sort32_u64_avx512(src + c);
      continue;
    }
#endif
    sort32_u64_scalar(src + c);
  }
  for (std::size_t w = 32; w < room; w *= 2) {
    for (std::size_t lo = 0; lo < room; lo += 2 * w) {
      const std::size_t an = std::min(w, room - lo);
      const std::size_t bn = std::min(w, room - lo - an);
      if (bn == 0) {
        for (std::size_t i = 0; i < an; ++i) dst[lo + i] = src[lo + i];
        continue;
      }
      // The last pass is one merge; it writes only the first `keep`.
      const std::size_t outn =
          2 * w >= room ? std::min(keep, an + bn) : an + bn;
#if SIMGPU_SIMD_X86
      if (vector && outn % 8 == 0) {
        merge_sorted_u64_avx512(src + lo, an, src + lo + an, bn, dst + lo,
                                outn);
        continue;
      }
#endif
      merge_sorted_u64_scalar(src + lo, an, src + lo + an, bn, dst + lo, outn);
    }
    std::swap(src, dst);
  }
}

}  // namespace detail

/// Sort v[0..n) ascending with data-oblivious networks: sort32_u64 over
/// 32-entry chunks (the last one padded with ~0; one 16-entry network when
/// n <= 16), then pairwise merge_sorted_u64 passes until one run remains.
/// The last merge writes only the first `keep` (1 <= keep <= n; default
/// all), so v[0..keep) is the sorted prefix; a keep that is not a multiple
/// of 8 takes the portable merge there.  v and tmp must each hold
/// sort_u64_room(n) entries; v past the guaranteed prefix and tmp are
/// clobbered.
inline void sort_u64(std::uint64_t* v, std::size_t n, std::uint64_t* tmp,
                     std::size_t keep = ~std::size_t{0}) {
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    detail::sort_u64_body(v, n, tmp, true, keep);
    return;
  }
#endif
  detail::sort_u64_body(v, n, tmp, false, keep);
}

/// Radix-digit histogram over carrier keys: for each key x, bump
/// hist[((radix_ordinal(x) ^ order) >> shift) & digit_mask].  The
/// accumulation order is irrelevant to the result, so the vector and scalar
/// bodies are bit-identical.  The histogram passes of AIR and the radix pass
/// loop run it on their tile spans.
template <typename T>
  requires kRadixCarrier<T>
inline void histogram_digits(std::span<const T> keys, std::uint32_t order,
                             int shift, std::uint32_t digit_mask,
                             std::uint32_t* hist) {
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    detail::histogram_digits_avx512<std::is_same_v<T, float>>(
        keys, order, shift, digit_mask, hist);
    return;
  }
#endif
  detail::histogram_digits_scalar(keys, order, shift, digit_mask, hist);
}

/// One radix filter step over a tile of carrier keys: classify every key
/// under `rule` (see DigitRule) and write the position in `keys` and the
/// tag of each below or equal key to pos[] and tag[], in key order;
/// return how many were written.  pos and tag must hold keys.size()
/// entries; entries past the returned count may be overwritten.  NaN, ±0
/// and ±inf keys classify by their ordinals, like every other key.  Keys
/// go 16 at a time when the host has AVX-512.
template <typename T>
  requires kRadixCarrier<T>
[[nodiscard]] inline std::size_t classify_digits(std::span<const T> keys,
                                                 const DigitRule& rule,
                                                 std::span<std::uint32_t> pos,
                                                 std::span<std::uint32_t> tag) {
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    return detail::classify_digits_avx512<std::is_same_v<T, float>>(
        keys, rule, pos.data(), tag.data());
  }
#endif
  return detail::classify_digits_scalar(keys, rule, pos, tag);
}

/// Fold the keys of a tile into a running bound pair: lo = std::min(lo, kv)
/// and hi = std::max(hi, kv) for each key kv = x's bits xor `mask`.  A NaN
/// key fails both compares, so it never replaces a bound.  The bodies fold
/// in lanes and then fold the lanes, so where the smallest (largest) key is
/// a zero of both signs, the sign of lo (hi) may differ from a sequential
/// fold's; no other bit can.  Float keys go 16 at a time when the host has
/// AVX-512.
template <typename T>
inline void key_minmax(std::span<const T> keys, KeyBits<T> mask, T& lo,
                       T& hi) {
#if SIMGPU_SIMD_X86
  if constexpr (std::is_same_v<T, float>) {
    if (have_avx512f()) {
      detail::key_minmax_avx512(keys, mask, lo, hi);
      return;
    }
  }
#endif
  detail::key_minmax_scalar(keys, mask, lo, hi);
}

/// interpolation_bucket of every key of a tile, key = x's bits xor `mask`,
/// into out[0..keys.size()) (top <= 255).  Both bodies run the same double
/// arithmetic in the same order, so every input gets the scalar map's
/// bucket.  Float keys go 16 at a time when the host has AVX-512.
template <typename T>
inline void interpolation_buckets(std::span<const T> keys, KeyBits<T> mask,
                                  double lo, double scale, std::uint32_t top,
                                  std::uint8_t* out) {
#if SIMGPU_SIMD_X86
  if constexpr (std::is_same_v<T, float>) {
    if (have_avx512f()) {
      detail::interpolation_buckets_avx512(keys, mask, lo, scale, top, out);
      return;
    }
  }
#endif
  detail::interpolation_buckets_scalar(keys, mask, lo, scale, top, out);
}

/// The keys radix_digits takes: the carriers, and uint64 radix keys.
template <typename T>
inline constexpr bool kDigitKey =
    kRadixCarrier<T> || std::is_same_v<T, std::uint64_t>;

/// The 8-bit digit ((ord(x) ^ order) >> shift) & digit_mask of every key of
/// a tile into out[0..keys.size()): ord is radix_ordinal on a carrier key
/// and the identity on a uint64 radix key; digit_mask <= 255.  Carrier keys
/// go 16 at a time when the host has AVX-512.
template <typename T>
  requires kDigitKey<T>
inline void radix_digits(std::span<const T> keys, KeyBits<T> order, int shift,
                         std::uint32_t digit_mask, std::uint8_t* out) {
#if SIMGPU_SIMD_X86
  if constexpr (kRadixCarrier<T>) {
    if (have_avx512f()) {
      detail::radix_digits_avx512<std::is_same_v<T, float>>(
          keys, order, shift, digit_mask, out);
      return;
    }
  }
#endif
  detail::radix_digits_scalar(keys, order, shift, digit_mask, out);
}

/// A 256-bin histogram kept as four interleaved copies of the bins (4 KiB):
/// key u of a 16-key group bumps copy u % 4 of its bin, so a run of keys in
/// one hot bin makes four independent chains of increments instead of one
/// (each increment of a bin otherwise waits for the store of the one
/// before).  A group whose 16 keys share a bin adds 16 to one copy.  Lives
/// on a block's stack; fold_into sums the copies into the block's shared
/// histogram once.
class SplitCounts256 {
 public:
  static constexpr std::size_t kBins = 256;

  /// Count one key in bin b for each b of `bins`.
  void add(std::span<const std::uint8_t> bins) {
    const std::uint8_t* b = bins.data();
    const std::size_t groups = bins.size() / 16;
    for (std::size_t g = 0; g < groups; ++g, b += 16) {
      std::uint64_t w0;
      std::uint64_t w1;
      std::memcpy(&w0, b, 8);
      std::memcpy(&w1, b + 8, 8);
      if (w0 == w1 && w0 == 0x0101010101010101ull * b[0]) {
        c_[4 * b[0]] += 16;
        continue;
      }
      for (std::size_t u = 0; u < 16; u += 4) {
        ++c_[4 * b[u]];
        ++c_[4 * b[u + 1] + 1];
        ++c_[4 * b[u + 2] + 2];
        ++c_[4 * b[u + 3] + 3];
      }
    }
    for (std::size_t u = 16 * groups; u < bins.size(); ++u) {
      ++c_[4 * bins[u] + u % 4];
    }
  }

  /// add() of the radix_digits of `keys`.
  template <typename T>
    requires kDigitKey<T>
  void add_digits(std::span<const T> keys, KeyBits<T> order, int shift,
                  std::uint32_t digit_mask) {
    constexpr std::size_t kChunk = 1024;
    std::uint8_t digits[kChunk];
    for (std::size_t i = 0; i < keys.size(); i += kChunk) {
      const std::span<const T> part =
          keys.subspan(i, std::min(kChunk, keys.size() - i));
      radix_digits(part, order, shift, digit_mask, digits);
      add({digits, part.size()});
    }
  }

  /// hist[b] += the count of bin b, for b < hist.size() (at most kBins;
  /// no key may have been counted in a bin past it).
  void fold_into(std::span<std::uint32_t> hist) const {
    for (std::size_t b = 0; b < hist.size(); ++b) {
      hist[b] += c_[4 * b] + c_[4 * b + 1] + c_[4 * b + 2] + c_[4 * b + 3];
    }
  }

 private:
  alignas(64) std::uint32_t c_[4 * kBins] = {};
};

/// Filter-and-pack one warp round of float keys: with key = p[i]'s bits
/// xor `mask`, write (ord(key) << 32 | index) to out[] for each key strictly
/// below `threshold`, preserving lane order, and return the count.  `ord`
/// is the same monotone sign-flip map as topk::RadixTraits<float>::to_radix.
/// Indices are ext_idx[u] when non-null, else base_index + u.  `out` must
/// hold n slots; the scalar fallback writes (then overwrites) at the cursor
/// branchlessly, so slots beyond the returned count may hold garbage.
inline std::size_t pack_below_f32(const float* p, const std::uint32_t* ext_idx,
                                  std::uint32_t base_index, std::size_t n,
                                  float threshold, std::uint64_t* out,
                                  std::uint32_t mask = 0) {
#if SIMGPU_SIMD_X86
  if (have_avx512f())
    return detail::pack_below_f32_avx512(p, ext_idx, base_index, n, threshold,
                                         out, mask);
#endif
  return detail::pack_below_f32_scalar(p, ext_idx, base_index, n, threshold,
                                       out, mask);
}

}  // namespace simgpu::simd
