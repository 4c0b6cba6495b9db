#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

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
#include <immintrin.h>
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

template <typename T>
inline void splitter_classes_scalar(const T* split, std::uint32_t first_step,
                                    std::span<const T> v, std::uint32_t* cls,
                                    KeyBits<T> mask) {
  using Bits = KeyBits<T>;
  const auto key = [mask](T x) {
    return std::bit_cast<T>(static_cast<Bits>(std::bit_cast<Bits>(x) ^ mask));
  };
  for (std::size_t i = 0; i < v.size(); ++i) {
    const T kv = key(v[i]);
    std::uint32_t pos = 0;
    for (std::uint32_t step = first_step; step > 0; step /= 2) {
      pos += key(split[pos + step - 1]) <= kv ? step : 0;
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

/// Load 8 uint64 lanes from p, padding lanes past `rem` with ~0 so pads
/// sort to the tail of any merge they enter.
__attribute__((target("avx512f"))) inline __m512i load8_pad_u64(
    const std::uint64_t* p, std::size_t rem) {
  if (rem >= 8) return _mm512_loadu_si512(p);
  return _mm512_mask_loadu_epi64(
      _mm512_set1_epi64(-1), static_cast<__mmask8>((1u << rem) - 1u), p);
}

/// Vector body of merge_sorted_u64 (see below for the contract).  The
/// classic 8-lane register merge: keep an 8-element carry `v`, and per
/// iteration load 8 from whichever run has the smaller head, run one
/// 16-element bitonic merge step (reverse + min/max + three cleanup
/// stages per half), emit the low 8, keep the high 8 as the new carry.
/// Emitted batches are globally smallest among everything unloaded: any
/// unloaded element is >= its run's head, and the low 8 of the 16 in
/// registers cannot contain an element above either head (that would
/// force 9 elements below it into the low half).  Requires an % 8 == 0,
/// outn % 8 == 0, bn >= 1, and either outn <= an (b's ragged tail is loaded
/// with ~0-padding, and pads can never be emitted because the union holds
/// at least outn real elements) or a full merge: bn % 8 == 0 and
/// outn == an + bn.  A full merge has no block left to load for its last 8
/// outputs; they are the final carry, the 8 largest, already sorted.
__attribute__((target("avx512f"))) inline void merge_sorted_u64_avx512(
    const std::uint64_t* a, std::size_t an, const std::uint64_t* b,
    std::size_t bn, std::uint64_t* out, std::size_t outn) {
  const __m512i rev = _mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i p1 = _mm512_setr_epi64(1, 0, 3, 2, 5, 4, 7, 6);
  const __m512i p2 = _mm512_setr_epi64(2, 3, 0, 1, 6, 7, 4, 5);
  const __m512i p4 = _mm512_setr_epi64(4, 5, 6, 7, 0, 1, 2, 3);
  std::size_t ai = 0;
  std::size_t bi = 0;
  __m512i v;
  if (b[0] < a[0]) {
    v = load8_pad_u64(b, bn);
    bi = 8;
  } else {
    v = _mm512_loadu_si512(a);
    ai = 8;
  }
  const std::size_t loaded_out = outn == an + bn ? outn - 8 : outn;
  for (std::size_t t = 0; t < loaded_out; t += 8) {
    // One side always has a block left: the loop consumes t + 16 lanes
    // through iteration t, and either an + 8 * ceil(bn / 8) >= outn + 8 or
    // the loop stops one block early (full merge).
    const bool from_b = (bi < bn) && (ai >= an || b[bi] < a[ai]);
    __m512i u;
    if (from_b) {
      u = load8_pad_u64(b + bi, bn - bi);
      bi += 8;
    } else {
      u = _mm512_loadu_si512(a + ai);
      ai += 8;
    }
    const __m512i r = _mm512_permutexvar_epi64(rev, v);
    __m512i lo = _mm512_min_epu64(u, r);
    __m512i hi = _mm512_max_epu64(u, r);
    lo = ce_stage(lo, p4, 0xF0);
    hi = ce_stage(hi, p4, 0xF0);
    lo = ce_stage(lo, p2, 0xCC);
    hi = ce_stage(hi, p2, 0xCC);
    lo = ce_stage(lo, p1, 0xAA);
    hi = ce_stage(hi, p1, 0xAA);
    _mm512_storeu_si512(out + t, lo);
    v = hi;
  }
  if (loaded_out != outn) _mm512_storeu_si512(out + loaded_out, v);
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

/// Sort 16 uint64s ascending, in place.  Data-independent cost; pad short
/// batches with ~0 so pads sort to the tail.
inline void sort16_u64(std::uint64_t* v) {
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    detail::sort16_u64_avx512(v);
    return;
  }
#endif
  detail::sort16_u64_scalar(v);
}

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
/// body runs.  The vector body covers a-prefix merges (outn <= an) and
/// full merges (outn == an + bn) of 8-aligned runs.
inline void merge_sorted_u64(const std::uint64_t* a, std::size_t an,
                             const std::uint64_t* b, std::size_t bn,
                             std::uint64_t* out, std::size_t outn) {
  if (an == 0 || bn == 0) {
    const std::uint64_t* s = an == 0 ? b : a;
    for (std::size_t t = 0; t < outn; ++t) out[t] = s[t];
    return;
  }
#if SIMGPU_SIMD_X86
  if (an % 8 == 0 && outn % 8 == 0 &&
      (outn <= an || (bn % 8 == 0 && outn == an + bn)) && have_avx512f()) {
    detail::merge_sorted_u64_avx512(a, an, b, bn, out, outn);
    return;
  }
#endif
  // Clamp-then-select instead of branching on the exhausted sides: the
  // take side alternates data-dependently, so a conditional branch here
  // would mispredict about half the time and dominate the loop.
  const std::size_t imax = an - 1;
  const std::size_t jmax = bn - 1;
  std::size_t i = 0;
  std::size_t j = 0;
  for (std::size_t t = 0; t < outn; ++t) {
    const std::uint64_t av = a[i < an ? i : imax];
    const std::uint64_t bv = b[j < bn ? j : jmax];
    const bool takeb = (i >= an) | ((j < bn) & (bv < av));
    out[t] = takeb ? bv : av;
    j += takeb ? 1 : 0;
    i += takeb ? 0 : 1;
  }
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
