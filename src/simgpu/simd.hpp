#pragma once

#include <cstddef>
#include <cstdint>

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

#if SIMGPU_SIMD_X86
[[nodiscard]] inline bool have_avx512f() {
  static const bool v = __builtin_cpu_supports("avx512f");
  return v;
}
#endif

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
/// outn % 8 == 0, outn <= an, bn >= 1; b's ragged tail is loaded with
/// ~0-padding, and pads can never be emitted because the union holds at
/// least outn real elements.
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
  for (std::size_t t = 0; t < outn; t += 8) {
    // One side always has a block left: the loop consumes t + 16 lanes
    // through iteration t and an + 8 * ceil(bn / 8) >= outn + 8.
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
/// append (ord << 32 | index) for every key strictly below `threshold` to
/// `out`, in lane order, and return the candidate count.  Indices are
/// ext_idx[u] when given, else base_index + u.
__attribute__((target("avx512f"))) inline std::size_t pack_below_f32_avx512(
    const float* p, const std::uint32_t* ext_idx, std::uint32_t base_index,
    std::size_t n, float threshold, std::uint64_t* out) {
  const __m512 t = _mm512_set1_ps(threshold);
  const __m512i iota =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live =
        n - i >= 16 ? static_cast<__mmask16>(0xFFFF)
                    : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 v = _mm512_maskz_loadu_ps(live, p + i);
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

/// Vector body of histogram_digits_f32: 16 keys per iteration through the
/// ordinal map, xor, shift and mask; the 16 digits spill to a stack array and
/// the histogram bumps stay scalar (radix 256/2048 bins alias too heavily for
/// conflict-detection gathers to win).
__attribute__((target("avx512f"))) inline void histogram_digits_f32_avx512(
    const float* p, std::size_t n, std::uint32_t xor_mask, int shift,
    std::uint32_t digit_mask, std::uint32_t* hist) {
  const __m512i xm = _mm512_set1_epi32(static_cast<int>(xor_mask));
  const __m512i dm = _mm512_set1_epi32(static_cast<int>(digit_mask));
  const __m128i sh = _mm_cvtsi32_si128(shift);
  alignas(64) std::uint32_t digits[16];
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i ord = ord_f32_avx512(_mm512_loadu_ps(p + i));
    const __m512i d = _mm512_and_si512(
        _mm512_srl_epi32(_mm512_xor_si512(ord, xm), sh), dm);
    _mm512_store_si512(digits, d);
    for (std::size_t u = 0; u < 16; ++u) ++hist[digits[u]];
  }
  for (; i < n; ++i) {
    std::uint32_t b;
    __builtin_memcpy(&b, p + i, sizeof(b));
    const std::uint32_t ord = (b & 0x80000000u) ? ~b : (b | 0x80000000u);
    ++hist[((ord ^ xor_mask) >> shift) & digit_mask];
  }
}

__attribute__((target("avx512f"))) inline std::size_t count_below_f32_avx512(
    const float* p, std::size_t n, float threshold) {
  const __m512 t = _mm512_set1_ps(threshold);
  std::size_t below = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 m = _mm512_cmp_ps_mask(_mm512_loadu_ps(p + i), t, _CMP_LT_OQ);
    below += static_cast<std::size_t>(__builtin_popcount(m));
  }
  if (i < n) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 v = _mm512_maskz_loadu_ps(tail, p + i);
    const __mmask16 m = _mm512_mask_cmp_ps_mask(tail, v, t, _CMP_LT_OQ);
    below += static_cast<std::size_t>(__builtin_popcount(m));
  }
  return below;
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

/// How many of p[0..n) are strictly below `threshold` (float keys).
[[nodiscard]] inline std::size_t count_below_f32(const float* p, std::size_t n,
                                                 float threshold) {
#if SIMGPU_SIMD_X86
  if (have_avx512f()) return detail::count_below_f32_avx512(p, n, threshold);
#endif
  std::size_t below = 0;
  for (std::size_t i = 0; i < n; ++i)
    below += static_cast<std::size_t>(p[i] < threshold);
  return below;
}

/// Write the `outn` smallest of the union of two ascending-sorted uint64
/// runs a[0..an) and b[0..bn) into out[0..outn), ascending.  Requires
/// outn <= an + bn; `out` must not alias either input.  Equal values are
/// interchangeable bit patterns, so the result does not depend on which
/// body runs.
inline void merge_sorted_u64(const std::uint64_t* a, std::size_t an,
                             const std::uint64_t* b, std::size_t bn,
                             std::uint64_t* out, std::size_t outn) {
  if (an == 0 || bn == 0) {
    const std::uint64_t* s = an == 0 ? b : a;
    for (std::size_t t = 0; t < outn; ++t) out[t] = s[t];
    return;
  }
#if SIMGPU_SIMD_X86
  if (an % 8 == 0 && outn % 8 == 0 && outn <= an && have_avx512f()) {
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

/// Radix-digit histogram over float keys: for each of p[0..n), bump
/// hist[((ord(key) ^ xor_mask) >> shift) & digit_mask], where `ord` is the
/// same monotone sign-flip map as topk::RadixTraits<float>::to_radix.  The
/// accumulation order is irrelevant to the result, so the vector and scalar
/// bodies are bit-identical.  Used by the histogram passes of the AIR /
/// RadixSelect families on their contiguous input tiles.
inline void histogram_digits_f32(const float* p, std::size_t n,
                                 std::uint32_t xor_mask, int shift,
                                 std::uint32_t digit_mask,
                                 std::uint32_t* hist) {
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    detail::histogram_digits_f32_avx512(p, n, xor_mask, shift, digit_mask,
                                        hist);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t b;
    __builtin_memcpy(&b, p + i, sizeof(b));
    const std::uint32_t ord = (b & 0x80000000u) ? ~b : (b | 0x80000000u);
    ++hist[((ord ^ xor_mask) >> shift) & digit_mask];
  }
}

/// Filter-and-pack one warp round of float keys: write
/// (ord(key) << 32 | index) to out[] for each key strictly below
/// `threshold`, preserving lane order, and return the count.  `ord` is the
/// same monotone sign-flip map as topk::RadixTraits<float>::to_radix.
/// Indices are ext_idx[u] when non-null, else base_index + u.  `out` must
/// hold n slots; the scalar fallback writes (then overwrites) at the cursor
/// branchlessly, so slots beyond the returned count may hold garbage.
inline std::size_t pack_below_f32(const float* p, const std::uint32_t* ext_idx,
                                  std::uint32_t base_index, std::size_t n,
                                  float threshold, std::uint64_t* out) {
#if SIMGPU_SIMD_X86
  if (have_avx512f())
    return detail::pack_below_f32_avx512(p, ext_idx, base_index, n, threshold,
                                         out);
#endif
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t b;
    __builtin_memcpy(&b, p + i, sizeof(b));
    const std::uint32_t ord = (b & 0x80000000u) ? ~b : (b | 0x80000000u);
    const std::uint32_t idx =
        ext_idx != nullptr ? ext_idx[i]
                           : base_index + static_cast<std::uint32_t>(i);
    out[m] = (static_cast<std::uint64_t>(ord) << 32) | idx;
    m += static_cast<std::size_t>(p[i] < threshold);
  }
  return m;
}

}  // namespace simgpu::simd
