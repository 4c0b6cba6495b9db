// Unit tests for the host-side SIMD helpers behind the warpfast scan path
// (simgpu/simd.hpp).  Each dispatcher is checked against an independent
// reference, and — when the host supports AVX-512F — the vector body is
// additionally checked against the portable scalar fallback so both halves
// of the runtime dispatch stay in agreement.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "simgpu/simd.hpp"

namespace simgpu::simd {
namespace {

std::uint32_t ref_ord(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return (b & 0x80000000u) ? ~b : (b | 0x80000000u);
}

TEST(Sort32, MatchesStdSortAcrossRandomBatches) {
  std::mt19937_64 rng(0x5017);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint64_t v[32];
    for (auto& x : v) x = rng();
    // Mix in duplicates and the ~0 pad value short batches use.
    if (trial % 3 == 0) {
      for (int i = 0; i < 8; ++i) v[(trial + i * 5) % 32] = v[trial % 32];
    }
    if (trial % 4 == 0) {
      for (int i = 28; i < 32; ++i) v[i] = ~std::uint64_t{0};
    }
    std::uint64_t expect[32];
    std::copy(std::begin(v), std::end(v), std::begin(expect));
    std::sort(std::begin(expect), std::end(expect));
    sort32_u64(v);
    EXPECT_TRUE(std::equal(std::begin(v), std::end(v), std::begin(expect)))
        << "trial " << trial;
  }
}

TEST(Sort32, ScalarFallbackMatchesStdSort) {
  std::mt19937_64 rng(0xFA11);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint64_t v[32];
    for (auto& x : v) x = rng() % (trial % 7 == 0 ? 16 : ~std::uint64_t{0});
    std::uint64_t expect[32];
    std::copy(std::begin(v), std::end(v), std::begin(expect));
    std::sort(std::begin(expect), std::end(expect));
    detail::sort32_u64_scalar(v);
    EXPECT_TRUE(std::equal(std::begin(v), std::end(v), std::begin(expect)))
        << "trial " << trial;
  }
}

TEST(CountBelow, MatchesScalarLoopAtEveryLength) {
  std::mt19937_64 rng(0xC0DE);
  std::normal_distribution<float> dist(0.0f, 2.0f);
  for (std::size_t n = 0; n <= 67; ++n) {  // covers empty, tails, 4x16 + tail
    std::vector<float> v(n);
    for (auto& x : v) x = dist(rng);
    if (n > 3) v[n / 2] = v[0];  // exact duplicate of a potential threshold
    for (const float threshold :
         {0.0f, v.empty() ? 1.0f : v[0], -1.5f,
          std::numeric_limits<float>::infinity()}) {
      std::size_t expect = 0;
      for (float x : v) expect += static_cast<std::size_t>(x < threshold);
      EXPECT_EQ(count_below_f32(v.data(), n, threshold), expect)
          << "n=" << n << " threshold=" << threshold;
    }
  }
}

TEST(CountBelow, StrictCompareExcludesEqualAndNan) {
  const float v[] = {1.0f, 2.0f, 2.0f, std::numeric_limits<float>::quiet_NaN(),
                     -2.0f, 3.0f};
  // Strictly-below 2.0: only 1.0 and -2.0.  NaN compares false (ordered
  // compare in the vector body, IEEE semantics in the scalar one).
  EXPECT_EQ(count_below_f32(v, 6, 2.0f), 2u);
}

TEST(PackBelow, PacksOrdinalsAndIndicesInLaneOrder) {
  std::mt19937_64 rng(0xBE10);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (std::size_t n = 0; n <= 32; ++n) {
    std::vector<float> v(n);
    for (auto& x : v) x = dist(rng);
    if (n > 2) v[1] = 0.25f;  // equal-to-threshold lane must be excluded
    const float threshold = 0.25f;

    std::vector<std::uint64_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] < threshold) {
        expect.push_back((static_cast<std::uint64_t>(ref_ord(v[i])) << 32) |
                         (1000u + static_cast<std::uint32_t>(i)));
      }
    }
    std::vector<std::uint64_t> out(n + 1, 0xAAu);
    const std::size_t m =
        pack_below_f32(v.data(), nullptr, 1000u, n, threshold, out.data());
    ASSERT_EQ(m, expect.size()) << "n=" << n;
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out.begin()))
        << "n=" << n;
  }
}

TEST(PackBelow, UsesExternalIndicesWhenGiven) {
  const float v[] = {-3.0f, 5.0f, -1.0f, 0.0f};
  const std::uint32_t idx[] = {70u, 71u, 72u, 73u};
  std::uint64_t out[4];
  const std::size_t m = pack_below_f32(v, idx, 0u, 4, 0.0f, out);
  ASSERT_EQ(m, 2u);
  EXPECT_EQ(static_cast<std::uint32_t>(out[0]), 70u);
  EXPECT_EQ(static_cast<std::uint32_t>(out[1]), 72u);
  EXPECT_EQ(static_cast<std::uint32_t>(out[0] >> 32), ref_ord(-3.0f));
  EXPECT_EQ(static_cast<std::uint32_t>(out[1] >> 32), ref_ord(-1.0f));
}

TEST(MergeSorted, KeepsSmallestOfUnionAcrossShapes) {
  std::mt19937_64 rng(0x4E46);
  for (int trial = 0; trial < 1500; ++trial) {
    // Cover the vector-path shape (an % 8 == 0, outn == an) and ragged
    // scalar shapes, with b lengths crossing the 8-lane tail handling.
    const std::size_t an = trial % 2 == 0 ? 8 * (1 + rng() % 40)
                                          : 1 + rng() % 300;
    const std::size_t bn = 1 + rng() % 41;
    const std::size_t outn = trial % 3 == 0
                                 ? std::min<std::size_t>(an, 8 * (rng() % 5))
                                 : an;
    std::vector<std::uint64_t> a(an), b(bn);
    for (auto& x : a) x = rng() % 512;  // force duplicates within and across
    for (auto& x : b) x = rng() % 512;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<std::uint64_t> expect;
    expect.reserve(an + bn);
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(expect));
    expect.resize(outn);
    std::vector<std::uint64_t> out(outn + 1, 0x5EEDu);
    merge_sorted_u64(a.data(), an, b.data(), bn, out.data(), outn);
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(), out.begin()))
        << "trial " << trial << " an=" << an << " bn=" << bn
        << " outn=" << outn;
    EXPECT_EQ(out[outn], 0x5EEDu);  // no overwrite past outn
  }
}

TEST(MergeSorted, FullLengthMergeEmitsEveryElement) {
  // outn == an + bn: 8-aligned runs take the vector body, which flushes its
  // final carry; ragged runs take the scalar loop.  Both must emit the
  // whole union, sorted, including runs made of ~0 pads.
  std::mt19937_64 rng(0xF011);
  for (int trial = 0; trial < 1500; ++trial) {
    const bool aligned = trial % 2 == 0;
    const std::size_t an = aligned ? 8 * (1 + rng() % 40) : 1 + rng() % 300;
    const std::size_t bn = aligned ? 8 * (1 + rng() % 40) : 1 + rng() % 41;
    std::vector<std::uint64_t> a(an), b(bn);
    for (auto& x : a) x = trial % 7 == 0 ? ~std::uint64_t{0} : rng() % 512;
    for (auto& x : b) x = rng() % 512;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<std::uint64_t> expect;
    expect.reserve(an + bn);
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(expect));
    std::vector<std::uint64_t> out(an + bn + 1, 0x5EEDu);
    merge_sorted_u64(a.data(), an, b.data(), bn, out.data(), an + bn);
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(), out.begin()))
        << "trial " << trial << " an=" << an << " bn=" << bn;
    EXPECT_EQ(out[an + bn], 0x5EEDu);  // no overwrite past the union
  }
}

// ---- merge-path merges and the network sort, both bodies -----------------
// The list update of the warp-queue rows: a-prefix merges (outn = an, the
// k-long list keeping k) and full merges (the network sort's passes), for
// list lengths from the 8-lane minimum to k = 2048 and drains up to 320.

using MergeFn = void (*)(const std::uint64_t*, std::size_t,
                         const std::uint64_t*, std::size_t, std::uint64_t*,
                         std::size_t);

struct MergeBody {
  const char* name;
  MergeFn fn;
  bool any_outn;  // false: outn must be a multiple of 8
};

std::vector<MergeBody> merge_bodies() {
  std::vector<MergeBody> bodies = {
      {"portable", detail::merge_sorted_u64_scalar, true},
      {"dispatch", merge_sorted_u64, true}};
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    bodies.push_back({"avx512", detail::merge_sorted_u64_avx512, false});
  }
#endif
  return bodies;
}

/// Runs of an and bn ascending values; `mode` picks how they interleave.
std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>> merge_runs(
    std::mt19937_64& rng, std::size_t an, std::size_t bn, int mode) {
  std::vector<std::uint64_t> a(an), b(bn);
  const auto fill = [&](std::vector<std::uint64_t>& v, std::uint64_t lo,
                        std::uint64_t span) {
    for (auto& x : v) x = lo + rng() % span;
  };
  switch (mode) {
    case 0:  // interleaved, distinct almost surely
      fill(a, 0, ~std::uint64_t{0} - 1);
      fill(b, 0, ~std::uint64_t{0} - 1);
      break;
    case 1:  // ties within and across the runs
      fill(a, 100, 1 + (an + bn) / 4);
      fill(b, 100, 1 + (an + bn) / 4);
      break;
    case 2:  // b wholly below a
      fill(a, 1000000, 1000);
      fill(b, 0, 1000);
      break;
    case 3:  // b wholly above a
      fill(a, 0, 1000);
      fill(b, 1000000, 1000);
      break;
    default:  // ~0 pads ending both runs
      fill(a, 0, 5000);
      fill(b, 0, 5000);
      for (std::size_t i = an - std::min<std::size_t>(an, 3); i < an; ++i) {
        a[i] = ~std::uint64_t{0};
      }
      b[bn - 1] = ~std::uint64_t{0};
      break;
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return {std::move(a), std::move(b)};
}

TEST(MergeSorted, EveryBodyMatchesStdMergeOnListAndDrainShapes) {
  std::mt19937_64 rng(0x3E7C);
  const auto bodies = merge_bodies();
  for (const std::size_t an : {8u, 13u, 16u, 64u, 100u, 104u, 128u, 256u,
                               2048u}) {
    for (std::size_t bn = 1; bn <= 320; ++bn) {
      const auto [a, b] = merge_runs(rng, an, bn, static_cast<int>(bn % 5));
      std::vector<std::uint64_t> all;
      std::merge(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(all));
      for (const std::size_t outn : {an, an + bn}) {
        for (const MergeBody& body : bodies) {
          if (!body.any_outn && outn % 8 != 0) continue;
          std::vector<std::uint64_t> out(outn + 1, 0x5EEDu);
          body.fn(a.data(), an, b.data(), bn, out.data(), outn);
          ASSERT_TRUE(std::equal(all.begin(), all.begin() + outn, out.begin()))
              << body.name << " an=" << an << " bn=" << bn
              << " outn=" << outn << " mode=" << bn % 5;
          ASSERT_EQ(out[outn], 0x5EEDu) << body.name << " wrote past outn";
        }
      }
    }
  }
}

// Every length up to a drain of 320, plus 512 (Bitonic Top-K's pass 0 at
// cap 256) and 4096 (shard-merge's run length); each body must leave the
// std::sort prefix of length keep, for keep = n, 1, n/2 and 7.
TEST(SortU64, EveryBodyMatchesStdSortUpToADrainOf320) {
  std::mt19937_64 rng(0x5027);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 320; ++n) lengths.push_back(n);
  lengths.push_back(512);
  lengths.push_back(4096);
  for (const std::size_t n : lengths) {
    for (int trial = 0; trial < 4; ++trial) {
      // Trial 0: distinct values; 1: heavy ties; 2: ties and one ~0 pad;
      // 3: a ~0-padded tail, as Bitonic's pass 0 pads its last pair.
      std::vector<std::uint64_t> v(n);
      for (auto& x : v) {
        x = trial == 0 || trial == 3 ? rng()
                                     : rng() % (trial == 1 ? 8 : 1000);
      }
      if (trial == 2) v[rng() % n] = ~std::uint64_t{0};
      if (trial == 3) std::fill(v.begin() + n / 2, v.end(), ~std::uint64_t{0});
      std::vector<std::uint64_t> want = v;
      std::sort(want.begin(), want.end());
      const std::size_t keeps[] = {n, 1, n / 2, 7};
      for (const std::size_t keep : keeps) {
        if (keep == 0 || keep > n) continue;
        const auto check = [&](const char* body, const auto& sort) {
          std::vector<std::uint64_t> s(sort_u64_room(n));
          std::vector<std::uint64_t> tmp(sort_u64_room(n));
          std::copy(v.begin(), v.end(), s.begin());
          sort(s.data(), tmp.data());
          const auto end = want.begin() + static_cast<std::ptrdiff_t>(keep);
          ASSERT_TRUE(std::equal(want.begin(), end, s.begin()))
              << body << " n=" << n << " keep=" << keep << " trial=" << trial;
        };
        for (const bool vector : {false, true}) {
#if SIMGPU_SIMD_X86
          if (vector && !have_avx512f()) continue;
#else
          if (vector) continue;
#endif
          check(vector ? "avx512" : "portable",
                [&](std::uint64_t* s, std::uint64_t* tmp) {
                  detail::sort_u64_body(s, n, tmp, vector, keep);
                });
        }
        check("dispatch", [&](std::uint64_t* s, std::uint64_t* tmp) {
          sort_u64(s, n, tmp, keep);
        });
      }
    }
  }
}

/// The binary search splitter_classes must reproduce probe for probe.
template <typename T>
std::uint32_t binary_search_class(const std::vector<T>& split, T v) {
  std::size_t lo = 0, hi = split.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (split[mid] <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<std::uint32_t>(lo);
}

TEST(SplitterClasses, MatchesTheBinarySearchProbeForProbe) {
  std::mt19937_64 rng(0x5911);
  for (int trial = 0; trial < 300; ++trial) {
    const int probes = 1 + trial % 8;
    const std::size_t splitters = (std::size_t{1} << probes) - 1;
    // Past 128 keys the vector body interleaves 8 searches of 16; shorter
    // runs and tails go 16 at a time with a ragged last vector.
    const std::size_t n = 1 + rng() % 400;
    std::vector<float> fs(splitters), fv(n);
    std::vector<std::uint32_t> us(splitters), uv(n);
    for (std::size_t i = 0; i < splitters; ++i) {
      fs[i] = static_cast<float>(rng() % 64) - 32.0f;
      us[i] = static_cast<std::uint32_t>(rng() % 64) * 0x4000000u;
    }
    // Sorted tables except every fifth trial, whose unsorted table still
    // has one answer: the binary search's probe sequence.
    if (trial % 5 != 0) {
      std::sort(fs.begin(), fs.end());
      std::sort(us.begin(), us.end());
    }
    for (std::size_t i = 0; i < n; ++i) {
      fv[i] = i % 7 == 3 ? std::numeric_limits<float>::quiet_NaN()
                         : static_cast<float>(rng() % 80) - 40.0f;
      uv[i] = static_cast<std::uint32_t>(rng());
    }
    std::vector<std::uint32_t> fc(n + 1, 0xABCDu), uc(n + 1, 0xABCDu);
    splitter_classes(fs.data(), probes, std::span<const float>(fv), fc.data());
    splitter_classes(us.data(), probes, std::span<const std::uint32_t>(uv),
                     uc.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(fc[i], binary_search_class(fs, fv[i]))
          << "trial " << trial << " f32 key " << fv[i];
      ASSERT_EQ(uc[i], binary_search_class(us, uv[i]))
          << "trial " << trial << " u32 key " << uv[i];
    }
    EXPECT_EQ(fc[n], 0xABCDu);  // no store past n
    EXPECT_EQ(uc[n], 0xABCDu);
  }
}

TEST(MergeSorted, EmptySideCopiesTheOther) {
  const std::uint64_t a[] = {1, 3, 5};
  std::uint64_t out[3] = {};
  merge_sorted_u64(a, 3, nullptr, 0, out, 3);
  EXPECT_TRUE(std::equal(a, a + 3, out));
  merge_sorted_u64(nullptr, 0, a, 3, out, 2);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 3u);
}

TEST(PackBelow, OrdinalMapIsMonotone) {
  // The packed high word must order exactly like the source floats so the
  // engine's sorted-queue invariants carry over.
  const float seq[] = {-std::numeric_limits<float>::infinity(), -100.5f,
                       -1.0f,  -0.0f,
                       0.0f,   1e-20f,
                       3.25f,  std::numeric_limits<float>::infinity()};
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < std::size(seq); ++i) {
    const std::uint32_t ord = ref_ord(seq[i]);
    if (i > 0) {
      EXPECT_LE(prev, ord) << "at " << seq[i];
    }
    prev = ord;
  }
  // And -0.0f / 0.0f map to ordered (equal-comparing floats may differ in
  // ordinal, but must respect float ordering).
  EXPECT_LE(ref_ord(-0.0f), ref_ord(0.0f));
}

// ---- key-order masks ---------------------------------------------------
// With the largest-K mask (the sign bit on f32 keys, all ones on u32 keys)
// each masked helper must return exactly what the unmasked helper returns on
// the reversed keys — and, for splitter_classes, reversed splitters — on
// both the scalar and the AVX-512 body, NaN and ±0 lanes included.

constexpr std::uint32_t kF32Reverse = 0x80000000u;

float reversed(float x) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) ^ kF32Reverse);
}

/// Normal draws with NaN, ±0 and ±inf lanes mixed in.
std::vector<float> keys_with_specials(std::mt19937_64& rng, std::size_t n) {
  std::normal_distribution<float> dist(0.0f, 3.0f);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: v[i] = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: v[i] = -0.0f; break;
      case 2: v[i] = 0.0f; break;
      case 3: v[i] = std::numeric_limits<float>::infinity() * (i % 2 ? 1 : -1);
              break;
      default: v[i] = dist(rng); break;
    }
  }
  return v;
}

/// One body of the three masked helpers: the scalar fallback or the
/// AVX-512 vector body.
struct MaskedBodies {
  const char* name;
  std::size_t (*count)(const float*, std::size_t, float, std::uint32_t);
  std::size_t (*pack)(const float*, const std::uint32_t*, std::uint32_t,
                      std::size_t, float, std::uint64_t*, std::uint32_t);
  void (*classes_f32)(const float*, std::uint32_t, std::span<const float>,
                      std::uint32_t*, std::uint32_t);
  void (*classes_u32)(const std::uint32_t*, std::uint32_t,
                      std::span<const std::uint32_t>, std::uint32_t*,
                      std::uint32_t);
};

std::vector<MaskedBodies> masked_bodies() {
  std::vector<MaskedBodies> bodies = {
      {"scalar", detail::count_below_f32_scalar, detail::pack_below_f32_scalar,
       detail::splitter_classes_scalar<float>,
       detail::splitter_classes_scalar<std::uint32_t>}};
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    bodies.push_back(
        {"avx512", detail::count_below_f32_avx512,
         detail::pack_below_f32_avx512,
         [](const float* split, std::uint32_t first, std::span<const float> v,
            std::uint32_t* cls, std::uint32_t mask) {
           detail::splitter_classes_avx512<true>(split, first, v.data(),
                                                 v.size(), cls, mask);
         },
         [](const std::uint32_t* split, std::uint32_t first,
            std::span<const std::uint32_t> v, std::uint32_t* cls,
            std::uint32_t mask) {
           detail::splitter_classes_avx512<false>(split, first, v.data(),
                                                  v.size(), cls, mask);
         }});
  }
#endif
  return bodies;
}

TEST(KeyOrderMask, CountAndPackEqualUnmaskedOnReversedKeys) {
  std::mt19937_64 rng(0x0DE5);
  for (const MaskedBodies& body : masked_bodies()) {
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t n = trial % 40;  // empty, tails, 2x16 + tail
      const std::vector<float> v = keys_with_specials(rng, n);
      std::vector<float> r(v.size());
      std::transform(v.begin(), v.end(), r.begin(), reversed);
      for (const float threshold :
           {0.0f, -0.0f, 1.5f, std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::quiet_NaN(),
            v.empty() ? 2.0f : v[0]}) {
        const std::string at = std::string(body.name) + " trial " +
                               std::to_string(trial) + " threshold " +
                               std::to_string(threshold);
        EXPECT_EQ(body.count(v.data(), n, threshold, kF32Reverse),
                  body.count(r.data(), n, threshold, 0))
            << at;
        std::vector<std::uint64_t> a(n + 1, 0), b(n + 1, 0);
        const std::size_t ma = body.pack(v.data(), nullptr, 9u, n, threshold,
                                         a.data(), kF32Reverse);
        const std::size_t mb =
            body.pack(r.data(), nullptr, 9u, n, threshold, b.data(), 0);
        ASSERT_EQ(ma, mb) << at;
        EXPECT_TRUE(std::equal(a.begin(), a.begin() + ma, b.begin())) << at;
      }
    }
  }
}

TEST(KeyOrderMask, SplitterClassesEqualUnmaskedOnReversedKeysAndSplitters) {
  std::mt19937_64 rng(0x5C1A);
  for (const MaskedBodies& body : masked_bodies()) {
    for (int trial = 0; trial < 200; ++trial) {
      const int probes = 1 + trial % 8;
      const std::size_t splitters = (std::size_t{1} << probes) - 1;
      const std::uint32_t first = std::uint32_t{1} << (probes - 1);
      const std::size_t n = 1 + rng() % 300;
      std::vector<float> fs = keys_with_specials(rng, splitters);
      const std::vector<float> fv = keys_with_specials(rng, n);
      std::vector<std::uint32_t> us(splitters), uv(n);
      for (auto& x : us) x = static_cast<std::uint32_t>(rng());
      for (auto& x : uv) x = static_cast<std::uint32_t>(rng());
      std::vector<float> rfs(fs.size()), rfv(fv.size());
      std::transform(fs.begin(), fs.end(), rfs.begin(), reversed);
      std::transform(fv.begin(), fv.end(), rfv.begin(), reversed);
      std::vector<std::uint32_t> rus(us.size()), ruv(uv.size());
      std::transform(us.begin(), us.end(), rus.begin(),
                     [](std::uint32_t x) { return ~x; });
      std::transform(uv.begin(), uv.end(), ruv.begin(),
                     [](std::uint32_t x) { return ~x; });
      std::vector<std::uint32_t> a(n), b(n);
      body.classes_f32(fs.data(), first, fv, a.data(), kF32Reverse);
      body.classes_f32(rfs.data(), first, rfv, b.data(), 0);
      EXPECT_EQ(a, b) << body.name << " f32 trial " << trial;
      body.classes_u32(us.data(), first, uv, a.data(), ~std::uint32_t{0});
      body.classes_u32(rus.data(), first, ruv, b.data(), 0);
      EXPECT_EQ(a, b) << body.name << " u32 trial " << trial;
    }
  }
}

// ---- radix tile scans ------------------------------------------------------
// classify_digits and histogram_digits on both carriers: every body (scalar,
// AVX-512 when the host has it, and the dispatcher) against a plain per-key
// reference, with the order mask 0 and ~0, shifts 0 and 31, and tiles that
// are all out, all equal or all below.  NaN, ±0 and ±inf lanes classify by
// their ordinals.

std::uint32_t ref_ord(std::uint32_t x) { return x; }

/// The kept keys' positions and tags, in key order.
struct Classified {
  std::vector<std::uint32_t> pos;
  std::vector<std::uint32_t> tag;
  bool operator==(const Classified&) const = default;
};

template <typename T>
Classified ref_classify(std::span<const T> keys, const DigitRule& r) {
  Classified c;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t o = ref_ord(keys[i]) ^ r.order;
    const std::uint32_t v = (o >> r.shift) & r.mask;
    if (v == r.target) {
      c.pos.push_back(static_cast<std::uint32_t>(i));
      c.tag.push_back((o >> r.tag_shift) & r.tag_mask);
    } else if (r.lo <= v && v < r.target) {
      c.pos.push_back(static_cast<std::uint32_t>(i));
      c.tag.push_back(kBelowTag);
    }
  }
  return c;
}

template <typename T>
using ClassifyFn = std::size_t (*)(std::span<const T>, const DigitRule&,
                                   std::span<std::uint32_t>,
                                   std::span<std::uint32_t>);

/// Every classify_digits body for carrier T, by name.
template <typename T>
std::vector<std::pair<const char*, ClassifyFn<T>>> classify_bodies() {
  std::vector<std::pair<const char*, ClassifyFn<T>>> bodies = {
      {"scalar", detail::classify_digits_scalar<T>},
      {"dispatch", [](std::span<const T> keys, const DigitRule& r,
                      std::span<std::uint32_t> pos,
                      std::span<std::uint32_t> tag) {
         return classify_digits(keys, r, pos, tag);
       }}};
#if SIMGPU_SIMD_X86
  if (have_avx512f()) {
    bodies.push_back({"avx512", [](std::span<const T> keys,
                                   const DigitRule& r,
                                   std::span<std::uint32_t> pos,
                                   std::span<std::uint32_t> tag) {
                        return detail::classify_digits_avx512<
                            std::is_same_v<T, float>>(keys, r, pos.data(),
                                                      tag.data());
                      }});
  }
#endif
  return bodies;
}

/// Expect every body to classify `keys` under `r` like the reference.
template <typename T>
void expect_classified(const std::vector<T>& keys, const DigitRule& r,
                       const std::string& what) {
  const Classified want = ref_classify<T>(keys, r);
  for (const auto& [name, body] : classify_bodies<T>()) {
    std::vector<std::uint32_t> pos(keys.size()), tag(keys.size());
    const std::size_t m = body(keys, r, pos, tag);
    ASSERT_LE(m, keys.size()) << name << " " << what;
    pos.resize(m);
    tag.resize(m);
    EXPECT_EQ((Classified{pos, tag}), want) << name << " " << what;
  }
}

/// The carrier bits of `keys`: float bits, or the u32 keys themselves.
template <typename T>
std::vector<T> from_bits(const std::vector<std::uint32_t>& bits) {
  std::vector<T> keys(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    keys[i] = std::bit_cast<T>(bits[i]);
  }
  return keys;
}

/// Random carrier bits, with NaN, ±0 and ±inf patterns mixed in.
std::vector<std::uint32_t> bits_with_specials(std::mt19937_64& rng,
                                              std::size_t n) {
  constexpr std::uint32_t kSpecial[] = {0x7FC00000u, 0xFFC00001u,
                                        0x00000000u, 0x80000000u,
                                        0x7F800000u, 0xFF800000u};
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) {
    x = rng() % 4 == 0 ? kSpecial[rng() % std::size(kSpecial)]
                       : static_cast<std::uint32_t>(rng());
  }
  return v;
}

template <typename T>
void classify_random_tiles(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 600; ++trial) {
    // Tails of 1-15 keys after zero, one and two full vectors, and a tile.
    const std::size_t n = trial % 50 == 49 ? 1024 : trial % 48;
    const auto bits = bits_with_specials(rng, n);
    const std::vector<T> keys = from_bits<T>(bits);
    DigitRule r;
    r.order = trial % 2 == 0 ? 0u : ~0u;
    r.shift = trial % 3 == 0   ? 0
              : trial % 3 == 1 ? 31
                               : static_cast<int>(rng() % 32);
    r.mask = trial % 4 == 0 ? ~0u : (1u << (1 + rng() % 11)) - 1u;
    // Target the digit of a real key, so some keys are equal.
    const std::uint32_t v0 =
        n == 0 ? 0 : ((ref_ord(keys[rng() % n]) ^ r.order) >> r.shift) & r.mask;
    r.target = v0;
    r.lo = trial % 5 == 0 ? v0 : v0 - std::min<std::uint32_t>(
                                          v0, static_cast<std::uint32_t>(
                                                  rng() % (r.mask / 2 + 1)));
    r.tag_shift = static_cast<int>(rng() % 32);
    r.tag_mask = trial % 7 == 0 ? 0u : (1u << (1 + rng() % 11)) - 1u;
    expect_classified(keys, r, "trial " + std::to_string(trial));
  }
}

TEST(ClassifyDigits, F32MatchesPerKeyReference) {
  classify_random_tiles<float>(0xC1A5);
}

TEST(ClassifyDigits, U32MatchesPerKeyReference) {
  classify_random_tiles<std::uint32_t>(0xC1A6);
}

TEST(ClassifyDigits, AllOutAllEqualAllBelowTiles) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{1024}}) {
    for (const std::uint32_t order : {0u, ~0u}) {
      const std::string at =
          "n=" + std::to_string(n) + " order=" + std::to_string(order);
      // All equal: every key is 1.5f (u32: its bits).
      const std::vector<std::uint32_t> same(n, 0x3FC00000u);
      const std::uint32_t o = 0xBFC00000u ^ order;  // ordinal of 1.5f
      DigitRule eq{.order = order, .shift = 21, .lo = o >> 21,
                   .target = o >> 21, .tag_shift = 10, .tag_mask = 0x7FF};
      expect_classified(from_bits<float>(same), eq, "all equal f32 " + at);
      DigitRule ueq = eq;
      ueq.lo = ueq.target = (0x3FC00000u ^ order) >> 21;
      expect_classified(from_bits<std::uint32_t>(same), ueq,
                        "all equal u32 " + at);
      // All out: lo == target, and no key has that digit.
      DigitRule out = eq;
      out.lo = out.target = eq.target + 1;
      expect_classified(from_bits<float>(same), out, "all out f32 " + at);
      // All below: shift 31 leaves the ordinal's top bit; the keys' is 0
      // with order 0 (negative floats, u32 keys below 2^31) and 1 with ~0.
      std::mt19937_64 rng(n);
      std::vector<std::uint32_t> low(n);
      for (auto& x : low) x = static_cast<std::uint32_t>(rng()) | 0x80000000u;
      DigitRule below{.order = order, .shift = 31, .mask = 1,
                      .lo = order == 0 ? 0u : 1u, .target = 2};
      expect_classified(from_bits<float>(low), below, "all below f32 " + at);
      for (auto& x : low) x &= 0x7FFFFFFFu;
      expect_classified(from_bits<std::uint32_t>(low), below,
                        "all below u32 " + at);
    }
  }
}

TEST(ClassifyDigits, SpecialLanesLandByOrdinal) {
  // -inf < -1 < -0 < +0 < 1 < +inf on ordinals; a positive NaN's ordinal
  // is above +inf, a negative NaN's below -inf.
  const std::vector<float> keys = {
      -std::numeric_limits<float>::infinity(), -1.0f, -0.0f, 0.0f, 1.0f,
      std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t t = 0; t < keys.size(); ++t) {
    for (const std::uint32_t order : {0u, ~0u}) {
      const std::uint32_t target = ref_ord(keys[t]) ^ order;
      expect_classified(keys,
                        DigitRule{.order = order, .lo = 0, .target = target},
                        "below-or-equal " + std::to_string(t));
      expect_classified(keys,
                        DigitRule{.order = order, .lo = target,
                                  .target = target, .tag_mask = 0xFF},
                        "equal " + std::to_string(t));
    }
  }
}

template <typename T>
void histogram_matches_scalar_loop(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = trial % 30 == 29 ? 1024 : trial % 40;
    const std::vector<T> keys = from_bits<T>(bits_with_specials(rng, n));
    const std::uint32_t order = trial % 2 == 0 ? 0u : ~0u;
    const int shift = trial % 3 == 0 ? 0 : (trial % 3 == 1 ? 31 : 21);
    const std::uint32_t mask = trial % 2 == 0 ? 0x7FFu : 0xFFu;
    std::vector<std::uint32_t> want(mask + 1, 0);
    for (const T x : keys) ++want[((ref_ord(x) ^ order) >> shift) & mask];
    std::vector<std::uint32_t> got(mask + 1, 0);
    histogram_digits<T>(keys, order, shift, mask, got.data());
    EXPECT_EQ(got, want) << "dispatch trial " << trial;
    std::fill(got.begin(), got.end(), 0);
    detail::histogram_digits_scalar<T>(keys, order, shift, mask, got.data());
    EXPECT_EQ(got, want) << "scalar trial " << trial;
  }
}

TEST(HistogramDigits, F32MatchesScalarLoop) {
  histogram_matches_scalar_loop<float>(0x4157);
}

TEST(HistogramDigits, U32MatchesScalarLoop) {
  histogram_matches_scalar_loop<std::uint32_t>(0x4158);
}

/// A carrier key whose digit ((ord ^ order) >> shift) & mask is `digit`,
/// its other ordinal bits taken from `noise`.
template <typename T>
T key_with_digit(std::uint32_t digit, std::uint32_t order, int shift,
                 std::uint32_t mask, std::uint32_t noise) {
  const std::uint32_t o =
      ((noise & ~(mask << shift)) | (digit << shift)) ^ order;
  if constexpr (std::is_same_v<T, float>) {
    // Invert the ordinal map: set sign bit -> non-negative, else negative.
    return std::bit_cast<float>((o & 0x80000000u) ? (o ^ 0x80000000u) : ~o);
  } else {
    return o;
  }
}

/// Digit sequences with runs: all equal, two alternating digits, one odd
/// lane per 16-lane group, and runs of 5, 11 and 21 that cross group
/// boundaries.
std::uint32_t run_pattern_digit(int pattern, std::size_t i, std::uint32_t a,
                                std::uint32_t b) {
  switch (pattern) {
    case 0:
      return a;
    case 1:
      return i % 2 == 0 ? a : b;
    case 2:
      return i % 16 == (i / 16) % 16 ? b : a;
    default: {
      constexpr std::size_t kRuns[] = {5, 11, 21};
      std::size_t at = 0;
      for (std::size_t r = 0;; ++r) {
        const std::size_t len = kRuns[r % 3];
        if (i < at + len) return r % 2 == 0 ? a : b;
        at += len;
      }
    }
  }
}

template <typename T>
void histogram_matches_on_runs() {
  const std::pair<int, std::uint32_t> digits[] = {
      {21, 0x7FFu}, {10, 0x7FFu}, {0, 0xFFu}, {24, 0xFFu}};
  std::mt19937_64 rng(0x5A11);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 50; ++n) lengths.push_back(n);
  for (std::size_t n = 1023; n <= 1025; ++n) lengths.push_back(n);
  for (const std::uint32_t order : {0u, ~0u}) {
    for (const auto& [shift, mask] : digits) {
      for (int pattern = 0; pattern < 4; ++pattern) {
        for (const std::size_t n : lengths) {
          const auto a = static_cast<std::uint32_t>(rng()) & mask;
          const auto b = (a + 1 + static_cast<std::uint32_t>(rng()) % mask) &
                         mask;  // never a
          std::vector<T> keys(n);
          for (std::size_t i = 0; i < n; ++i) {
            keys[i] = key_with_digit<T>(run_pattern_digit(pattern, i, a, b),
                                        order, shift, mask,
                                        static_cast<std::uint32_t>(rng()));
          }
          const std::string what =
              "pattern " + std::to_string(pattern) + " n=" +
              std::to_string(n) + " shift=" + std::to_string(shift) +
              " order=" + std::to_string(order);
          std::vector<std::uint32_t> want(mask + 1, 0);
          detail::histogram_digits_scalar<T>(keys, order, shift, mask,
                                             want.data());
          std::vector<std::uint32_t> got(mask + 1, 0);
          histogram_digits<T>(keys, order, shift, mask, got.data());
          ASSERT_EQ(got, want) << "dispatch " << what;
          std::size_t in_b = 0;
          for (std::size_t i = 0; i < n; ++i) {
            in_b += run_pattern_digit(pattern, i, a, b) == b ? 1 : 0;
          }
          ASSERT_EQ(want[b], in_b) << "scalar " << what;
          ASSERT_EQ(want[a], n - in_b) << "scalar " << what;
#if SIMGPU_SIMD_X86
          if (have_avx512f()) {
            std::fill(got.begin(), got.end(), 0);
            detail::histogram_digits_avx512<std::is_same_v<T, float>>(
                std::span<const T>(keys), order, shift, mask, got.data());
            ASSERT_EQ(got, want) << "avx512 " << what;
          }
#endif
        }
      }
    }
  }
}

TEST(HistogramDigits, F32RunsMatchScalarLoop) {
  histogram_matches_on_runs<float>();
}

TEST(HistogramDigits, U32RunsMatchScalarLoop) {
  histogram_matches_on_runs<std::uint32_t>();
}

// ---- BucketSelect and 256-bin histogram tile helpers ------------------------
// key_minmax, interpolation_buckets and radix_digits on every body (portable,
// AVX-512 when the host has it, and the dispatcher) against a per-key scalar
// reference, with NaN, ±0 and ±inf lanes, tails of 0-33 keys and the order
// masks of both directions; and SplitCounts256 against a plain histogram on
// one-bin, two-bin and all-equal-group tiles.

/// Tile lengths: every tail of 0-33 keys, then a few full tiles.
std::vector<std::size_t> tile_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 33; ++n) lengths.push_back(n);
  for (const std::size_t n : {48u, 255u, 1000u, 1024u}) lengths.push_back(n);
  return lengths;
}

template <typename T>
using MinmaxFn = void (*)(std::span<const T>, KeyBits<T>, T&, T&);

template <typename T>
std::vector<std::pair<const char*, MinmaxFn<T>>> minmax_bodies() {
  std::vector<std::pair<const char*, MinmaxFn<T>>> bodies = {
      {"portable", detail::key_minmax_scalar<T>}, {"dispatch", key_minmax<T>}};
#if SIMGPU_SIMD_X86
  if constexpr (std::is_same_v<T, float>) {
    if (have_avx512f()) bodies.push_back({"avx512", detail::key_minmax_avx512});
  }
#endif
  return bodies;
}

/// Equal as keys, and bit-equal unless both are zeros (whose sign a lane
/// fold may change).
template <typename T>
bool same_bound(T got, T want) {
  if (std::bit_cast<KeyBits<T>>(got) == std::bit_cast<KeyBits<T>>(want)) {
    return true;
  }
  return got == want && got == T{0};
}

template <typename T>
void minmax_matches_sequential_fold(const std::vector<std::uint32_t>& bits,
                                    KeyBits<T> mask, T lo0, T hi0,
                                    const std::string& what) {
  const std::vector<T> keys = from_bits<T>(bits);
  T want_lo = lo0;
  T want_hi = hi0;
  for (const T x : keys) {
    const T kv = std::bit_cast<T>(std::bit_cast<KeyBits<T>>(x) ^ mask);
    want_lo = std::min(want_lo, kv);
    want_hi = std::max(want_hi, kv);
  }
  for (const auto& [name, body] : minmax_bodies<T>()) {
    T lo = lo0;
    T hi = hi0;
    body(keys, mask, lo, hi);
    EXPECT_TRUE(same_bound(lo, want_lo))
        << name << " lo " << lo << " want " << want_lo << " " << what;
    EXPECT_TRUE(same_bound(hi, want_hi))
        << name << " hi " << hi << " want " << want_hi << " " << what;
  }
}

TEST(KeyMinmax, EveryBodyMatchesTheSequentialFold) {
  std::mt19937_64 rng(0x313A);
  for (const std::size_t n : tile_lengths()) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto bits = bits_with_specials(rng, n);
      const std::string what =
          "n=" + std::to_string(n) + " trial " + std::to_string(trial);
      for (const std::uint32_t mask : {0u, kF32Reverse}) {
        minmax_matches_sequential_fold<float>(
            bits, mask, std::numeric_limits<float>::max(),
            std::numeric_limits<float>::lowest(), what);
        // A running pair from an earlier tile, a zero among them.
        minmax_matches_sequential_fold<float>(bits, mask, 0.0f, -0.0f, what);
      }
      for (const std::uint32_t mask : {0u, ~0u}) {
        minmax_matches_sequential_fold<std::uint32_t>(
            bits, mask, ~0u, 0u, what);
        minmax_matches_sequential_fold<std::uint32_t>(bits, mask, 1u << 31,
                                                      1u << 30, what);
      }
    }
  }
}

TEST(KeyMinmax, NanNeverReplacesABoundAndEqualTilesFoldToTheirKey) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  for (const std::size_t n : tile_lengths()) {
    const std::vector<float> nans(n, kNan);
    for (const auto& [name, body] : minmax_bodies<float>()) {
      float lo = std::numeric_limits<float>::max();
      float hi = std::numeric_limits<float>::lowest();
      body(nans, 0u, lo, hi);
      EXPECT_EQ(lo, std::numeric_limits<float>::max()) << name << " n=" << n;
      EXPECT_EQ(hi, std::numeric_limits<float>::lowest()) << name << " n=" << n;
      std::vector<float> same(n, 2.5f);
      if (n > 1) same[n / 2] = kNan;
      body(same, kF32Reverse, lo, hi);
      if (n > 1) {
        EXPECT_EQ(lo, -2.5f) << name << " n=" << n;
        EXPECT_EQ(hi, -2.5f) << name << " n=" << n;
      }
    }
  }
}

template <typename T>
using BucketsFn = void (*)(std::span<const T>, KeyBits<T>, double, double,
                           std::uint32_t, std::uint8_t*);

template <typename T>
std::vector<std::pair<const char*, BucketsFn<T>>> bucket_bodies() {
  std::vector<std::pair<const char*, BucketsFn<T>>> bodies = {
      {"portable", detail::interpolation_buckets_scalar<T>},
      {"dispatch", interpolation_buckets<T>}};
#if SIMGPU_SIMD_X86
  if constexpr (std::is_same_v<T, float>) {
    if (have_avx512f()) {
      bodies.push_back({"avx512", detail::interpolation_buckets_avx512});
    }
  }
#endif
  return bodies;
}

/// Expect every body to give each key the scalar map's bucket, writing
/// nothing past the tile.
template <typename T>
void expect_buckets(const std::vector<T>& keys, KeyBits<T> mask, double lo,
                    double scale, std::uint32_t top, const std::string& what) {
  std::vector<std::uint8_t> want(keys.size() + 1, 0xEE);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const T kv = std::bit_cast<T>(std::bit_cast<KeyBits<T>>(keys[i]) ^ mask);
    want[i] = static_cast<std::uint8_t>(
        interpolation_bucket(kv, lo, scale, top));
  }
  for (const auto& [name, body] : bucket_bodies<T>()) {
    std::vector<std::uint8_t> got(keys.size() + 1, 0xEE);
    body(keys, mask, lo, scale, top, got.data());
    EXPECT_EQ(got, want) << name << " " << what;
  }
}

TEST(InterpolationBuckets, EveryBodyMatchesTheScalarMapOnEveryInput) {
  std::mt19937_64 rng(0xB0C7);
  for (const std::size_t n : tile_lengths()) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto bits = bits_with_specials(rng, n);
      const std::vector<float> f = from_bits<float>(bits);
      const std::vector<std::uint32_t> u = from_bits<std::uint32_t>(bits);
      const std::string what =
          "n=" + std::to_string(n) + " trial " + std::to_string(trial);
      // A narrow range (most keys clamp), a wide one, and one around zero.
      const std::pair<double, double> ranges[] = {
          {-1.0, 1.0}, {-3.0e38, 3.0e38}, {-1e-30, 2e-30}};
      for (const auto& [lo, hi] : ranges) {
        const double scale = 256.0 / (hi - lo);
        for (const std::uint32_t mask : {0u, kF32Reverse}) {
          expect_buckets(f, mask, lo, scale, 255, what);
        }
      }
      for (const std::uint32_t mask : {0u, ~0u}) {
        expect_buckets(u, mask, 1e9, 256.0 / 2e9, 255, what);
        expect_buckets(u, mask, 0.0, 256.0 / 4294967295.0, 255, what);
      }
    }
  }
}

TEST(InterpolationBuckets, OneBinAndTwoBinTiles) {
  for (const std::size_t n : tile_lengths()) {
    std::vector<float> one(n, 0.75f);
    expect_buckets(one, 0u, 0.0, 256.0, 255, "one bin n=" + std::to_string(n));
    std::vector<float> two(n);
    for (std::size_t i = 0; i < n; ++i) two[i] = i % 3 == 0 ? 0.0f : 1.0f;
    expect_buckets(two, 0u, 0.0, 256.0, 255, "two bins n=" + std::to_string(n));
    expect_buckets(two, kF32Reverse, -1.0, 256.0, 255,
                   "two bins reversed n=" + std::to_string(n));
  }
}

// BucketSelect's map, defined for every input: a NaN key lands in bucket 0
// (the bucket the x86 integer cast gave it when the map cast an undefined
// double), and every key in [lo, hi] keeps the clamped cast's bucket.
TEST(InterpolationBucket, NanIsBucketZeroAndRangeKeysKeepTheCastBucket) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(interpolation_bucket(kNan, 0.0, 256.0, 255), 0u);
  EXPECT_EQ(interpolation_bucket(-kNan, -5.0, 1.0, 255), 0u);
  EXPECT_EQ(interpolation_bucket(std::numeric_limits<double>::quiet_NaN(),
                                 1.0, 3.0, 255),
            0u);
  EXPECT_EQ(interpolation_bucket(-kInf, 0.0, 1.0, 255), 0u);
  EXPECT_EQ(interpolation_bucket(kInf, 0.0, 1.0, 255), 255u);
  const auto cast_bucket = [](double key, double lo, double scale) {
    const auto raw = static_cast<std::int64_t>((key - lo) * scale);
    return static_cast<std::uint32_t>(std::clamp<std::int64_t>(raw, 0, 255));
  };
  std::mt19937_64 rng(0x1B0C);
  const std::pair<float, float> ranges[] = {
      {0.0f, 1.0f},      {-1.0f, 1.0f},   {-0.0f, 1e-40f},
      {-3e38f, 3e38f},   {5.0f, 5.0001f}, {-7.0f, -6.0f},
      {1e-45f, 3e-45f}};
  for (const auto& [flo, fhi] : ranges) {
    const double lo = flo;
    const double hi = fhi;
    const double scale = 256.0 / (hi - lo);
    std::uniform_real_distribution<double> in(lo, hi);
    std::vector<float> keys = {flo, fhi, std::nextafter(fhi, flo),
                               std::nextafter(flo, fhi)};
    for (int i = 0; i < 2000; ++i) {
      keys.push_back(std::clamp(static_cast<float>(in(rng)), flo, fhi));
    }
    for (const float key : keys) {
      EXPECT_EQ(interpolation_bucket(key, lo, scale, 255),
                cast_bucket(key, lo, scale))
          << "key " << key << " in [" << flo << ", " << fhi << "]";
    }
  }
}

template <typename T>
using DigitsFn = void (*)(std::span<const T>, KeyBits<T>, int, std::uint32_t,
                          std::uint8_t*);

template <typename T>
std::vector<std::pair<const char*, DigitsFn<T>>> digit_bodies() {
  std::vector<std::pair<const char*, DigitsFn<T>>> bodies = {
      {"portable", detail::radix_digits_scalar<T>},
      {"dispatch", radix_digits<T>}};
#if SIMGPU_SIMD_X86
  if constexpr (kRadixCarrier<T>) {
    if (have_avx512f()) {
      bodies.push_back(
          {"avx512", [](std::span<const T> keys, KeyBits<T> order, int shift,
                        std::uint32_t mask, std::uint8_t* out) {
             detail::radix_digits_avx512<std::is_same_v<T, float>>(
                 keys, order, shift, mask, out);
           }});
    }
  }
#endif
  return bodies;
}

std::uint64_t ref_ord(std::uint64_t x) { return x; }

template <typename T>
void digits_match_per_key(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  constexpr int kBits = 8 * sizeof(T);
  for (const std::size_t n : tile_lengths()) {
    std::vector<T> keys(n);
    const auto bits = bits_with_specials(rng, n);
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (sizeof(T) == 8) {
        keys[i] = rng() % 3 == 0 ? std::uint64_t{bits[i]} << 32 : rng();
      } else {
        keys[i] = std::bit_cast<T>(bits[i]);
      }
    }
    for (const KeyBits<T> order : {KeyBits<T>{0}, ~KeyBits<T>{0}}) {
      for (const int shift : {0, 8, kBits - 8, kBits - 1}) {
        for (const std::uint32_t mask : {0xFFu, 0x7Fu}) {
          std::vector<std::uint8_t> want(n + 1, 0xEE);
          for (std::size_t i = 0; i < n; ++i) {
            want[i] = static_cast<std::uint8_t>(
                static_cast<std::uint32_t>((ref_ord(keys[i]) ^ order) >>
                                           shift) &
                mask);
          }
          for (const auto& [name, body] : digit_bodies<T>()) {
            std::vector<std::uint8_t> got(n + 1, 0xEE);
            body(keys, order, shift, mask, got.data());
            EXPECT_EQ(got, want) << name << " n=" << n << " shift=" << shift
                                 << " mask=" << mask;
          }
        }
      }
    }
  }
}

TEST(RadixDigits, F32MatchesPerKeyReference) {
  digits_match_per_key<float>(0xD161);
}

TEST(RadixDigits, U32MatchesPerKeyReference) {
  digits_match_per_key<std::uint32_t>(0xD162);
}

TEST(RadixDigits, U64MatchesPerKeyReference) {
  digits_match_per_key<std::uint64_t>(0xD163);
}

TEST(SplitCounts256, OneBinTwoBinAndAllEqualGroupTilesCountLikeAPlainLoop) {
  std::mt19937_64 rng(0x5C25);
  std::vector<std::size_t> lengths = tile_lengths();
  lengths.push_back(1025);
  for (int pattern = 0; pattern < 4; ++pattern) {
    for (const std::size_t n : lengths) {
      const auto a = static_cast<std::uint32_t>(rng() % 256);
      const auto b = (a + 1 + static_cast<std::uint32_t>(rng() % 255)) % 256;
      std::vector<std::uint8_t> bins(n);
      for (std::size_t i = 0; i < n; ++i) {
        bins[i] = static_cast<std::uint8_t>(run_pattern_digit(pattern, i, a, b));
      }
      std::vector<std::uint32_t> want(256, 7);
      for (const std::uint8_t x : bins) ++want[x];
      SplitCounts256 counts;
      // In two calls, the first ending mid-group.
      const std::size_t cut = n / 3;
      counts.add({bins.data(), cut});
      counts.add({bins.data() + cut, n - cut});
      std::vector<std::uint32_t> got(256, 7);
      counts.fold_into(got);
      EXPECT_EQ(got, want) << "pattern " << pattern << " n=" << n;
    }
  }
}

TEST(SplitCounts256, AddDigitsMatchesHistogramDigitsAndFoldsANarrowSpan) {
  std::mt19937_64 rng(0x5C26);
  for (const std::size_t n : {0u, 1u, 17u, 33u, 1024u, 3000u}) {
    for (const std::uint32_t order : {0u, ~0u}) {
      const std::vector<float> f = from_bits<float>(bits_with_specials(rng, n));
      for (const std::uint32_t mask : {0xFFu, 0x7Fu}) {
        std::vector<std::uint32_t> want(mask + 1, 0);
        detail::histogram_digits_scalar<float>(f, order, 24, mask, want.data());
        SplitCounts256 counts;
        counts.add_digits<float>(f, order, 24, mask);
        std::vector<std::uint32_t> got(mask + 1, 0);
        counts.fold_into(got);
        EXPECT_EQ(got, want) << "n=" << n << " mask=" << mask;
      }
    }
  }
}

#if SIMGPU_SIMD_X86
TEST(Dispatch, Avx512BodiesAgreeWithScalarFallbacks) {
  if (!have_avx512f()) GTEST_SKIP() << "host lacks AVX-512F";
  std::mt19937_64 rng(0xD15A);
  std::normal_distribution<float> dist(0.0f, 3.0f);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 1 + rng() % 32;
    std::vector<float> v(n);
    for (auto& x : v) x = dist(rng);
    const float threshold = dist(rng);

    std::size_t scalar_count = 0;
    for (float x : v) scalar_count += static_cast<std::size_t>(x < threshold);
    EXPECT_EQ(detail::count_below_f32_avx512(v.data(), n, threshold, 0),
              scalar_count);

    std::vector<std::uint64_t> a(n), b(n);
    const std::size_t ma = detail::pack_below_f32_avx512(
        v.data(), nullptr, 42u, n, threshold, a.data(), 0);
    std::size_t mb = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] < threshold) {
        b[mb++] = (static_cast<std::uint64_t>(ref_ord(v[i])) << 32) |
                  (42u + static_cast<std::uint32_t>(i));
      }
    }
    ASSERT_EQ(ma, mb) << "trial " << trial;
    EXPECT_TRUE(std::equal(b.begin(), b.begin() + mb, a.begin()));

    std::uint64_t s[32];
    for (auto& x : s) x = rng();
    std::uint64_t t[32];
    std::copy(std::begin(s), std::end(s), std::begin(t));
    detail::sort32_u64_avx512(s);
    detail::sort32_u64_scalar(t);
    EXPECT_TRUE(std::equal(std::begin(s), std::end(s), std::begin(t)));
  }
}
#endif  // SIMGPU_SIMD_X86

}  // namespace
}  // namespace simgpu::simd
