// Counter-invariance suite for the emulator's unchecked fast paths (tile
// scans, whole-tile SIMD filters, the threshold-gated warp rounds, raw
// shared-memory escapes): for every ported algorithm, across distributions
// and (N, K, batch) shapes, the recorded KernelStats stream — every counter
// of every kernel, in launch order — and the modeled device time of the
// default run must be BIT-IDENTICAL to those of the same run with a
// sanitizer attached, which takes the per-element reference paths instead
// (exact warp rounds, per-element filters, SharedRef accesses).  The
// selected value multiset must also agree (indices may differ only where
// elements tie at the K-th value, which is claimed by atomic ticket across
// concurrent blocks), and the sanitizer-attached run must stay clean.

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/air_topk.hpp"
#include "topk/fused_rowwise.hpp"
#include "topk/grid_select.hpp"
#include "topk/key_codec.hpp"
#include "topk/radix_traits.hpp"
#include "topk/registry.hpp"

namespace topk {
namespace {

using test::standard_distributions;

// Per-block counter *sums* are deterministic, but per-block *maxima*
// (max_block_bytes / max_block_lane_ops, and the model term derived from
// them) depend on which concurrent block wins atomic tickets for ties at
// the K-th value — scheduler noise, not a tile-path effect.  Pin the pool
// to one thread (the env is read when the process-wide pool is first built,
// which is after this initializer) so runs are bit-for-bit reproducible and
// the strict comparison below is meaningful.
const bool g_single_threaded = [] {
  ::setenv("TOPK_SIM_THREADS", "1", /*overwrite=*/1);
  return true;
}();

struct RunTrace {
  std::vector<simgpu::KernelStats> kernels;
  double model_us = 0.0;
  std::vector<std::vector<float>> sorted_values;  // one per problem
  bool sanitizer_clean = true;
  std::string sanitizer_report;
  std::uint64_t output_digest = 0;  // run_pinned only
};

RunTrace run_once(std::span<const float> data, std::size_t batch,
                  std::size_t n, std::size_t k, Algo algo, bool greatest,
                  bool simcheck) {
  simgpu::Device dev;
  if (simcheck) dev.enable_sanitizer();
  SelectOptions opt;
  opt.greatest = greatest;
  const auto results = select_batch(dev, data, batch, n, k, algo, opt);

  RunTrace t;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      t.kernels.push_back(ke->stats);
    }
  }
  t.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
  for (std::size_t b = 0; b < batch; ++b) {
    // verify_topk checks smallest-K; largest-K is checked as the smallest K
    // of the negated row.
    std::vector<float> row(data.begin() + static_cast<long>(b * n),
                           data.begin() + static_cast<long>((b + 1) * n));
    SelectResult checked = results[b];
    if (greatest) {
      for (float& v : row) v = -v;
      for (float& v : checked.values) v = -v;
    }
    const std::string err = verify_topk(row, k, checked);
    EXPECT_TRUE(err.empty())
        << algo_name(algo) << " greatest=" << greatest
        << " simcheck=" << simcheck << " problem " << b << ": " << err;
    std::vector<float> vals = results[b].values;
    std::sort(vals.begin(), vals.end());
    t.sorted_values.push_back(std::move(vals));
  }
  if (simcheck) {
    const auto rep = dev.sanitizer()->snapshot();
    t.sanitizer_clean = rep.clean();
    t.sanitizer_report = rep.to_string();
  }
  return t;
}

void expect_identical_stats(const RunTrace& a, const RunTrace& b,
                            const std::string& what) {
  ASSERT_EQ(a.kernels.size(), b.kernels.size()) << what;
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    const simgpu::KernelStats& x = a.kernels[i];
    const simgpu::KernelStats& y = b.kernels[i];
    const std::string at = what + " kernel[" + std::to_string(i) + "] = " +
                           std::string(x.name);
    EXPECT_EQ(x.name, y.name) << at;
    EXPECT_EQ(x.grid_blocks, y.grid_blocks) << at;
    EXPECT_EQ(x.block_threads, y.block_threads) << at;
    EXPECT_EQ(x.bytes_read, y.bytes_read) << at;
    EXPECT_EQ(x.bytes_written, y.bytes_written) << at;
    EXPECT_EQ(x.lane_ops, y.lane_ops) << at;
    EXPECT_EQ(x.atomic_ops, y.atomic_ops) << at;
    EXPECT_EQ(x.scattered_atomic_ops, y.scattered_atomic_ops) << at;
    EXPECT_EQ(x.block_syncs, y.block_syncs) << at;
    EXPECT_EQ(x.max_block_bytes, y.max_block_bytes) << at;
    EXPECT_EQ(x.max_block_lane_ops, y.max_block_lane_ops) << at;
  }
  EXPECT_EQ(a.model_us, b.model_us) << what << " modeled time";
  EXPECT_EQ(a.sorted_values, b.sorted_values) << what << " selected values";
}

struct InvarianceCase {
  Algo algo;
  std::size_t batch;
  std::size_t n;
  std::size_t k;
  bool greatest = false;
};

std::string case_name(const ::testing::TestParamInfo<InvarianceCase>& info) {
  std::string name = algo_name(info.param.algo);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_b" + std::to_string(info.param.batch) + "_n" +
         std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) +
         (info.param.greatest ? "_largest" : "");
}

/// Run `c` on `values` once unchecked (the fast paths) and once with a
/// sanitizer attached (the per-element paths), and expect the two runs
/// bit-identical, with the sanitizer clean.
void expect_invariant_across_modes(std::span<const float> values,
                                   const InvarianceCase& c,
                                   const std::string& what) {
  const auto leg = [&](bool simcheck) {
    return run_once(values, c.batch, c.n, c.k, c.algo, c.greatest, simcheck);
  };
  const RunTrace fast = leg(false);
  const RunTrace checked = leg(true);
  ASSERT_FALSE(fast.kernels.empty()) << what;
  expect_identical_stats(fast, checked, what + " [simcheck vs default]");
  EXPECT_TRUE(checked.sanitizer_clean)
      << what << " raised issues:\n" << checked.sanitizer_report;
}

std::string case_what(const InvarianceCase& c, const std::string& data) {
  return std::string(algo_name(c.algo)) + (c.greatest ? " largest-K" : "") +
         " on " + data;
}

class TileInvariance : public ::testing::TestWithParam<InvarianceCase> {};

TEST_P(TileInvariance, StatsAndModeledTimeBitIdenticalAcrossModes) {
  const InvarianceCase& c = GetParam();
  std::uint64_t seed = 77;
  for (const auto& spec : standard_distributions()) {
    const auto values = data::generate(spec, c.batch * c.n, seed++);
    expect_invariant_across_modes(values, c, case_what(c, spec.name()));
  }
}

/// The partition rows and Bitonic Top-K: tile scans, prepaid splitter reads
/// and packed networks under both fast paths.
constexpr Algo kPartitionRows[] = {Algo::kBitonicTopk, Algo::kQuickSelect,
                                   Algo::kSampleSelect, Algo::kBucketSelect};

/// Shapes for the partition rows: sub-tile and exact tiles (unless
/// `large_only`), then many tiles with a ragged tail (Bitonic Top-K at its
/// largest K) and a batch with odd sizes, each in both directions.
std::vector<InvarianceCase> partition_row_cases(bool large_only) {
  std::vector<InvarianceCase> cases;
  for (Algo algo : kPartitionRows) {
    const std::size_t big_k = algo == Algo::kBitonicTopk ? 256 : 517;
    if (!large_only) {
      cases.push_back({algo, 1, 999, 1});
      cases.push_back({algo, 1, 4096, 64});
    }
    for (const bool greatest : {false, true}) {
      cases.push_back({algo, 1, 70001, big_k, greatest});
      cases.push_back({algo, 3, 10007, 100, greatest});
    }
  }
  return cases;
}

std::vector<InvarianceCase> cases() {
  // Every algorithm whose inner loops ride the tile scans, plus the
  // fused-last-filter AIR variant (its fused filter scans through the same
  // tile helpers).  The warp-queue family — GridSelect in both queue
  // flavours, WarpSelect, BlockSelect, both fused row-wise variants, and the
  // bucketed approximate tier (exact at the default recall_target = 1.0) —
  // additionally exercises the threshold-gated warp fast path.  RadixSelect
  // and stream-radix run the same radix pass loop (SIMD digit histogram
  // when unchecked).  The partition rows and Bitonic Top-K follow
  // (partition_row_cases).
  const Algo algos[] = {Algo::kAirTopk,          Algo::kSort,
                        Algo::kRadixSelect,      Algo::kGridSelect,
                        Algo::kAirTopkFusedFilter, Algo::kWarpSelect,
                        Algo::kBlockSelect,      Algo::kGridSelectThreadQueue,
                        Algo::kFusedWarpRowwise, Algo::kFusedBlockRowwise,
                        Algo::kBucketApprox,     Algo::kStreamRadix};
  std::vector<InvarianceCase> cases;
  for (Algo algo : algos) {
    cases.push_back({algo, 1, 999, 1});          // sub-tile problem
    cases.push_back({algo, 1, 4096, 64});        // a few exact tiles
    cases.push_back({algo, 1, 70001, 517});      // many tiles + ragged tail
    cases.push_back({algo, 3, 10007, 100});      // batched, odd sizes
  }
  // Largest-K runs every comparison, sentinel and packed key through the
  // plan's KeyOrder: the radix rows xor its mask into every radix key (the
  // SIMD histogram included), the warp-queue rows into their gates and
  // packed candidates, Sort into its digit keys.
  for (Algo algo :
       {Algo::kAirTopk, Algo::kRadixSelect, Algo::kStreamRadix,
        Algo::kGridSelect, Algo::kGridSelectThreadQueue, Algo::kWarpSelect,
        Algo::kBlockSelect, Algo::kFusedWarpRowwise, Algo::kFusedBlockRowwise,
        Algo::kBucketApprox, Algo::kSort}) {
    cases.push_back({algo, 1, 70001, 517, true});
    cases.push_back({algo, 3, 10007, 100, true});
  }
  const auto partition = partition_row_cases(/*large_only=*/false);
  cases.insert(cases.end(), partition.begin(), partition.end());
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, TileInvariance, ::testing::ValuesIn(cases()),
                         case_name);

// ---- partition rows on tie-heavy keys --------------------------------------
// Keys with few distinct values drive the partition rows down their rarer
// paths: SampleSelect's three-way pivot mode and its equal-class exit,
// QuickSelect's equal-partition exit, BucketSelect's all-equal exit, and
// recursion over several levels; Bitonic Top-K sees ties across chunks.

std::vector<float> tie_heavy_values(int kind, std::size_t count,
                                    std::uint64_t seed) {
  auto v = data::uniform_values(count, seed);
  switch (kind) {
    case 0:  // two values
      for (float& x : v) x = x < 0.5f ? 1.0f : 2.0f;
      return v;
    case 1:  // nine values, nine in ten of them the smallest
      for (float& x : v) x = x < 0.9f ? 1.0f : std::floor(x * 80.0f) - 70.0f;
      return v;
    default:  // radix-adversarial: only the last two bits vary
      return data::radix_adversarial_values(count, 30, seed);
  }
}

class TieHeavyInvariance : public ::testing::TestWithParam<InvarianceCase> {};

TEST_P(TieHeavyInvariance, StatsAndModeledTimeBitIdenticalAcrossModes) {
  const InvarianceCase& c = GetParam();
  const char* const names[] = {"two values", "nine values",
                               "radix-adversarial m=30"};
  for (int kind = 0; kind < 3; ++kind) {
    const auto values = tie_heavy_values(kind, c.batch * c.n, 0x7E + kind);
    expect_invariant_across_modes(values, c, case_what(c, names[kind]));
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionRows, TieHeavyInvariance,
                         ::testing::ValuesIn(partition_row_cases(
                             /*large_only=*/true)),
                         case_name);

/// The radix rows at the partition rows' large shapes, both directions: on
/// two values AIR's last filter hands out tie tickets, on nine values and
/// adversarial keys every pass re-scans its input.  Sort's digit histogram
/// sees whole 16-key groups in one bin on all three.
std::vector<InvarianceCase> radix_row_cases() {
  std::vector<InvarianceCase> cases;
  for (Algo algo : {Algo::kAirTopk, Algo::kAirTopkFusedFilter,
                    Algo::kRadixSelect, Algo::kStreamRadix, Algo::kSort}) {
    for (const bool greatest : {false, true}) {
      cases.push_back({algo, 1, 70001, 517, greatest});
      cases.push_back({algo, 3, 10007, 100, greatest});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RadixRows, TieHeavyInvariance,
                         ::testing::ValuesIn(radix_row_cases()), case_name);

// ---- typed keys, default vs sanitizer-attached ----------------------------
// The dtype layer must be invisible to the counter stream too: a typed
// select (f16 on the float carrier with a u32 payload, i32 on the u32
// carrier with a u64 payload) produces bit-identical KernelStats, modeled
// time, result bits and gathered payloads unchecked and with a sanitizer
// attached.  Payload gather is a host-side post-pass, so it must contribute
// zero kernels to the stream.

struct TypedTrace {
  std::vector<simgpu::KernelStats> kernels;
  double model_us = 0.0;
  std::vector<std::uint32_t> sorted_bits;
  std::vector<std::uint64_t> sorted_payload;
  bool sanitizer_clean = true;
  std::string sanitizer_report;
};

TypedTrace run_typed_once(KeyView keys, PayloadView payload, std::size_t n,
                          std::size_t k, Algo algo, bool simcheck) {
  simgpu::Device dev;
  if (simcheck) dev.enable_sanitizer();
  const auto results = select_batch(dev, keys, 1, n, k, algo, {}, payload);

  TypedTrace t;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      t.kernels.push_back(ke->stats);
    }
  }
  t.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
  const SelectResult& r = results[0];
  for (std::size_t i = 0; i < k; ++i) {
    t.sorted_bits.push_back(r.dtype == KeyType::kF32
                                ? std::bit_cast<std::uint32_t>(r.values[i])
                                : r.values_bits[i]);
  }
  std::sort(t.sorted_bits.begin(), t.sorted_bits.end());
  t.sorted_payload = r.payload;
  std::sort(t.sorted_payload.begin(), t.sorted_payload.end());
  if (simcheck) {
    const auto rep = dev.sanitizer()->snapshot();
    t.sanitizer_clean = rep.clean();
    t.sanitizer_report = rep.to_string();
  }
  return t;
}

void expect_identical_typed(const TypedTrace& a, const TypedTrace& b,
                            const std::string& what) {
  ASSERT_EQ(a.kernels.size(), b.kernels.size()) << what;
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    EXPECT_EQ(a.kernels[i].name, b.kernels[i].name) << what << " kernel " << i;
    EXPECT_EQ(a.kernels[i].bytes_read, b.kernels[i].bytes_read)
        << what << " kernel " << i;
    EXPECT_EQ(a.kernels[i].bytes_written, b.kernels[i].bytes_written)
        << what << " kernel " << i;
    EXPECT_EQ(a.kernels[i].lane_ops, b.kernels[i].lane_ops)
        << what << " kernel " << i;
  }
  EXPECT_EQ(a.model_us, b.model_us) << what << " modeled time";
  EXPECT_EQ(a.sorted_bits, b.sorted_bits) << what << " result bits";
  EXPECT_EQ(a.sorted_payload, b.sorted_payload) << what << " payloads";
}

TEST(TypedTileInvariance, DtypeAndPayloadInvisibleToCounterStream) {
  const std::size_t n = 70001, k = 517;
  const auto values = data::generate(
      {data::Distribution::kAdversarial, 20}, n, 0xD7);

  std::vector<half> f16;
  f16.reserve(n);
  std::vector<std::int32_t> i32;
  i32.reserve(n);
  for (const float v : values) {
    f16.emplace_back(v);
    i32.push_back(static_cast<std::int32_t>(v * 1e6f));
  }
  std::vector<std::uint32_t> pay32(n);
  std::vector<std::uint64_t> pay64(n);
  for (std::size_t i = 0; i < n; ++i) {
    pay32[i] = static_cast<std::uint32_t>(i);
    pay64[i] = static_cast<std::uint64_t>(i) << 21;
  }

  struct Leg {
    KeyView keys;
    PayloadView payload;
    Algo algo;
    const char* what;
  };
  const Leg legs[] = {
      {KeyView::of(std::span<const half>(f16)),
       PayloadView::of(std::span<const std::uint32_t>(pay32)),
       Algo::kRadixSelect, "f16+u32pay radixselect"},
      {KeyView::of(std::span<const std::int32_t>(i32)),
       PayloadView::of(std::span<const std::uint64_t>(pay64)),
       Algo::kAirTopk, "i32+u64pay air"},
  };
  for (const Leg& leg : legs) {
    const TypedTrace fast =
        run_typed_once(leg.keys, leg.payload, n, k, leg.algo, false);
    ASSERT_FALSE(fast.kernels.empty()) << leg.what;
    const TypedTrace checked =
        run_typed_once(leg.keys, leg.payload, n, k, leg.algo, true);
    expect_identical_typed(fast, checked,
                           std::string(leg.what) + " [simcheck]");
    EXPECT_TRUE(checked.sanitizer_clean)
        << leg.what << ":\n" << checked.sanitizer_report;
    // The same keys without a payload must produce the same kernel stream
    // shape (payload adds no kernels).
    const TypedTrace nopay =
        run_typed_once(leg.keys, {}, n, k, leg.algo, false);
    ASSERT_EQ(fast.kernels.size(), nopay.kernels.size())
        << leg.what << ": payload gather must stay off-device";
    EXPECT_EQ(fast.model_us, nopay.model_us) << leg.what;
  }
}

/// FNV-1a over 64-bit words and strings.
class Fnv64 {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    add(s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---- warp-queue family count pin ------------------------------------------
// The suite above compares the two paths within one build; this pin
// compares builds.  Every KernelStats field of every kernel, plus the
// modeled µs, is recorded for each warp-queue row and for shard-merge at
// one batch-1 and one batch-8 shape, so a refactor of the shared scan must
// reproduce the recorded counts exactly; these rows also pin an FNV-1a
// digest of their outputs (every value's bits, then every index, in output
// order), so a list update that keeps the counts but emits other indices
// fails too.
// On a mismatch the test prints the row it measured in table syntax.

struct PinnedKernel {
  const char* name;
  int grid_blocks;
  int block_threads;
  std::uint64_t bytes_read;
  std::uint64_t bytes_written;
  std::uint64_t lane_ops;
  std::uint64_t atomic_ops;
  std::uint64_t scattered_atomic_ops;
  std::uint64_t block_syncs;
  std::uint64_t max_block_bytes;
  std::uint64_t max_block_lane_ops;
};

struct PinnedRecord {
  const char* label;
  double model_us;
  std::vector<PinnedKernel> kernels;
  std::uint64_t output_digest = 0;  ///< 0 where outputs are not pinned
};

struct PinnedRun {
  std::string label;
  Algo algo;
  double recall_target;
  std::size_t batch;
  std::size_t n;
  std::size_t k;
  /// Tie-heavy keys floor(4096 u), so the K-th value falls inside a tie
  /// group; with `one_value` every key is the same.
  bool ties;
  bool one_value;
  const PinnedRecord* want;  // null until recorded
};

std::string pin_row(const std::string& label, const RunTrace& got,
                    bool pin_outputs) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", got.model_us);
  std::string s = "    {\"" + label + "\", " + buf + ", {\n";
  for (const simgpu::KernelStats& x : got.kernels) {
    s += "        {\"" + std::string(x.name) + "\", " +
         std::to_string(x.grid_blocks) + ", " +
         std::to_string(x.block_threads) + ", " +
         std::to_string(x.bytes_read) + ", " +
         std::to_string(x.bytes_written) + ", " + std::to_string(x.lane_ops) +
         ", " + std::to_string(x.atomic_ops) + ", " +
         std::to_string(x.scattered_atomic_ops) + ", " +
         std::to_string(x.block_syncs) + ", " +
         std::to_string(x.max_block_bytes) + ", " +
         std::to_string(x.max_block_lane_ops) + "},\n";
  }
  if (!pin_outputs) return s + "    }},\n";
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(got.output_digest));
  return s + "    }, " + buf + "},\n";
}

RunTrace run_pinned(const PinnedRun& run) {
  auto data = data::generate({data::Distribution::kUniform, 0},
                             run.batch * run.n, 0x5EED);
  if (run.ties) {
    for (float& x : data) x = run.one_value ? 42.0f : std::floor(x * 4096.0f);
  }
  simgpu::Device dev;
  SelectOptions opt;
  opt.recall_target = run.recall_target;
  const auto results =
      select_batch(dev, data, run.batch, run.n, run.k, run.algo, opt);
  RunTrace t;
  Fnv64 out;
  for (const SelectResult& r : results) {
    for (const float v : r.values) out.add(std::bit_cast<std::uint32_t>(v));
  }
  for (const SelectResult& r : results) {
    for (const std::uint32_t i : r.indices) out.add(i);
  }
  t.output_digest = out.value();
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      t.kernels.push_back(ke->stats);
    }
  }
  t.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
  return t;
}

// Recorded before the warp-queue scan was shared: TOPK_SIM_THREADS=1, tile
// and warpfast on, the default device spec.  Kernel fields in KernelStats
// order: name, grid_blocks, block_threads, bytes_read, bytes_written,
// lane_ops, atomic_ops, scattered_atomic_ops, block_syncs, max_block_bytes,
// max_block_lane_ops.  The output digests and the tie-heavy rows were
// recorded later, on the tree whose list warm-up still merged every flush
// and whose drains still sorted with std::sort.  The shard-merge rows (its
// multi-run tree at b1 and b8, its single-run sort-and-emit at n = 300)
// were recorded while its run sort still called std::sort.
const PinnedRecord kRecorded[] = {
    {"grid b1 n70001 k100", 0x1.39c439f1b1631p+3, {
        {"GridSelect_partial", 5, 256, 280004, 5120, 580392, 0, 0, 5, 57028, 117433},
        {"GridSelect_merge", 1, 1024, 5120, 800, 2304, 0, 0, 0, 5920, 2304},
    }, 0xa2df545038d2211dull},
    {"grid-threadqueue b1 n70001 k100", 0x1.39c439f1b1631p+3, {
        {"GridSelect_partial_threadqueue", 5, 256, 280004, 5120, 823938, 0, 0, 5, 57028, 166510},
        {"GridSelect_merge", 1, 1024, 5120, 800, 2304, 0, 0, 0, 5920, 2304},
    }, 0xa2df545038d2211dull},
    {"warp b1 n70001 k100", 0x1.582dcb5df3cb6p+7, {
        {"WarpSelect", 1, 32, 280004, 800, 137988, 0, 0, 1, 280804, 137988},
    }, 0xa2df545038d2211dull},
    {"block b1 n70001 k100", 0x1.672dcb5df3cb6p+5, {
        {"BlockSelect", 1, 128, 280004, 800, 261566, 0, 0, 1, 280804, 261566},
    }, 0xa2df545038d2211dull},
    {"fused-warp b1 n70001 k100", 0x1.582dcb5df3cb6p+7, {
        {"FusedRowwise_warp", 1, 32, 280004, 800, 137988, 0, 0, 0, 280804, 137988},
    }, 0xa2df545038d2211dull},
    {"fused-block b1 n70001 k100", 0x1.b41b89a1de654p+4, {
        {"FusedRowwise_block", 1, 256, 280004, 8192, 211699, 0, 0, 1, 288196, 211699},
        {"FusedRowwise_block_merge", 1, 1024, 8192, 800, 4032, 0, 0, 0, 8992, 4032},
    }, 0xa2df545038d2211dull},
    {"bucket-approx@1.0 b1 n70001 k100", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 280004, 25600, 2859552, 0, 0, 32, 9552, 89361},
        {"BucketApproxRefine", 1, 1024, 25600, 800, 159744, 0, 0, 0, 26400, 159744},
    }, 0xa2df545038d2211dull},
    {"bucket-approx@0.9 b1 n70001 k100", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 280004, 1280, 984418, 0, 0, 32, 8792, 31099},
        {"BucketApproxRefine", 1, 1024, 1280, 800, 4608, 0, 0, 0, 2080, 4608},
    }, 0x2962029467087b26ull},
    {"grid b8 n10007 k64", 0x1.63dedfa00719cp+2, {
        {"GridSelect_partial", 8, 256, 320224, 4096, 441600, 0, 0, 8, 40540, 56033},
    }, 0xf938cb3e5aa2adeaull},
    {"grid-threadqueue b8 n10007 k64", 0x1.63dedfa00719cp+2, {
        {"GridSelect_partial_threadqueue", 8, 256, 320224, 4096, 779704, 0, 0, 8, 40540, 99855},
    }, 0xf938cb3e5aa2adeaull},
    {"warp b8 n10007 k64", 0x1.afbdbf400e338p+4, {
        {"WarpSelect", 8, 32, 320224, 4096, 279687, 0, 0, 8, 40540, 36521},
    }, 0xf938cb3e5aa2adeaull},
    {"block b8 n10007 k64", 0x1.13dedfa00719cp+3, {
        {"BlockSelect", 8, 128, 320224, 4096, 559080, 0, 0, 8, 40540, 71681},
    }, 0xf938cb3e5aa2adeaull},
    {"fused-warp b8 n10007 k64", 0x1.afbdbf400e338p+4, {
        {"FusedRowwise_warp", 1, 256, 320224, 4096, 279687, 0, 0, 0, 324320, 279687},
    }, 0xf938cb3e5aa2adeaull},
    {"fused-block b8 n10007 k64", 0x1.1a97ea406aebcp+3, {
        {"FusedRowwise_block", 8, 256, 320224, 32768, 427264, 0, 0, 8, 44124, 54241},
        {"FusedRowwise_block_merge", 8, 1024, 32768, 4096, 14336, 0, 0, 0, 4608, 1792},
    }, 0xf938cb3e5aa2adeaull},
    {"bucket-approx@1.0 b8 n10007 k64", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 320224, 16384, 2538016, 0, 0, 32, 10520, 79313},
        {"BucketApproxRefine", 8, 1024, 16384, 4096, 36864, 0, 0, 0, 2560, 4608},
    }, 0xf938cb3e5aa2adeaull},
    {"bucket-approx@0.9 b8 n10007 k64", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 320224, 4352, 1251277, 0, 0, 32, 10144, 39368},
        {"BucketApproxRefine", 8, 1024, 4352, 4096, 14336, 0, 0, 0, 1056, 1792},
    }, 0xb64880d3e0c88babull},
    {"grid ties b1 n70001 k100", 0x1.39c439f1b1631p+3, {
        {"GridSelect_partial", 5, 256, 280004, 5120, 580359, 0, 0, 5, 57028, 117436},
        {"GridSelect_merge", 1, 1024, 5120, 800, 2304, 0, 0, 0, 5920, 2304},
    }, 0xeac74c309d3a082full},
    {"grid-threadqueue ties b1 n70001 k100", 0x1.39c439f1b1631p+3, {
        {"GridSelect_partial_threadqueue", 5, 256, 280004, 5120, 823842, 0, 0, 5, 57028, 166414},
        {"GridSelect_merge", 1, 1024, 5120, 800, 2304, 0, 0, 0, 5920, 2304},
    }, 0xeac74c309d3a082full},
    {"warp ties b1 n70001 k100", 0x1.582dcb5df3cb6p+7, {
        {"WarpSelect", 1, 32, 280004, 800, 136804, 0, 0, 1, 280804, 136804},
    }, 0xeac74c309d3a082full},
    {"block ties b1 n70001 k100", 0x1.672dcb5df3cb6p+5, {
        {"BlockSelect", 1, 128, 280004, 800, 261278, 0, 0, 1, 280804, 261278},
    }, 0xeac74c309d3a082full},
    {"fused-warp ties b1 n70001 k100", 0x1.582dcb5df3cb6p+7, {
        {"FusedRowwise_warp", 1, 32, 280004, 800, 136804, 0, 0, 0, 280804, 136804},
    }, 0xeac74c309d3a082full},
    {"fused-block ties b1 n70001 k100", 0x1.b41b89a1de654p+4, {
        {"FusedRowwise_block", 1, 256, 280004, 8192, 211663, 0, 0, 1, 288196, 211663},
        {"FusedRowwise_block_merge", 1, 1024, 8192, 800, 4032, 0, 0, 0, 8992, 4032},
    }, 0x01f155ff2d34e6c1ull},
    {"bucket-approx@1.0 ties b1 n70001 k100", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 280004, 25600, 2859552, 0, 0, 32, 9552, 89361},
        {"BucketApproxRefine", 1, 1024, 25600, 800, 159744, 0, 0, 0, 26400, 159744},
    }, 0xeac74c309d3a082full},
    {"bucket-approx@0.9 ties b1 n70001 k100", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 280004, 1280, 984399, 0, 0, 32, 8792, 31099},
        {"BucketApproxRefine", 1, 1024, 1280, 800, 4608, 0, 0, 0, 2080, 4608},
    }, 0x0dd96296d79c1611ull},
    {"grid ties b8 n300 k64", 0x1.6p+2, {
        {"GridSelect_partial", 8, 256, 9600, 4096, 60080, 0, 0, 8, 1712, 7510},
    }, 0xd5a103799661711dull},
    {"grid-threadqueue ties b8 n300 k64", 0x1.6p+2, {
        {"GridSelect_partial_threadqueue", 8, 256, 9600, 4096, 63312, 0, 0, 8, 1712, 7914},
    }, 0xd5a103799661711dull},
    {"warp ties b8 n300 k64", 0x1.6p+2, {
        {"WarpSelect", 8, 32, 9600, 4096, 51520, 0, 0, 8, 1712, 7106},
    }, 0xd5a103799661711dull},
    {"block ties b8 n300 k64", 0x1.6p+2, {
        {"BlockSelect", 8, 128, 9600, 4096, 68176, 0, 0, 8, 1712, 8522},
    }, 0xd5a103799661711dull},
    {"fused-warp ties b8 n300 k64", 0x1.6p+2, {
        {"FusedRowwise_warp", 1, 256, 9600, 4096, 51520, 0, 0, 0, 13696, 51520},
    }, 0xd5a103799661711dull},
    {"fused-block ties b8 n300 k64", 0x1.1p+3, {
        {"FusedRowwise_block", 8, 256, 9600, 32768, 45744, 0, 0, 8, 5296, 5718},
        {"FusedRowwise_block_merge", 8, 1024, 32768, 4096, 14336, 0, 0, 0, 4608, 1792},
    }, 0xb49ffcbfacf9e6ddull},
    {"bucket-approx@1.0 ties b8 n300 k64", 0x1.1p+3, {
        {"BucketApproxScan", 32, 96, 9600, 16384, 76384, 0, 0, 32, 812, 2387},
        {"BucketApproxRefine", 8, 1024, 16384, 4096, 36864, 0, 0, 0, 2560, 4608},
    }, 0xd5a103799661711dull},
    {"bucket-approx@0.9 ties b8 n300 k64", 0x1.1p+3, {
        {"BucketApproxScan", 32, 96, 9600, 4352, 50272, 0, 0, 32, 436, 1571},
        {"BucketApproxRefine", 8, 1024, 4352, 4096, 14336, 0, 0, 0, 1056, 1792},
    }, 0x85e8c28eb11361c3ull},
    {"shard-merge b1 n70001 k100", 0x1.78p+4, {
        {"ShardMergeSort", 18, 1024, 280004, 18432, 2875392, 0, 0, 0, 17408, 159744},
        {"ShardMergeLevel(1)", 9, 1024, 18432, 9216, 5184, 0, 0, 0, 3072, 576},
        {"ShardMergeLevel(2)", 5, 1024, 9216, 5120, 2304, 0, 0, 0, 3072, 576},
        {"ShardMergeLevel(3)", 3, 1024, 5120, 3072, 1152, 0, 0, 0, 3072, 576},
        {"ShardMergeLevel(4)", 2, 1024, 3072, 2048, 576, 0, 0, 0, 3072, 576},
        {"ShardMergeLevel(5)", 1, 1024, 2048, 1024, 576, 0, 0, 0, 3072, 576},
        {"ShardMergeEmit", 1, 1024, 800, 800, 0, 0, 0, 0, 1600, 0},
    }, 0xa2df545038d2211dull},
    {"shard-merge b8 n10007 k64", 0x1.dp+3, {
        {"ShardMergeSort", 24, 1024, 320224, 12288, 3833856, 0, 0, 0, 16896, 159744},
        {"ShardMergeLevel(1)", 16, 1024, 12288, 8192, 2048, 0, 0, 0, 1536, 256},
        {"ShardMergeLevel(2)", 8, 1024, 8192, 4096, 2048, 0, 0, 0, 1536, 256},
        {"ShardMergeEmit", 8, 1024, 4096, 4096, 0, 0, 0, 0, 1024, 0},
    }, 0xf938cb3e5aa2adeaull},
    {"shard-merge ties b1 n70001 k100", 0x1.78p+4, {
        {"ShardMergeSort", 18, 1024, 280004, 18432, 2875392, 0, 0, 0, 17408, 159744},
        {"ShardMergeLevel(1)", 9, 1024, 18432, 9216, 5184, 0, 0, 0, 3072, 576},
        {"ShardMergeLevel(2)", 5, 1024, 9216, 5120, 2304, 0, 0, 0, 3072, 576},
        {"ShardMergeLevel(3)", 3, 1024, 5120, 3072, 1152, 0, 0, 0, 3072, 576},
        {"ShardMergeLevel(4)", 2, 1024, 3072, 2048, 576, 0, 0, 0, 3072, 576},
        {"ShardMergeLevel(5)", 1, 1024, 2048, 1024, 576, 0, 0, 0, 3072, 576},
        {"ShardMergeEmit", 1, 1024, 800, 800, 0, 0, 0, 0, 1600, 0},
    }, 0xeac74c309d3a082full},
    {"shard-merge ties b8 n300 k64", 0x1.6p+2, {
        {"ShardMergeSortEmit", 8, 1024, 9600, 4096, 92160, 0, 0, 0, 1712, 11520},
    }, 0xd5a103799661711dull},
};

struct PinRow {
  const char* label;
  Algo algo;
  double recall;
};

/// Every row at one batch-1 and one batch-8 shape, on uniform keys and,
/// with `ties`, on tie-heavy keys too, each paired with its entry in
/// `recorded` (null when the label has none).  The tie-heavy batch-8 rows
/// are short (n = 300), so the per-warp lists of the multi-warp rows end
/// below k and are published before their warm-up is sorted.  With
/// `one_value`, every row also runs at batch 8, n = 300 with every key
/// equal.
std::vector<PinnedRun> pinned_runs(std::span<const PinRow> rows,
                                   std::span<const PinnedRecord> recorded,
                                   bool ties, bool one_value = false) {
  using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;
  std::vector<PinnedRun> runs;
  const auto find = [&](PinnedRun& run) {
    for (const PinnedRecord& rec : recorded) {
      if (run.label == rec.label) run.want = &rec;
    }
  };
  for (const bool tied : {false, true}) {
    if (tied && !ties) continue;
    for (const auto& [batch, n, k] :
         {Shape{1, 70001, 100}, tied ? Shape{8, 300, 64} : Shape{8, 10007, 64}}) {
      for (const PinRow& r : rows) {
        PinnedRun run{std::string(r.label) + (tied ? " ties" : "") + " b" +
                          std::to_string(batch) + " n" + std::to_string(n) +
                          " k" + std::to_string(k),
                      r.algo, r.recall, batch, n, k, tied, false, nullptr};
        find(run);
        runs.push_back(std::move(run));
      }
    }
  }
  for (const PinRow& r : one_value ? rows : std::span<const PinRow>()) {
    PinnedRun run{std::string(r.label) + " one-value b8 n300 k64", r.algo,
                  r.recall, 8, 300, 64, true, true, nullptr};
    find(run);
    runs.push_back(std::move(run));
  }
  return runs;
}

void expect_matches_recording(const std::vector<PinnedRun>& runs,
                              bool pin_outputs) {
  for (const PinnedRun& run : runs) {
    const RunTrace got = run_pinned(run);
    // Under TOPK_SIMCHECK select_batch attaches a sanitizer, so the exact
    // leg runs; its networks break ties at the K-th value another way (the
    // result contract leaves that open), so tie rows pin their outputs on
    // the fast leg only.  Counts and modeled µs are pinned on both.
    const bool outputs = pin_outputs && !(run.ties && simcheck_env_enabled());
    bool same = run.want != nullptr &&
                got.kernels.size() == run.want->kernels.size() &&
                got.model_us == run.want->model_us &&
                (!outputs || got.output_digest == run.want->output_digest);
    for (std::size_t i = 0; same && i < got.kernels.size(); ++i) {
      const simgpu::KernelStats& x = got.kernels[i];
      const PinnedKernel& y = run.want->kernels[i];
      same = x.name == y.name && x.grid_blocks == y.grid_blocks &&
             x.block_threads == y.block_threads &&
             x.bytes_read == y.bytes_read &&
             x.bytes_written == y.bytes_written && x.lane_ops == y.lane_ops &&
             x.atomic_ops == y.atomic_ops &&
             x.scattered_atomic_ops == y.scattered_atomic_ops &&
             x.block_syncs == y.block_syncs &&
             x.max_block_bytes == y.max_block_bytes &&
             x.max_block_lane_ops == y.max_block_lane_ops;
    }
    EXPECT_TRUE(same) << run.label << " differs from its recording; measured:\n"
                      << pin_row(run.label, got, pin_outputs);
  }
}

TEST(WarpQueueCountPin, KernelStatsAndModeledTimeMatchRecording) {
  const PinRow rows[] = {
      {"grid", Algo::kGridSelect, 1.0},
      {"grid-threadqueue", Algo::kGridSelectThreadQueue, 1.0},
      {"warp", Algo::kWarpSelect, 1.0},
      {"block", Algo::kBlockSelect, 1.0},
      {"fused-warp", Algo::kFusedWarpRowwise, 1.0},
      {"fused-block", Algo::kFusedBlockRowwise, 1.0},
      {"bucket-approx@1.0", Algo::kBucketApprox, 1.0},
      {"bucket-approx@0.9", Algo::kBucketApprox, 0.9},
      {"shard-merge", Algo::kShardMerge, 1.0},
  };
  expect_matches_recording(pinned_runs(rows, kRecorded, true), true);
}

// ---- partition rows, Bitonic Top-K, AIR and the radix rows count pin ------
// The same pin for the rows whose scans, splitter searches and networks run
// on the tile and warp fast paths: Bitonic Top-K, QuickSelect, SampleSelect,
// BucketSelect, and AIR, whose filter appends through the same
// AggregatedAppender as the three partition rows; RadixSelect, whose
// host loop shares its level plumbing with the three partition rows
// (topk/level_loop.hpp); and Sort and stream-radix, whose 256-bin
// histograms share the lane-split counter with BucketSelect and
// RadixSelect.  The uniform rows' counts were recorded before
// those fast paths existed, under the same settings as kRecorded.  The
// output digests, the tie-heavy and one-value rows and the RadixSelect
// rows were recorded later, on the tree just before the shared level loop;
// the Sort and stream-radix rows on the tree just before the lane-split
// counter (simd::SplitCounts256).
// Between them the rows reach every exit of the host loops: the remainder
// copy at count == k_rem, BucketSelect's all-equal exit, SampleSelect's
// on-chip sort and its pivot fallback with the pivot-equal exit (one-value
// rows), QuickSelect's equal-partition finish, and the radix loop's tie
// and last-pass takes.
const PinnedRecord kPartitionRecorded[] = {
    {"bitonic b1 n70001 k100", 0x1.1cp+5, {
        {"BitonicTopK_sort_prune(0)", 35, 256, 280004, 280576, 1139840, 0, 0, 0, 16384, 33280},
        {"BitonicTopK_merge(1)", 18, 256, 280576, 140288, 78912, 0, 0, 0, 24576, 4608},
        {"BitonicTopK_merge(2)", 9, 256, 140288, 70656, 39168, 0, 0, 0, 24576, 4608},
        {"BitonicTopK_merge(3)", 5, 256, 70656, 35840, 19584, 0, 0, 0, 21504, 4032},
        {"BitonicTopK_merge(4)", 3, 256, 35840, 18432, 9792, 0, 0, 0, 18432, 3456},
        {"BitonicTopK_merge(5)", 2, 256, 18432, 9216, 5184, 0, 0, 0, 15360, 2880},
        {"BitonicTopK_merge(6)", 1, 256, 9216, 5120, 2304, 0, 0, 0, 14336, 2304},
        {"BitonicTopK_merge(7)", 1, 256, 5120, 3072, 1152, 0, 0, 0, 8192, 1152},
        {"BitonicTopK_merge(8)", 1, 256, 3072, 2048, 576, 0, 0, 0, 5120, 576},
        {"BitonicTopK_merge(9)", 1, 256, 2048, 1024, 576, 0, 0, 0, 3072, 576},
        {"BitonicTopK_emit", 1, 256, 800, 800, 0, 0, 0, 0, 1600, 0},
    }, 0xa2df545038d2211dull},
    {"quick b1 n70001 k100", 0x1.d567540aa3673p+8, {
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 5, 256, 280004, 560008, 214391, 2194, 0, 0, 168012, 42881},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 20248, 20248, 7755, 81, 0, 0, 40496, 7755},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 12560, 12560, 4812, 51, 0, 0, 25120, 4812},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 9400, 9400, 3601, 38, 0, 0, 18800, 3601},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 7408, 7408, 2838, 30, 0, 0, 14816, 2838},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 2280, 2280, 877, 11, 0, 0, 4560, 877},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1360, 1360, 524, 7, 0, 0, 2720, 524},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1216, 1216, 470, 7, 0, 0, 2432, 470},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 856, 856, 331, 5, 0, 0, 1712, 331},
        {"collect_results", 1, 256, 168, 168, 0, 0, 0, 0, 336, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 680, 680, 265, 5, 0, 0, 1360, 265},
        {"collect_results", 1, 256, 520, 520, 0, 0, 0, 0, 1040, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 152, 152, 63, 3, 0, 0, 304, 63},
        {"collect_results", 1, 256, 40, 40, 0, 0, 0, 0, 80, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 104, 104, 45, 3, 0, 0, 208, 45},
        {"collect_results", 1, 256, 16, 16, 0, 0, 0, 0, 32, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 80, 80, 36, 3, 0, 0, 160, 36},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 56, 56, 27, 3, 0, 0, 112, 27},
        {"collect_results", 1, 256, 24, 24, 0, 0, 0, 0, 48, 0},
    }, 0x3480ce5b564c32c9ull},
    {"sample b1 n70001 k100", 0x1.2576ce43c616fp+7, {
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 5, 256, 2520036, 0, 700010, 0, 1280, 5, 504036, 140010},
        {"sample_filter", 5, 256, 2520036, 2864, 770041, 15, 0, 0, 504640, 154017},
        {"small_sort", 1, 256, 2864, 800, 11520, 0, 0, 0, 3664, 11520},
    }, 0xa2df545038d2211dull},
    {"bucket b1 n70001 k100", 0x1.4cc2992c43357p+7, {
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 5, 256, 280004, 0, 140002, 10, 0, 0, 56004, 28002},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 5, 256, 280004, 0, 280004, 0, 1280, 5, 56004, 56004},
        {"bucket_filter", 5, 256, 280004, 2120, 350025, 10, 0, 0, 56488, 70009},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1060, 0, 530, 2, 0, 0, 1060, 530},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1060, 0, 1060, 0, 166, 1, 1060, 1060},
        {"bucket_filter", 1, 256, 2120, 808, 1335, 5, 0, 0, 2928, 1335},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 12, 0, 6, 2, 0, 0, 12, 6},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 12, 0, 12, 0, 3, 1, 12, 12},
        {"bucket_filter", 1, 256, 24, 16, 19, 2, 0, 0, 40, 19},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
    }, 0x96729c5000c90505ull},
    {"air b1 n70001 k100", 0x1.4e81dcf9abc96p+4, {
        {"air_init", 1, 256, 0, 20576, 2048, 0, 0, 0, 20576, 2048},
        {"iteration_fused_kernel(1)", 5, 256, 286220, 40, 714346, 5, 244, 5, 62064, 146144},
        {"iteration_fused_kernel(2)", 5, 256, 286536, 896, 714366, 15, 19, 5, 62540, 146148},
        {"iteration_fused_kernel(3)", 5, 256, 392, 112, 200, 10, 0, 0, 112, 42},
        {"last_filter_kernel", 5, 256, 80, 0, 0, 0, 0, 0, 16, 0},
    }, 0x152d369bf67e71f5ull},
    {"radixselect b1 n70001 k100", 0x1.ce884acae0a76p+6, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 5, 256, 280004, 0, 211283, 0, 41, 5, 56004, 42259},
        {"Filter(0)", 5, 256, 280004, 1080, 280004, 135, 0, 0, 56248, 56004},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 428, 0, 577, 0, 87, 1, 428, 577},
        {"Filter(1)", 1, 256, 856, 584, 428, 73, 0, 0, 1440, 428},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 8, 0, 262, 0, 2, 1, 8, 262},
        {"Filter(2)", 1, 256, 16, 8, 8, 1, 0, 0, 24, 8},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
    }, 0x11b93e8ea3892d7dull},
    {"bitonic b8 n10007 k64", 0x1.d8p+4, {
        {"BitonicTopK_sort_prune(0)", 80, 256, 320224, 323584, 1011200, 0, 0, 0, 8192, 12800},
        {"BitonicTopK_merge(1)", 40, 256, 323584, 163840, 79872, 0, 0, 0, 12288, 2048},
        {"BitonicTopK_merge(2)", 24, 256, 163840, 81920, 40960, 0, 0, 0, 10752, 1792},
        {"BitonicTopK_merge(3)", 16, 256, 81920, 40960, 20480, 0, 0, 0, 7680, 1280},
        {"BitonicTopK_merge(4)", 8, 256, 40960, 20480, 10240, 0, 0, 0, 7680, 1280},
        {"BitonicTopK_merge(5)", 8, 256, 20480, 12288, 4096, 0, 0, 0, 4096, 512},
        {"BitonicTopK_merge(6)", 8, 256, 12288, 8192, 2048, 0, 0, 0, 2560, 256},
        {"BitonicTopK_merge(7)", 8, 256, 8192, 4096, 2048, 0, 0, 0, 1536, 256},
        {"BitonicTopK_emit", 8, 256, 4096, 4096, 0, 0, 0, 0, 1024, 0},
    }, 0xf938cb3e5aa2adeaull},
    {"quick b8 n10007 k64", 0x1.b1498245ce38fp+11, {
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40028, 80056, 30651, 315, 0, 0, 120084, 30651},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 70248, 70248, 26895, 276, 0, 0, 140496, 26895},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 48864, 48864, 18710, 193, 0, 0, 97728, 18710},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 5136, 5136, 1970, 22, 0, 0, 10272, 1970},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 888, 888, 345, 6, 0, 0, 1776, 345},
        {"collect_results", 1, 256, 360, 360, 0, 0, 0, 0, 720, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 520, 520, 203, 4, 0, 0, 1040, 203},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 232, 232, 93, 3, 0, 0, 464, 93},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 216, 216, 87, 3, 0, 0, 432, 87},
        {"collect_results", 1, 256, 64, 64, 0, 0, 0, 0, 128, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 144, 144, 60, 3, 0, 0, 288, 60},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 96, 96, 42, 3, 0, 0, 192, 42},
        {"collect_results", 1, 256, 56, 56, 0, 0, 0, 0, 112, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 32, 32, 18, 3, 0, 0, 64, 18},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 16, 16, 10, 2, 0, 0, 32, 10},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40028, 80056, 30649, 314, 0, 0, 120084, 30649},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 55288, 55288, 21169, 218, 0, 0, 110576, 21169},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 46776, 46776, 17911, 185, 0, 0, 93552, 17911},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 12664, 12664, 4851, 51, 0, 0, 25328, 4851},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 4048, 4048, 1554, 18, 0, 0, 8096, 1554},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1112, 1112, 429, 6, 0, 0, 2224, 429},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 768, 768, 298, 5, 0, 0, 1536, 298},
        {"collect_results", 1, 256, 264, 264, 0, 0, 0, 0, 528, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 496, 496, 194, 4, 0, 0, 992, 194},
        {"collect_results", 1, 256, 152, 152, 0, 0, 0, 0, 304, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 336, 336, 134, 4, 0, 0, 672, 134},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 272, 272, 108, 3, 0, 0, 544, 108},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 208, 208, 84, 3, 0, 0, 416, 84},
        {"collect_results", 1, 256, 64, 64, 0, 0, 0, 0, 128, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 136, 136, 57, 3, 0, 0, 272, 57},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 48, 48, 24, 3, 0, 0, 96, 24},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 32, 32, 18, 3, 0, 0, 64, 18},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 16, 16, 10, 2, 0, 0, 32, 10},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40028, 80056, 30651, 315, 0, 0, 120084, 30651},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 56632, 56632, 21683, 223, 0, 0, 113264, 21683},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 41416, 41416, 15857, 163, 0, 0, 82832, 15857},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 8384, 8384, 3214, 35, 0, 0, 16768, 3214},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 2648, 2648, 1017, 12, 0, 0, 5296, 1017},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1360, 1360, 526, 8, 0, 0, 2720, 526},
        {"collect_results", 1, 256, 272, 272, 0, 0, 0, 0, 544, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1080, 1080, 417, 6, 0, 0, 2160, 417},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 576, 576, 224, 4, 0, 0, 1152, 224},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 312, 312, 123, 3, 0, 0, 624, 123},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 240, 240, 96, 3, 0, 0, 480, 96},
        {"collect_results", 1, 256, 136, 136, 0, 0, 0, 0, 272, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 96, 96, 42, 3, 0, 0, 192, 42},
        {"collect_results", 1, 256, 24, 24, 0, 0, 0, 0, 48, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 64, 64, 30, 3, 0, 0, 128, 30},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 48, 48, 24, 3, 0, 0, 96, 24},
        {"collect_results", 1, 256, 24, 24, 0, 0, 0, 0, 48, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 16, 16, 10, 2, 0, 0, 32, 10},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40028, 80056, 30649, 314, 0, 0, 120084, 30649},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 52944, 52944, 20270, 208, 0, 0, 105888, 20270},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 31184, 31184, 11942, 124, 0, 0, 62368, 11942},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 23712, 23712, 9080, 94, 0, 0, 47424, 9080},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 14320, 14320, 5486, 58, 0, 0, 28640, 5486},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 6944, 6944, 2662, 29, 0, 0, 13888, 2662},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 3872, 3872, 1486, 17, 0, 0, 7744, 1486},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 792, 792, 307, 5, 0, 0, 1584, 307},
        {"collect_results", 1, 256, 320, 320, 0, 0, 0, 0, 640, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 464, 464, 180, 3, 0, 0, 928, 180},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 256, 256, 102, 3, 0, 0, 512, 102},
        {"collect_results", 1, 256, 80, 80, 0, 0, 0, 0, 160, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 168, 168, 69, 3, 0, 0, 336, 69},
        {"collect_results", 1, 256, 40, 40, 0, 0, 0, 0, 80, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 120, 120, 51, 3, 0, 0, 240, 51},
        {"collect_results", 1, 256, 40, 40, 0, 0, 0, 0, 80, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40028, 80056, 30651, 315, 0, 0, 120084, 30651},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 53560, 53560, 20507, 211, 0, 0, 107120, 20507},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 37584, 37584, 14392, 149, 0, 0, 75168, 14392},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 27480, 27480, 10523, 109, 0, 0, 54960, 10523},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 12952, 12952, 4961, 52, 0, 0, 25904, 4961},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 5368, 5368, 2059, 23, 0, 0, 10736, 2059},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 2392, 2392, 919, 11, 0, 0, 4784, 919},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 752, 752, 292, 5, 0, 0, 1504, 292},
        {"collect_results", 1, 256, 344, 344, 0, 0, 0, 0, 688, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 400, 400, 156, 3, 0, 0, 800, 156},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 232, 232, 93, 3, 0, 0, 464, 93},
        {"collect_results", 1, 256, 152, 152, 0, 0, 0, 0, 304, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40028, 80056, 30649, 314, 0, 0, 120084, 30649},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 18864, 18864, 7226, 76, 0, 0, 37728, 7226},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 5216, 5216, 2002, 23, 0, 0, 10432, 2002},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 3120, 3120, 1200, 15, 0, 0, 6240, 1200},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 2072, 2072, 797, 10, 0, 0, 4144, 797},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 616, 616, 239, 4, 0, 0, 1232, 239},
        {"collect_results", 1, 256, 472, 472, 0, 0, 0, 0, 944, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 136, 136, 57, 3, 0, 0, 272, 57},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 72, 72, 33, 3, 0, 0, 144, 33},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40, 40, 21, 3, 0, 0, 80, 21},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 24, 24, 15, 3, 0, 0, 48, 15},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40028, 80056, 30651, 315, 0, 0, 120084, 30651},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 25960, 25960, 9941, 103, 0, 0, 51920, 9941},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 13496, 13496, 5171, 55, 0, 0, 26992, 5171},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 10112, 10112, 3874, 41, 0, 0, 20224, 3874},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 4832, 4832, 1854, 21, 0, 0, 9664, 1854},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1072, 1072, 414, 6, 0, 0, 2144, 414},
        {"collect_results", 1, 256, 344, 344, 0, 0, 0, 0, 688, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 720, 720, 280, 5, 0, 0, 1440, 280},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 408, 408, 159, 3, 0, 0, 816, 159},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 232, 232, 93, 3, 0, 0, 464, 93},
        {"collect_results", 1, 256, 88, 88, 0, 0, 0, 0, 176, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 136, 136, 57, 3, 0, 0, 272, 57},
        {"collect_results", 1, 256, 32, 32, 0, 0, 0, 0, 64, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 96, 96, 42, 3, 0, 0, 192, 42},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 80, 80, 36, 3, 0, 0, 160, 36},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 64, 64, 30, 3, 0, 0, 128, 30},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 24, 24, 15, 3, 0, 0, 48, 15},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40028, 80056, 30651, 315, 0, 0, 120084, 30651},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 34872, 34872, 13353, 138, 0, 0, 69744, 13353},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 17088, 17088, 6546, 69, 0, 0, 34176, 6546},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 8624, 8624, 3304, 35, 0, 0, 17248, 3304},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 3776, 3776, 1450, 17, 0, 0, 7552, 1450},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1808, 1808, 696, 9, 0, 0, 3616, 696},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1032, 1032, 399, 6, 0, 0, 2064, 399},
        {"collect_results", 1, 256, 448, 448, 0, 0, 0, 0, 896, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 576, 576, 226, 5, 0, 0, 1152, 226},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 264, 264, 105, 3, 0, 0, 528, 105},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 184, 184, 75, 3, 0, 0, 368, 75},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 168, 168, 69, 3, 0, 0, 336, 69},
        {"collect_results", 1, 256, 24, 24, 0, 0, 0, 0, 48, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 136, 136, 57, 3, 0, 0, 272, 57},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 96, 96, 42, 3, 0, 0, 192, 42},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 72, 72, 33, 3, 0, 0, 144, 33},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 40, 40, 21, 3, 0, 0, 80, 21},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 16, 16, 10, 2, 0, 0, 32, 10},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
    }, 0x3133988a24d6b16eull},
    {"sample b8 n10007 k64", 0x1.f424a5e62ac11p+9, {
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 360252, 0, 100070, 0, 256, 1, 360252, 100070},
        {"sample_filter", 1, 256, 360252, 512, 110081, 2, 0, 0, 360764, 110081},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 360252, 0, 100070, 0, 256, 1, 360252, 100070},
        {"sample_filter", 1, 256, 360252, 784, 110085, 4, 0, 0, 361036, 110085},
        {"small_sort", 1, 256, 400, 128, 672, 0, 0, 0, 528, 672},
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 360252, 0, 100070, 0, 256, 1, 360252, 100070},
        {"sample_filter", 1, 256, 360252, 1048, 110087, 5, 0, 0, 361300, 110087},
        {"small_sort", 1, 256, 616, 80, 1792, 0, 0, 0, 696, 1792},
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 360252, 0, 100070, 0, 256, 1, 360252, 100070},
        {"sample_filter", 1, 256, 360252, 576, 110083, 3, 0, 0, 360828, 110083},
        {"small_sort", 1, 256, 224, 160, 240, 0, 0, 0, 384, 240},
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 360252, 0, 100070, 0, 256, 1, 360252, 100070},
        {"sample_filter", 1, 256, 360252, 584, 110083, 3, 0, 0, 360836, 110083},
        {"small_sort", 1, 256, 584, 512, 1792, 0, 0, 0, 1096, 1792},
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 360252, 0, 100070, 0, 256, 1, 360252, 100070},
        {"sample_filter", 1, 256, 360252, 768, 110085, 4, 0, 0, 361020, 110085},
        {"small_sort", 1, 256, 272, 16, 672, 0, 0, 0, 288, 672},
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 360252, 0, 100070, 0, 256, 1, 360252, 100070},
        {"sample_filter", 1, 256, 360252, 1176, 110089, 6, 0, 0, 361428, 110089},
        {"small_sort", 1, 256, 1048, 384, 4608, 0, 0, 0, 1432, 4608},
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 360252, 0, 100070, 0, 256, 1, 360252, 100070},
        {"sample_filter", 1, 256, 360252, 768, 110083, 3, 0, 0, 361020, 110083},
        {"small_sort", 1, 256, 768, 512, 1792, 0, 0, 0, 1280, 1792},
    }, 0x2d89ad331c154c06ull},
    {"bucket b8 n10007 k64", 0x1.c6e1cbbf83366p+9, {
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 40028, 0, 20014, 2, 0, 0, 40028, 20014},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 40028, 0, 40028, 0, 256, 1, 40028, 40028},
        {"bucket_filter", 1, 256, 40028, 624, 50043, 4, 0, 0, 40652, 50043},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 140, 0, 70, 2, 0, 0, 140, 70},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 140, 0, 140, 0, 33, 1, 140, 140},
        {"bucket_filter", 1, 256, 280, 168, 179, 2, 0, 0, 448, 179},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 40028, 0, 20014, 2, 0, 0, 40028, 20014},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 40028, 0, 40028, 0, 256, 1, 40028, 40028},
        {"bucket_filter", 1, 256, 40028, 544, 50041, 3, 0, 0, 40572, 50041},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 160, 0, 80, 2, 0, 0, 160, 80},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 160, 0, 160, 0, 39, 1, 160, 160},
        {"bucket_filter", 1, 256, 320, 288, 206, 3, 0, 0, 608, 206},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 40028, 0, 20014, 2, 0, 0, 40028, 20014},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 40028, 0, 40028, 0, 256, 1, 40028, 40028},
        {"bucket_filter", 1, 256, 40028, 600, 50043, 4, 0, 0, 40628, 50043},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 160, 0, 80, 2, 0, 0, 160, 80},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 160, 0, 160, 0, 38, 1, 160, 160},
        {"bucket_filter", 1, 256, 320, 232, 204, 2, 0, 0, 552, 204},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 40028, 0, 20014, 2, 0, 0, 40028, 20014},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 40028, 0, 40028, 0, 256, 1, 40028, 40028},
        {"bucket_filter", 1, 256, 40028, 736, 50043, 4, 0, 0, 40764, 50043},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 180, 0, 90, 2, 0, 0, 180, 90},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 180, 0, 180, 0, 42, 1, 180, 180},
        {"bucket_filter", 1, 256, 360, 136, 229, 2, 0, 0, 496, 229},
        {"CopyRemainder", 1, 256, 16, 16, 0, 0, 0, 0, 32, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 40028, 0, 20014, 2, 0, 0, 40028, 20014},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 40028, 0, 40028, 0, 256, 1, 40028, 40028},
        {"bucket_filter", 1, 256, 40028, 664, 50043, 4, 0, 0, 40692, 50043},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 192, 0, 96, 2, 0, 0, 192, 96},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 192, 0, 192, 0, 45, 1, 192, 192},
        {"bucket_filter", 1, 256, 384, 232, 244, 2, 0, 0, 616, 244},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 40028, 0, 20014, 2, 0, 0, 40028, 20014},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 40028, 0, 40028, 0, 256, 1, 40028, 40028},
        {"bucket_filter", 1, 256, 40028, 616, 50043, 4, 0, 0, 40644, 50043},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 164, 0, 82, 2, 0, 0, 164, 82},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 164, 0, 164, 0, 38, 1, 164, 164},
        {"bucket_filter", 1, 256, 328, 224, 209, 2, 0, 0, 552, 209},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 40028, 0, 20014, 2, 0, 0, 40028, 20014},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 40028, 0, 40028, 0, 256, 1, 40028, 40028},
        {"bucket_filter", 1, 256, 40028, 688, 50043, 4, 0, 0, 40716, 50043},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 180, 0, 90, 2, 0, 0, 180, 90},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 180, 0, 180, 0, 43, 1, 180, 180},
        {"bucket_filter", 1, 256, 360, 184, 229, 2, 0, 0, 544, 229},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 40028, 0, 20014, 2, 0, 0, 40028, 20014},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 40028, 0, 40028, 0, 256, 1, 40028, 40028},
        {"bucket_filter", 1, 256, 40028, 664, 50043, 4, 0, 0, 40692, 50043},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 180, 0, 90, 2, 0, 0, 180, 90},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 180, 0, 180, 0, 42, 1, 180, 180},
        {"bucket_filter", 1, 256, 360, 208, 229, 2, 0, 0, 568, 229},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
    }, 0x0d8824931d1aeb22ull},
    {"air b8 n10007 k64", 0x1.27959b1e11fp+4, {
        {"air_init", 8, 256, 0, 164608, 16384, 0, 0, 0, 20576, 2048},
        {"iteration_fused_kernel(1)", 8, 256, 368696, 336, 849712, 8, 374, 8, 46132, 106214},
        {"iteration_fused_kernel(2)", 8, 256, 339776, 4736, 837468, 30, 67, 6, 46248, 106220},
        {"iteration_fused_kernel(3)", 8, 256, 856, 248, 682, 12, 0, 0, 216, 152},
        {"last_filter_kernel", 8, 256, 128, 0, 0, 0, 0, 0, 16, 0},
    }, 0x9fe65848d054e366ull},
    {"radixselect b8 n10007 k64", 0x1.42cab6ae77553p+9, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"Filter(0)", 1, 256, 40028, 624, 40028, 78, 0, 0, 40652, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 248, 0, 442, 0, 50, 1, 248, 442},
        {"Filter(1)", 1, 256, 496, 384, 248, 48, 0, 0, 880, 248},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"Filter(0)", 1, 256, 40028, 544, 40028, 68, 0, 0, 40572, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 200, 0, 406, 0, 46, 1, 200, 406},
        {"Filter(1)", 1, 256, 400, 368, 200, 46, 0, 0, 768, 200},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"Filter(0)", 1, 256, 40028, 600, 40028, 75, 0, 0, 40628, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 216, 0, 418, 0, 51, 1, 216, 418},
        {"Filter(1)", 1, 256, 432, 344, 216, 43, 0, 0, 776, 216},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"Filter(0)", 1, 256, 40028, 736, 40028, 92, 0, 0, 40764, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 288, 0, 472, 0, 65, 1, 288, 472},
        {"Filter(1)", 1, 256, 576, 352, 288, 44, 0, 0, 928, 288},
        {"CopyRemainder", 1, 256, 24, 24, 3, 0, 0, 0, 48, 3},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"Filter(0)", 1, 256, 40028, 656, 40028, 82, 0, 0, 40684, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 244, 0, 439, 0, 56, 1, 244, 439},
        {"Filter(1)", 1, 256, 488, 344, 244, 43, 0, 0, 832, 244},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 40028, 0, 30277, 0, 9, 1, 40028, 30277},
        {"Filter(0)", 1, 256, 40028, 616, 40028, 77, 0, 0, 40644, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 228, 0, 427, 0, 53, 1, 228, 427},
        {"Filter(1)", 1, 256, 456, 352, 228, 44, 0, 0, 808, 228},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"Filter(0)", 1, 256, 40028, 688, 40028, 86, 0, 0, 40716, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 268, 0, 457, 0, 62, 1, 268, 457},
        {"Filter(1)", 1, 256, 536, 360, 268, 45, 0, 0, 896, 268},
        {"CopyRemainder", 1, 256, 16, 16, 2, 0, 0, 0, 32, 2},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 40028, 0, 30277, 0, 9, 1, 40028, 30277},
        {"Filter(0)", 1, 256, 40028, 664, 40028, 83, 0, 0, 40692, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 244, 0, 439, 0, 56, 1, 244, 439},
        {"Filter(1)", 1, 256, 488, 336, 244, 42, 0, 0, 824, 244},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
    }, 0xa8f3265ca6d1d04eull},
    {"bitonic ties b1 n70001 k100", 0x1.1cp+5, {
        {"BitonicTopK_sort_prune(0)", 35, 256, 280004, 280576, 1139840, 0, 0, 0, 16384, 33280},
        {"BitonicTopK_merge(1)", 18, 256, 280576, 140288, 78912, 0, 0, 0, 24576, 4608},
        {"BitonicTopK_merge(2)", 9, 256, 140288, 70656, 39168, 0, 0, 0, 24576, 4608},
        {"BitonicTopK_merge(3)", 5, 256, 70656, 35840, 19584, 0, 0, 0, 21504, 4032},
        {"BitonicTopK_merge(4)", 3, 256, 35840, 18432, 9792, 0, 0, 0, 18432, 3456},
        {"BitonicTopK_merge(5)", 2, 256, 18432, 9216, 5184, 0, 0, 0, 15360, 2880},
        {"BitonicTopK_merge(6)", 1, 256, 9216, 5120, 2304, 0, 0, 0, 14336, 2304},
        {"BitonicTopK_merge(7)", 1, 256, 5120, 3072, 1152, 0, 0, 0, 8192, 1152},
        {"BitonicTopK_merge(8)", 1, 256, 3072, 2048, 576, 0, 0, 0, 5120, 576},
        {"BitonicTopK_merge(9)", 1, 256, 2048, 1024, 576, 0, 0, 0, 3072, 576},
        {"BitonicTopK_emit", 1, 256, 800, 800, 0, 0, 0, 0, 1600, 0},
    }, 0xeac74c309d3a082full},
    {"quick ties b1 n70001 k100", 0x1.1251732bc65c8p+8, {
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 5, 256, 280004, 560008, 214395, 2196, 0, 0, 168012, 42883},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 20144, 20144, 7714, 80, 0, 0, 40288, 7714},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 9048, 9048, 3465, 36, 0, 0, 18096, 3465},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 2264, 2264, 871, 11, 0, 0, 4528, 871},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1304, 1304, 501, 6, 0, 0, 2608, 501},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1216, 1216, 468, 6, 0, 0, 2432, 468},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 848, 848, 328, 5, 0, 0, 1696, 328},
        {"collect_results", 1, 256, 128, 128, 0, 0, 0, 0, 256, 0},
        {"collect_results", 1, 256, 96, 96, 0, 0, 0, 0, 192, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 624, 624, 240, 3, 0, 0, 1248, 240},
        {"collect_results", 1, 256, 472, 472, 0, 0, 0, 0, 944, 0},
        {"collect_results", 1, 256, 104, 104, 0, 0, 0, 0, 208, 0},
    }, 0x1d8af5b4ae5c10a3ull},
    {"sample ties b1 n70001 k100", 0x1.2575919fff2ccp+7, {
        {"sample", 1, 256, 4096, 4096, 2048, 0, 0, 0, 8192, 2048},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 5, 256, 2520036, 0, 700010, 0, 1280, 5, 504036, 140010},
        {"sample_filter", 5, 256, 2520036, 2760, 770039, 14, 0, 0, 504608, 154017},
        {"small_sort", 1, 256, 2760, 800, 11520, 0, 0, 0, 3560, 11520},
    }, 0xf79df33525de67e4ull},
    {"bucket ties b1 n70001 k100", 0x1.0ba77b998b376p+7, {
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 5, 256, 280004, 0, 140002, 10, 0, 0, 56004, 28002},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 5, 256, 280004, 0, 280004, 0, 1280, 5, 56004, 56004},
        {"bucket_filter", 5, 256, 280004, 2112, 350025, 10, 0, 0, 56488, 70009},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1056, 0, 528, 2, 0, 0, 1056, 528},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1056, 0, 1056, 0, 16, 1, 1056, 1056},
        {"bucket_filter", 1, 256, 2112, 848, 1328, 4, 0, 0, 2960, 1328},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 76, 0, 38, 2, 0, 0, 76, 38},
        {"CopyRemainder", 1, 256, 104, 104, 0, 0, 0, 0, 208, 0},
    }, 0xc01fcf3883730643ull},
    {"air ties b1 n70001 k100", 0x1.472264b5f3c2ap+4, {
        {"air_init", 1, 256, 0, 20576, 2048, 0, 0, 0, 20576, 2048},
        {"iteration_fused_kernel(1)", 5, 256, 286412, 40, 714346, 5, 220, 5, 62256, 146144},
        {"iteration_fused_kernel(2)", 5, 256, 280248, 888, 714366, 15, 5, 5, 56244, 146148},
        {"iteration_fused_kernel(3)", 5, 256, 396, 192, 7368, 10, 5, 5, 140, 3104},
        {"last_filter_kernel", 5, 256, 392, 104, 208, 9, 0, 0, 112, 44},
    }, 0xc01fcf3883730643ull},
    {"radixselect ties b1 n70001 k100", 0x1.285f42f82851cp+7, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 5, 256, 280004, 0, 211283, 0, 40, 5, 56004, 42259},
        {"Filter(0)", 5, 256, 280004, 1080, 280004, 135, 0, 0, 56248, 56004},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 428, 0, 577, 0, 6, 1, 428, 577},
        {"Filter(1)", 1, 256, 856, 624, 428, 78, 0, 0, 1480, 428},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 76, 0, 313, 0, 1, 1, 76, 313},
        {"Filter(2)", 1, 256, 152, 152, 76, 19, 0, 0, 304, 76},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 76, 0, 313, 0, 1, 1, 76, 313},
        {"Filter(3)", 1, 256, 152, 152, 76, 19, 0, 0, 304, 76},
        {"CopyRemainder", 1, 256, 104, 104, 13, 0, 0, 0, 208, 13},
    }, 0xfc78febb4e270127ull},
    {"bitonic ties b8 n300 k64", 0x1.dp+3, {
        {"BitonicTopK_sort_prune(0)", 8, 256, 9600, 12288, 38400, 0, 0, 0, 2736, 4800},
        {"BitonicTopK_merge(1)", 8, 256, 12288, 8192, 2048, 0, 0, 0, 2560, 256},
        {"BitonicTopK_merge(2)", 8, 256, 8192, 4096, 2048, 0, 0, 0, 1536, 256},
        {"BitonicTopK_emit", 8, 256, 4096, 4096, 0, 0, 0, 0, 1024, 0},
    }, 0xd5a103799661711dull},
    {"quick ties b8 n300 k64", 0x1.0b97113b027b5p+11, {
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 922, 11, 0, 0, 3600, 922},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 696, 696, 271, 5, 0, 0, 1392, 271},
        {"collect_results", 1, 256, 312, 312, 0, 0, 0, 0, 624, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 376, 376, 147, 3, 0, 0, 752, 147},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 232, 232, 93, 3, 0, 0, 464, 93},
        {"collect_results", 1, 256, 168, 168, 0, 0, 0, 0, 336, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 56, 56, 27, 3, 0, 0, 112, 27},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 922, 11, 0, 0, 3600, 922},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1936, 1936, 744, 9, 0, 0, 3872, 744},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 976, 976, 378, 6, 0, 0, 1952, 378},
        {"collect_results", 1, 256, 360, 360, 0, 0, 0, 0, 720, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 608, 608, 238, 5, 0, 0, 1216, 238},
        {"collect_results", 1, 256, 56, 56, 0, 0, 0, 0, 112, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 544, 544, 212, 4, 0, 0, 1088, 212},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 336, 336, 132, 3, 0, 0, 672, 132},
        {"collect_results", 1, 256, 80, 80, 0, 0, 0, 0, 160, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 922, 11, 0, 0, 3600, 922},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1640, 1640, 631, 8, 0, 0, 3280, 631},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 728, 728, 283, 5, 0, 0, 1456, 283},
        {"collect_results", 1, 256, 416, 416, 0, 0, 0, 0, 832, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 304, 304, 122, 4, 0, 0, 608, 122},
        {"collect_results", 1, 256, 32, 32, 0, 0, 0, 0, 64, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 264, 264, 105, 3, 0, 0, 528, 105},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 216, 216, 87, 3, 0, 0, 432, 87},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 160, 160, 66, 3, 0, 0, 320, 66},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 104, 104, 45, 3, 0, 0, 208, 45},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 88, 88, 39, 3, 0, 0, 176, 39},
        {"collect_results", 1, 256, 16, 16, 0, 0, 0, 0, 32, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 64, 64, 30, 3, 0, 0, 128, 30},
        {"collect_results", 1, 256, 16, 16, 0, 0, 0, 0, 32, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 924, 12, 0, 0, 3600, 924},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 2080, 2080, 800, 10, 0, 0, 4160, 800},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1632, 1632, 628, 8, 0, 0, 3264, 628},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1464, 1464, 563, 7, 0, 0, 2928, 563},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 984, 984, 381, 6, 0, 0, 1968, 381},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 712, 712, 277, 5, 0, 0, 1424, 277},
        {"collect_results", 1, 256, 304, 304, 0, 0, 0, 0, 608, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 400, 400, 158, 4, 0, 0, 800, 158},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 272, 272, 108, 3, 0, 0, 544, 108},
        {"collect_results", 1, 256, 200, 200, 0, 0, 0, 0, 400, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 922, 11, 0, 0, 3600, 922},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1680, 1680, 648, 9, 0, 0, 3360, 648},
        {"collect_results", 1, 256, 344, 344, 0, 0, 0, 0, 688, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1328, 1328, 512, 7, 0, 0, 2656, 512},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 568, 568, 221, 4, 0, 0, 1136, 221},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 232, 232, 93, 3, 0, 0, 464, 93},
        {"collect_results", 1, 256, 80, 80, 0, 0, 0, 0, 160, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 144, 144, 60, 3, 0, 0, 288, 60},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 128, 128, 54, 3, 0, 0, 256, 54},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 112, 112, 48, 3, 0, 0, 224, 48},
        {"collect_results", 1, 256, 56, 56, 0, 0, 0, 0, 112, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 922, 11, 0, 0, 3600, 922},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 624, 624, 244, 5, 0, 0, 1248, 244},
        {"collect_results", 1, 256, 88, 88, 0, 0, 0, 0, 176, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 528, 528, 206, 4, 0, 0, 1056, 206},
        {"collect_results", 1, 256, 104, 104, 0, 0, 0, 0, 208, 0},
        {"collect_results", 1, 256, 16, 16, 0, 0, 0, 0, 32, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 408, 408, 161, 4, 0, 0, 816, 161},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 304, 304, 120, 3, 0, 0, 608, 120},
        {"collect_results", 1, 256, 192, 192, 0, 0, 0, 0, 384, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 104, 104, 45, 3, 0, 0, 208, 45},
        {"collect_results", 1, 256, 64, 64, 0, 0, 0, 0, 128, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 32, 32, 18, 3, 0, 0, 64, 18},
        {"collect_results", 1, 256, 16, 16, 0, 0, 0, 0, 32, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 924, 12, 0, 0, 3600, 924},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 808, 808, 313, 5, 0, 0, 1616, 313},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 656, 656, 256, 5, 0, 0, 1312, 256},
        {"collect_results", 1, 256, 280, 280, 0, 0, 0, 0, 560, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 368, 368, 144, 3, 0, 0, 736, 144},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 240, 240, 96, 3, 0, 0, 480, 96},
        {"collect_results", 1, 256, 64, 64, 0, 0, 0, 0, 128, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 168, 168, 69, 3, 0, 0, 336, 69},
        {"collect_results", 1, 256, 24, 24, 0, 0, 0, 0, 48, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 136, 136, 57, 3, 0, 0, 272, 57},
        {"collect_results", 1, 256, 40, 40, 0, 0, 0, 0, 80, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 88, 88, 39, 3, 0, 0, 176, 39},
        {"collect_results", 1, 256, 48, 48, 0, 0, 0, 0, 96, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 32, 32, 18, 3, 0, 0, 64, 18},
        {"collect_results", 1, 256, 16, 16, 0, 0, 0, 0, 32, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 922, 11, 0, 0, 3600, 922},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 976, 976, 378, 6, 0, 0, 1952, 378},
        {"collect_results", 1, 256, 264, 264, 0, 0, 0, 0, 528, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 704, 704, 274, 5, 0, 0, 1408, 274},
        {"collect_results", 1, 256, 40, 40, 0, 0, 0, 0, 80, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 656, 656, 254, 4, 0, 0, 1312, 254},
        {"collect_results", 1, 256, 144, 144, 0, 0, 0, 0, 288, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 504, 504, 197, 4, 0, 0, 1008, 197},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 368, 368, 146, 4, 0, 0, 736, 146},
        {"collect_results", 1, 256, 16, 16, 0, 0, 0, 0, 32, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 344, 344, 135, 3, 0, 0, 688, 135},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 80, 80, 36, 3, 0, 0, 160, 36},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 56, 56, 27, 3, 0, 0, 112, 27},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"collect_results", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
    }, 0xc136d392fa98a7fdull},
    {"sample ties b8 n300 k64", 0x1.1e9129888f861p+9, {
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 10800, 0, 3000, 0, 247, 1, 10800, 3000},
        {"sample_filter", 1, 256, 10800, 512, 3306, 3, 0, 0, 11312, 3306},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 10800, 0, 3000, 0, 249, 1, 10800, 3000},
        {"sample_filter", 1, 256, 10800, 512, 3306, 3, 0, 0, 11312, 3306},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 10800, 0, 3000, 0, 246, 1, 10800, 3000},
        {"sample_filter", 1, 256, 10800, 512, 3306, 3, 0, 0, 11312, 3306},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 10800, 0, 3000, 0, 245, 1, 10800, 3000},
        {"sample_filter", 1, 256, 10800, 512, 3306, 3, 0, 0, 11312, 3306},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 10800, 0, 3000, 0, 249, 1, 10800, 3000},
        {"sample_filter", 1, 256, 10800, 512, 3306, 3, 0, 0, 11312, 3306},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 10800, 0, 3000, 0, 252, 1, 10800, 3000},
        {"sample_filter", 1, 256, 10800, 512, 3306, 3, 0, 0, 11312, 3306},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 10800, 0, 3000, 0, 250, 1, 10800, 3000},
        {"sample_filter", 1, 256, 10800, 512, 3306, 3, 0, 0, 11312, 3306},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"sample_histogram", 1, 256, 10800, 0, 3000, 0, 249, 1, 10800, 3000},
        {"sample_filter", 1, 256, 10800, 512, 3306, 3, 0, 0, 11312, 3306},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
    }, 0x7e9545b634647af5ull},
    {"bucket ties b8 n300 k64", 0x1.334432ca57a77p+9, {
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1200, 0, 1200, 0, 176, 1, 1200, 1200},
        {"bucket_filter", 1, 256, 1200, 512, 1506, 3, 0, 0, 1712, 1506},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1200, 0, 1200, 0, 179, 1, 1200, 1200},
        {"bucket_filter", 1, 256, 1200, 512, 1506, 3, 0, 0, 1712, 1506},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1200, 0, 1200, 0, 179, 1, 1200, 1200},
        {"bucket_filter", 1, 256, 1200, 520, 1506, 3, 0, 0, 1720, 1506},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 8, 0, 4, 2, 0, 0, 8, 4},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 8, 0, 8, 0, 2, 1, 8, 8},
        {"bucket_filter", 1, 256, 16, 8, 12, 1, 0, 0, 24, 12},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1200, 0, 1200, 0, 176, 1, 1200, 1200},
        {"bucket_filter", 1, 256, 1200, 520, 1506, 3, 0, 0, 1720, 1506},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 8, 0, 4, 2, 0, 0, 8, 4},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 8, 0, 8, 0, 2, 1, 8, 8},
        {"bucket_filter", 1, 256, 16, 8, 12, 1, 0, 0, 24, 12},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1200, 0, 1200, 0, 175, 1, 1200, 1200},
        {"bucket_filter", 1, 256, 1200, 512, 1506, 3, 0, 0, 1712, 1506},
        {"CopyRemainder", 1, 256, 24, 24, 0, 0, 0, 0, 48, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1200, 0, 1200, 0, 181, 1, 1200, 1200},
        {"bucket_filter", 1, 256, 1200, 512, 1506, 3, 0, 0, 1712, 1506},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1200, 0, 1200, 0, 181, 1, 1200, 1200},
        {"bucket_filter", 1, 256, 1200, 512, 1506, 3, 0, 0, 1712, 1506},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"hist_memset", 1, 32, 0, 1024, 0, 0, 0, 0, 1024, 0},
        {"bucket_histogram", 1, 256, 1200, 0, 1200, 0, 172, 1, 1200, 1200},
        {"bucket_filter", 1, 256, 1200, 512, 1506, 3, 0, 0, 1712, 1506},
        {"CopyRemainder", 1, 256, 8, 8, 0, 0, 0, 0, 16, 0},
    }, 0xfc48254288380969ull},
    {"air ties b8 n300 k64", 0x1.18p+4, {
        {"air_init", 8, 256, 0, 164608, 16384, 0, 0, 0, 20576, 2048},
        {"iteration_fused_kernel(1)", 8, 256, 60280, 328, 73152, 8, 197, 8, 7584, 9144},
        {"iteration_fused_kernel(2)", 8, 256, 34684, 4152, 67040, 24, 72, 7, 7260, 9148},
        {"iteration_fused_kernel(3)", 8, 256, 8752, 344, 21014, 14, 0, 0, 1320, 3002},
        {"last_filter_kernel", 8, 256, 128, 0, 0, 0, 0, 0, 16, 0},
    }, 0xb7686ed3174370d5ull},
    {"radixselect ties b8 n300 k64", 0x1.52b33daf8df79p+9, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 5, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 1304, 1200, 163, 0, 0, 2504, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 496, 0, 628, 0, 85, 1, 496, 628},
        {"Filter(1)", 1, 256, 992, 200, 496, 25, 0, 0, 1192, 496},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 6, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 1064, 1200, 133, 0, 0, 2264, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 392, 0, 550, 0, 79, 1, 392, 550},
        {"Filter(1)", 1, 256, 784, 232, 392, 29, 0, 0, 1016, 392},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 5, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 1192, 1200, 149, 0, 0, 2392, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 440, 0, 586, 0, 90, 1, 440, 586},
        {"Filter(1)", 1, 256, 880, 208, 440, 26, 0, 0, 1088, 440},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 8, 0, 262, 0, 2, 1, 8, 262},
        {"Filter(2)", 1, 256, 16, 8, 8, 1, 0, 0, 24, 8},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 4, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 1152, 1200, 144, 0, 0, 2352, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 440, 0, 586, 0, 87, 1, 440, 586},
        {"Filter(1)", 1, 256, 880, 240, 440, 30, 0, 0, 1120, 440},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 4, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 1168, 1200, 146, 0, 0, 2368, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 464, 0, 604, 0, 87, 1, 464, 604},
        {"Filter(1)", 1, 256, 928, 272, 464, 34, 0, 0, 1200, 464},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 4, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 1208, 1200, 151, 0, 0, 2408, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 492, 0, 625, 0, 105, 1, 492, 625},
        {"Filter(1)", 1, 256, 984, 288, 492, 36, 0, 0, 1272, 492},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 6, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 1112, 1200, 139, 0, 0, 2312, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 440, 0, 586, 0, 86, 1, 440, 586},
        {"Filter(1)", 1, 256, 880, 280, 440, 35, 0, 0, 1160, 440},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 5, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 1152, 1200, 144, 0, 0, 2352, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 432, 0, 580, 0, 79, 1, 432, 580},
        {"Filter(1)", 1, 256, 864, 224, 432, 28, 0, 0, 1088, 432},
        {"CopyRemainder", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
    }, 0xa5758f301dffc3fdull},
    {"bitonic one-value b8 n300 k64", 0x1.dp+3, {
        {"BitonicTopK_sort_prune(0)", 8, 256, 9600, 12288, 38400, 0, 0, 0, 2736, 4800},
        {"BitonicTopK_merge(1)", 8, 256, 12288, 8192, 2048, 0, 0, 0, 2560, 256},
        {"BitonicTopK_merge(2)", 8, 256, 8192, 4096, 2048, 0, 0, 0, 1536, 256},
        {"BitonicTopK_emit", 8, 256, 4096, 4096, 0, 0, 0, 0, 1024, 0},
    }, 0x6044304fda1e8325ull},
    {"quick one-value b8 n300 k64", 0x1.6c17cfb8c8c24p+8, {
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 920, 10, 0, 0, 3600, 920},
        {"collect_results", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 920, 10, 0, 0, 3600, 920},
        {"collect_results", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 920, 10, 0, 0, 3600, 920},
        {"collect_results", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 920, 10, 0, 0, 3600, 920},
        {"collect_results", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 920, 10, 0, 0, 3600, 920},
        {"collect_results", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 920, 10, 0, 0, 3600, 920},
        {"collect_results", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 920, 10, 0, 0, 3600, 920},
        {"collect_results", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"pivot_probe", 1, 32, 12, 12, 0, 0, 0, 0, 24, 0},
        {"partition_memset", 1, 32, 0, 12, 0, 0, 0, 0, 12, 0},
        {"partition", 1, 256, 1200, 2400, 920, 10, 0, 0, 3600, 920},
        {"collect_results", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
    }, 0x6044304fda1e8325ull},
    {"sample one-value b8 n300 k64", 0x1.1c6191148fd9ep+9, {
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 20, 0, 0, 0, 0, 20, 0},
        {"sample_histogram", 1, 256, 1200, 0, 3000, 0, 1, 1, 1200, 3000},
        {"sample_filter", 1, 256, 1200, 2400, 3320, 10, 0, 0, 3600, 3320},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 20, 0, 0, 0, 0, 20, 0},
        {"sample_histogram", 1, 256, 1200, 0, 3000, 0, 1, 1, 1200, 3000},
        {"sample_filter", 1, 256, 1200, 2400, 3320, 10, 0, 0, 3600, 3320},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 20, 0, 0, 0, 0, 20, 0},
        {"sample_histogram", 1, 256, 1200, 0, 3000, 0, 1, 1, 1200, 3000},
        {"sample_filter", 1, 256, 1200, 2400, 3320, 10, 0, 0, 3600, 3320},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 20, 0, 0, 0, 0, 20, 0},
        {"sample_histogram", 1, 256, 1200, 0, 3000, 0, 1, 1, 1200, 3000},
        {"sample_filter", 1, 256, 1200, 2400, 3320, 10, 0, 0, 3600, 3320},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 20, 0, 0, 0, 0, 20, 0},
        {"sample_histogram", 1, 256, 1200, 0, 3000, 0, 1, 1, 1200, 3000},
        {"sample_filter", 1, 256, 1200, 2400, 3320, 10, 0, 0, 3600, 3320},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 20, 0, 0, 0, 0, 20, 0},
        {"sample_histogram", 1, 256, 1200, 0, 3000, 0, 1, 1, 1200, 3000},
        {"sample_filter", 1, 256, 1200, 2400, 3320, 10, 0, 0, 3600, 3320},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 20, 0, 0, 0, 0, 20, 0},
        {"sample_histogram", 1, 256, 1200, 0, 3000, 0, 1, 1, 1200, 3000},
        {"sample_filter", 1, 256, 1200, 2400, 3320, 10, 0, 0, 3600, 3320},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
        {"sample", 1, 256, 1200, 1200, 600, 0, 0, 0, 2400, 600},
        {"hist_memset", 1, 32, 0, 20, 0, 0, 0, 0, 20, 0},
        {"sample_histogram", 1, 256, 1200, 0, 3000, 0, 1, 1, 1200, 3000},
        {"sample_filter", 1, 256, 1200, 2400, 3320, 10, 0, 0, 3600, 3320},
        {"CopyRemainder", 1, 256, 512, 512, 0, 0, 0, 0, 1024, 0},
    }, 0x6044304fda1e8325ull},
    {"bucket one-value b8 n300 k64", 0x1.0000a7c5ac471p+8, {
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"CopyRemainder", 1, 256, 256, 512, 0, 0, 0, 0, 768, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"CopyRemainder", 1, 256, 256, 512, 0, 0, 0, 0, 768, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"CopyRemainder", 1, 256, 256, 512, 0, 0, 0, 0, 768, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"CopyRemainder", 1, 256, 256, 512, 0, 0, 0, 0, 768, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"CopyRemainder", 1, 256, 256, 512, 0, 0, 0, 0, 768, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"CopyRemainder", 1, 256, 256, 512, 0, 0, 0, 0, 768, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"CopyRemainder", 1, 256, 256, 512, 0, 0, 0, 0, 768, 0},
        {"minmax_memset", 1, 32, 0, 16, 0, 0, 0, 0, 16, 0},
        {"minmax_reduce", 1, 256, 1200, 0, 600, 2, 0, 0, 1200, 600},
        {"CopyRemainder", 1, 256, 256, 512, 0, 0, 0, 0, 768, 0},
    }, 0x6044304fda1e8325ull},
    {"air one-value b8 n300 k64", 0x1.18p+4, {
        {"air_init", 8, 256, 0, 164608, 16384, 0, 0, 0, 20576, 2048},
        {"iteration_fused_kernel(1)", 8, 256, 59712, 320, 73152, 8, 8, 8, 7504, 9144},
        {"iteration_fused_kernel(2)", 8, 256, 26400, 320, 73152, 8, 8, 8, 3340, 9144},
        {"iteration_fused_kernel(3)", 8, 256, 10016, 320, 48576, 8, 8, 8, 1292, 6072},
        {"last_filter_kernel", 8, 256, 9984, 4096, 24192, 96, 0, 0, 1760, 3024},
    }, 0x6044304fda1e8325ull},
    {"radixselect one-value b8 n300 k64", 0x1.236c764adff8p+10, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"CopyRemainder", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"CopyRemainder", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"CopyRemainder", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"CopyRemainder", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"CopyRemainder", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"CopyRemainder", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"CopyRemainder", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"CalculateOccurence(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"Filter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"CopyRemainder", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
    }, 0x6044304fda1e8325ull},
    {"sort b1 n70001 k100", 0x1.cd70c06cefc0dp+6, {
        {"radix_transform", 5, 256, 280004, 560008, 70001, 0, 0, 0, 168012, 14001},
        {"sort_histogram", 5, 256, 280004, 5120, 140002, 0, 0, 5, 57028, 28002},
        {"sort_scan", 1, 256, 5120, 5120, 1280, 0, 0, 0, 10240, 1280},
        {"sort_scatter", 5, 256, 565128, 560008, 210003, 0, 0, 5, 225040, 42003},
        {"sort_histogram", 5, 256, 280004, 5120, 140002, 0, 0, 5, 57028, 28002},
        {"sort_scan", 1, 256, 5120, 5120, 1280, 0, 0, 0, 10240, 1280},
        {"sort_scatter", 5, 256, 565128, 560008, 210003, 0, 0, 5, 225040, 42003},
        {"sort_histogram", 5, 256, 280004, 5120, 140002, 0, 0, 5, 57028, 28002},
        {"sort_scan", 1, 256, 5120, 5120, 1280, 0, 0, 0, 10240, 1280},
        {"sort_scatter", 5, 256, 565128, 560008, 210003, 0, 0, 5, 225040, 42003},
        {"sort_histogram", 5, 256, 280004, 5120, 140002, 0, 0, 5, 57028, 28002},
        {"sort_scan", 1, 256, 5120, 5120, 1280, 0, 0, 0, 10240, 1280},
        {"sort_scatter", 5, 256, 565128, 560008, 210003, 0, 0, 5, 225040, 42003},
        {"sort_take_k", 1, 256, 800, 800, 100, 0, 0, 0, 1600, 100},
    }, 0xa2df545038d2211dull},
    {"stream-radix b1 n70001 k100", 0x1.064425657053bp+7, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 5, 256, 280004, 0, 211283, 0, 41, 5, 56004, 42259},
        {"StreamFilter(0)", 5, 256, 280004, 1080, 280004, 135, 0, 0, 56248, 56004},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 428, 0, 577, 0, 87, 1, 428, 577},
        {"StreamFilter(1)", 1, 256, 856, 584, 428, 73, 0, 0, 1440, 428},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 8, 0, 262, 0, 2, 1, 8, 262},
        {"StreamFilter(2)", 1, 256, 16, 8, 8, 1, 0, 0, 24, 8},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 800, 800, 100, 0, 0, 0, 1600, 100},
    }, 0x11b93e8ea3892d7dull},
    {"sort b8 n10007 k64", 0x1.55bb5227fd49ap+9, {
        {"radix_transform", 1, 256, 40028, 80056, 10007, 0, 0, 0, 120084, 10007},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 40028, 80056, 10007, 0, 0, 0, 120084, 10007},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 40028, 80056, 10007, 0, 0, 0, 120084, 10007},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 40028, 80056, 10007, 0, 0, 0, 120084, 10007},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 40028, 80056, 10007, 0, 0, 0, 120084, 10007},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 40028, 80056, 10007, 0, 0, 0, 120084, 10007},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 40028, 80056, 10007, 0, 0, 0, 120084, 10007},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 40028, 80056, 10007, 0, 0, 0, 120084, 10007},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_histogram", 1, 256, 40028, 1024, 20014, 0, 0, 1, 41052, 20014},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 81080, 80056, 30021, 0, 0, 1, 161136, 30021},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
    }, 0xf938cb3e5aa2adeaull},
    {"stream-radix b8 n10007 k64", 0x1.80cab6ae77553p+9, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"StreamFilter(0)", 1, 256, 40028, 624, 40028, 78, 0, 0, 40652, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 248, 0, 442, 0, 50, 1, 248, 442},
        {"StreamFilter(1)", 1, 256, 496, 384, 248, 48, 0, 0, 880, 248},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"StreamFilter(0)", 1, 256, 40028, 544, 40028, 68, 0, 0, 40572, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 200, 0, 406, 0, 46, 1, 200, 406},
        {"StreamFilter(1)", 1, 256, 400, 368, 200, 46, 0, 0, 768, 200},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"StreamFilter(0)", 1, 256, 40028, 600, 40028, 75, 0, 0, 40628, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 216, 0, 418, 0, 51, 1, 216, 418},
        {"StreamFilter(1)", 1, 256, 432, 344, 216, 43, 0, 0, 776, 216},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"StreamFilter(0)", 1, 256, 40028, 736, 40028, 92, 0, 0, 40764, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 288, 0, 472, 0, 65, 1, 288, 472},
        {"StreamFilter(1)", 1, 256, 576, 352, 288, 44, 0, 0, 928, 288},
        {"StreamTake", 1, 256, 24, 24, 3, 0, 0, 0, 48, 3},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"StreamFilter(0)", 1, 256, 40028, 656, 40028, 82, 0, 0, 40684, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 244, 0, 439, 0, 56, 1, 244, 439},
        {"StreamFilter(1)", 1, 256, 488, 344, 244, 43, 0, 0, 832, 244},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 40028, 0, 30277, 0, 9, 1, 40028, 30277},
        {"StreamFilter(0)", 1, 256, 40028, 616, 40028, 77, 0, 0, 40644, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 228, 0, 427, 0, 53, 1, 228, 427},
        {"StreamFilter(1)", 1, 256, 456, 352, 228, 44, 0, 0, 808, 228},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 40028, 0, 30277, 0, 8, 1, 40028, 30277},
        {"StreamFilter(0)", 1, 256, 40028, 688, 40028, 86, 0, 0, 40716, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 268, 0, 457, 0, 62, 1, 268, 457},
        {"StreamFilter(1)", 1, 256, 536, 360, 268, 45, 0, 0, 896, 268},
        {"StreamTake", 1, 256, 16, 16, 2, 0, 0, 0, 32, 2},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 40028, 0, 30277, 0, 9, 1, 40028, 30277},
        {"StreamFilter(0)", 1, 256, 40028, 664, 40028, 83, 0, 0, 40692, 40028},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 244, 0, 439, 0, 56, 1, 244, 439},
        {"StreamFilter(1)", 1, 256, 488, 336, 244, 42, 0, 0, 824, 244},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
    }, 0xa8f3265ca6d1d04eull},
    {"sort ties b1 n70001 k100", 0x1.cd70c06cefc0dp+6, {
        {"radix_transform", 5, 256, 280004, 560008, 70001, 0, 0, 0, 168012, 14001},
        {"sort_histogram", 5, 256, 280004, 5120, 140002, 0, 0, 5, 57028, 28002},
        {"sort_scan", 1, 256, 5120, 5120, 1280, 0, 0, 0, 10240, 1280},
        {"sort_scatter", 5, 256, 565128, 560008, 210003, 0, 0, 5, 225040, 42003},
        {"sort_histogram", 5, 256, 280004, 5120, 140002, 0, 0, 5, 57028, 28002},
        {"sort_scan", 1, 256, 5120, 5120, 1280, 0, 0, 0, 10240, 1280},
        {"sort_scatter", 5, 256, 565128, 560008, 210003, 0, 0, 5, 225040, 42003},
        {"sort_histogram", 5, 256, 280004, 5120, 140002, 0, 0, 5, 57028, 28002},
        {"sort_scan", 1, 256, 5120, 5120, 1280, 0, 0, 0, 10240, 1280},
        {"sort_scatter", 5, 256, 565128, 560008, 210003, 0, 0, 5, 225040, 42003},
        {"sort_histogram", 5, 256, 280004, 5120, 140002, 0, 0, 5, 57028, 28002},
        {"sort_scan", 1, 256, 5120, 5120, 1280, 0, 0, 0, 10240, 1280},
        {"sort_scatter", 5, 256, 565128, 560008, 210003, 0, 0, 5, 225040, 42003},
        {"sort_take_k", 1, 256, 800, 800, 100, 0, 0, 0, 1600, 100},
    }, 0xeac74c309d3a082full},
    {"stream-radix ties b1 n70001 k100", 0x1.475f42f82851cp+7, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 5, 256, 280004, 0, 211283, 0, 40, 5, 56004, 42259},
        {"StreamFilter(0)", 5, 256, 280004, 1080, 280004, 135, 0, 0, 56248, 56004},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 428, 0, 577, 0, 6, 1, 428, 577},
        {"StreamFilter(1)", 1, 256, 856, 624, 428, 78, 0, 0, 1480, 428},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 76, 0, 313, 0, 1, 1, 76, 313},
        {"StreamFilter(2)", 1, 256, 152, 152, 76, 19, 0, 0, 304, 76},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 76, 0, 313, 0, 1, 1, 76, 313},
        {"StreamFilter(3)", 1, 256, 152, 152, 76, 19, 0, 0, 304, 76},
        {"StreamTake", 1, 256, 104, 104, 13, 0, 0, 0, 208, 13},
        {"StreamEmit", 1, 256, 800, 800, 100, 0, 0, 0, 1600, 100},
    }, 0xfc78febb4e270127ull},
    {"sort ties b8 n300 k64", 0x1.528p+8, {
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
    }, 0xd5a103799661711dull},
    {"stream-radix ties b8 n300 k64", 0x1.90b33daf8df79p+9, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 5, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 1304, 1200, 163, 0, 0, 2504, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 496, 0, 628, 0, 85, 1, 496, 628},
        {"StreamFilter(1)", 1, 256, 992, 200, 496, 25, 0, 0, 1192, 496},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 6, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 1064, 1200, 133, 0, 0, 2264, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 392, 0, 550, 0, 79, 1, 392, 550},
        {"StreamFilter(1)", 1, 256, 784, 232, 392, 29, 0, 0, 1016, 392},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 5, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 1192, 1200, 149, 0, 0, 2392, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 440, 0, 586, 0, 90, 1, 440, 586},
        {"StreamFilter(1)", 1, 256, 880, 208, 440, 26, 0, 0, 1088, 440},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 8, 0, 262, 0, 2, 1, 8, 262},
        {"StreamFilter(2)", 1, 256, 16, 8, 8, 1, 0, 0, 24, 8},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 4, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 1152, 1200, 144, 0, 0, 2352, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 440, 0, 586, 0, 87, 1, 440, 586},
        {"StreamFilter(1)", 1, 256, 880, 240, 440, 30, 0, 0, 1120, 440},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 4, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 1168, 1200, 146, 0, 0, 2368, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 464, 0, 604, 0, 87, 1, 464, 604},
        {"StreamFilter(1)", 1, 256, 928, 272, 464, 34, 0, 0, 1200, 464},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 4, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 1208, 1200, 151, 0, 0, 2408, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 492, 0, 625, 0, 105, 1, 492, 625},
        {"StreamFilter(1)", 1, 256, 984, 288, 492, 36, 0, 0, 1272, 492},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 6, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 1112, 1200, 139, 0, 0, 2312, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 440, 0, 586, 0, 86, 1, 440, 586},
        {"StreamFilter(1)", 1, 256, 880, 280, 440, 35, 0, 0, 1160, 440},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 5, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 1152, 1200, 144, 0, 0, 2352, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 432, 0, 580, 0, 79, 1, 432, 580},
        {"StreamFilter(1)", 1, 256, 864, 224, 432, 28, 0, 0, 1088, 432},
        {"StreamTake", 1, 256, 8, 8, 1, 0, 0, 0, 16, 1},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
    }, 0xa5758f301dffc3fdull},
    {"sort one-value b8 n300 k64", 0x1.528p+8, {
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"radix_transform", 1, 256, 1200, 2400, 300, 0, 0, 0, 3600, 300},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_histogram", 1, 256, 1200, 1024, 600, 0, 0, 1, 2224, 600},
        {"sort_scan", 1, 256, 1024, 1024, 256, 0, 0, 0, 2048, 256},
        {"sort_scatter", 1, 256, 3424, 2400, 900, 0, 0, 1, 5824, 900},
        {"sort_take_k", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
    }, 0x6044304fda1e8325ull},
    {"stream-radix one-value b8 n300 k64", 0x1.426c764adff8p+10, {
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"StreamTake", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"StreamTake", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"StreamTake", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"StreamTake", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"StreamTake", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"StreamTake", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"StreamTake", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(0)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(0)", 1, 256, 1200, 2400, 1200, 300, 0, 0, 3600, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(1)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(1)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(2)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(2)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"Memset", 1, 256, 0, 1032, 0, 0, 0, 0, 1032, 0},
        {"StreamHist(3)", 1, 256, 1200, 0, 1156, 0, 1, 1, 1200, 1156},
        {"StreamFilter(3)", 1, 256, 2400, 2400, 1200, 300, 0, 0, 4800, 1200},
        {"StreamTake", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
        {"StreamEmit", 1, 256, 512, 512, 64, 0, 0, 0, 1024, 64},
    }, 0x6044304fda1e8325ull},
};

TEST(PartitionCountPin, KernelStatsAndModeledTimeMatchRecording) {
  const PinRow rows[] = {
      {"bitonic", Algo::kBitonicTopk, 1.0},
      {"quick", Algo::kQuickSelect, 1.0},
      {"sample", Algo::kSampleSelect, 1.0},
      {"bucket", Algo::kBucketSelect, 1.0},
      {"air", Algo::kAirTopk, 1.0},
      {"radixselect", Algo::kRadixSelect, 1.0},
      {"sort", Algo::kSort, 1.0},
      {"stream-radix", Algo::kStreamRadix, 1.0},
  };
  expect_matches_recording(pinned_runs(rows, kPartitionRecorded, true, true),
                           true);
}

// ---- largest-K pin and direction parity -------------------------------------
// Both drive plan_select / run_select on their own Device with no sanitizer
// attached, so TOPK_SIMCHECK runs the same unchecked path.  Keys travel
// as carrier bit patterns: float bits on the f32 carrier, radix ordinals on
// the u32 carrier.

struct DirectionTrace {
  RunTrace trace;
  std::vector<std::uint32_t> out_bits;  ///< value bits, in output order
  std::vector<std::uint32_t> out_idx;   ///< indices, in output order
};

DirectionTrace run_direction(Algo algo, KeyType dtype, bool greatest,
                             std::span<const std::uint32_t> keys,
                             std::size_t batch, std::size_t n, std::size_t k) {
  simgpu::Device dev;
  SelectOptions opt;
  opt.greatest = greatest;
  opt.dtype = dtype;
  const ExecutionPlan plan = plan_select(dev.spec(), batch, n, k, algo, opt);
  simgpu::Workspace ws(dev);
  DirectionTrace t;
  const auto run = [&](auto carrier) {
    using C = decltype(carrier);
    auto in = dev.alloc<C>(batch * n);
    for (std::size_t i = 0; i < batch * n; ++i) {
      in.data()[i] = std::bit_cast<C>(keys[i]);
    }
    auto ov = dev.alloc<C>(batch * k);
    auto oi = dev.alloc<std::uint32_t>(batch * k);
    run_select(dev, plan, ws, in, ov, oi);
    for (std::size_t i = 0; i < batch * k; ++i) {
      t.out_bits.push_back(std::bit_cast<std::uint32_t>(ov.data()[i]));
    }
    t.out_idx.assign(oi.data(), oi.data() + batch * k);
  };
  if (plan.u32_carrier()) {
    run(std::uint32_t{});
  } else {
    run(float{});
  }
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      t.trace.kernels.push_back(ke->stats);
    }
  }
  t.trace.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
  return t;
}

/// The two pinned inputs as carrier bits: uniform keys, and a tie-heavy
/// row of keys on the quarter steps of [-16, 0] with every eighth key
/// alternately -0 and +0, so a largest-K boundary falls inside IEEE-equal
/// ties.  On i32: uniform 32-bit keys, and ties on {-64, ..., 0} with every
/// eighth key 0.
std::vector<std::uint32_t> direction_keys(KeyType dtype, bool ties,
                                          std::size_t count) {
  const bool integer = key_type_is_integer(dtype);
  std::vector<std::uint32_t> keys(count);
  if (!ties) {
    if (integer) {
      keys = data::uniform_u32(count, 0xD1);
      for (auto& x : keys) {
        x = RadixTraits<std::int32_t>::to_radix(std::bit_cast<std::int32_t>(x));
      }
    } else {
      const auto v = data::generate({data::Distribution::kUniform, 0}, count,
                                    0xD1);
      for (std::size_t i = 0; i < count; ++i) {
        keys[i] = std::bit_cast<std::uint32_t>(v[i]);
      }
    }
    return keys;
  }
  const auto u = data::uniform_values(count, 0xD2);
  for (std::size_t i = 0; i < count; ++i) {
    const float step = -std::floor(u[i] * 64.0f);
    if (integer) {
      const auto v = i % 8 == 0 ? 0 : static_cast<std::int32_t>(step);
      keys[i] = RadixTraits<std::int32_t>::to_radix(v);
    } else {
      const float v = i % 8 == 0 ? (i % 16 == 0 ? -0.0f : 0.0f) : step / 4.0f;
      keys[i] = std::bit_cast<std::uint32_t>(v);
    }
  }
  return keys;
}


/// One pinned largest-K run: the exact modeled µs, the kernel count, and
/// FNV-1a digests of every KernelStats field of every kernel (launch
/// order) and of the output buffers (value bits, then indices, in output
/// order).
struct DirectionPin {
  const char* label;
  double model_us;
  std::size_t kernels;
  std::uint64_t stats_digest;
  std::uint64_t output_digest;
};

DirectionPin direction_pin(const char* label, const DirectionTrace& t) {
  Fnv64 stats;
  for (const simgpu::KernelStats& x : t.trace.kernels) {
    stats.add(x.name);
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(x.grid_blocks),
          static_cast<std::uint64_t>(x.block_threads), x.bytes_read,
          x.bytes_written, x.lane_ops, x.atomic_ops, x.scattered_atomic_ops,
          x.block_syncs, x.max_block_bytes, x.max_block_lane_ops}) {
      stats.add(v);
    }
  }
  Fnv64 out;
  for (const std::uint32_t v : t.out_bits) out.add(v);
  for (const std::uint32_t v : t.out_idx) out.add(v);
  return {label, t.trace.model_us, t.trace.kernels.size(), stats.value(),
          out.value()};
}

std::string direction_pin_row(const DirectionPin& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %a, %zu, 0x%016llxull, 0x%016llxull},\n",
                p.label, p.model_us, p.kernels,
                static_cast<unsigned long long>(p.stats_digest),
                static_cast<unsigned long long>(p.output_digest));
  return buf;
}

/// Expect the run `t` labelled `label` to match its entry in `recorded`
/// exactly; on a mismatch print the measured row in table syntax.
void expect_matches_pin(std::span<const DirectionPin> recorded,
                        const std::string& label, const DirectionTrace& t) {
  const DirectionPin got = direction_pin(label.c_str(), t);
  const DirectionPin* want = nullptr;
  for (const DirectionPin& rec : recorded) {
    if (label == rec.label) want = &rec;
  }
  const bool same = want != nullptr && got.model_us == want->model_us &&
                    got.kernels == want->kernels &&
                    got.stats_digest == want->stats_digest &&
                    got.output_digest == want->output_digest;
  EXPECT_TRUE(same) << label << " differs from its recording; measured:\n"
                    << direction_pin_row(got);
}

// Recorded on the tree whose rows still got largest-K from the negate wrap
// (these 13 rows on f32, the six carrier-generic ones on i32): single
// emulator thread, tile and warpfast on, the default device spec.
const DirectionPin kLargestRecorded[] = {
    {"grid f32 uniform b1 n70001 k100", 0x1.39c439f1b1631p+3, 2, 0xd59743aa8b40e61bull, 0x3744420a52a9013eull},
    {"grid-threadqueue f32 uniform b1 n70001 k100", 0x1.39c439f1b1631p+3, 2, 0x1abeb51b1a05f439ull, 0x3744420a52a9013eull},
    {"warp f32 uniform b1 n70001 k100", 0x1.582dcb5df3cb6p+7, 1, 0xb0aa907e4a4901e3ull, 0x3744420a52a9013eull},
    {"block f32 uniform b1 n70001 k100", 0x1.672dcb5df3cb6p+5, 1, 0x6441b2a324bf261bull, 0x3744420a52a9013eull},
    {"bitonic f32 uniform b1 n70001 k100", 0x1.1cp+5, 11, 0xaea205bcabf3cd8full, 0x3744420a52a9013eull},
    {"quick f32 uniform b1 n70001 k100", 0x1.f1029db90f1bp+8, 52, 0x90ec3e8a2a633917ull, 0x250fef9f322f091eull},
    {"bucket f32 uniform b1 n70001 k100", 0x1.d54fdff407356p+6, 11, 0x6f258572cb2c086bull, 0x4c125cb6b39af7aaull},
    {"sample f32 uniform b1 n70001 k100", 0x1.259630ff9d8dap+7, 5, 0x88e15dad8488d878ull, 0x3744420a52a9013eull},
    {"sort f32 uniform b1 n70001 k100", 0x1.cd70c06cefc0dp+6, 14, 0xe45df6a1a54d016eull, 0x3744420a52a9013eull},
    {"fused-warp f32 uniform b1 n70001 k100", 0x1.582dcb5df3cb6p+7, 1, 0x8e29bdb891b507c5ull, 0x3744420a52a9013eull},
    {"fused-block f32 uniform b1 n70001 k100", 0x1.b41b89a1de654p+4, 2, 0x753af5b48a5b64baull, 0x3744420a52a9013eull},
    {"shard-merge f32 uniform b1 n70001 k100", 0x1.78p+4, 7, 0x22fa60f06b1e96beull, 0x3744420a52a9013eull},
    {"bucket-approx f32 uniform b1 n70001 k100", 0x1.1p+3, 2, 0xd0a177464f3f4799ull, 0x3744420a52a9013eull},
    {"grid f32 uniform b3 n10007 k64", 0x1.63dedfa00719cp+2, 1, 0x71845e7c948eb9a3ull, 0x7522c1b2ef7011bdull},
    {"grid-threadqueue f32 uniform b3 n10007 k64", 0x1.63dedfa00719cp+2, 1, 0xb9c5225f15d3520aull, 0x7522c1b2ef7011bdull},
    {"warp f32 uniform b3 n10007 k64", 0x1.afbdbf400e339p+4, 1, 0x3c2f62c5039bd106ull, 0x7522c1b2ef7011bdull},
    {"block f32 uniform b3 n10007 k64", 0x1.13dedfa00719cp+3, 1, 0x23b230defc742155ull, 0x7522c1b2ef7011bdull},
    {"bitonic f32 uniform b3 n10007 k64", 0x1.d8p+4, 9, 0x972dae98698aa174ull, 0x7522c1b2ef7011bdull},
    {"quick f32 uniform b3 n10007 k64", 0x1.5cc00a90e6a48p+10, 145, 0x6b7f98e06eaf5b41ull, 0x3b57ca3432b25cf9ull},
    {"bucket f32 uniform b3 n10007 k64", 0x1.552a0106a4153p+8, 33, 0x14ef9bbd471b92e5ull, 0xb548d4a5d5b50ec9ull},
    {"sample f32 uniform b3 n10007 k64", 0x1.771111b950d45p+8, 15, 0x4b6774ac8bee41dbull, 0x04eb91e5addea81dull},
    {"sort f32 uniform b3 n10007 k64", 0x1.01dc7d9dfdf6cp+8, 42, 0x1851cec584ec4309ull, 0x7522c1b2ef7011bdull},
    {"fused-warp f32 uniform b3 n10007 k64", 0x1.afbdbf400e339p+4, 1, 0xd888393ca9cb8ba3ull, 0x7522c1b2ef7011bdull},
    {"fused-block f32 uniform b3 n10007 k64", 0x1.1a97ea406aebcp+3, 2, 0xe4ee373c60bfadf9ull, 0x7522c1b2ef7011bdull},
    {"shard-merge f32 uniform b3 n10007 k64", 0x1.dp+3, 4, 0xa0e0ab2115227723ull, 0x7522c1b2ef7011bdull},
    {"bucket-approx f32 uniform b3 n10007 k64", 0x1.1p+3, 2, 0xbe61cb1121b45820ull, 0x7522c1b2ef7011bdull},
    {"grid f32 ties b1 n70001 k100", 0x1.39c439f1b1631p+3, 2, 0xfdc0c39694487025ull, 0xd345525aef7721a5ull},
    {"grid-threadqueue f32 ties b1 n70001 k100", 0x1.39c439f1b1631p+3, 2, 0xa6ceffeac2862104ull, 0xd345525aef7721a5ull},
    {"warp f32 ties b1 n70001 k100", 0x1.582dcb5df3cb6p+7, 1, 0xb203db022c2bd9dfull, 0xc48966113b323e90ull},
    {"block f32 ties b1 n70001 k100", 0x1.672dcb5df3cb6p+5, 1, 0x88c3d81eb040cb6bull, 0xd345525aef7721a5ull},
    {"bitonic f32 ties b1 n70001 k100", 0x1.1cp+5, 11, 0xaea205bcabf3cd8full, 0xd345525aef7721a5ull},
    {"quick f32 ties b1 n70001 k100", 0x1.b9900583ae815p+5, 4, 0x78950f2ccd13fcbdull, 0x4ab3e1c5fbf199b0ull},
    {"bucket f32 ties b1 n70001 k100", 0x1.57ab1bb1c1317p+6, 8, 0xc481e544029dd8f1ull, 0x4ab3e1c5fbf199b0ull},
    {"sample f32 ties b1 n70001 k100", 0x1.b23e52879c166p+7, 9, 0x2267b83658b4616eull, 0x4ab3e1c5fbf199b0ull},
    {"sort f32 ties b1 n70001 k100", 0x1.cd70c06cefc0dp+6, 14, 0xe45df6a1a54d016eull, 0xd345525aef7721a5ull},
    {"fused-warp f32 ties b1 n70001 k100", 0x1.582dcb5df3cb6p+7, 1, 0x82f40c374f00b1e1ull, 0xc48966113b323e90ull},
    {"fused-block f32 ties b1 n70001 k100", 0x1.b41b89a1de654p+4, 2, 0xb40e134046c79c8aull, 0x9599244bc255146bull},
    {"shard-merge f32 ties b1 n70001 k100", 0x1.78p+4, 7, 0x22fa60f06b1e96beull, 0xd345525aef7721a5ull},
    {"bucket-approx f32 ties b1 n70001 k100", 0x1.1p+3, 2, 0xd0a177464f3f4799ull, 0xd345525aef7721a5ull},
    {"grid f32 ties b3 n10007 k64", 0x1.63dedfa00719cp+2, 1, 0x4d538b8aea34f1d4ull, 0xcfbf998eecdd76e5ull},
    {"grid-threadqueue f32 ties b3 n10007 k64", 0x1.63dedfa00719cp+2, 1, 0x590aa33dbb5f38d0ull, 0xcfbf998eecdd76e5ull},
    {"warp f32 ties b3 n10007 k64", 0x1.afbdbf400e339p+4, 1, 0x19a5fcb522f7118bull, 0x1a6cca049cb2ffafull},
    {"block f32 ties b3 n10007 k64", 0x1.13dedfa00719cp+3, 1, 0xde5663324375cb4cull, 0xcfbf998eecdd76e5ull},
    {"bitonic f32 ties b3 n10007 k64", 0x1.d8p+4, 9, 0x972dae98698aa174ull, 0xcfbf998eecdd76e5ull},
    {"quick f32 ties b3 n10007 k64", 0x1.3782c99436a16p+8, 27, 0x672fcaef05fd9ab9ull, 0x8ba7eac3ae6b2793ull},
    {"bucket f32 ties b3 n10007 k64", 0x1.ebb7af9ce0f58p+7, 24, 0xb496a71bc47988f0ull, 0x8ba7eac3ae6b2793ull},
    {"sample f32 ties b3 n10007 k64", 0x1.796ed40b1b5dcp+8, 15, 0xd0e3db7f725cf0f3ull, 0x8ba7eac3ae6b2793ull},
    {"sort f32 ties b3 n10007 k64", 0x1.01dc7d9dfdf6cp+8, 42, 0x1851cec584ec4309ull, 0xcfbf998eecdd76e5ull},
    {"fused-warp f32 ties b3 n10007 k64", 0x1.afbdbf400e339p+4, 1, 0xd60ece9bfdb62bf7ull, 0x1a6cca049cb2ffafull},
    {"fused-block f32 ties b3 n10007 k64", 0x1.1a97ea406aebcp+3, 2, 0x23c3adbf08e70d30ull, 0x7f85a9fb0c8fb458ull},
    {"shard-merge f32 ties b3 n10007 k64", 0x1.dp+3, 4, 0xa0e0ab2115227723ull, 0xcfbf998eecdd76e5ull},
    {"bucket-approx f32 ties b3 n10007 k64", 0x1.1p+3, 2, 0xbe61cb1121b45820ull, 0xcfbf998eecdd76e5ull},
    {"grid i32 uniform b1 n70001 k100", 0x1.39c439f1b1631p+3, 2, 0xe7931f16ee13df72ull, 0xe4d49f25b9435b4aull},
    {"grid-threadqueue i32 uniform b1 n70001 k100", 0x1.39c439f1b1631p+3, 2, 0xae94576c223fcf2aull, 0xe4d49f25b9435b4aull},
    {"warp i32 uniform b1 n70001 k100", 0x1.582dcb5df3cb6p+7, 1, 0x5225eb033487d453ull, 0xe4d49f25b9435b4aull},
    {"block i32 uniform b1 n70001 k100", 0x1.672dcb5df3cb6p+5, 1, 0xa7593e38673c607bull, 0xe4d49f25b9435b4aull},
    {"bitonic i32 uniform b1 n70001 k100", 0x1.1cp+5, 11, 0xaea205bcabf3cd8full, 0xe4d49f25b9435b4aull},
    {"sort i32 uniform b1 n70001 k100", 0x1.cd70c06cefc0dp+6, 14, 0xe45df6a1a54d016eull, 0xe4d49f25b9435b4aull},
    {"grid i32 uniform b3 n10007 k64", 0x1.63dedfa00719cp+2, 1, 0x0bdefaed9cf77f8dull, 0x5ebb93547e5bf36cull},
    {"grid-threadqueue i32 uniform b3 n10007 k64", 0x1.63dedfa00719cp+2, 1, 0x84f472b33f05da90ull, 0x5ebb93547e5bf36cull},
    {"warp i32 uniform b3 n10007 k64", 0x1.afbdbf400e339p+4, 1, 0xdaeda68556302d30ull, 0x5ebb93547e5bf36cull},
    {"block i32 uniform b3 n10007 k64", 0x1.13dedfa00719cp+3, 1, 0x3db23cf962bc70a1ull, 0x5ebb93547e5bf36cull},
    {"bitonic i32 uniform b3 n10007 k64", 0x1.d8p+4, 9, 0x972dae98698aa174ull, 0x5ebb93547e5bf36cull},
    {"sort i32 uniform b3 n10007 k64", 0x1.01dc7d9dfdf6cp+8, 42, 0x1851cec584ec4309ull, 0x5ebb93547e5bf36cull},
    {"grid i32 ties b1 n70001 k100", 0x1.39c439f1b1631p+3, 2, 0xfdc0c39694487025ull, 0x400b51984527a3b0ull},
    {"grid-threadqueue i32 ties b1 n70001 k100", 0x1.39c439f1b1631p+3, 2, 0xa6ceffeac2862104ull, 0x400b51984527a3b0ull},
    {"warp i32 ties b1 n70001 k100", 0x1.582dcb5df3cb6p+7, 1, 0xb203db022c2bd9dfull, 0x400b51984527a3b0ull},
    {"block i32 ties b1 n70001 k100", 0x1.672dcb5df3cb6p+5, 1, 0x88c3d81eb040cb6bull, 0x400b51984527a3b0ull},
    {"bitonic i32 ties b1 n70001 k100", 0x1.1cp+5, 11, 0xaea205bcabf3cd8full, 0x400b51984527a3b0ull},
    {"sort i32 ties b1 n70001 k100", 0x1.cd70c06cefc0dp+6, 14, 0xe45df6a1a54d016eull, 0x400b51984527a3b0ull},
    {"grid i32 ties b3 n10007 k64", 0x1.63dedfa00719cp+2, 1, 0x4d538b8aea34f1d4ull, 0x3f4605bea0766c13ull},
    {"grid-threadqueue i32 ties b3 n10007 k64", 0x1.63dedfa00719cp+2, 1, 0x590aa33dbb5f38d0ull, 0x3f4605bea0766c13ull},
    {"warp i32 ties b3 n10007 k64", 0x1.afbdbf400e339p+4, 1, 0x19a5fcb522f7118bull, 0x3f4605bea0766c13ull},
    {"block i32 ties b3 n10007 k64", 0x1.13dedfa00719cp+3, 1, 0xde5663324375cb4cull, 0x3f4605bea0766c13ull},
    {"bitonic i32 ties b3 n10007 k64", 0x1.d8p+4, 9, 0x972dae98698aa174ull, 0x3f4605bea0766c13ull},
    {"sort i32 ties b3 n10007 k64", 0x1.01dc7d9dfdf6cp+8, 42, 0x1851cec584ec4309ull, 0x3f4605bea0766c13ull},
};

TEST(LargestKPin, KernelStatsModeledTimeAndOutputsMatchRecording) {
  const struct {
    const char* key;
    Algo algo;
    bool i32;
  } rows[] = {
      {"grid", Algo::kGridSelect, true},
      {"grid-threadqueue", Algo::kGridSelectThreadQueue, true},
      {"warp", Algo::kWarpSelect, true},
      {"block", Algo::kBlockSelect, true},
      {"bitonic", Algo::kBitonicTopk, true},
      {"quick", Algo::kQuickSelect, false},
      {"bucket", Algo::kBucketSelect, false},
      {"sample", Algo::kSampleSelect, false},
      {"sort", Algo::kSort, true},
      {"fused-warp", Algo::kFusedWarpRowwise, false},
      {"fused-block", Algo::kFusedBlockRowwise, false},
      {"shard-merge", Algo::kShardMerge, false},
      {"bucket-approx", Algo::kBucketApprox, false},
  };
  for (const KeyType dtype : {KeyType::kF32, KeyType::kI32}) {
    for (const bool ties : {false, true}) {
      for (const auto& [batch, n, k] :
           {std::tuple<std::size_t, std::size_t, std::size_t>{1, 70001, 100},
            {3, 10007, 64}}) {
        const auto keys = direction_keys(dtype, ties, batch * n);
        for (const auto& row : rows) {
          if (dtype == KeyType::kI32 && !row.i32) continue;
          const std::string label =
              std::string(row.key) + " " +
              std::string(key_type_name(dtype)) +
              (ties ? " ties" : " uniform") + " b" + std::to_string(batch) +
              " n" + std::to_string(n) + " k" + std::to_string(k);
          expect_matches_pin(
              kLargestRecorded, label,
              run_direction(row.algo, dtype, true, keys, batch, n, k));
        }
      }
    }
  }
}

// ---- radix rows on re-scan shapes -------------------------------------------
// AIR re-scans its input on every pass whose candidate count stays at or
// above N/alpha: on radix-adversarial keys (the first M = 20 bits shared)
// every pass, on uniform largest-K the first passes.  This pin holds AIR
// (adaptive, not adaptive, no early stop, fused last filter), RadixSelect
// and stream-radix on those keys, on both carriers and in both directions,
// plus AIR with external input ids and AIR without early stopping on
// uniform smallest-K keys: the exact modeled µs, every KernelStats field and
// the output bits and indices in output order.  Recorded before the radix
// scans classified whole tiles (the no-early-stop rows later, see below),
// under the settings of kLargestRecorded.

/// Radix-adversarial M = 20 keys (floats just above 1.0) as carrier bits:
/// positive floats, so their bits order alike as f32 and as u32 keys.
std::vector<std::uint32_t> adversarial_keys(std::size_t count) {
  const auto v = data::radix_adversarial_values(count, 20, 0xAD);
  std::vector<std::uint32_t> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return keys;
}

/// AIR on f32 keys with in_idx bound to ids distinct within each row and
/// unrelated to positions.
DirectionTrace run_air_in_idx(bool greatest,
                              std::span<const std::uint32_t> keys,
                              std::size_t batch, std::size_t n,
                              std::size_t k) {
  simgpu::Device dev;
  auto in = dev.alloc<float>(batch * n);
  auto ids = dev.alloc<std::uint32_t>(batch * n);
  for (std::size_t i = 0; i < batch * n; ++i) {
    in.data()[i] = std::bit_cast<float>(keys[i]);
    ids.data()[i] = 0x9E3779B1u ^ (2654435761u * static_cast<std::uint32_t>(i));
  }
  auto ov = dev.alloc<float>(batch * k);
  auto oi = dev.alloc<std::uint32_t>(batch * k);
  AirTopkOptions opt;
  opt.in_idx = ids;
  simgpu::WorkspaceLayout layout;
  const auto plan = air_topk_plan<float>(Shape{batch, n, k, greatest},
                                         dev.spec(), opt, layout);
  simgpu::Workspace ws(dev);
  ws.bind(layout);
  air_topk_run(dev, plan, ws, in, ov, oi);
  DirectionTrace t;
  for (std::size_t i = 0; i < batch * k; ++i) {
    t.out_bits.push_back(std::bit_cast<std::uint32_t>(ov.data()[i]));
  }
  t.out_idx.assign(oi.data(), oi.data() + batch * k);
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      t.trace.kernels.push_back(ke->stats);
    }
  }
  t.trace.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
  return t;
}

const DirectionPin kRescanRecorded[] = {
    {"air f32 adversarial smallest b1 n70001 k100", 0x1.6ea00d54ac438p+4, 5, 0xb488740159f05471ull, 0xeeec4019e1b81f3full},
    {"air-noadaptive f32 adversarial smallest b1 n70001 k100", 0x1.2428c5626d6a3p+5, 5, 0xaae7aa16e9c187bdull, 0xeeec4019e1b81f3full},
    {"air-fusedfilter f32 adversarial smallest b1 n70001 k100", 0x1.3eef148f0955ep+5, 4, 0xd8364ec5a9656149ull, 0x50760fc9eb23933bull},
    {"radixselect f32 adversarial smallest b1 n70001 k100", 0x1.6607f4bf42286p+7, 13, 0x1cc72fe969a2a5ebull, 0x43748759c72e5eafull},
    {"stream-radix f32 adversarial smallest b1 n70001 k100", 0x1.8507f4bf42286p+7, 14, 0x576685ecf165872eull, 0x43748759c72e5eafull},
    {"air f32 adversarial largest b1 n70001 k100", 0x1.73915fcc8e21cp+4, 5, 0x33c4c399fe927e71ull, 0x74688600219882c0ull},
    {"air-noadaptive f32 adversarial largest b1 n70001 k100", 0x1.2682829ff17a7p+5, 5, 0x92d2c068e12e418full, 0x74688600219882c0ull},
    {"air-fusedfilter f32 adversarial largest b1 n70001 k100", 0x1.416a371288196p+5, 4, 0xb2e9700ae267d3a2ull, 0x2f6951158adcf4c8ull},
    {"radixselect f32 adversarial largest b1 n70001 k100", 0x1.65f20064376b7p+7, 13, 0x576cd87627e7dee4ull, 0xf811c1b36cd227fcull},
    {"stream-radix f32 adversarial largest b1 n70001 k100", 0x1.84f20064376b7p+7, 14, 0xa8c7d00810257c5bull, 0xf811c1b36cd227fcull},
    {"air f32 uniform largest b1 n70001 k100", 0x1.5898ccbcacc18p+4, 5, 0xb2e7ed994c9c7547ull, 0x4c125cb6b39af7aaull},
    {"air-noadaptive f32 uniform largest b1 n70001 k100", 0x1.5365946801979p+4, 5, 0x22007d9139e32ef5ull, 0x4c125cb6b39af7aaull},
    {"air-fusedfilter f32 uniform largest b1 n70001 k100", 0x1.28a2b1dae4131p+4, 4, 0x84ba1edc67978059ull, 0x4c125cb6b39af7aaull},
    {"radixselect f32 uniform largest b1 n70001 k100", 0x1.f1fde1eca9fap+6, 10, 0xf8c25660a2b2f791ull, 0x4c125cb6b39af7aaull},
    {"stream-radix f32 uniform largest b1 n70001 k100", 0x1.17fef0f654fdp+7, 11, 0xa969b09e2cb5956dull, 0x4c125cb6b39af7aaull},
    {"air u32 adversarial smallest b1 n70001 k100", 0x1.69ad7e39037bp+4, 5, 0x08f7fc0bb587d6f1ull, 0xeeec4019e1b81f3full},
    {"air-noadaptive u32 adversarial smallest b1 n70001 k100", 0x1.21af7dd49905fp+5, 5, 0x11e8a6507a5a943dull, 0xeeec4019e1b81f3full},
    {"air-fusedfilter u32 adversarial smallest b1 n70001 k100", 0x1.3c75cd0134f1ap+5, 4, 0x5b21d4edbcb292c9ull, 0x50760fc9eb23933bull},
    {"radixselect u32 adversarial smallest b1 n70001 k100", 0x1.6607f4bf42286p+7, 13, 0x1cc72fe969a2a5ebull, 0x43748759c72e5eafull},
    {"stream-radix u32 adversarial smallest b1 n70001 k100", 0x1.8507f4bf42286p+7, 14, 0x576685ecf165872eull, 0x43748759c72e5eafull},
    {"air u32 adversarial largest b1 n70001 k100", 0x1.7883eee836ea4p+4, 5, 0xffdf85007fb96f51ull, 0x74688600219882c0ull},
    {"air-noadaptive u32 adversarial largest b1 n70001 k100", 0x1.28fbca2dc5debp+5, 5, 0x79a65284f10994afull, 0x74688600219882c0ull},
    {"air-fusedfilter u32 adversarial largest b1 n70001 k100", 0x1.43e37ea05c7dap+5, 4, 0xcc02ceb6f6e4be82ull, 0x2f6951158adcf4c8ull},
    {"radixselect u32 adversarial largest b1 n70001 k100", 0x1.65f20064376b7p+7, 13, 0x576cd87627e7dee4ull, 0xf811c1b36cd227fcull},
    {"stream-radix u32 adversarial largest b1 n70001 k100", 0x1.84f20064376b7p+7, 14, 0xa8c7d00810257c5bull, 0xf811c1b36cd227fcull},
    {"air u32 uniform largest b1 n70001 k100", 0x1.47efb6e8ef9f2p+4, 5, 0x3a0ff4fe20f262aaull, 0xca2e6c8602d94d22ull},
    {"air-noadaptive u32 uniform largest b1 n70001 k100", 0x1.47efb6e8ef9f2p+4, 5, 0x3a0ff4fe20f262aaull, 0xca2e6c8602d94d22ull},
    {"air-fusedfilter u32 uniform largest b1 n70001 k100", 0x1.17efb6e8ef9f2p+4, 4, 0x5e2a373fa1cb73f3ull, 0xca2e6c8602d94d22ull},
    {"radixselect u32 uniform largest b1 n70001 k100", 0x1.ce99eae8b330bp+6, 10, 0x8628d1df8695c98dull, 0x9c0271ae81204cdeull},
    {"stream-radix u32 uniform largest b1 n70001 k100", 0x1.064cf57459986p+7, 11, 0xa6cec6de3c81e2c1ull, 0x9c0271ae81204cdeull},
    {"air in_idx f32 adversarial smallest b1 n70001 k100", 0x1.3e991e1888c14p+5, 5, 0x4ef4d3ce6781311aull, 0xcbecccf1d55fdd18ull},
    {"air in_idx f32 adversarial largest b1 n70001 k100", 0x1.4111c75479b06p+5, 5, 0x66807d799017975eull, 0xfb2f9d807453e04aull},
    {"air f32 adversarial smallest b3 n10007 k64", 0x1.21f2dc6f81f41p+4, 5, 0x4ff93b22ab0115ddull, 0x7a35fdabfbab987dull},
    {"air-noadaptive f32 adversarial smallest b3 n10007 k64", 0x1.cb1ab6e7d62ap+4, 5, 0xec0027b672fbdbacull, 0x7a35fdabfbab987dull},
    {"air-fusedfilter f32 adversarial smallest b3 n10007 k64", 0x1.21e404c22ef9cp+4, 4, 0x37069035151dacccull, 0x40260488318f6abdull},
    {"radixselect f32 adversarial smallest b3 n10007 k64", 0x1.ed0bb8e1a5e75p+8, 39, 0x32933126188d1f6cull, 0x7a35fdabfbab987dull},
    {"stream-radix f32 adversarial smallest b3 n10007 k64", 0x1.0dc5dc70d2f3ap+9, 42, 0xb49ae70a3c266bd5ull, 0x7a35fdabfbab987dull},
    {"air f32 adversarial largest b3 n10007 k64", 0x1.26e921767f7b3p+4, 5, 0xb2b18a43d476eab2ull, 0xfa4f1e06a6199224ull},
    {"air-noadaptive f32 adversarial largest b3 n10007 k64", 0x1.cf59ed3fd44c2p+4, 5, 0xd37cdedae04e5ef9ull, 0xfa4f1e06a6199224ull},
    {"air-fusedfilter f32 adversarial largest b3 n10007 k64", 0x1.26da49c92c80dp+4, 4, 0xaeddc1fc9f6c1767ull, 0x401036ece03c5854ull},
    {"radixselect f32 adversarial largest b3 n10007 k64", 0x1.ed03d64d91d24p+8, 39, 0x01bb632062aac3e2ull, 0xfa4f1e06a6199224ull},
    {"stream-radix f32 adversarial largest b3 n10007 k64", 0x1.0dc1eb26c8e92p+9, 42, 0xb468e54e8a98b929ull, 0xfa4f1e06a6199224ull},
    {"air f32 uniform largest b3 n10007 k64", 0x1.1d026ea6cc30cp+4, 5, 0xe5806c24a64ddcd2ull, 0x93958698b4694881ull},
    {"air-noadaptive f32 uniform largest b3 n10007 k64", 0x1.2886cbde96544p+4, 5, 0x90ea484e10c4e00dull, 0x93958698b4694881ull},
    {"air-fusedfilter f32 uniform largest b3 n10007 k64", 0x1.da04dd4d98617p+3, 4, 0x4fe3e788290a0d45ull, 0x93958698b4694881ull},
    {"radixselect f32 uniform largest b3 n10007 k64", 0x1.5ce746ec89713p+8, 30, 0xba29cca420f3ad1cull, 0xb548d4a5d5b50ec9ull},
    {"stream-radix f32 uniform largest b3 n10007 k64", 0x1.8b6746ec89712p+8, 33, 0x306d88ced42e24b2ull, 0xb548d4a5d5b50ec9ull},
    {"air u32 adversarial smallest b3 n10007 k64", 0x1.1d004d53d92b9p+4, 5, 0x25a0e44c66b20996ull, 0x7a35fdabfbab987dull},
    {"air-noadaptive u32 adversarial smallest b3 n10007 k64", 0x1.c62827cc2d618p+4, 5, 0x2a8bd447f74d4ac3ull, 0x7a35fdabfbab987dull},
    {"air-fusedfilter u32 adversarial smallest b3 n10007 k64", 0x1.1cf175a686314p+4, 4, 0xf9e67c7cac76186full, 0x40260488318f6abdull},
    {"radixselect u32 adversarial smallest b3 n10007 k64", 0x1.ed0bb8e1a5e75p+8, 39, 0x32933126188d1f6cull, 0x7a35fdabfbab987dull},
    {"stream-radix u32 adversarial smallest b3 n10007 k64", 0x1.0dc5dc70d2f3ap+9, 42, 0xb49ae70a3c266bd5ull, 0x7a35fdabfbab987dull},
    {"air u32 adversarial largest b3 n10007 k64", 0x1.2bdbb0922843bp+4, 5, 0xeafcc447da528e95ull, 0xfa4f1e06a6199224ull},
    {"air-noadaptive u32 adversarial largest b3 n10007 k64", 0x1.d44c7c5b7d14ap+4, 5, 0x2736c0caabd2ac26ull, 0xfa4f1e06a6199224ull},
    {"air-fusedfilter u32 adversarial largest b3 n10007 k64", 0x1.2bccd8e4d5495p+4, 4, 0x29644cc3c2c80a40ull, 0x401036ece03c5854ull},
    {"radixselect u32 adversarial largest b3 n10007 k64", 0x1.ed03d64d91d24p+8, 39, 0x01bb632062aac3e2ull, 0xfa4f1e06a6199224ull},
    {"stream-radix u32 adversarial largest b3 n10007 k64", 0x1.0dc1eb26c8e92p+9, 42, 0xb468e54e8a98b929ull, 0xfa4f1e06a6199224ull},
    {"air u32 uniform largest b3 n10007 k64", 0x1.1fe2075983b3ep+4, 5, 0x6cca7d181dbd3df0ull, 0x215f082b555af584ull},
    {"air-noadaptive u32 uniform largest b3 n10007 k64", 0x1.1fe2075983b3ep+4, 5, 0x6cca7d181dbd3df0ull, 0x215f082b555af584ull},
    {"air-fusedfilter u32 uniform largest b3 n10007 k64", 0x1.dfc40eb30767dp+3, 4, 0xb56707193903c3fbull, 0x215f082b555af584ull},
    {"radixselect u32 uniform largest b3 n10007 k64", 0x1.e42d2be5d8cb1p+7, 21, 0x24c945293e5b8f7bull, 0x484c5289f4901840ull},
    {"stream-radix u32 uniform largest b3 n10007 k64", 0x1.209695f2ec658p+8, 24, 0x8d5d73dcf39f282cull, 0x484c5289f4901840ull},
    {"air in_idx f32 adversarial smallest b3 n10007 k64", 0x1.e3587481b4a9ap+4, 5, 0x1466f9bc884376fbull, 0x8409306f311e94beull},
    {"air in_idx f32 adversarial largest b3 n10007 k64", 0x1.e84eb988b230cp+4, 5, 0x5ecc1c399e7ff57full, 0xa854a07ab2c8f76aull},
    // AIR without early stopping (Fig. 10), recorded after the tile scans and
    // before AIR's launch tuning became constants, under the same settings.
    {"air-noearlystop f32 adversarial smallest b1 n70001 k100", 0x1.6ea00d54ac438p+4, 5, 0xb488740159f05471ull, 0xeeec4019e1b81f3full},
    {"air-noearlystop f32 adversarial largest b1 n70001 k100", 0x1.73915fcc8e21cp+4, 5, 0x33c4c399fe927e71ull, 0x74688600219882c0ull},
    {"air-noearlystop f32 uniform largest b1 n70001 k100", 0x1.589653751eed2p+4, 5, 0xde4555c23d9f64dbull, 0x4c125cb6b39af7aaull},
    {"air-noearlystop f32 uniform smallest b1 n70001 k100", 0x1.487688a4a1567p+4, 5, 0xa2e397d9829c29f6ull, 0xa19b9cdd6b2c7e57ull},
    {"air-noearlystop u32 adversarial smallest b1 n70001 k100", 0x1.69ad7e39037bp+4, 5, 0x08f7fc0bb587d6f1ull, 0xeeec4019e1b81f3full},
    {"air-noearlystop u32 adversarial largest b1 n70001 k100", 0x1.7883eee836ea4p+4, 5, 0xffdf85007fb96f51ull, 0x74688600219882c0ull},
    {"air-noearlystop u32 uniform largest b1 n70001 k100", 0x1.47ed3da161cacp+4, 5, 0xf397c9cc15a1e6daull, 0xf314af0f4f677de6ull},
    {"air-noearlystop u32 uniform smallest b1 n70001 k100", 0x1.4334d0973e017p+4, 5, 0x7c54f16e04fdb729ull, 0x88a3f19ed1f64d8dull},
    {"air-noearlystop f32 adversarial smallest b3 n10007 k64", 0x1.21f2dc6f81f41p+4, 5, 0x4ff93b22ab0115ddull, 0x7a35fdabfbab987dull},
    {"air-noearlystop f32 adversarial largest b3 n10007 k64", 0x1.26e921767f7b3p+4, 5, 0xb2b18a43d476eab2ull, 0xfa4f1e06a6199224ull},
    {"air-noearlystop f32 uniform largest b3 n10007 k64", 0x1.20f76e9c2b6f1p+4, 5, 0x2449cd39bd65de40ull, 0x0da3eb41b0e387a5ull},
    {"air-noearlystop f32 uniform smallest b3 n10007 k64", 0x1.244029afeeb4fp+4, 5, 0x8596c2b5456a36b3ull, 0x24e8918a4378f21bull},
    {"air-noearlystop u32 adversarial smallest b3 n10007 k64", 0x1.1d004d53d92b9p+4, 5, 0x25a0e44c66b20996ull, 0x7a35fdabfbab987dull},
    {"air-noearlystop u32 adversarial largest b3 n10007 k64", 0x1.2bdbb0922843bp+4, 5, 0xeafcc447da528e95ull, 0xfa4f1e06a6199224ull},
    {"air-noearlystop u32 uniform largest b3 n10007 k64", 0x1.1fdf8e11f5df8p+4, 5, 0x78cc9eb39aec7e99ull, 0x215f082b555af584ull},
    {"air-noearlystop u32 uniform smallest b3 n10007 k64", 0x1.227684fa70388p+4, 5, 0xb13afa4f9c86771full, 0x0a7b3d8343ee1e14ull},
};

TEST(RescanCountPin, KernelStatsModeledTimeAndOutputsMatchRecording) {
  const struct {
    const char* key;
    Algo algo;
  } rows[] = {
      {"air", Algo::kAirTopk},
      {"air-noadaptive", Algo::kAirTopkNoAdaptive},
      {"air-noearlystop", Algo::kAirTopkNoEarlyStop},
      {"air-fusedfilter", Algo::kAirTopkFusedFilter},
      {"radixselect", Algo::kRadixSelect},
      {"stream-radix", Algo::kStreamRadix},
  };
  // Radix-adversarial keys in both directions, uniform keys largest-K.
  const struct {
    const char* keys;
    bool adversarial;
    bool greatest;
  } inputs[] = {{"adversarial smallest", true, false},
                {"adversarial largest", true, true},
                {"uniform largest", false, true}};
  const auto check = [](const std::string& label, const DirectionTrace& t) {
    expect_matches_pin(kRescanRecorded, label, t);
  };
  for (const auto& [batch, n, k] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{1, 70001, 100},
        {3, 10007, 64}}) {
    const std::string shape = " b" + std::to_string(batch) + " n" +
                              std::to_string(n) + " k" + std::to_string(k);
    for (const KeyType dtype : {KeyType::kF32, KeyType::kU32}) {
      for (const auto& in : inputs) {
        const auto keys = in.adversarial
                              ? adversarial_keys(batch * n)
                              : direction_keys(dtype, false, batch * n);
        for (const auto& row : rows) {
          check(std::string(row.key) + " " +
                    std::string(key_type_name(dtype)) + " " + in.keys + shape,
                run_direction(row.algo, dtype, in.greatest, keys, batch, n,
                              k));
        }
      }
      check("air-noearlystop " + std::string(key_type_name(dtype)) +
                " uniform smallest" + shape,
            run_direction(Algo::kAirTopkNoEarlyStop, dtype, false,
                          direction_keys(dtype, false, batch * n), batch, n,
                          k));
    }
    const auto keys = adversarial_keys(batch * n);
    for (const bool greatest : {false, true}) {
      check(std::string("air in_idx f32 adversarial ") +
                (greatest ? "largest" : "smallest") + shape,
            run_air_in_idx(greatest, keys, batch, n, k));
    }
  }
}

// Largest-K over x is smallest-K over key(x): the same kernels, counters and
// modeled µs, and the same outputs once the values map back through key —
// the sign bit on the f32 carrier, the complement on the u32 carrier.  Every
// concrete row, on each carrier it supports.
struct ParityCase {
  Algo algo;
  KeyType dtype;
};

class DirectionParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DirectionParity, LargestKEqualsSmallestKOverReversedKeys) {
  const ParityCase& c = GetParam();
  const std::size_t batch = 2, n = 5003, k = 64;
  const std::uint32_t flip =
      key_type_is_integer(c.dtype) ? 0xFFFFFFFFu : 0x80000000u;
  for (const bool ties : {false, true}) {
    const auto keys = direction_keys(c.dtype, ties, batch * n);
    std::vector<std::uint32_t> reversed(keys);
    for (auto& x : reversed) x ^= flip;
    const std::string what = algo_name(c.algo) + " " +
                             std::string(key_type_name(c.dtype)) +
                             (ties ? " ties" : " uniform");
    const DirectionTrace largest =
        run_direction(c.algo, c.dtype, true, keys, batch, n, k);
    DirectionTrace smallest =
        run_direction(c.algo, c.dtype, false, reversed, batch, n, k);
    for (auto& x : smallest.out_bits) x ^= flip;
    ASSERT_FALSE(largest.trace.kernels.empty()) << what;
    expect_identical_stats(largest.trace, smallest.trace, what);
    EXPECT_EQ(largest.out_bits, smallest.out_bits) << what << " value bits";
    EXPECT_EQ(largest.out_idx, smallest.out_idx) << what << " indices";
  }
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const AlgoRow& row : kAlgoTable) {
    if (row.plan == nullptr) continue;
    cases.push_back({row.algo, KeyType::kF32});
    if (algo_supports_dtype(row.algo, KeyType::kU32)) {
      cases.push_back({row.algo, KeyType::kU32});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    EveryRow, DirectionParity, ::testing::ValuesIn(parity_cases()),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      std::string name(algo_key(info.param.algo));
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_" + std::string(key_type_name(info.param.dtype));
    });

// ---- in_idx leg -----------------------------------------------------------
// The rows that accept external input indices (GridSelect in both queue
// flavours, both fused row-wise variants) must charge identically unchecked
// and with a sanitizer attached with in_idx bound, and every returned index
// must be one of its row's external ids, paired with that id's key.

struct InIdxTrace {
  RunTrace trace;
  std::vector<float> vals;
  std::vector<std::uint32_t> idx;
};

enum class InIdxRow { kGrid, kGridThreadQueue, kFusedWarp, kFusedBlock };

InIdxTrace run_in_idx(InIdxRow row, std::span<const float> keys,
                      std::span<const std::uint32_t> ids, std::size_t batch,
                      std::size_t n, std::size_t k, bool simcheck) {
  simgpu::Device dev;
  if (simcheck) dev.enable_sanitizer();
  auto in = dev.alloc<float>(batch * n);
  auto in_idx = dev.alloc<std::uint32_t>(batch * n);
  auto ov = dev.alloc<float>(batch * k);
  auto oi = dev.alloc<std::uint32_t>(batch * k);
  dev.upload(in, keys);
  dev.upload(in_idx, ids);
  const Shape shape{batch, n, k};
  simgpu::WorkspaceLayout layout;
  simgpu::Workspace ws(dev);
  if (row == InIdxRow::kGrid || row == InIdxRow::kGridThreadQueue) {
    GridSelectOptions opt;
    opt.shared_queue = row == InIdxRow::kGrid;
    opt.in_idx = in_idx;
    const auto plan =
        grid_select_plan<float>(shape, dev.spec(), opt, layout);
    ws.bind(layout);
    grid_select_run(dev, plan, ws, in, ov, oi);
  } else {
    FusedRowwiseOptions opt;
    opt.in_idx = in_idx;
    const auto plan = fused_rowwise_plan<float>(
        shape, dev.spec(), opt, row == InIdxRow::kFusedBlock, layout);
    ws.bind(layout);
    fused_rowwise_run(dev, plan, ws, in, ov, oi);
  }
  InIdxTrace t;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      t.trace.kernels.push_back(ke->stats);
    }
  }
  t.trace.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
  t.vals.assign(ov.data(), ov.data() + batch * k);
  t.idx.assign(oi.data(), oi.data() + batch * k);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<float> sorted(t.vals.begin() + static_cast<long>(b * k),
                              t.vals.begin() + static_cast<long>((b + 1) * k));
    std::sort(sorted.begin(), sorted.end());
    t.trace.sorted_values.push_back(std::move(sorted));
  }
  if (simcheck) {
    const auto rep = dev.sanitizer()->snapshot();
    t.trace.sanitizer_clean = rep.clean();
    t.trace.sanitizer_report = rep.to_string();
  }
  return t;
}

TEST(InIdxLeg, ExternalIdsChargeIdenticallyOnEveryLeg) {
  const struct {
    InIdxRow row;
    const char* what;
    std::size_t batch, n, k;
  } cases[] = {
      {InIdxRow::kGrid, "grid", 1, 70001, 100},
      {InIdxRow::kGrid, "grid", 3, 10007, 64},
      {InIdxRow::kGridThreadQueue, "grid-threadqueue", 1, 70001, 100},
      {InIdxRow::kFusedWarp, "fused-warp", 8, 5003, 64},
      {InIdxRow::kFusedBlock, "fused-block", 8, 5003, 64},
  };
  for (const auto& c : cases) {
    const auto keys = data::generate({data::Distribution::kAdversarial, 20},
                                     c.batch * c.n, 0x1D);
    // Distinct ids within each row, unrelated to positions.
    std::vector<std::uint32_t> ids(c.batch * c.n);
    for (std::size_t b = 0; b < c.batch; ++b) {
      for (std::size_t j = 0; j < c.n; ++j) {
        ids[b * c.n + j] = static_cast<std::uint32_t>(
            (0x9E3779B1u * (b + 1)) ^ (2654435761u * j + 17u));
      }
    }
    // Each returned (value, index) pair must be one of its row's
    // (key, id) pairs, and the values the row's k smallest keys.
    const auto check_pairs = [&](const InIdxTrace& t, const std::string& at) {
      for (std::size_t b = 0; b < c.batch; ++b) {
        std::unordered_map<std::uint32_t, float> key_of;
        for (std::size_t j = 0; j < c.n; ++j) {
          key_of.emplace(ids[b * c.n + j], keys[b * c.n + j]);
        }
        for (std::size_t i = 0; i < c.k; ++i) {
          const auto it = key_of.find(t.idx[b * c.k + i]);
          ASSERT_NE(it, key_of.end()) << at << " row " << b << " slot " << i;
          EXPECT_EQ(it->second, t.vals[b * c.k + i])
              << at << " row " << b << " slot " << i;
        }
        const auto row = keys.begin() + static_cast<long>(b * c.n);
        std::vector<float> want(row, row + static_cast<long>(c.n));
        std::partial_sort(want.begin(), want.begin() + static_cast<long>(c.k),
                          want.end());
        want.resize(c.k);
        EXPECT_EQ(t.trace.sorted_values[b], want) << at << " row " << b;
      }
    };
    const std::string what = std::string(c.what) + " b" +
                             std::to_string(c.batch) + " n" +
                             std::to_string(c.n);
    const InIdxTrace fast =
        run_in_idx(c.row, keys, ids, c.batch, c.n, c.k, false);
    check_pairs(fast, what + " default");
    const InIdxTrace checked =
        run_in_idx(c.row, keys, ids, c.batch, c.n, c.k, true);
    expect_identical_stats(fast.trace, checked.trace, what + " simcheck");
    check_pairs(checked, what + " simcheck");
    EXPECT_TRUE(checked.trace.sanitizer_clean)
        << what << ":\n" << checked.trace.sanitizer_report;
  }
}

}  // namespace
}  // namespace topk
