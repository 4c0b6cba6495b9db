// Counter-invariance suite for the tile-granular fast path and the
// threshold-gated warp fast path layered on top of it: for every ported
// algorithm, across distributions and (N, K, batch) shapes, the recorded
// KernelStats stream — every counter of every kernel, in launch order — and
// the modeled device time must be BIT-IDENTICAL across the full
// {tile × warpfast × simcheck × pool} grid relative to the scalar baseline.  The
// selected value multiset must also agree (indices may differ only where
// elements tie at the K-th value, which is claimed by atomic ticket across
// concurrent blocks), and simcheck must stay clean with both fast paths
// enabled (the warp fast path is gated off under the sanitizer, so that leg
// also proves the exact path reproduces the bulk charges).

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
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
#include "topk/fused_rowwise.hpp"
#include "topk/grid_select.hpp"
#include "topk/key_codec.hpp"

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

/// Restores the process-global tile + warpfast + memory-pool toggles however
/// a test exits.
class TileGuard {
 public:
  TileGuard()
      : tile_was_(simgpu::tile_path_enabled()),
        warpfast_was_(simgpu::warpfast_path_enabled()),
        pool_was_(simgpu::pool_enabled()) {}
  ~TileGuard() {
    simgpu::set_tile_path_enabled(tile_was_);
    simgpu::set_warpfast_path_enabled(warpfast_was_);
    simgpu::set_pool_enabled(pool_was_);
  }

 private:
  bool tile_was_;
  bool warpfast_was_;
  bool pool_was_;
};

struct RunTrace {
  std::vector<simgpu::KernelStats> kernels;
  double model_us = 0.0;
  std::vector<std::vector<float>> sorted_values;  // one per problem
  bool sanitizer_clean = true;
  std::string sanitizer_report;
};

RunTrace run_once(std::span<const float> data, std::size_t batch,
                  std::size_t n, std::size_t k, Algo algo, bool greatest,
                  bool tile, bool warpfast, bool simcheck, bool pool = true) {
  simgpu::set_tile_path_enabled(tile);
  simgpu::set_warpfast_path_enabled(warpfast);
  simgpu::set_pool_enabled(pool);
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
        << algo_name(algo) << " greatest=" << greatest << " tile=" << tile
        << " warpfast=" << warpfast << " simcheck=" << simcheck
        << " problem " << b << ": " << err;
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

class TileInvariance : public ::testing::TestWithParam<InvarianceCase> {};

TEST_P(TileInvariance, StatsAndModeledTimeBitIdenticalAcrossModes) {
  const auto [algo, batch, n, k, greatest] = GetParam();
  TileGuard guard;
  std::uint64_t seed = 77;
  for (const auto& spec : standard_distributions()) {
    const auto values = data::generate(spec, batch * n, seed++);
    const auto leg = [&](bool tile, bool warpfast, bool simcheck,
                         bool pool = true) {
      return run_once(values, batch, n, k, algo, greatest, tile, warpfast,
                      simcheck, pool);
    };
    const RunTrace scalar = leg(false, false, false);
    const RunTrace tile = leg(true, false, false);
    // Warpfast without the tile path must be inert: the warp fast path only
    // activates on tile-backed spans, so this leg is bit-identical to scalar.
    const RunTrace wf_no_tile = leg(false, true, false);
    const RunTrace wf = leg(true, true, false);
    // Under simcheck the warp fast path gates itself off; this leg proves
    // the exact per-round path reproduces the fast path's bulk charges.
    const RunTrace wf_checked = leg(true, true, true);
    // Memory-pool invariance: slab provenance never feeds the cost model,
    // so disabling pooled reuse must be invisible to counters, modeled time
    // and results — on the scalar baseline, with both fast paths, and under
    // simcheck.
    const RunTrace nopool_scalar = leg(false, false, false, false);
    const RunTrace nopool_wf = leg(true, true, false, false);
    const RunTrace nopool_checked = leg(true, true, true, false);
    const std::string what = std::string(algo_name(algo)) +
                             (greatest ? " largest-K" : "") + " on " +
                             spec.name();
    ASSERT_FALSE(scalar.kernels.empty()) << what;
    expect_identical_stats(scalar, tile, what + " [tile vs scalar]");
    expect_identical_stats(scalar, wf_no_tile,
                           what + " [warpfast w/o tile vs scalar]");
    expect_identical_stats(scalar, wf, what + " [tile+warpfast vs scalar]");
    expect_identical_stats(scalar, wf_checked,
                           what + " [tile+warpfast+simcheck vs scalar]");
    expect_identical_stats(scalar, nopool_scalar,
                           what + " [pool off vs scalar]");
    expect_identical_stats(scalar, nopool_wf,
                           what + " [pool off + tile+warpfast vs scalar]");
    expect_identical_stats(scalar, nopool_checked,
                           what + " [pool off + simcheck vs scalar]");
    EXPECT_TRUE(wf_checked.sanitizer_clean)
        << what << " raised issues with the fast paths enabled:\n"
        << wf_checked.sanitizer_report;
    EXPECT_TRUE(nopool_checked.sanitizer_clean)
        << what << " raised issues with the pool disabled:\n"
        << nopool_checked.sanitizer_report;
  }
}

std::vector<InvarianceCase> cases() {
  // Every algorithm whose inner loops ride the tile path, plus the
  // fused-last-filter AIR variant (its fused filter scans through the same
  // tile helpers).  The warp-queue family — GridSelect in both queue
  // flavours, WarpSelect, BlockSelect, both fused row-wise variants, and the
  // bucketed approximate tier (exact at the default recall_target = 1.0) —
  // additionally exercises the threshold-gated warp fast path.  RadixSelect
  // and stream-radix run the same radix pass loop (SIMD digit histogram on
  // the tile path).
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
  // Native largest-K rows xor a direction mask into every radix key, the
  // SIMD histogram included.
  for (Algo algo : {Algo::kAirTopk, Algo::kRadixSelect, Algo::kStreamRadix}) {
    cases.push_back({algo, 1, 70001, 517, true});
    cases.push_back({algo, 3, 10007, 100, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, TileInvariance, ::testing::ValuesIn(cases()),
                         case_name);

// ---- typed keys across the same mode grid ---------------------------------
// The dtype layer must be invisible to the counter stream too: a typed
// select (f16 on the float carrier with a u32 payload, i32 on the u32
// carrier with a u64 payload) produces bit-identical KernelStats, modeled
// time, result bits and gathered payloads across the full
// {tile x warpfast x simcheck x pool} grid.  Payload gather is a host-side
// post-pass, so it must contribute zero kernels to the stream.

struct TypedTrace {
  std::vector<simgpu::KernelStats> kernels;
  double model_us = 0.0;
  std::vector<std::uint32_t> sorted_bits;
  std::vector<std::uint64_t> sorted_payload;
  bool sanitizer_clean = true;
  std::string sanitizer_report;
};

TypedTrace run_typed_once(KeyView keys, PayloadView payload, std::size_t n,
                          std::size_t k, Algo algo, bool tile, bool warpfast,
                          bool simcheck, bool pool) {
  simgpu::set_tile_path_enabled(tile);
  simgpu::set_warpfast_path_enabled(warpfast);
  simgpu::set_pool_enabled(pool);
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
  TileGuard guard;
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
    const TypedTrace scalar = run_typed_once(leg.keys, leg.payload, n, k,
                                             leg.algo, false, false, false,
                                             true);
    ASSERT_FALSE(scalar.kernels.empty()) << leg.what;
    const TypedTrace wf = run_typed_once(leg.keys, leg.payload, n, k,
                                         leg.algo, true, true, false, true);
    const TypedTrace wf_checked = run_typed_once(
        leg.keys, leg.payload, n, k, leg.algo, true, true, true, true);
    const TypedTrace nopool = run_typed_once(leg.keys, leg.payload, n, k,
                                             leg.algo, true, true, false,
                                             false);
    expect_identical_typed(scalar, wf,
                           std::string(leg.what) + " [tile+warpfast]");
    expect_identical_typed(scalar, wf_checked,
                           std::string(leg.what) + " [simcheck]");
    expect_identical_typed(scalar, nopool,
                           std::string(leg.what) + " [pool off]");
    EXPECT_TRUE(wf_checked.sanitizer_clean)
        << leg.what << ":\n" << wf_checked.sanitizer_report;
    // The float-keyed baseline on identical carrier data must produce the
    // same kernel stream shape (payload adds no kernels).
    const TypedTrace nopay = run_typed_once(leg.keys, {}, n, k, leg.algo,
                                            false, false, false, true);
    ASSERT_EQ(scalar.kernels.size(), nopay.kernels.size())
        << leg.what << ": payload gather must stay off-device";
    EXPECT_EQ(scalar.model_us, nopay.model_us) << leg.what;
  }
}

// ---- warp-queue family count pin ------------------------------------------
// The suite above compares fast-path settings within one build; this pin
// compares builds.  Every KernelStats field of every kernel, plus the
// modeled µs, is recorded for each warp-queue row at one batch-1 and one
// batch-8 shape, so a refactor of the shared scan must reproduce the
// recorded counts exactly.  On a mismatch the test prints the row it
// measured in table syntax.

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
};

struct PinnedRun {
  std::string label;
  Algo algo;
  double recall_target;
  std::size_t batch;
  std::size_t n;
  std::size_t k;
  const PinnedRecord* want;  // null until recorded
};

std::string pin_row(const std::string& label, const RunTrace& got) {
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
  return s + "    }},\n";
}

RunTrace run_pinned(const PinnedRun& run) {
  simgpu::set_tile_path_enabled(true);
  simgpu::set_warpfast_path_enabled(true);
  simgpu::set_pool_enabled(true);
  const auto data = data::generate({data::Distribution::kUniform, 0},
                                   run.batch * run.n, 0x5EED);
  simgpu::Device dev;
  SelectOptions opt;
  opt.recall_target = run.recall_target;
  select_batch(dev, data, run.batch, run.n, run.k, run.algo, opt);
  RunTrace t;
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
// max_block_lane_ops.
const PinnedRecord kRecorded[] = {
    {"grid b1 n70001 k100", 0x1.39c439f1b1631p+3, {
        {"GridSelect_partial", 5, 256, 280004, 5120, 580392, 0, 0, 5, 57028, 117433},
        {"GridSelect_merge", 1, 1024, 5120, 800, 2304, 0, 0, 0, 5920, 2304},
    }},
    {"grid-threadqueue b1 n70001 k100", 0x1.39c439f1b1631p+3, {
        {"GridSelect_partial_threadqueue", 5, 256, 280004, 5120, 823938, 0, 0, 5, 57028, 166510},
        {"GridSelect_merge", 1, 1024, 5120, 800, 2304, 0, 0, 0, 5920, 2304},
    }},
    {"warp b1 n70001 k100", 0x1.582dcb5df3cb6p+7, {
        {"WarpSelect", 1, 32, 280004, 800, 137988, 0, 0, 1, 280804, 137988},
    }},
    {"block b1 n70001 k100", 0x1.672dcb5df3cb6p+5, {
        {"BlockSelect", 1, 128, 280004, 800, 261566, 0, 0, 1, 280804, 261566},
    }},
    {"fused-warp b1 n70001 k100", 0x1.582dcb5df3cb6p+7, {
        {"FusedRowwise_warp", 1, 32, 280004, 800, 137988, 0, 0, 0, 280804, 137988},
    }},
    {"fused-block b1 n70001 k100", 0x1.b41b89a1de654p+4, {
        {"FusedRowwise_block", 1, 256, 280004, 8192, 211699, 0, 0, 1, 288196, 211699},
        {"FusedRowwise_block_merge", 1, 1024, 8192, 800, 4032, 0, 0, 0, 8992, 4032},
    }},
    {"bucket-approx@1.0 b1 n70001 k100", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 280004, 25600, 2859552, 0, 0, 32, 9552, 89361},
        {"BucketApproxRefine", 1, 1024, 25600, 800, 159744, 0, 0, 0, 26400, 159744},
    }},
    {"bucket-approx@0.9 b1 n70001 k100", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 280004, 1280, 984418, 0, 0, 32, 8792, 31099},
        {"BucketApproxRefine", 1, 1024, 1280, 800, 4608, 0, 0, 0, 2080, 4608},
    }},
    {"grid b8 n10007 k64", 0x1.63dedfa00719cp+2, {
        {"GridSelect_partial", 8, 256, 320224, 4096, 441600, 0, 0, 8, 40540, 56033},
    }},
    {"grid-threadqueue b8 n10007 k64", 0x1.63dedfa00719cp+2, {
        {"GridSelect_partial_threadqueue", 8, 256, 320224, 4096, 779704, 0, 0, 8, 40540, 99855},
    }},
    {"warp b8 n10007 k64", 0x1.afbdbf400e338p+4, {
        {"WarpSelect", 8, 32, 320224, 4096, 279687, 0, 0, 8, 40540, 36521},
    }},
    {"block b8 n10007 k64", 0x1.13dedfa00719cp+3, {
        {"BlockSelect", 8, 128, 320224, 4096, 559080, 0, 0, 8, 40540, 71681},
    }},
    {"fused-warp b8 n10007 k64", 0x1.afbdbf400e338p+4, {
        {"FusedRowwise_warp", 1, 256, 320224, 4096, 279687, 0, 0, 0, 324320, 279687},
    }},
    {"fused-block b8 n10007 k64", 0x1.1a97ea406aebcp+3, {
        {"FusedRowwise_block", 8, 256, 320224, 32768, 427264, 0, 0, 8, 44124, 54241},
        {"FusedRowwise_block_merge", 8, 1024, 32768, 4096, 14336, 0, 0, 0, 4608, 1792},
    }},
    {"bucket-approx@1.0 b8 n10007 k64", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 320224, 16384, 2538016, 0, 0, 32, 10520, 79313},
        {"BucketApproxRefine", 8, 1024, 16384, 4096, 36864, 0, 0, 0, 2560, 4608},
    }},
    {"bucket-approx@0.9 b8 n10007 k64", 0x1.1p+3, {
        {"BucketApproxScan", 32, 864, 320224, 4352, 1251277, 0, 0, 32, 10144, 39368},
        {"BucketApproxRefine", 8, 1024, 4352, 4096, 14336, 0, 0, 0, 1056, 1792},
    }},
};

std::vector<PinnedRun> pinned_runs() {
  struct Row {
    const char* label;
    Algo algo;
    double recall;
  };
  const Row rows[] = {
      {"grid", Algo::kGridSelect, 1.0},
      {"grid-threadqueue", Algo::kGridSelectThreadQueue, 1.0},
      {"warp", Algo::kWarpSelect, 1.0},
      {"block", Algo::kBlockSelect, 1.0},
      {"fused-warp", Algo::kFusedWarpRowwise, 1.0},
      {"fused-block", Algo::kFusedBlockRowwise, 1.0},
      {"bucket-approx@1.0", Algo::kBucketApprox, 1.0},
      {"bucket-approx@0.9", Algo::kBucketApprox, 0.9},
  };
  std::vector<PinnedRun> runs;
  for (const auto& [batch, n, k] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{1, 70001, 100},
        {8, 10007, 64}}) {
    for (const Row& r : rows) {
      PinnedRun run{std::string(r.label) + " b" + std::to_string(batch) +
                        " n" + std::to_string(n) + " k" + std::to_string(k),
                    r.algo, r.recall, batch, n, k, nullptr};
      for (const PinnedRecord& rec : kRecorded) {
        if (run.label == rec.label) run.want = &rec;
      }
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

TEST(WarpQueueCountPin, KernelStatsAndModeledTimeMatchRecording) {
  TileGuard guard;
  for (const PinnedRun& run : pinned_runs()) {
    const RunTrace got = run_pinned(run);
    bool same = run.want != nullptr &&
                got.kernels.size() == run.want->kernels.size() &&
                got.model_us == run.want->model_us;
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
                      << pin_row(run.label, got);
  }
}

// ---- in_idx leg -----------------------------------------------------------
// The rows that accept external input indices (GridSelect in both queue
// flavours, both fused row-wise variants) must charge identically on every
// {tile x warpfast x simcheck} leg with in_idx bound, and every returned
// index must be one of its row's external ids, paired with that id's key.

struct InIdxTrace {
  RunTrace trace;
  std::vector<float> vals;
  std::vector<std::uint32_t> idx;
};

enum class InIdxRow { kGrid, kGridThreadQueue, kFusedWarp, kFusedBlock };

InIdxTrace run_in_idx(InIdxRow row, std::span<const float> keys,
                      std::span<const std::uint32_t> ids, std::size_t batch,
                      std::size_t n, std::size_t k, bool tile, bool warpfast,
                      bool simcheck) {
  simgpu::set_tile_path_enabled(tile);
  simgpu::set_warpfast_path_enabled(warpfast);
  simgpu::Device dev;
  if (simcheck) dev.enable_sanitizer();
  auto in = dev.alloc<float>(batch * n);
  auto in_idx = dev.alloc<std::uint32_t>(batch * n);
  auto ov = dev.alloc<float>(batch * k);
  auto oi = dev.alloc<std::uint32_t>(batch * k);
  dev.upload(in, keys);
  dev.upload(in_idx, ids);
  if (row == InIdxRow::kGrid || row == InIdxRow::kGridThreadQueue) {
    GridSelectOptions opt;
    opt.shared_queue = row == InIdxRow::kGrid;
    opt.in_idx = in_idx;
    grid_select(dev, in, batch, n, k, ov, oi, opt);
  } else {
    FusedRowwiseOptions opt;
    opt.in_idx = in_idx;
    fused_rowwise(dev, in, batch, n, k, ov, oi,
                  row == InIdxRow::kFusedBlock, opt);
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
  TileGuard guard;
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
    const InIdxTrace base = run_in_idx(c.row, keys, ids, c.batch, c.n, c.k,
                                       false, false, false);
    check_pairs(base, what + " scalar");
    for (const bool tile : {false, true}) {
      for (const bool warpfast : {false, true}) {
        for (const bool simcheck : {false, true}) {
          const std::string at = what + " tile=" + std::to_string(tile) +
                                 " warpfast=" + std::to_string(warpfast) +
                                 " simcheck=" + std::to_string(simcheck);
          const InIdxTrace leg = run_in_idx(c.row, keys, ids, c.batch, c.n,
                                            c.k, tile, warpfast, simcheck);
          expect_identical_stats(base.trace, leg.trace, at);
          check_pairs(leg, at);
          EXPECT_TRUE(leg.trace.sanitizer_clean)
              << at << ":\n" << leg.trace.sanitizer_report;
        }
      }
    }
  }
}

}  // namespace
}  // namespace topk
