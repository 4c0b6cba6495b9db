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
#include <cstdlib>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
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

}  // namespace
}  // namespace topk
