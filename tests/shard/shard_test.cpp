// Sharded multi-device top-K: coordinator correctness across shard counts,
// algorithms, tie/duplicate boundary cases, capacity validation, the serve
// integration (auto-engage + hints), and static auditability of the plans a
// sharded query executes.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/shard_merge.hpp"
#include "verify/plan_audit.hpp"

namespace topk {
namespace {

std::vector<float> uniform_data(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1000.f, 1000.f);
  std::vector<float> data(n);
  for (auto& v : data) v = dist(rng);
  return data;
}

/// Exact check of a sharded result: indices valid and distinct, values match
/// data[index], and the value multiset equals the host reference's top-k
/// multiset (ties make the index set non-unique, the multiset is the
/// contract).
void expect_exact(std::span<const float> data, std::size_t k, bool greatest,
                  const SelectResult& r) {
  ASSERT_EQ(r.values.size(), k);
  ASSERT_EQ(r.indices.size(), k);
  std::vector<std::uint32_t> seen(r.indices.begin(), r.indices.end());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "duplicate index in result";
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_LT(r.indices[i], data.size());
    EXPECT_EQ(data[r.indices[i]], r.values[i]) << "index " << i;
  }
  std::vector<float> ref(data.begin(), data.end());
  if (greatest) {
    std::nth_element(ref.begin(), ref.begin() + static_cast<long>(k) - 1,
                     ref.end(), std::greater<float>());
  } else {
    std::nth_element(ref.begin(), ref.begin() + static_cast<long>(k) - 1,
                     ref.end());
  }
  std::vector<float> expect(ref.begin(), ref.begin() + static_cast<long>(k));
  std::vector<float> got(r.values.begin(), r.values.end());
  std::sort(expect.begin(), expect.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

// ---------------------------------------------------------------------------
// Fixed-seed sweep: shard counts x registry algorithms x least/greatest.
// ---------------------------------------------------------------------------

/// Results are best-first when the sorted option is on.
void expect_best_first(const SelectResult& r, bool greatest) {
  for (std::size_t i = 1; i < r.values.size(); ++i) {
    if (greatest) {
      EXPECT_GE(r.values[i - 1], r.values[i]) << "rank " << i;
    } else {
      EXPECT_LE(r.values[i - 1], r.values[i]) << "rank " << i;
    }
  }
}

// k = 100 merges every multi-shard count on the host; k = 1024 keeps two
// shards on the host and sends 4 and 7 shards (4096+ candidates) to the
// device merge, so both placements run every registry row.
TEST(ShardSweep, AllAlgorithmsAllShardCounts) {
  const std::size_t n = std::size_t{1} << 16;
  const std::vector<float> data = uniform_data(n, 1234);
  const simgpu::DeviceSpec spec;
  std::set<shard::MergeSite> sites;
  for (const std::size_t k : {std::size_t{100}, std::size_t{1024}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{7}}) {
      const std::size_t n_shard = (n + shards - 1) / shards;
      for (const Algo algo : all_algorithms()) {
        if (algo == Algo::kAuto) continue;
        if (k > max_k(algo, n_shard)) continue;
        for (const bool greatest : {false, true}) {
          shard::ShardConfig cfg;
          cfg.devices = 4;
          cfg.shards = shards;
          cfg.algo = algo;
          cfg.options.greatest = greatest;
          cfg.options.sorted = k > 100;
          const shard::ShardedResult res =
              shard::sharded_select(data, k, cfg);
          SCOPED_TRACE(algo_name(algo) + (greatest ? " greatest" : " least") +
                       " shards=" + std::to_string(shards) +
                       " k=" + std::to_string(k));
          EXPECT_EQ(res.shards, shards);
          EXPECT_EQ(res.shard_algo, algo);
          EXPECT_EQ(res.merge, shard::merge_site(shards, k, spec));
          sites.insert(res.merge);
          expect_exact(data, k, greatest, res.topk);
          if (cfg.options.sorted) expect_best_first(res.topk, greatest);
        }
      }
    }
  }
  EXPECT_EQ(sites.size(), std::size_t{3}) << "none, host and device merges";
}

TEST(ShardSweep, SortedResultsAreBestFirst) {
  const std::vector<float> data = uniform_data(std::size_t{1} << 15, 77);
  for (const bool greatest : {false, true}) {
    shard::ShardConfig cfg;
    cfg.shards = 4;
    cfg.options.greatest = greatest;
    cfg.options.sorted = true;
    const shard::ShardedResult res = shard::sharded_select(data, 64, cfg);
    expect_best_first(res.topk, greatest);
    expect_exact(data, 64, greatest, res.topk);
  }
}

// Duplicate runs deliberately straddling every shard boundary: the global
// top-k is a multiset cut through a tie class, and every shard contributes
// candidates from it.
TEST(ShardSweep, TiesStraddlingShardBoundaries) {
  const std::size_t n = 10007;  // prime: no boundary aligns with the pattern
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(i % 3);  // huge tie classes 0, 1, 2
  }
  // k = 64 merges on the host at every shard count; k = 1024 merges 2
  // shards on the host and 4 or 7 shards on the device.
  std::set<shard::MergeSite> sites;
  for (const std::size_t k : {std::size_t{64}, std::size_t{1024}}) {
    for (const std::size_t shards :
         {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
      for (const bool greatest : {false, true}) {
        for (const bool sorted : {false, true}) {
          shard::ShardConfig cfg;
          cfg.shards = shards;
          cfg.options.greatest = greatest;
          cfg.options.sorted = sorted;
          const shard::ShardedResult res =
              shard::sharded_select(data, k, cfg);
          SCOPED_TRACE("k=" + std::to_string(k) + " shards=" +
                       std::to_string(shards) +
                       (greatest ? " greatest" : " least") +
                       (sorted ? " sorted" : ""));
          sites.insert(res.merge);
          expect_exact(data, k, greatest, res.topk);
          if (sorted) expect_best_first(res.topk, greatest);
        }
      }
    }
  }
  EXPECT_TRUE(sites.count(shard::MergeSite::kHost));
  EXPECT_TRUE(sites.count(shard::MergeSite::kDevice));
}

TEST(ShardSweep, KEqualsShardCapacityEdge) {
  // k equal to a whole shard: max_shards clamps so every shard still holds
  // >= k keys.
  const std::size_t n = 4096, k = 1024;
  const std::vector<float> data = uniform_data(n, 9);
  shard::ShardConfig cfg;
  cfg.shards = 64;  // infeasible; must clamp to n / k = 4
  const shard::ShardedResult res = shard::sharded_select(data, k, cfg);
  EXPECT_LE(res.shards, shard::max_shards(n, k));
  expect_exact(data, k, false, res.topk);
}

TEST(ShardSweep, PlanCacheReusedAcrossQueries) {
  shard::ShardConfig cfg;
  cfg.shards = 4;
  shard::Coordinator coord(cfg);
  const std::vector<float> data = uniform_data(std::size_t{1} << 14, 5);
  const shard::ShardedResult a = coord.select(data, 32);
  const std::size_t misses_after_first = coord.plan_cache_misses();
  const shard::ShardedResult b = coord.select(data, 32);
  EXPECT_EQ(coord.plan_cache_misses(), misses_after_first)
      << "second identical query must be all plan-cache hits";
  EXPECT_GT(coord.plan_cache_hits(), std::size_t{0});
  EXPECT_EQ(a.topk.values, b.topk.values);
  EXPECT_EQ(a.topk.indices, b.topk.indices);
}

// ---------------------------------------------------------------------------
// The merge row: run length and tree depth follow the shape and the device.
// ---------------------------------------------------------------------------

// Runs are min(next_pow2(n), max(next_pow2(k), 4096)) long, halved until a
// run's keys and indices fit one block's shared memory.  A device with
// little shared memory so forces a deep merge tree on a small input, and
// the result must stay exact.
TEST(ShardMerge, RunLengthFollowsShapeAndSharedMemory) {
  const simgpu::DeviceSpec a100 = simgpu::DeviceSpec::a100();
  simgpu::WorkspaceLayout layout;
  const auto single = shard_merge_plan<float>(Shape{1, 100, 10}, a100, layout);
  EXPECT_EQ(single.run_len, 128u);
  EXPECT_EQ(single.runs, 1u);
  EXPECT_EQ(single.levels, 0);

  const std::size_t n = 70001;
  const std::size_t k = 64;
  const auto wide = shard_merge_plan<float>(Shape{1, n, k}, a100, layout);
  EXPECT_EQ(wide.run_len, 4096u);
  EXPECT_EQ(wide.runs, 18u);
  EXPECT_EQ(wide.levels, 5);

  simgpu::DeviceSpec small = a100;
  small.shared_mem_per_block = 16 * 1024;
  const auto deep = shard_merge_plan<float>(Shape{1, n, k}, small, layout);
  EXPECT_EQ(deep.run_len, 2048u);
  EXPECT_EQ(deep.runs, 35u);
  EXPECT_EQ(deep.levels, 6);

  const std::vector<float> data = uniform_data(n, 77);
  simgpu::Device dev(small);
  for (const bool greatest : {false, true}) {
    SCOPED_TRACE(greatest ? "greatest" : "least");
    SelectOptions opt;
    opt.greatest = greatest;
    expect_exact(data, k, greatest,
                 select(dev, data, k, Algo::kShardMerge, opt));
  }
}

// ---------------------------------------------------------------------------
// Capacity validation: the single-device path rejects oversized rows with a
// message pointing at the sharded path, which accepts them.
// ---------------------------------------------------------------------------

TEST(ShardCapacity, SingleDeviceRejectsOversizedSharedAccepts) {
  simgpu::DeviceSpec spec;
  spec.max_select_elems = std::size_t{1} << 12;
  const std::size_t n = std::size_t{1} << 13;
  const std::vector<float> data = uniform_data(n, 21);

  simgpu::Device dev(spec);
  try {
    (void)select(dev, data, 16, Algo::kAuto);
    FAIL() << "select() must reject n beyond max_select_elems";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard"), std::string::npos)
        << "rejection must name the sharded path: " << e.what();
  }

  shard::ShardConfig cfg;
  cfg.device_spec = spec;
  const shard::ShardedResult res = shard::sharded_select(data, 16, cfg);
  EXPECT_GE(res.shards, shard::min_shards(n, spec));
  expect_exact(data, 16, false, res.topk);
}

TEST(ShardCapacity, MergeCandidateLimitIsEnforced) {
  const std::vector<float> data = uniform_data(std::size_t{1} << 13, 3);
  try {
    (void)shard::sharded_select(data, 3000, {});
    FAIL() << "k beyond the merge candidate limit must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("candidate-list limit"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardCapacity, InfeasibleShardIntervalThrows) {
  // k so large that a device-sized shard cannot hold it.
  simgpu::DeviceSpec spec;
  spec.max_select_elems = 1024;
  const std::vector<float> data = uniform_data(8192, 4);
  shard::ShardConfig cfg;
  cfg.device_spec = spec;
  EXPECT_THROW((void)shard::sharded_select(data, 2048, cfg),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shard-count recommendation.
// ---------------------------------------------------------------------------

TEST(ShardRecommend, FloorAndCeiling) {
  simgpu::DeviceSpec spec;
  spec.max_select_elems = std::size_t{1} << 22;
  EXPECT_EQ(shard::min_shards(std::size_t{1} << 26, spec), std::size_t{16});
  EXPECT_EQ(shard::min_shards(std::size_t{1} << 20, spec), std::size_t{1});
  EXPECT_EQ(shard::max_shards(1000, 100), std::size_t{10});

  const std::size_t rec =
      shard::recommend_shards(std::size_t{1} << 26, 256, 4, spec);
  EXPECT_GE(rec, std::size_t{16}) << "must at least satisfy the capacity floor";
  EXPECT_LE(rec, shard::max_shards(std::size_t{1} << 26, 256));
}

TEST(ShardRecommend, SmallQueriesStayUnsharded) {
  const simgpu::DeviceSpec spec;  // default: no capacity pressure
  EXPECT_EQ(shard::recommend_shards(std::size_t{1} << 12, 16, 4, spec),
            std::size_t{1})
      << "a tiny row must not pay gather + merge overhead";
}

TEST(ShardRecommend, ShardedCostRaceSpeedsUpLargeQueries) {
  // Modeled 4-shard time at a large shape must beat the 1-shard candidate;
  // the recommender's cost race depends on this ordering.  The shape must
  // be big enough that the per-shard kernel savings clear the fixed floor
  // (one packed gather copy plus the merge, ~15us under the default spec);
  // 2^26 is the acceptance shape.
  const simgpu::DeviceSpec spec;
  const std::size_t n = std::size_t{1} << 26, k = 256;
  const double t1 = shard::estimated_sharded_cost_us(Algo::kAuto, 1, 4, n, k,
                                                     spec);
  const double t4 = shard::estimated_sharded_cost_us(Algo::kAuto, 4, 4, n, k,
                                                     spec);
  EXPECT_LT(t4, t1);
}

TEST(ShardRecommend, HintedRecommendationUsesPerShardShape) {
  // recommend_algorithm with a shard hint evaluates the per-shard length.
  WorkloadHints hints;
  hints.shards = 16;
  const Algo sharded = recommend_algorithm(std::size_t{1} << 26, 64, hints);
  const Algo direct = recommend_algorithm(std::size_t{1} << 22, 64, {});
  EXPECT_EQ(sharded, direct);
  WorkloadHints infeasible;
  infeasible.shards = 4;
  EXPECT_THROW((void)recommend_algorithm(1024, 512, infeasible),
               std::invalid_argument)
      << "k beyond the per-shard length must be rejected";
}

// ---------------------------------------------------------------------------
// Merge placement: one priced decision, read by the coordinator, the planner
// and the estimate alike.
// ---------------------------------------------------------------------------

/// Modeled time of one packed (k values | k indices) PCIe copy.
double packed_copy_us(const simgpu::DeviceSpec& spec, std::size_t k) {
  return spec.pcie_latency_us +
         static_cast<double>(2 * k * sizeof(std::uint32_t)) /
             spec.pcie_bytes_per_us();
}

/// Modeled time of the host merge step over m candidates.
double host_merge_us(const simgpu::DeviceSpec& spec, std::size_t m) {
  return static_cast<double>(shard::host_merge_ops(m)) /
         (spec.host_ops_per_sec * 1e-6);
}

TEST(ShardPlacement, HostOpsAreSortLike) {
  EXPECT_EQ(shard::host_merge_ops(256), std::uint64_t{256 * 8});
  EXPECT_EQ(shard::host_merge_ops(1024), std::uint64_t{1024 * 10});
  EXPECT_EQ(shard::host_merge_ops(1000), std::uint64_t{1000 * 10});
  EXPECT_EQ(shard::host_merge_ops(2), std::uint64_t{2});
}

TEST(ShardPlacement, HostAndDeviceMergesBookTheirPhases) {
  const std::vector<float> data = uniform_data(std::size_t{1} << 16, 55);
  shard::ShardConfig cfg;
  cfg.devices = 4;
  cfg.shards = 4;
  shard::Coordinator coord(cfg);
  const simgpu::DeviceSpec& spec = cfg.device_spec;

  // 4 x 256 candidates: the host step (about 6.8 us) undercuts any device
  // merge (at least two PCIe latencies plus a launch).
  const shard::ShardedResult host = coord.select(data, 256);
  ASSERT_EQ(host.merge, shard::MergeSite::kHost);
  expect_exact(data, 256, false, host.topk);
  EXPECT_EQ(host.timing.output_us, 0.0) << "the result is already on the host";
  EXPECT_NEAR(host.timing.merge_us, host_merge_us(spec, 1024), 1e-9);
  EXPECT_NEAR(host.timing.gather_us, packed_copy_us(spec, 256), 1e-9);
  EXPECT_FALSE(shard::plan_sharded(spec, data.size(), 256, 4, host.shard_algo)
                   .plans.back()
                   .first.starts_with("merge"));

  // 4 x 1024 candidates: the host step (about 33 us) loses to the device.
  const shard::ShardedResult dev = coord.select(data, 1024);
  ASSERT_EQ(dev.merge, shard::MergeSite::kDevice);
  expect_exact(data, 1024, false, dev.topk);
  EXPECT_NEAR(dev.timing.output_us, packed_copy_us(spec, 1024), 1e-9)
      << "one packed (values | positions) copy";
  EXPECT_NEAR(dev.timing.gather_us, packed_copy_us(spec, 1024), 1e-9);
  // No cheaper than the device floor the placement priced: candidate H2D,
  // one minimum-duration launch, the packed result copy.
  const double floor_us =
      spec.pcie_latency_us + 4096.0 * sizeof(float) / spec.pcie_bytes_per_us() +
      spec.kernel_launch_overhead_us + spec.min_kernel_duration_us +
      packed_copy_us(spec, 1024);
  EXPECT_GE(dev.timing.merge_us + dev.timing.output_us, floor_us);
  const shard::ShardedPlan sp =
      shard::plan_sharded(spec, data.size(), 1024, 4, dev.shard_algo);
  EXPECT_EQ(sp.merge, shard::MergeSite::kDevice);
  EXPECT_TRUE(sp.plans.back().first.starts_with("merge"));
}

TEST(ShardPlacement, DecisionIsPricedFromTheSpec) {
  // 4 x 512 = 2048 candidates: host 15.0 us against a device floor of
  // 22.0 us under the default spec.
  const simgpu::DeviceSpec base;
  EXPECT_EQ(shard::merge_site(1, 512, base), shard::MergeSite::kNone);
  EXPECT_EQ(shard::merge_site(4, 512, base), shard::MergeSite::kHost);
  simgpu::DeviceSpec fast_pcie = base;
  fast_pcie.pcie_latency_us = 4.0;  // device floor drops to 14.0 us
  EXPECT_EQ(shard::merge_site(4, 512, fast_pcie), shard::MergeSite::kDevice);
  simgpu::DeviceSpec slow_host = base;
  slow_host.host_ops_per_sec = 1e9;  // host step grows to 22.5 us
  EXPECT_EQ(shard::merge_site(4, 512, slow_host), shard::MergeSite::kDevice);
  simgpu::DeviceSpec fast_host = base;
  fast_host.host_ops_per_sec = 1e10;  // 4 x 1024 now merges on the host
  EXPECT_EQ(shard::merge_site(4, 1024, base), shard::MergeSite::kDevice);
  EXPECT_EQ(shard::merge_site(4, 1024, fast_host), shard::MergeSite::kHost);

  // The coordinator follows the spec it runs on.
  const std::vector<float> data = uniform_data(std::size_t{1} << 15, 8);
  for (const auto& [spec, want] :
       {std::pair{base, shard::MergeSite::kHost},
        std::pair{fast_pcie, shard::MergeSite::kDevice}}) {
    shard::ShardConfig cfg;
    cfg.shards = 4;
    cfg.device_spec = spec;
    const shard::ShardedResult r = shard::sharded_select(data, 512, cfg);
    EXPECT_EQ(r.merge, want);
    expect_exact(data, 512, false, r.topk);
  }
}

TEST(ShardPlacement, GatherIsOnePackedCopyPerShardOnTheBusiestDevice) {
  const std::vector<float> data = uniform_data(std::size_t{1} << 16, 61);
  const simgpu::DeviceSpec spec;
  const std::size_t k = 64;
  for (const auto& [shards, devices] :
       {std::pair<std::size_t, std::size_t>{4, 4}, {7, 4}, {4, 2}, {5, 1}}) {
    shard::ShardConfig cfg;
    cfg.devices = devices;
    cfg.shards = shards;
    const shard::ShardedResult r = shard::sharded_select(data, k, cfg);
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " devices=" + std::to_string(devices));
    const double rounds =
        static_cast<double>((shards + devices - 1) / devices);
    EXPECT_NEAR(r.timing.gather_us, rounds * packed_copy_us(spec, k), 1e-9);
    EXPECT_EQ(r.merge, shard::MergeSite::kHost);
    expect_exact(data, k, false, r.topk);
  }
  // One shard: its packed copy is the result transfer.
  shard::ShardConfig one;
  one.shards = 1;
  const shard::ShardedResult r = shard::sharded_select(data, k, one);
  EXPECT_EQ(r.merge, shard::MergeSite::kNone);
  EXPECT_EQ(r.timing.gather_us, 0.0);
  EXPECT_EQ(r.timing.merge_us, 0.0);
  EXPECT_NEAR(r.timing.output_us, packed_copy_us(spec, k), 1e-9);
}

TEST(ShardPlacement, EstimatePricesWhatTheCoordinatorBooks) {
  // Host-side shape, 7 shards on 4 devices (two rounds): the estimate's
  // transfer and merge terms equal the measured gather + merge + output.
  const std::size_t n = std::size_t{1} << 16, k = 128, shards = 7;
  const std::vector<float> data = uniform_data(n, 71);
  shard::ShardConfig cfg;
  cfg.devices = 4;
  cfg.shards = shards;
  const shard::ShardedResult r = shard::sharded_select(data, k, cfg);
  ASSERT_EQ(r.merge, shard::MergeSite::kHost);
  const double rounds = 2.0;
  const double selection =
      rounds * estimated_batch_cost_us(r.shard_algo, 1,
                                       (n + shards - 1) / shards, k);
  const double est = shard::estimated_sharded_cost_us(
      r.shard_algo, shards, cfg.devices, n, k, cfg.device_spec);
  const double measured =
      r.timing.gather_us + r.timing.merge_us + r.timing.output_us;
  EXPECT_NEAR(est - selection, measured, 1e-9 * measured);
}

// plan_sharded resolves shards = 0 for the pool it is told about, so the
// auditor and the coordinator agree on the shard count and the merge site.
TEST(ShardPlacement, PlannerAndCoordinatorAgreeOnThePool) {
  const simgpu::DeviceSpec spec;  // default: no capacity pressure
  const std::size_t n = std::size_t{1} << 24, k = 256;
  const shard::ShardedPlan one = shard::plan_sharded(spec, n, k, 0,
                                                     Algo::kAuto, {}, 1);
  EXPECT_EQ(one.shards, std::size_t{1}) << "one device: rounds serialize";
  EXPECT_EQ(one.merge, shard::MergeSite::kNone);

  const shard::ShardedPlan four =
      shard::plan_sharded(spec, n, k, 0, Algo::kAuto);  // default pool of 4
  const std::vector<float> data = uniform_data(n, 81);
  shard::ShardConfig cfg;
  cfg.devices = 4;
  shard::Coordinator coord(cfg);
  const shard::ShardedResult r = coord.select(data, k);
  EXPECT_EQ(four.shards, r.shards);
  EXPECT_EQ(four.merge, r.merge);
  EXPECT_EQ(four.shard_algo, r.shard_algo);
  EXPECT_EQ(r.shards, std::size_t{4});
  EXPECT_EQ(r.merge, shard::MergeSite::kHost);
  expect_exact(data, k, false, r.topk);
}

// ---------------------------------------------------------------------------
// Modeled scale-out: with a pool of 4 devices, 4 shards must be markedly
// faster than 1 shard in modeled time (deterministic, not wall clock).
// ---------------------------------------------------------------------------

TEST(ShardScaling, FourShardsBeatOneShardInModeledTime) {
  // The acceptance shape: N = 2^26 over a 4-device pool.  4 shards must
  // deliver near-linear scaling (>= 2.8x) over the 1-shard baseline in
  // modeled time, and the cross-shard merge (here the host step over
  // 4 x 256 candidates) must stay under 10% of the sharded total.
  const std::size_t n = std::size_t{1} << 26, k = 256;
  const std::vector<float> data = uniform_data(n, 11);

  shard::ShardConfig cfg1;
  cfg1.devices = 4;
  cfg1.shards = 1;
  const double t1 = shard::sharded_select(data, k, cfg1).timing.total_us;

  shard::ShardConfig cfg4;
  cfg4.devices = 4;
  cfg4.shards = 4;
  const shard::ShardedResult r4 = shard::sharded_select(data, k, cfg4);
  EXPECT_EQ(r4.devices, std::size_t{4});
  EXPECT_GE(t1 / r4.timing.total_us, 2.8)
      << "t1=" << t1 << "us t4=" << r4.timing.total_us << "us";
  EXPECT_LT(r4.timing.merge_us, r4.timing.total_us * 0.10)
      << "merge overhead must stay under 10% (merge=" << r4.timing.merge_us
      << "us total=" << r4.timing.total_us << "us)";
  const double phase_sum = r4.timing.select_us + r4.timing.gather_us +
                           r4.timing.merge_us + r4.timing.output_us;
  EXPECT_DOUBLE_EQ(r4.timing.total_us, phase_sum)
      << "phase attribution must cover the total";
}

// ---------------------------------------------------------------------------
// Serving integration: hints and the capacity auto-engage.
// ---------------------------------------------------------------------------

TEST(ShardServe, HintRoutesThroughShardedPath) {
  serve::ServiceConfig cfg;
  cfg.shard_devices = 4;
  serve::TopkService svc(cfg);
  WorkloadHints hints;
  hints.shards = 3;
  std::vector<float> keys = uniform_data(std::size_t{1} << 14, 31);
  const std::vector<float> copy = keys;
  auto fut = svc.submit(std::move(keys), 32, std::nullopt, std::nullopt,
                        hints);
  const serve::QueryResult qr = fut.get();
  ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
  EXPECT_EQ(qr.shards, std::size_t{3});
  EXPECT_GT(qr.device_us, 0.0);
  expect_exact(copy, 32, false, qr.topk);
  svc.shutdown();
  const serve::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sharded_queries, std::uint64_t{1});
  EXPECT_GT(stats.sharded_device_us, 0.0);
}

TEST(ShardServe, OversizedRowAutoEngagesSharding) {
  serve::ServiceConfig cfg;
  cfg.device_spec.max_select_elems = std::size_t{1} << 14;
  cfg.shard_devices = 4;
  serve::TopkService svc(cfg);
  const std::size_t n = std::size_t{1} << 16;  // 4x the per-device ceiling
  std::vector<float> keys = uniform_data(n, 13);
  const std::vector<float> copy = keys;
  auto fut = svc.submit(std::move(keys), 50);  // no hints at all
  const serve::QueryResult qr = fut.get();
  ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
  EXPECT_GE(qr.shards, std::size_t{4})
      << "row must be split at least to the capacity floor";
  expect_exact(copy, 50, false, qr.topk);
}

TEST(ShardServe, UnservableShardedRequestFailsGracefully) {
  serve::ServiceConfig cfg;
  cfg.device_spec.max_select_elems = std::size_t{1} << 10;
  serve::TopkService svc(cfg);
  // k cannot fit any device-sized shard: the future must resolve kFailed
  // (not hang, not crash) with the coordinator's diagnostic.
  std::vector<float> keys = uniform_data(std::size_t{1} << 12, 17);
  auto fut = svc.submit(std::move(keys), 2000);
  const serve::QueryResult qr = fut.get();
  EXPECT_EQ(qr.status, serve::QueryStatus::kFailed);
  EXPECT_FALSE(qr.error.empty());
}

// The acceptance shape: one N = 2^26 query on devices capped at 2^22 keys —
// never servable single-device — completes through topk::serve, exact
// against the host reference.
TEST(ShardServe, AcceptanceN26OnCappedDevices) {
  serve::ServiceConfig cfg;
  cfg.device_spec.max_select_elems = std::size_t{1} << 22;
  cfg.shard_devices = 4;
  serve::TopkService svc(cfg);
  const std::size_t n = std::size_t{1} << 26, k = 64;
  std::vector<float> keys = uniform_data(n, 42);
  const std::vector<float> copy = keys;
  auto fut = svc.submit(std::move(keys), k);
  const serve::QueryResult qr = fut.get();
  ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
  EXPECT_GE(qr.shards, std::size_t{16});
  expect_exact(copy, k, false, qr.topk);
}

// ---------------------------------------------------------------------------
// Static auditability: every plan a sharded query executes walks the same
// auditor that gates single-device plans, and walks it clean.
// ---------------------------------------------------------------------------

TEST(ShardAudit, ShardedPlansAuditClean) {
  simgpu::DeviceSpec spec;
  spec.max_select_elems = std::size_t{1} << 22;
  for (const std::size_t shards : {std::size_t{0}, std::size_t{16}}) {
    const shard::ShardedPlan sp = shard::plan_sharded(
        spec, std::size_t{1} << 26, 256, shards, Algo::kAuto);
    EXPECT_GE(sp.shards, std::size_t{16});
    ASSERT_FALSE(sp.plans.empty());
    bool saw_merge = false;
    for (const auto& [label, plan] : sp.plans) {
      const verify::AuditReport report = verify::audit_plan(plan);
      EXPECT_TRUE(report.clean()) << label << ": " << verify::to_json(report);
      saw_merge = saw_merge || label.find("merge") != std::string::npos;
    }
    EXPECT_TRUE(saw_merge) << "multi-shard plan set must include the merge";
  }
}

}  // namespace
}  // namespace topk
