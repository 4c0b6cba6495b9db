// Bucketed approximate tier (Algo::kBucketApprox).
//
// The exact-contract legs (default recall_target = 1.0) ride the shared
// suites — all_algorithms_test, batched_sweep_test, tile_invariance_test —
// because keep = k makes the tier exact by construction.  This file covers
// what those suites cannot: the analytic recall model against measured
// recall on the paper distributions and ANN datasets, the approximate
// contract (chunk-local exactness) under ties and duplicates in both
// directions, recall_target validation and routing at every entry point,
// and charge invariance of the approximate shape itself.

#include <algorithm>
#include <cmath>
#include <random>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/ann_dataset.hpp"
#include "data/distributions.hpp"
#include "data/recall.hpp"
#include "serve/service.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/bucket_approx.hpp"

namespace topk {
namespace {

using test::standard_distributions;

std::vector<SelectResult> run_approx(std::span<const float> data,
                                     std::size_t batch, std::size_t n,
                                     std::size_t k, const SelectOptions& opt) {
  simgpu::Device dev;
  return select_batch(dev, data, batch, n, k, Algo::kBucketApprox, opt);
}

// --- analytic expected-recall model ---------------------------------------

TEST(BucketApproxModel, ExpectedRecallBasics) {
  // keep >= k is the exact regime, exactly 1.0 (superset argument).
  EXPECT_EQ(bucket_approx_expected_recall(64, 8, 64), 1.0);
  EXPECT_EQ(bucket_approx_expected_recall(64, 8, 100), 1.0);
  // One chunk keeps its keep smallest: recall is exactly keep / k.
  EXPECT_DOUBLE_EQ(bucket_approx_expected_recall(100, 1, 37), 0.37);
  // Monotone in keep, and strictly below 1.0 when keep < k spreads thin.
  double prev = 0.0;
  for (std::size_t q = 1; q <= 64; ++q) {
    const double r = bucket_approx_expected_recall(64, 16, q);
    EXPECT_GE(r, prev) << "q=" << q;
    EXPECT_LE(r, 1.0);
    prev = r;
  }
  EXPECT_LT(bucket_approx_expected_recall(64, 16, 1), 1.0);
  // k = 2048 with few chunks is where a naive (1-p)^k pmf seed underflows;
  // the log-space pmf must still integrate to a sane recall.
  const double big = bucket_approx_expected_recall(2048, 2, 1024);
  EXPECT_GT(big, 0.5);
  EXPECT_LE(big, 1.0);
  EXPECT_THROW(bucket_approx_expected_recall(0, 4, 2), std::invalid_argument);
  EXPECT_THROW(bucket_approx_expected_recall(64, 0, 2), std::invalid_argument);
  EXPECT_THROW(bucket_approx_expected_recall(64, 4, 0), std::invalid_argument);
}

TEST(BucketApproxModel, ConfigureMeetsTargetAndValidates) {
  const simgpu::DeviceSpec spec;
  for (const double rt : {0.5, 0.8, 0.9, 0.95, 0.99}) {
    BucketApproxOptions opt;
    opt.recall_target = rt;
    const auto s =
        bucket_approx_configure(std::size_t{1} << 20, 256, 1, opt, spec);
    EXPECT_GE(s.expected_recall, rt) << "rt=" << rt;
    EXPECT_GE(s.keep, (256 + s.chunks - 1) / s.chunks);
    EXPECT_GE(std::size_t{1} << 20, s.chunks * s.keep);
  }
  // rt = 1.0 must force keep = k — the only analytically exact shape.
  BucketApproxOptions exact;
  const auto s =
      bucket_approx_configure(std::size_t{1} << 16, 100, 1, exact, spec);
  EXPECT_EQ(s.keep, 100u);
  EXPECT_EQ(s.expected_recall, 1.0);
  for (const double bad : {0.0, -0.5, 1.5}) {
    BucketApproxOptions opt;
    opt.recall_target = bad;
    EXPECT_THROW(
        bucket_approx_configure(std::size_t{1} << 16, 64, 1, opt, spec),
        std::invalid_argument)
        << "rt=" << bad;
  }
  // Every audit-grid shape must configure feasibly in the exact regime.
  for (const auto& [n, k] :
       {std::pair<std::size_t, std::size_t>{999, 1},
        {4096, 64},
        {70001, 517},
        {10007, 100},
        {std::size_t{1} << 22, 2048}}) {
    const auto shape = bucket_approx_configure(n, k, 1, exact, spec);
    EXPECT_GE(n / shape.chunks, shape.keep) << "n=" << n << " k=" << k;
  }
}

// --- measured recall vs the model -----------------------------------------

TEST(BucketApproxRecall, MeasuredMatchesModelOnPaperDistributions) {
  const std::size_t n = std::size_t{1} << 16;
  const std::size_t k = 256;
  const std::size_t batch = 8;
  std::uint64_t seed = 101;
  for (const auto& dist : standard_distributions()) {
    for (const double rt : {0.8, 0.9, 0.95}) {
      const auto values = data::generate(dist, batch * n, seed++);
      SelectOptions opt;
      opt.recall_target = rt;
      const auto results = run_approx(values, batch, n, k, opt);
      BucketApproxOptions bopt;
      bopt.recall_target = rt;
      const auto shape =
          bucket_approx_configure(n, k, batch, bopt, simgpu::DeviceSpec{});
      double total = 0.0;
      for (std::size_t b = 0; b < batch; ++b) {
        const std::span<const float> row(values.data() + b * n, n);
        const auto exact = data::exact_topk_values(row, k);
        total += data::recall_at_k(results[b].values, exact);
      }
      const double measured = total / static_cast<double>(batch);
      EXPECT_GE(measured, rt) << dist.name() << " rt=" << rt;
      // The binomial model should track measurement tightly: positions of
      // the top-k are iid across chunks for all three generators.
      EXPECT_NEAR(measured, shape.expected_recall, 0.05)
          << dist.name() << " rt=" << rt;
    }
  }
}

TEST(BucketApproxRecall, AnnDatasetDistancesMeetTarget) {
  // ANN re-rank is the motivating workload: top-k of L2 distances.
  const std::size_t count = std::size_t{1} << 14;
  const std::size_t k = 128;
  const double rt = 0.9;
  std::size_t ds_id = 0;
  for (const auto& ds : {data::make_deep_like(count, 7),
                         data::make_sift_like(count, 8)}) {
    const auto queries = data::make_queries(ds, 4, 99 + ds_id);
    const std::size_t dim = ds.vectors.size() / count;
    double total = 0.0;
    std::size_t rows = 0;
    for (std::size_t q = 0; q < 4; ++q) {
      const auto dists =
          data::l2_distances(ds, queries.data() + q * dim, count);
      SelectOptions opt;
      opt.recall_target = rt;
      const auto res = run_approx(dists, 1, count, k, opt)[0];
      total += data::recall_at_k(res.values, data::exact_topk_values(dists, k));
      ++rows;
    }
    EXPECT_GE(total / static_cast<double>(rows), rt) << "dataset " << ds_id;
    ++ds_id;
  }
}

// --- the approximate contract under ties and duplicates -------------------

// Chunk-local exactness is the tier's whole contract: the result must be
// exactly the k best of the union of each chunk's keep best, which
// bucket_approx_reference computes host-side.  Duplicate keys across a
// chunk boundary are the sharpest probe — dropping or double-counting a
// tied element at the boundary changes the multiset.
TEST(BucketApproxContract, BoundaryTiesAndDuplicates) {
  const std::size_t n = 4096;
  const std::size_t k = 64;
  BucketApproxOptions bopt;
  bopt.recall_target = 0.9;
  const auto shape =
      bucket_approx_configure(n, k, 1, bopt, simgpu::DeviceSpec{});
  // The planner's own shape for this row: C*q = 128 > k, refine mode.
  ASSERT_EQ(shape.chunks, 32u);
  ASSERT_EQ(shape.keep, 4u);

  std::mt19937 rng(4242);
  std::vector<float> values(n);
  // A handful of distinct levels so every chunk carries many exact
  // duplicates, and force ties straddling every chunk boundary.
  std::uniform_int_distribution<int> level(-4, 4);
  for (auto& v : values) v = static_cast<float>(level(rng));
  const std::size_t chunk_len = n / shape.chunks;
  for (std::size_t c = 1; c < shape.chunks; ++c) {
    values[c * chunk_len - 1] = -4.0f;
    values[c * chunk_len] = -4.0f;
  }

  for (const bool greatest : {false, true}) {
    simgpu::Device dev;
    // Plan the row directly, in the loop's direction, so the mode can be
    // asserted before the contract is checked.
    auto in = dev.alloc<float>(n);
    std::copy(values.begin(), values.end(), in.data());
    auto out_vals = dev.alloc<float>(k);
    auto out_idx = dev.alloc<std::uint32_t>(k);
    simgpu::WorkspaceLayout layout;
    const auto plan = bucket_approx_plan<float>(Shape{1, n, k, greatest},
                                                dev.spec(), bopt, layout);
    ASSERT_FALSE(plan.direct);
    simgpu::Workspace ws(dev);
    ws.bind(layout);
    bucket_approx_run(dev, plan, ws, in, out_vals, out_idx);

    // The reference keeps the smallest: largest-K is its answer on the
    // negated row, negated back.
    std::vector<float> keys = values;
    std::vector<float> got(out_vals.data(), out_vals.data() + k);
    if (greatest) {
      for (auto& v : keys) v = -v;
      for (auto& v : got) v = -v;
    }
    const auto expect = bucket_approx_reference(
        std::span<const float>(keys), k, shape.chunks, shape.keep);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "greatest=" << greatest;
    // Indices must witness their values in the original input.
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_LT(out_idx.data()[i], n);
      EXPECT_EQ(values[out_idx.data()[i]], out_vals.data()[i]) << "i=" << i;
    }
  }
}

// Direct-emit mode (C*q == k skips the refine launch) has its own store
// path; same contract, duplicates everywhere.
TEST(BucketApproxContract, DirectEmitMode) {
  const std::size_t n = 8192;
  const std::size_t k = 64;
  BucketApproxOptions bopt;
  bopt.recall_target = 0.7;
  const auto shape =
      bucket_approx_configure(n, k, 1, bopt, simgpu::DeviceSpec{});
  // The planner's own shape for this row: C*q == k, direct emit.
  ASSERT_EQ(shape.chunks, 32u);
  ASSERT_EQ(shape.keep, 2u);
  std::mt19937 rng(7);
  std::vector<float> values(n);
  std::uniform_int_distribution<int> level(0, 15);
  for (auto& v : values) v = static_cast<float>(level(rng));

  simgpu::Device dev;
  auto in = dev.alloc<float>(n);
  std::copy(values.begin(), values.end(), in.data());
  auto out_vals = dev.alloc<float>(k);
  auto out_idx = dev.alloc<std::uint32_t>(k);
  dev.clear_events();
  simgpu::WorkspaceLayout layout;
  const auto plan =
      bucket_approx_plan<float>(Shape{1, n, k}, dev.spec(), bopt, layout);
  ASSERT_TRUE(plan.direct);
  simgpu::Workspace ws(dev);
  ws.bind(layout);
  bucket_approx_run(dev, plan, ws, in, out_vals, out_idx);

  std::size_t launches = 0;
  for (const auto& e : dev.events()) {
    if (std::holds_alternative<simgpu::KernelEvent>(e)) ++launches;
  }
  EXPECT_EQ(launches, 1u) << "direct mode must fuse away the refine launch";

  const auto expect = bucket_approx_reference(std::span<const float>(values),
                                              k, shape.chunks, shape.keep);
  std::vector<float> got(out_vals.data(), out_vals.data() + k);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(values[out_idx.data()[i]], out_vals.data()[i]) << "i=" << i;
  }
}

// --- charge invariance of the approximate shape ---------------------------

// tile_invariance_test proves the exact shape (recall_target = 1.0); the
// approximate shape takes different store paths (candidate segments +
// refine), so prove here that its counters are the same unchecked and with a
// sanitizer attached.
TEST(BucketApproxInvariance, ApproximateShapeChargesAreModeInvariant) {
  struct Trace {
    std::vector<simgpu::KernelStats> kernels;
    double model_us = 0.0;
    std::vector<float> sorted_values;
  };
  const std::size_t n = 70001;
  const std::size_t k = 257;
  const auto values = data::generate(
      {data::Distribution::kAdversarial, 20}, n, 31337);
  SelectOptions opt;
  opt.recall_target = 0.85;

  auto run_leg = [&](bool simcheck) {
    simgpu::Device dev;
    if (simcheck) dev.enable_sanitizer();
    const auto res = select_batch(dev, values, 1, n, k,
                                  Algo::kBucketApprox, opt);
    Trace t;
    for (const auto& e : dev.events()) {
      if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
        t.kernels.push_back(ke->stats);
      }
    }
    t.model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());
    t.sorted_values = res[0].values;
    std::sort(t.sorted_values.begin(), t.sorted_values.end());
    if (simcheck) {
      EXPECT_TRUE(dev.sanitizer()->snapshot().clean())
          << dev.sanitizer()->snapshot().to_string();
    }
    return t;
  };

  const Trace base = run_leg(false);
  ASSERT_EQ(base.kernels.size(), 2u);  // scan + refine
  const Trace checked = run_leg(true);
  ASSERT_EQ(checked.kernels.size(), base.kernels.size());
  for (std::size_t i = 0; i < base.kernels.size(); ++i) {
    EXPECT_EQ(checked.kernels[i].bytes_read, base.kernels[i].bytes_read)
        << "kernel " << i;
    EXPECT_EQ(checked.kernels[i].bytes_written, base.kernels[i].bytes_written)
        << "kernel " << i;
    EXPECT_EQ(checked.kernels[i].lane_ops, base.kernels[i].lane_ops)
        << "kernel " << i;
    EXPECT_EQ(checked.kernels[i].block_syncs, base.kernels[i].block_syncs)
        << "kernel " << i;
  }
  EXPECT_EQ(checked.model_us, base.model_us);
  EXPECT_EQ(checked.sorted_values, base.sorted_values);
}

// --- recall_target validation and routing ---------------------------------

TEST(BucketApproxRouting, RecallTargetValidatedEverywhere) {
  simgpu::Device dev;
  const auto values = data::uniform_values(1024, 5);
  for (const double bad : {0.0, -1.0, 1.01}) {
    SelectOptions opt;
    opt.recall_target = bad;
    EXPECT_THROW(select(dev, values, 16, Algo::kAuto, opt),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(select_batch(dev, values, 2, 512, 16, Algo::kAuto, opt),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(plan_select(dev.spec(), 1, 1024, 16, Algo::kAuto, opt),
                 std::invalid_argument)
        << bad;
    WorkloadHints hints;
    hints.recall_target = bad;
    EXPECT_THROW((void)recommend_algorithm(1024, 16, hints),
                 std::invalid_argument)
        << bad;
  }
  // serve::submit rejects before enqueueing anything.
  serve::ServiceConfig cfg;
  cfg.num_devices = 1;
  serve::TopkService svc(cfg);
  WorkloadHints bad_hints;
  bad_hints.recall_target = 2.0;
  EXPECT_THROW(svc.submit(values, 16, std::nullopt, std::nullopt, bad_hints),
               std::invalid_argument);
}

TEST(BucketApproxRouting, ExactTargetNeverRoutesApproximate) {
  // recall_target = 1.0 (and the default) must resolve to an exact
  // algorithm for every shape the recommender covers.
  for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 18,
                              std::size_t{1} << 22}) {
    for (const std::size_t k : {std::size_t{8}, std::size_t{256}}) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{128}}) {
        WorkloadHints hints;
        hints.batch = batch;
        EXPECT_NE(recommend_algorithm(n, k, hints), Algo::kBucketApprox);
        hints.recall_target = 1.0;
        EXPECT_NE(recommend_algorithm(n, k, hints), Algo::kBucketApprox);
      }
    }
  }
}

TEST(BucketApproxRouting, RelaxedTargetWinsTheCostRaceAtLargeN) {
  WorkloadHints hints;
  hints.batch = 1;
  hints.recall_target = 0.9;
  EXPECT_EQ(recommend_algorithm(std::size_t{1} << 22, 256, hints),
            Algo::kBucketApprox);
  // The modeled cost the race saw must actually be lower.
  EXPECT_LT(estimated_batch_cost_us(Algo::kBucketApprox, 1,
                                    std::size_t{1} << 22, 256, 0.9),
            estimated_batch_cost_us(Algo::kAirTopk, 1, std::size_t{1} << 22,
                                    256));
  // Tiny problems stay exact even with a relaxed SLO: the two-launch
  // overhead dwarfs any sweep savings.
  EXPECT_NE(recommend_algorithm(1024, 16, hints), Algo::kBucketApprox);
}

// Default options through the registry must stay exact — verify_topk is the
// exactness oracle.
TEST(BucketApproxRouting, DefaultOptionsAreExact) {
  simgpu::Device dev;
  const std::size_t k = 333;
  std::uint64_t seed = 909;
  for (const auto& dist : standard_distributions()) {
    const auto values = data::generate(dist, 20000, seed++);
    test::expect_correct(dev, values, k, Algo::kBucketApprox);
    // Largest-K (verify_topk is smallest-only, so compare against the
    // descending reference directly).
    SelectOptions opt;
    opt.greatest = true;
    const SelectResult r = select(dev, values, k, Algo::kBucketApprox, opt);
    std::vector<float> got = r.values;
    std::sort(got.begin(), got.end(), std::greater<float>());
    const auto want = data::exact_topk_values(values, k, /*greatest=*/true);
    EXPECT_EQ(got, want) << dist.name();
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(values[r.indices[i]], r.values[i]) << dist.name();
    }
  }
}

}  // namespace
}  // namespace topk
