#include "topk/air_topk.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"

namespace topk {
namespace {

using test::expect_correct;
using test::run_air;
using test::standard_distributions;
using test::SweepCase;

class AirTopkSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AirTopkSweep, CorrectOnAllDistributions) {
  simgpu::Device dev;
  const auto [n, k] = GetParam();
  std::uint64_t seed = 42;
  for (const auto& spec : standard_distributions()) {
    const auto values = data::generate(spec, n, seed++);
    expect_correct(dev, values, k, Algo::kAirTopk);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AirTopkSweep,
    ::testing::Values(SweepCase{1, 1}, SweepCase{2, 1}, SweepCase{2, 2},
                      SweepCase{100, 7}, SweepCase{1000, 1},
                      SweepCase{1000, 999}, SweepCase{1000, 1000},
                      SweepCase{4096, 64}, SweepCase{10000, 100},
                      SweepCase{32768, 2048}, SweepCase{100000, 31},
                      SweepCase{1 << 18, 4096}, SweepCase{1 << 18, 100000}),
    test::sweep_case_name);

TEST(AirTopk, HandlesDuplicateHeavyInput) {
  simgpu::Device dev;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> few(0, 3);
  std::vector<float> values(20000);
  for (float& v : values) v = static_cast<float>(few(rng));
  expect_correct(dev, values, 500, Algo::kAirTopk);
  expect_correct(dev, values, 5000, Algo::kAirTopk);
}

TEST(AirTopk, HandlesAllEqualInput) {
  simgpu::Device dev;
  std::vector<float> values(5000, 3.25f);
  expect_correct(dev, values, 1, Algo::kAirTopk);
  expect_correct(dev, values, 137, Algo::kAirTopk);
  expect_correct(dev, values, 5000, Algo::kAirTopk);
}

TEST(AirTopk, HandlesNegativesAndZeros) {
  simgpu::Device dev;
  std::vector<float> values;
  std::mt19937 rng(11);
  std::normal_distribution<float> dist(0.0f, 100.0f);
  for (int i = 0; i < 10000; ++i) values.push_back(dist(rng));
  values.push_back(0.0f);
  values.push_back(-0.0f);
  values.push_back(std::numeric_limits<float>::infinity());
  values.push_back(-std::numeric_limits<float>::infinity());
  values.push_back(std::numeric_limits<float>::lowest());
  values.push_back(std::numeric_limits<float>::max());
  values.push_back(std::numeric_limits<float>::denorm_min());
  expect_correct(dev, values, 50, Algo::kAirTopk);
  expect_correct(dev, values, 10000, Algo::kAirTopk);
}

TEST(AirTopk, SelectsLargestWithGreatestFlag) {
  simgpu::Device dev;
  const auto values = data::uniform_values(10000, 3);
  SelectOptions opt;
  opt.greatest = true;
  const SelectResult r = select(dev, values, 10, Algo::kAirTopk, opt);
  std::vector<float> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<float> got = r.values;
  std::sort(got.begin(), got.end(), std::greater<>());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], sorted[static_cast<std::size_t>(i)]);
  }
}

TEST(AirTopk, BatchedResultsMatchPerProblemResults) {
  simgpu::Device dev;
  const std::size_t batch = 7, n = 5000, k = 33;
  const auto values = data::normal_values(batch * n, 5);
  const auto results = select_batch(dev, values, batch, n, k, Algo::kAirTopk);
  ASSERT_EQ(results.size(), batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::span<const float> slice(values.data() + b * n, n);
    const std::string err = verify_topk(slice, k, results[b]);
    EXPECT_TRUE(err.empty()) << "problem " << b << ": " << err;
  }
}

TEST(AirTopk, BatchKernelCountIsIndependentOfBatchSize) {
  // The iteration-fused design launches the same number of kernels no matter
  // the batch size (paper §3.1).
  simgpu::Device dev;
  const auto count_kernels = [&](std::size_t batch) {
    const auto values = data::uniform_values(batch * 4096, 9);
    dev.clear_events();
    (void)select_batch(dev, values, batch, 4096, 32, Algo::kAirTopk);
    std::size_t kernels = 0;
    for (const auto& e : dev.events()) {
      kernels += std::holds_alternative<simgpu::KernelEvent>(e) ? 1u : 0u;
    }
    return kernels;
  };
  EXPECT_EQ(count_kernels(1), count_kernels(16));
}

TEST(AirTopk, NoHostDeviceTrafficDuringSelection) {
  simgpu::Device dev;
  const auto values = data::uniform_values(100000, 13);
  dev.clear_events();
  (void)select(dev, values, 1000, Algo::kAirTopk);
  for (const auto& e : dev.events()) {
    EXPECT_FALSE(std::holds_alternative<simgpu::MemcpyEvent>(e))
        << "AIR Top-K must not move data between host and device";
    EXPECT_FALSE(std::holds_alternative<simgpu::SyncEvent>(e))
        << "AIR Top-K must not synchronize with the host";
  }
}

TEST(AirTopk, AdaptiveStrategyAvoidsBufferTrafficOnAdversarialData) {
  simgpu::Device dev;
  const auto values = data::radix_adversarial_values(1 << 18, 20, 17);

  const auto traffic = [&](bool adaptive) {
    simgpu::ScopedWorkspace ws(dev);
    auto in = dev.alloc<float>(values.size());
    std::copy(values.begin(), values.end(), in.data());
    auto out_v = dev.alloc<float>(100);
    auto out_i = dev.alloc<std::uint32_t>(100);
    dev.clear_events();
    AirTopkOptions o;
    o.adaptive = adaptive;
    run_air(dev, in, Shape{1, values.size(), 100}, out_v, out_i, o);
    std::uint64_t bytes = 0;
    for (const auto& e : dev.events()) {
      if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
        bytes += ke->stats.bytes_total();
      }
    }
    return bytes;
  };

  const std::uint64_t with_adaptive = traffic(true);
  const std::uint64_t without = traffic(false);
  EXPECT_LT(with_adaptive, without)
      << "adaptive buffering must reduce traffic on adversarial data";
  // With M=20 identical leading bits the first pass keeps all N candidates;
  // the non-adaptive variant writes and re-reads them (16 extra bytes per
  // element), so the gap must be substantial.
  EXPECT_GT(static_cast<double>(without) / static_cast<double>(with_adaptive),
            1.5);
}

TEST(AirTopk, AdaptiveBufferShrinksPeakMemoryFootprint) {
  const auto values = data::uniform_values(1 << 18, 23);
  const auto peak = [&](bool adaptive) {
    simgpu::Device dev;
    simgpu::ScopedWorkspace ws(dev);
    auto in = dev.alloc<float>(values.size());
    std::copy(values.begin(), values.end(), in.data());
    auto out_v = dev.alloc<float>(100);
    auto out_i = dev.alloc<std::uint32_t>(100);
    dev.reset_peak_live_bytes();
    AirTopkOptions o;
    o.adaptive = adaptive;
    run_air(dev, in, Shape{1, values.size(), 100}, out_v, out_i, o);
    return dev.peak_live_bytes();
  };
  // Candidate buffers shrink from 2*N values+indices to 2*N/alpha (paper
  // §3.2: "the maximum size of the candidate buffer is N/alpha").
  EXPECT_LT(peak(true), peak(false) / 4);
}

TEST(AirTopk, EarlyStoppingReducesWorkWhenKEqualsN) {
  simgpu::Device dev;
  const std::size_t n = 1 << 16;
  const auto values = data::uniform_values(n, 29);
  const auto traffic = [&](bool early) {
    simgpu::ScopedWorkspace ws(dev);
    auto in = dev.alloc<float>(n);
    std::copy(values.begin(), values.end(), in.data());
    auto out_v = dev.alloc<float>(n);
    auto out_i = dev.alloc<std::uint32_t>(n);
    dev.clear_events();
    AirTopkOptions o;
    o.early_stopping = early;
    run_air(dev, in, Shape{1, n, n}, out_v, out_i, o);
    std::uint64_t ops = 0;
    for (const auto& e : dev.events()) {
      if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
        ops += ke->stats.lane_ops;
      }
    }
    return ops;
  };
  EXPECT_LT(traffic(true), traffic(false));
}

TEST(AirTopk, FusedLastFilterVariantIsCorrect) {
  simgpu::Device dev;
  std::uint64_t seed = 400;
  for (const auto& spec : standard_distributions()) {
    for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{1, 1},
                               {1000, 1000},
                               {10000, 137},
                               {1 << 16, 2048}}) {
      const auto values = data::generate(spec, n, seed++);
      expect_correct(dev, values, k, Algo::kAirTopkFusedFilter);
    }
  }
}

TEST(AirTopk, FusedLastFilterLaunchesOneFewerKernel) {
  simgpu::Device dev;
  const auto values = data::uniform_values(1 << 16, 77);
  const auto kernels = [&](Algo algo) {
    dev.clear_events();
    (void)select(dev, values, 100, algo);
    std::size_t count = 0;
    for (const auto& e : dev.events()) {
      count += std::holds_alternative<simgpu::KernelEvent>(e) ? 1u : 0u;
    }
    return count;
  };
  EXPECT_EQ(kernels(Algo::kAirTopkFusedFilter), kernels(Algo::kAirTopk) - 1);
}

TEST(AirTopk, FusedLastFilterSlowerOnAdversarialData) {
  // The §3.1 rationale for keeping the separate filter kernel.
  simgpu::Device dev;
  const auto values = data::radix_adversarial_values(1 << 18, 20, 3);
  const simgpu::CostModel model(dev.spec());
  const auto modeled = [&](Algo algo) {
    dev.clear_events();
    (void)select(dev, values, 2048, algo);
    return model.total_us(dev.events());
  };
  EXPECT_GT(modeled(Algo::kAirTopkFusedFilter), modeled(Algo::kAirTopk));
}

TEST(AirTopk, WorksWithUnsignedKeys) {
  simgpu::Device dev;
  const auto keys = data::uniform_u32(50000, 31);
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<std::uint32_t>(keys.size());
  std::copy(keys.begin(), keys.end(), in.data());
  const std::size_t k = 777;
  auto out_v = dev.alloc<std::uint32_t>(k);
  auto out_i = dev.alloc<std::uint32_t>(k);
  run_air(dev, in, Shape{1, keys.size(), k}, out_v, out_i);
  std::vector<std::uint32_t> got(out_v.data(), out_v.data() + k);
  std::vector<std::uint32_t> want(keys.begin(), keys.end());
  std::nth_element(want.begin(), want.begin() + static_cast<long>(k) - 1,
                   want.end());
  want.resize(k);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(keys[out_i.data()[i]], out_v.data()[i]);
  }
}

TEST(AirTopk, RejectsInvalidArguments) {
  simgpu::Device dev;
  auto in = dev.alloc<float>(100);
  auto out_v = dev.alloc<float>(10);
  auto out_i = dev.alloc<std::uint32_t>(10);
  EXPECT_THROW(run_air(dev, in, Shape{1, 100, 0}, out_v, out_i),
               std::invalid_argument);
  EXPECT_THROW(run_air(dev, in, Shape{1, 100, 101}, out_v, out_i),
               std::invalid_argument);
  EXPECT_THROW(run_air(dev, in, Shape{0, 100, 10}, out_v, out_i),
               std::invalid_argument);
  EXPECT_THROW(run_air(dev, in, Shape{1, 100, 11}, out_v, out_i),
               std::invalid_argument);  // outputs too small
  AirTopkOptions bad;
  bad.alpha = 2;
  EXPECT_THROW(run_air(dev, in, Shape{1, 100, 10}, out_v, out_i, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace topk
