// Tests for the RAFT-parity extension features: half-precision keys,
// input-index pass-through (chained selections), and sorted output.

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/air_topk.hpp"
#include "topk/grid_select.hpp"
#include "topk/half.hpp"
#include "topk/registry.hpp"

namespace topk {
namespace {

using test::run_air;

TEST(Half, RoundTripsRepresentableValues) {
  for (float f : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 65504.0f, -65504.0f,
                  6.103515625e-05f /* smallest normal */,
                  5.9604644775390625e-08f /* smallest subnormal */}) {
    const half h(f);
    EXPECT_EQ(static_cast<float>(h), f) << f;
  }
}

TEST(Half, ConversionRoundsToNearestEven) {
  // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half; ties go
  // to even (1.0).
  EXPECT_EQ(static_cast<float>(half(1.0f + 0.00048828125f)), 1.0f);
  // Slightly above halfway rounds up.
  EXPECT_EQ(static_cast<float>(half(1.0f + 0.0005f)), 1.0009765625f);
}

TEST(Half, OverflowAndInfinity) {
  EXPECT_TRUE(std::isinf(static_cast<float>(half(1e6f))));
  EXPECT_TRUE(std::isinf(static_cast<float>(half(-1e6f))));
  EXPECT_TRUE(std::isnan(static_cast<float>(
      half(std::numeric_limits<float>::quiet_NaN()))));
}

TEST(Half, RadixTraitsAreMonotone) {
  std::mt19937 rng(1);
  for (int i = 0; i < 5000; ++i) {
    const half a = half::from_bits(static_cast<std::uint16_t>(rng()));
    const half b = half::from_bits(static_cast<std::uint16_t>(rng()));
    const float fa = static_cast<float>(a), fb = static_cast<float>(b);
    if (std::isnan(fa) || std::isnan(fb)) continue;
    if (fa == fb) continue;  // +0/-0 share a float value, not an order
    EXPECT_EQ(fa < fb,
              RadixTraits<half>::to_radix(a) < RadixTraits<half>::to_radix(b));
  }
}

TEST(Half, AirTopkSelectsSmallestHalves) {
  simgpu::Device dev;
  std::mt19937 rng(2);
  std::normal_distribution<float> dist(0.0f, 100.0f);
  const std::size_t n = 30000, k = 200;
  std::vector<half> data(n);
  for (auto& h : data) h = half(dist(rng));

  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<half>(n);
  std::copy(data.begin(), data.end(), in.data());
  auto ov = dev.alloc<half>(k);
  auto oi = dev.alloc<std::uint32_t>(k);
  run_air(dev, in, Shape{1, n, k}, ov, oi);

  std::vector<float> got(k), want;
  for (std::size_t i = 0; i < k; ++i) got[i] = static_cast<float>(ov.data()[i]);
  for (const half& h : data) want.push_back(static_cast<float>(h));
  std::nth_element(want.begin(), want.begin() + static_cast<long>(k) - 1,
                   want.end());
  want.resize(k);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(static_cast<float>(data[oi.data()[i]]),
              static_cast<float>(ov.data()[i]));
  }
}

TEST(Half, TwoRadixPassesSuffice) {
  // 16-bit keys with 11-bit digits: ceil(16/11) = 2 iteration-fused kernels.
  simgpu::Device dev;
  std::vector<half> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = half(static_cast<float>(i % 97));
  }
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<half>(data.size());
  std::copy(data.begin(), data.end(), in.data());
  auto ov = dev.alloc<half>(10);
  auto oi = dev.alloc<std::uint32_t>(10);
  dev.clear_events();
  run_air(dev, in, Shape{1, data.size(), 10}, ov, oi);
  std::size_t fused = 0;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      fused += ke->stats.name.starts_with("iteration_fused_kernel") ? 1u : 0u;
    }
  }
  EXPECT_EQ(fused, 2u);
}

TEST(InputIndices, ChainedSelectionKeepsOriginalIds) {
  // The ANN two-stage pattern: coarse top-m with original ids, then refined
  // top-k over the survivors, still reporting ids into the original array.
  simgpu::Device dev;
  const std::size_t n = 50000, m = 1024, k = 32;
  const auto values = data::normal_values(n, 11);
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<float>(n);
  std::copy(values.begin(), values.end(), in.data());
  auto coarse_v = dev.alloc<float>(m);
  auto coarse_i = dev.alloc<std::uint32_t>(m);
  run_air(dev, in, Shape{1, n, m}, coarse_v, coarse_i);

  auto fine_v = dev.alloc<float>(k);
  auto fine_i = dev.alloc<std::uint32_t>(k);
  AirTopkOptions opt;
  opt.in_idx = coarse_i;
  run_air(dev, coarse_v, Shape{1, m, k}, fine_v, fine_i, opt);

  SelectResult r;
  r.values.assign(fine_v.data(), fine_v.data() + k);
  r.indices.assign(fine_i.data(), fine_i.data() + k);
  // The chained result must be a valid top-k of the ORIGINAL array.
  EXPECT_TRUE(verify_topk(values, k, r).empty());
}

TEST(InputIndices, GridSelectHonorsExternalIds) {
  simgpu::Device dev;
  const std::size_t n = 8192, k = 16;
  const auto values = data::uniform_values(n, 13);
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<float>(n);
  std::copy(values.begin(), values.end(), in.data());
  auto ids = dev.alloc<std::uint32_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.data()[i] = static_cast<std::uint32_t>(7 * i + 3);  // external ids
  }
  auto ov = dev.alloc<float>(k);
  auto oi = dev.alloc<std::uint32_t>(k);
  GridSelectOptions opt;
  opt.in_idx = ids;
  simgpu::WorkspaceLayout layout;
  const auto plan =
      grid_select_plan<float>(Shape{1, n, k}, dev.spec(), opt, layout);
  simgpu::Workspace grid_ws(dev);
  grid_ws.bind(layout);
  grid_select_run(dev, plan, grid_ws, in, ov, oi);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t ext = oi.data()[i];
    EXPECT_EQ((ext - 3) % 7, 0u);
    EXPECT_EQ(values[(ext - 3) / 7], ov.data()[i]);
  }
}

TEST(NativeGreatest, AirComplementedKeysSelectLargest) {
  simgpu::Device dev;
  const auto values = data::normal_values(40000, 21);
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<float>(values.size());
  std::copy(values.begin(), values.end(), in.data());
  const std::size_t k = 333;
  auto ov = dev.alloc<float>(k);
  auto oi = dev.alloc<std::uint32_t>(k);
  run_air(dev, in, Shape{1, values.size(), k, /*greatest=*/true}, ov, oi);

  std::vector<float> got(ov.data(), ov.data() + k);
  std::vector<float> want(values.begin(), values.end());
  std::sort(want.begin(), want.end(), std::greater<>());
  want.resize(k);
  std::sort(got.begin(), got.end(), std::greater<>());
  EXPECT_EQ(got, want);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(values[oi.data()[i]], ov.data()[i]);
  }
}

TEST(NativeGreatest, CoreRouteDoesNotMutateInput) {
  // Every row selects largest-K natively: on either carrier its plan lays
  // out exactly its smallest-K plan's segments, the device input stays
  // byte-identical, and the answer is the k largest values.
  simgpu::Device dev;
  const auto values = data::uniform_values(5000, 22);
  const std::size_t n = values.size(), k = 25;
  SelectOptions opt;
  opt.greatest = true;
  auto sorted = [](std::vector<float> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  std::vector<float> largest(values);
  std::sort(largest.begin(), largest.end(), std::greater<>());
  largest.resize(k);
  for (const AlgoRow& row : kAlgoTable) {
    if (row.plan == nullptr) continue;
    const Algo algo = row.algo;
    for (const KeyType dtype : {KeyType::kF32, KeyType::kI32}) {
      if (!algo_supports_dtype(algo, dtype)) continue;
      SelectOptions o = opt;
      o.dtype = dtype;
      const ExecutionPlan plan = plan_select(dev.spec(), 1, n, k, algo, o);
      o.greatest = false;
      const ExecutionPlan twin = plan_select(dev.spec(), 1, n, k, algo, o);
      EXPECT_EQ(plan.workspace_bytes(), twin.workspace_bytes())
          << algo_name(algo) << " " << key_type_name(dtype);
      ASSERT_EQ(plan.layout().segments.size(), twin.layout().segments.size())
          << algo_name(algo) << " " << key_type_name(dtype);
      for (std::size_t i = 0; i < plan.layout().segments.size(); ++i) {
        EXPECT_EQ(plan.layout().segments[i].name,
                  twin.layout().segments[i].name)
            << algo_name(algo) << " " << key_type_name(dtype);
      }
    }
    const ExecutionPlan plan = plan_select(dev.spec(), 1, n, k, algo, opt);
    auto in = dev.alloc<float>(n);
    std::copy(values.begin(), values.end(), in.data());
    auto ov = dev.alloc<float>(k);
    auto oi = dev.alloc<std::uint32_t>(k);
    simgpu::Workspace ws(dev);
    run_select(dev, plan, ws, in, ov, oi);
    EXPECT_TRUE(std::equal(values.begin(), values.end(), in.data()))
        << algo_name(algo);
    EXPECT_EQ(sorted(std::vector<float>(ov.data(), ov.data() + k)),
              sorted(largest))
        << algo_name(algo);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(values[oi.data()[i]], ov.data()[i]) << algo_name(algo);
    }
  }
}

TEST(SortedOutput, ResultsComeBackBestFirst) {
  simgpu::Device dev;
  const auto values = data::normal_values(20000, 17);
  SelectOptions opt;
  opt.sorted = true;
  const SelectResult r = select(dev, values, 50, Algo::kAirTopk, opt);
  EXPECT_TRUE(verify_topk(values, 50, r).empty());
  EXPECT_TRUE(std::is_sorted(r.values.begin(), r.values.end()));

  opt.greatest = true;
  const SelectResult g = select(dev, values, 50, Algo::kAirTopk, opt);
  EXPECT_TRUE(std::is_sorted(g.values.begin(), g.values.end(),
                             std::greater<>()));
  // Index fidelity survives the sort.
  for (std::size_t i = 0; i < g.values.size(); ++i) {
    EXPECT_EQ(values[g.indices[i]], g.values[i]);
  }
}

}  // namespace
}  // namespace topk
