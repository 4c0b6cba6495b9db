// The algorithm implementations are templates over the key type; the paper
// evaluates float32, but the radix traits support uint32/int32/double and
// the partial sorts any 32-bit key (kPackableKey).  These tests pin that
// down.

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/air_topk.hpp"
#include "topk/bitonic_topk.hpp"
#include "topk/grid_select.hpp"
#include "topk/radix_select.hpp"
#include "topk/radix_traits.hpp"
#include "topk/sort_topk.hpp"

namespace topk {
namespace {

template <typename T>
std::vector<T> reference_smallest(const std::vector<T>& data, std::size_t k) {
  std::vector<T> want(data);
  std::nth_element(want.begin(), want.begin() + static_cast<long>(k) - 1,
                   want.end());
  want.resize(k);
  std::sort(want.begin(), want.end());
  return want;
}

template <typename T, typename Fn>
void check_algo(const std::vector<T>& data, std::size_t k, Fn&& run,
                const char* what) {
  simgpu::Device dev;
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<T>(data.size());
  std::copy(data.begin(), data.end(), in.data());
  auto ov = dev.alloc<T>(k);
  auto oi = dev.alloc<std::uint32_t>(k);
  run(dev, in, data.size(), k, ov, oi);
  std::vector<T> got(ov.data(), ov.data() + k);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, reference_smallest(data, k)) << what;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(data[oi.data()[i]], ov.data()[i]) << what << " index " << i;
  }
}

template <typename T>
std::vector<T> random_ints(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<T> out(n);
  for (auto& v : out) v = static_cast<T>(rng());
  return out;
}

TEST(RadixTraits, MonotoneForAllSupportedTypes) {
  // to_radix must preserve order; from_radix must invert it.
  std::mt19937_64 rng(1);
  for (int i = 0; i < 2000; ++i) {
    const float a = std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
    const float b = std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
    if (std::isnan(a) || std::isnan(b)) continue;
    EXPECT_EQ(a < b, RadixTraits<float>::to_radix(a) <
                         RadixTraits<float>::to_radix(b));
    EXPECT_EQ(a, RadixTraits<float>::from_radix(RadixTraits<float>::to_radix(a)));
  }
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::int32_t>(rng());
    const auto b = static_cast<std::int32_t>(rng());
    EXPECT_EQ(a < b, RadixTraits<std::int32_t>::to_radix(a) <
                         RadixTraits<std::int32_t>::to_radix(b));
    EXPECT_EQ(a, RadixTraits<std::int32_t>::from_radix(
                     RadixTraits<std::int32_t>::to_radix(a)));
  }
  for (int i = 0; i < 2000; ++i) {
    const double a = static_cast<double>(static_cast<std::int64_t>(rng())) *
                     1e-3;
    const double b = static_cast<double>(static_cast<std::int64_t>(rng())) *
                     1e-3;
    EXPECT_EQ(a < b, RadixTraits<double>::to_radix(a) <
                         RadixTraits<double>::to_radix(b));
    EXPECT_EQ(a, RadixTraits<double>::from_radix(
                     RadixTraits<double>::to_radix(a)));
  }
}

TEST(GenericKeys, AirTopkOnSignedInts) {
  const auto data = random_ints<std::int32_t>(50000, 2);
  check_algo<std::int32_t>(data, 321,
                           [](auto& dev, auto in, auto n, auto k, auto ov,
                              auto oi) {
                             test::run_air(dev, in, Shape{1, n, k}, ov, oi);
                           },
                           "air int32");
}

TEST(GenericKeys, AirTopkOnDoubles) {
  // 64-bit keys: ceil(64/11) = 6 radix passes.
  std::mt19937_64 rng(3);
  std::normal_distribution<double> dist(0.0, 1e6);
  std::vector<double> data(20000);
  for (auto& v : data) v = dist(rng);
  check_algo<double>(data, 100,
                     [](auto& dev, auto in, auto n, auto k, auto ov, auto oi) {
                       test::run_air(dev, in, Shape{1, n, k}, ov, oi);
                     },
                     "air double");
}

TEST(GenericKeys, RadixSelectOnUnsignedInts) {
  const auto data = data::uniform_u32(40000, 4);
  check_algo<std::uint32_t>(
      data, 99,
      [](auto& dev, auto in, auto n, auto k, auto ov, auto oi) {
        simgpu::WorkspaceLayout layout;
        const auto plan = radix_select_plan<std::uint32_t>(
            Shape{1, n, k, false}, dev.spec(), layout);
        simgpu::Workspace ws(dev);
        ws.bind(layout);
        radix_select_run(dev, plan, ws, in, ov, oi);
      },
      "radix_select u32");
}

TEST(GenericKeys, SortOnUnsignedInts) {
  const auto data = data::uniform_u32(30000, 5);
  check_algo<std::uint32_t>(
      data, 1000,
      [](auto& dev, auto in, auto n, auto k, auto ov, auto oi) {
        simgpu::WorkspaceLayout layout;
        const auto plan =
            sort_topk_plan<std::uint32_t>(Shape{1, n, k}, dev.spec(), layout);
        simgpu::Workspace ws(dev);
        ws.bind(layout);
        sort_topk_run(dev, plan, ws, in, ov, oi);
      },
      "sort u32");
}

TEST(GenericKeys, GridSelectOnSignedInts) {
  const auto data = random_ints<std::int32_t>(60000, 6);
  check_algo<std::int32_t>(
      data, 64,
      [](auto& dev, auto in, auto n, auto k, auto ov, auto oi) {
        simgpu::WorkspaceLayout layout;
        const auto plan = grid_select_plan<std::int32_t>(
            Shape{1, n, k}, dev.spec(), {}, layout);
        simgpu::Workspace ws(dev);
        ws.bind(layout);
        grid_select_run(dev, plan, ws, in, ov, oi);
      },
      "grid_select int32");
}

TEST(GenericKeys, BitonicTopkOnUnsignedInts) {
  const auto data = data::uniform_u32(20000, 8);
  check_algo<std::uint32_t>(
      data, 128,
      [](auto& dev, auto in, auto n, auto k, auto ov, auto oi) {
        simgpu::WorkspaceLayout layout;
        const auto plan = bitonic_topk_plan<std::uint32_t>(
            Shape{1, n, k}, dev.spec(), layout);
        simgpu::Workspace ws(dev);
        ws.bind(layout);
        bitonic_topk_run(dev, plan, ws, in, ov, oi);
      },
      "bitonic u32");
}

}  // namespace
}  // namespace topk
