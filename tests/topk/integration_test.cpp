// Cross-module integration tests: end-to-end behaviours that span the
// algorithm layer, the core API and the cost model together.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/air_topk.hpp"
#include "topk/grid_select.hpp"

namespace topk {
namespace {

TEST(Integration, Batch100SmokeAcrossKeyAlgorithms) {
  // The paper's online-serving scenario: 100 problems solved at once.
  simgpu::Device dev;
  const std::size_t batch = 100, n = 2048, k = 32;
  const auto values = data::uniform_values(batch * n, 100);
  for (Algo algo : {Algo::kAirTopk, Algo::kGridSelect, Algo::kBlockSelect}) {
    const auto results = select_batch(dev, values, batch, n, k, algo);
    for (std::size_t b = 0; b < batch; ++b) {
      std::span<const float> slice(values.data() + b * n, n);
      ASSERT_TRUE(verify_topk(slice, k, results[b]).empty())
          << algo_name(algo) << " problem " << b;
    }
  }
}

TEST(Integration, GridSelectSingleBlockPathSkipsMergeKernel) {
  simgpu::Device dev;
  const auto small = data::uniform_values(4096, 5);
  dev.clear_events();
  (void)select(dev, small, 16, Algo::kGridSelect);
  std::size_t kernels = 0;
  bool merge_seen = false;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      ++kernels;
      merge_seen |= ke->stats.name == "GridSelect_merge";
    }
  }
  EXPECT_EQ(kernels, 1u);
  EXPECT_FALSE(merge_seen);

  const auto big = data::uniform_values(1 << 20, 5);
  dev.clear_events();
  (void)select(dev, big, 16, Algo::kGridSelect);
  merge_seen = false;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      merge_seen |= ke->stats.name == "GridSelect_merge";
    }
  }
  EXPECT_TRUE(merge_seen);
}

TEST(Integration, AirAlphaExtremesStayCorrect) {
  simgpu::Device dev;
  const auto values = data::normal_values(1 << 16, 7);
  for (int alpha : {4, 64, 1 << 16, 1 << 20}) {
    simgpu::ScopedWorkspace ws(dev);
    auto in = dev.alloc<float>(values.size());
    std::copy(values.begin(), values.end(), in.data());
    auto ov = dev.alloc<float>(500);
    auto oi = dev.alloc<std::uint32_t>(500);
    AirTopkOptions opt;
    opt.alpha = alpha;
    test::run_air(dev, in, Shape{1, values.size(), 500}, ov, oi, opt);
    SelectResult r;
    r.values.assign(ov.data(), ov.data() + 500);
    r.indices.assign(oi.data(), oi.data() + 500);
    EXPECT_TRUE(verify_topk(values, 500, r).empty()) << "alpha=" << alpha;
  }
}

TEST(Integration, AirDigitWidthsAllCorrectWithExpectedPassCounts) {
  simgpu::Device dev;
  const auto values = data::uniform_values(1 << 15, 9);
  {
    // 2^16-counter histogram cannot fit in shared memory (§3.1 constraint).
    simgpu::ScopedWorkspace ws(dev);
    auto in = dev.alloc<float>(values.size());
    auto ov = dev.alloc<float>(100);
    auto oi = dev.alloc<std::uint32_t>(100);
    AirTopkOptions opt;
    opt.digit_bits = 16;
    EXPECT_THROW(
        test::run_air(dev, in, Shape{1, values.size(), 100}, ov, oi, opt),
        std::invalid_argument);
  }
  for (const auto& [bits, passes] :
       {std::pair<int, std::size_t>{4, 8}, {8, 4}, {11, 3}, {12, 3}}) {
    simgpu::ScopedWorkspace ws(dev);
    auto in = dev.alloc<float>(values.size());
    std::copy(values.begin(), values.end(), in.data());
    auto ov = dev.alloc<float>(100);
    auto oi = dev.alloc<std::uint32_t>(100);
    dev.clear_events();
    AirTopkOptions opt;
    opt.digit_bits = bits;
    test::run_air(dev, in, Shape{1, values.size(), 100}, ov, oi, opt);
    std::size_t fused = 0;
    for (const auto& e : dev.events()) {
      if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
        fused += ke->stats.name.starts_with("iteration_fused") ? 1u : 0u;
      }
    }
    EXPECT_EQ(fused, passes) << "digit_bits=" << bits;
    SelectResult r;
    r.values.assign(ov.data(), ov.data() + 100);
    r.indices.assign(oi.data(), oi.data() + 100);
    EXPECT_TRUE(verify_topk(values, 100, r).empty()) << "bits=" << bits;
  }
}

TEST(Integration, RadixSelectKernelCountMatchesHostManagedLoop) {
  // Per pass: memset + histogram + filter, plus the final remainder copy.
  simgpu::Device dev;
  const auto values = data::uniform_values(1 << 16, 11);
  dev.clear_events();
  (void)select(dev, values, 100, Algo::kRadixSelect);
  std::size_t kernels = 0, memcpys = 0;
  for (const auto& e : dev.events()) {
    kernels += std::holds_alternative<simgpu::KernelEvent>(e) ? 1u : 0u;
    memcpys += std::holds_alternative<simgpu::MemcpyEvent>(e) ? 1u : 0u;
  }
  EXPECT_GE(kernels, 4u);
  EXPECT_LE(kernels, 13u);  // at most 4 passes x 3 kernels + remainder copy
  EXPECT_GE(memcpys, 1u);   // one histogram copy per executed pass
}

TEST(Integration, ModeledTimesOrderDevicesEndToEnd) {
  const auto values = data::uniform_values(1 << 20, 13);
  const auto modeled = [&](const simgpu::DeviceSpec& spec) {
    simgpu::Device dev(spec);
    dev.clear_events();
    (void)select(dev, values, 1024, Algo::kAirTopk);
    return simgpu::CostModel(spec).total_us(dev.events());
  };
  const double h100 = modeled(simgpu::DeviceSpec::h100());
  const double a100 = modeled(simgpu::DeviceSpec::a100());
  const double a10 = modeled(simgpu::DeviceSpec::a10());
  EXPECT_LT(h100, a100);
  EXPECT_LT(a100, a10);
}

TEST(Integration, WorkspaceIsFullyReleasedAfterEveryAlgorithm) {
  simgpu::Device dev;
  const auto values = data::uniform_values(1 << 16, 15);
  const std::size_t before = dev.live_bytes();
  for (Algo algo : all_algorithms()) {
    const std::size_t k = std::min<std::size_t>(64, max_k(algo, values.size()));
    (void)select(dev, values, k, algo);
    EXPECT_EQ(dev.live_bytes(), before) << algo_name(algo);
  }
}

TEST(Integration, RepeatedRunsDoNotGrowDeviceMemory) {
  simgpu::Device dev;
  const auto values = data::uniform_values(1 << 16, 16);
  (void)select(dev, values, 256, Algo::kAirTopk);
  const std::size_t peak_after_one = dev.peak_live_bytes();
  for (int i = 0; i < 10; ++i) {
    (void)select(dev, values, 256, Algo::kAirTopk);
  }
  EXPECT_EQ(dev.peak_live_bytes(), peak_after_one)
      << "benchmark loops must reuse the arena";
}

}  // namespace
}  // namespace topk
