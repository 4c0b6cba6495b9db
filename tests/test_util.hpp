#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/air_topk.hpp"

namespace topk::test {

/// Run `algo` on `data` (single problem) and assert full correctness against
/// the std::nth_element reference.
inline void expect_correct(simgpu::Device& dev, std::span<const float> data,
                           std::size_t k, Algo algo,
                           const SelectOptions& opt = {}) {
  const SelectResult r = select(dev, data, k, algo, opt);
  const std::string err = verify_topk(data, k, r);
  EXPECT_TRUE(err.empty()) << algo_name(algo) << " n=" << data.size()
                           << " k=" << k << ": " << err;
}

/// The standard distribution sweep used by per-algorithm correctness tests.
inline std::vector<data::DistributionSpec> standard_distributions() {
  using data::Distribution;
  return {
      {Distribution::kUniform, 0},
      {Distribution::kNormal, 0},
      {Distribution::kAdversarial, 10},
      {Distribution::kAdversarial, 20},
  };
}

/// AIR Top-K through its own plan and run, with a fresh Workspace bound to
/// the plan's layout: the path the registry takes, for tests that pass
/// AirTopkOptions the registry does not expose.
template <typename T>
void run_air(simgpu::Device& dev, simgpu::DeviceBuffer<T> in, const Shape& s,
             simgpu::DeviceBuffer<T> out_vals,
             simgpu::DeviceBuffer<std::uint32_t> out_idx,
             const AirTopkOptions& opt = {}) {
  simgpu::WorkspaceLayout layout;
  const auto plan = air_topk_plan<T>(s, dev.spec(), opt, layout);
  simgpu::Workspace ws(dev);
  ws.bind(layout);
  air_topk_run(dev, plan, ws, in, out_vals, out_idx);
}

struct SweepCase {
  std::size_t n;
  std::size_t k;
};

inline std::string sweep_case_name(
    const ::testing::TestParamInfo<SweepCase>& info) {
  return "n" + std::to_string(info.param.n) + "_k" +
         std::to_string(info.param.k);
}

}  // namespace topk::test
