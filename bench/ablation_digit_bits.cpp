// Ablation for the digit width (paper §3.1): because AIR computes the
// prefix sum on the GPU inside the fused kernel, it "can afford" 11-bit
// digits (2048 buckets), cutting 32-bit keys from 4 passes (b=8) to 3.
// Fewer passes = fewer kernel launches and, in the worst case, fewer full
// scans of the input.

#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "topk/air_topk.hpp"

namespace {

struct DigitResult {
  double us;
  std::size_t kernels;
};

DigitResult run_digits(const simgpu::DeviceSpec& spec,
                       const std::vector<float>& values, std::size_t k,
                       int digit_bits) {
  simgpu::Device dev(spec);
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<float>(values.size());
  std::copy(values.begin(), values.end(), in.data());
  auto ov = dev.alloc<float>(k);
  auto oi = dev.alloc<std::uint32_t>(k);
  dev.clear_events();
  topk::AirTopkOptions opt;
  opt.digit_bits = digit_bits;
  simgpu::WorkspaceLayout layout;
  const auto plan = topk::air_topk_plan<float>(
      topk::Shape{1, values.size(), k}, spec, opt, layout);
  simgpu::Workspace air_ws(dev);
  air_ws.bind(layout);
  topk::air_topk_run(dev, plan, air_ws, in, ov, oi);
  std::size_t kernels = 0;
  for (const auto& e : dev.events()) {
    kernels += std::holds_alternative<simgpu::KernelEvent>(e) ? 1u : 0u;
  }
  return {simgpu::CostModel(spec).total_us(dev.events()), kernels};
}

}  // namespace

int main() {
  using namespace topk;
  using namespace topk::bench;

  const BenchScale scale = BenchScale::from_env();
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  const std::size_t k = 2048;

  std::cout << "figure,distribution,n,k,digit_bits,passes,kernels,time_us\n";
  std::cout << std::fixed << std::setprecision(2);
  for (const auto& dist :
       {data::DistributionSpec{data::Distribution::kUniform, 0},
        data::DistributionSpec{data::Distribution::kAdversarial, 20}}) {
    for (int log_n = scale.max_log_n - 4; log_n <= scale.max_log_n + 2;
         log_n += 3) {
      const std::size_t n = std::size_t{1} << log_n;
      if (k > n) continue;  // small TOPK_MAX_LOG_N: no k-of-n problem
      const auto values = data::generate(dist, n, 0xD161 + n);
      for (int b : {4, 8, 11}) {
        const DigitResult r = run_digits(spec, values, k, b);
        std::cout << "ablation_digit_bits," << dist.name() << "," << n << ","
                  << k << "," << b << "," << (32 + b - 1) / b << ","
                  << r.kernels << "," << r.us << "\n";
      }
    }
  }
  std::cout << "# expected shape: b=11 (3 passes) <= b=8 (4 passes) <= b=4 "
               "(8 passes); the gap widens on adversarial data where extra "
               "passes re-scan the whole input\n";
  return 0;
}
