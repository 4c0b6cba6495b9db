// Reproduces Table 3: per-kernel time percentage, Memory SOL and Compute SOL
// of AIR Top-K at large N (paper: N=2^30, K=2048; here N is scaled by
// TOPK_MAX_LOG_N).  The first two iteration-fused kernels should dominate
// the time and be memory-bound (high Memory SOL, moderate Compute SOL).

#include <iomanip>
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace topk;
  using namespace topk::bench;

  const BenchScale scale = BenchScale::from_env();
  const std::size_t n = std::size_t{1} << (scale.max_log_n + 4);
  const std::size_t k = 2048;
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  const auto values = data::uniform_values(n, 333);

  simgpu::Device dev(spec);
  auto in = dev.alloc<float>(n);
  std::copy(values.begin(), values.end(), in.data());
  auto out_vals = dev.alloc<float>(k);
  auto out_idx = dev.alloc<std::uint32_t>(k);
  dev.clear_events();
  const ExecutionPlan plan = plan_select(spec, 1, n, k, Algo::kAirTopk);
  simgpu::Workspace ws(dev);
  run_select(dev, plan, ws, in, out_vals, out_idx);

  const simgpu::CostModel model(spec);
  double total = 0.0;
  std::vector<std::pair<std::string, simgpu::KernelCost>> rows;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      const auto cost = model.kernel_cost(ke->stats);
      rows.emplace_back(ke->stats.name, cost);
      total += cost.duration_us;
    }
  }

  std::cout << "AIR Top-K kernel analysis (N=2^"
            << std::countr_zero(n) << ", K=" << k << ", " << spec.name
            << " model)\n";
  std::cout << std::left << std::setw(28) << "kernel" << std::right
            << std::setw(12) << "time_pct" << std::setw(12) << "mem_sol"
            << std::setw(14) << "compute_sol" << "\n";
  std::cout << std::fixed << std::setprecision(2);
  for (const auto& [name, cost] : rows) {
    std::cout << std::left << std::setw(28) << name << std::right
              << std::setw(11) << 100.0 * cost.duration_us / total << "%"
              << std::setw(11) << 100.0 * cost.mem_sol << "%" << std::setw(13)
              << 100.0 * cost.compute_sol << "%\n";
  }
  std::cout << "# paper Table 3: iteration_fused_kernel(1)/(2) ~49/50% of "
               "time, ~91/89% Memory SOL, ~31/45% Compute SOL; (3) and "
               "last_filter negligible\n";
  return 0;
}
