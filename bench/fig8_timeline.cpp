// Reproduces Fig. 8: execution timeline of RadixSelect (host-managed; white
// space from synchronizations and PCIe copies) vs AIR Top-K (four tightly
// packed kernels, no host engagement), for N = 2^23, K = 2048.

#include <iostream>

#include "bench_common.hpp"
#include "simgpu/timeline.hpp"

int main() {
  using namespace topk;
  using namespace topk::bench;

  const BenchScale scale = BenchScale::from_env();
  const std::size_t n = std::size_t{1} << std::min(23, scale.max_log_n + 2);
  const std::size_t k = 2048;
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  const auto values = data::uniform_values(n, 88);

  for (Algo algo : {Algo::kRadixSelect, Algo::kAirTopk}) {
    simgpu::Device dev(spec);
    auto in = dev.alloc<float>(n);
    std::copy(values.begin(), values.end(), in.data());
    auto out_vals = dev.alloc<float>(k);
    auto out_idx = dev.alloc<std::uint32_t>(k);
    dev.clear_events();
    const ExecutionPlan plan = plan_select(spec, 1, n, k, algo);
    simgpu::Workspace ws(dev);
    run_select(dev, plan, ws, in, out_vals, out_idx);

    const simgpu::CostModel model(spec);
    const simgpu::Timeline tl = model.simulate(dev.events());
    std::cout << "==== " << algo_name(algo) << "  (N=2^" << std::countr_zero(n)
              << ", K=" << k << ", modeled on " << spec.name << ") ====\n";
    std::cout << simgpu::render_timeline(tl, 100);
    std::cout << "-- spans --\n" << simgpu::describe_timeline(tl) << "\n";
  }
  std::cout << "# expected shape: RadixSelect shows MemcpyDtoH + sync gaps "
               "between kernels; AIR Top-K is 5 back-to-back kernels\n";
  return 0;
}
