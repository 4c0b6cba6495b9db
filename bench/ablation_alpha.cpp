// Ablation for the adaptive threshold alpha (paper §3.2): candidates are
// buffered only when C < N/alpha.  The paper derives a lower bound of 4
// (buffering costs 4C accesses vs N for re-reading) and determines
// alpha = 128 empirically; larger alpha also shrinks the worst-case
// candidate-buffer footprint to N/alpha.
//
// Sweep alpha on uniform data (buffering almost always wins -> large alpha
// forfeits the candidate-buffer shortcut) and adversarial data (buffering
// almost never wins -> small alpha wastes traffic), plus the footprint.

#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "topk/air_topk.hpp"

namespace {

struct AlphaResult {
  double us;
  std::size_t peak_bytes;
};

AlphaResult run_alpha(const simgpu::DeviceSpec& spec,
                      const std::vector<float>& values, std::size_t k,
                      int alpha) {
  simgpu::Device dev(spec);
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<float>(values.size());
  std::copy(values.begin(), values.end(), in.data());
  auto ov = dev.alloc<float>(k);
  auto oi = dev.alloc<std::uint32_t>(k);
  dev.reset_peak_live_bytes();
  dev.clear_events();
  topk::AirTopkOptions opt;
  opt.alpha = alpha;
  simgpu::WorkspaceLayout layout;
  const auto plan = topk::air_topk_plan<float>(
      topk::Shape{1, values.size(), k}, spec, opt, layout);
  simgpu::Workspace air_ws(dev);
  air_ws.bind(layout);
  topk::air_topk_run(dev, plan, air_ws, in, ov, oi);
  return {simgpu::CostModel(spec).total_us(dev.events()),
          dev.peak_live_bytes()};
}

}  // namespace

int main() {
  using namespace topk;
  using namespace topk::bench;

  const BenchScale scale = BenchScale::from_env();
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  const std::size_t n = std::size_t{1} << (scale.max_log_n + 2);
  const std::size_t k = 2048;

  std::cout << "figure,distribution,n,k,alpha,time_us,peak_workspace_mib\n";
  std::cout << std::fixed << std::setprecision(2);
  for (const auto& dist :
       {data::DistributionSpec{data::Distribution::kUniform, 0},
        data::DistributionSpec{data::Distribution::kAdversarial, 20}}) {
    const auto values = data::generate(dist, n, 0xA1FA);
    for (int alpha : {4, 16, 128, 1024, 1 << 20}) {
      const AlphaResult r = run_alpha(spec, values, k, alpha);
      std::cout << "ablation_alpha," << dist.name() << "," << n << "," << k
                << "," << alpha << "," << r.us << ","
                << static_cast<double>(r.peak_bytes) / (1 << 20) << "\n";
    }
  }
  std::cout << "# expected shape: uniform favors small-to-mid alpha "
               "(buffering on), adversarial is insensitive (the adaptive "
               "check already declines to buffer), and the workspace "
               "footprint shrinks as alpha grows (paper §3.2: max buffer "
               "size is N/alpha; alpha=N needs no candidate buffer)\n";
  return 0;
}
