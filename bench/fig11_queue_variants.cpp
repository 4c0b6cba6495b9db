// Reproduces Fig. 11: GridSelect with the proposed shared queue (parallel
// two-step insertion) vs a per-thread-queue variant, sweeping N.
//
// The shared queue wins on two mechanisms the paper names (§4):
//  1. per-thread register queues pay an O(queue-length) sorted-insert shift
//     that SIMT predication issues warp-wide whenever any lane inserts;
//  2. when qualifying elements centralize in one lane, per-thread queues
//     flush (bitonic sort + merge) after every `thread-queue-length`
//     qualifiers even though the other 31 queues are empty.
// We report a uniform workload (mechanism 1; modest effect — paper sees up
// to 1.28x) and a lane-centralized workload (mechanism 2; decisive).
// Blocks are sized so per-warp chunks are much larger than K, as they are
// at the paper's N=2^30 scale.

#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "topk/grid_select.hpp"

namespace {

double run_variant(const simgpu::DeviceSpec& spec,
                   const std::vector<float>& values, std::size_t k,
                   bool shared_queue) {
  simgpu::Device dev(spec);
  simgpu::ScopedWorkspace ws(dev);
  auto in = dev.alloc<float>(values.size());
  std::copy(values.begin(), values.end(), in.data());
  auto ov = dev.alloc<float>(k);
  auto oi = dev.alloc<std::uint32_t>(k);
  dev.clear_events();
  topk::GridSelectOptions o;
  o.shared_queue = shared_queue;
  o.items_per_block = 256 * 1024;  // keep warm-up << steady state per warp
  simgpu::WorkspaceLayout layout;
  const auto plan = topk::grid_select_plan<float>(
      topk::Shape{1, values.size(), k}, spec, o, layout);
  simgpu::Workspace grid_ws(dev);
  grid_ws.bind(layout);
  topk::grid_select_run(dev, plan, grid_ws, in, ov, oi);
  return simgpu::CostModel(spec).total_us(dev.events());
}

}  // namespace

int main() {
  using namespace topk;
  using namespace topk::bench;

  const BenchScale scale = BenchScale::from_env();
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();

  std::cout
      << "figure,workload,n,k,shared_queue_us,thread_queue_us,speedup\n";
  std::cout << std::fixed << std::setprecision(3);
  for (int log_n = 18; log_n <= scale.max_log_n + 2; log_n += 2) {
    const std::size_t n = std::size_t{1} << log_n;

    const auto report = [&](const char* name, std::size_t k,
                            const std::vector<float>& values) {
      const double shared = run_variant(spec, values, k, true);
      const double thread_q = run_variant(spec, values, k, false);
      std::cout << "fig11," << name << "," << n << "," << k << "," << shared
                << "," << thread_q << "," << thread_q / shared << "\n";
    };

    report("uniform", 256, data::uniform_values(n, 0xF11 + n));

    // Lane-centralized: an ever-improving (descending) stream of qualifying
    // values that all land at positions = 0 mod 32, i.e. in thread queue 0;
    // everything else is a large constant that stops qualifying as soon as
    // the selection warms up.
    std::vector<float> centralized(n, 1e9f);
    for (std::size_t i = 0; i < n; i += 32) {
      centralized[i] = -static_cast<float>(i);
    }
    report("lane_centralized", 2048, centralized);
  }
  std::cout << "# expected shape: ~1x on uniform data (paper: up to 1.28x), "
               "decisively >1x on the lane-centralized workload\n";
  return 0;
}
