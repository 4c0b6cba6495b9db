// Reproduces Fig. 12: AIR Top-K, GridSelect and the virtual SOTA on three
// device models (A100, H100, A10), sweeping K at large fixed N under the
// uniform distribution.  Expected: per-device times track memory bandwidth
// (AIR is memory-bound), AIR ~3-5x faster than SOTA, GridSelect ahead of AIR
// only for small K.

#include <iomanip>
#include <iostream>
#include <limits>
#include <map>

#include "bench_common.hpp"

int main() {
  using namespace topk;
  using namespace topk::bench;

  const BenchScale scale = BenchScale::from_env();
  const std::size_t n = std::size_t{1} << (scale.max_log_n + 2);
  const auto values = data::uniform_values(n, 0xF12);

  const std::array<Algo, 8> baselines = {
      Algo::kSort,        Algo::kWarpSelect,   Algo::kBlockSelect,
      Algo::kBitonicTopk, Algo::kQuickSelect,  Algo::kBucketSelect,
      Algo::kSampleSelect, Algo::kRadixSelect,
  };

  std::cout << "figure,device,n,k,air_us,gridselect_us,sota_us\n";
  std::cout << std::fixed << std::setprecision(2);
  for (const auto& spec : {simgpu::DeviceSpec::a100(),
                           simgpu::DeviceSpec::h100(),
                           simgpu::DeviceSpec::a10()}) {
    for (std::size_t k : {std::size_t{32}, std::size_t{128}, std::size_t{512},
                          std::size_t{2048}, std::size_t{16384}}) {
      if (k > n) continue;  // small TOPK_MAX_LOG_N: no k-of-n problem
      const double air =
          run_algo(spec, values, 1, n, k, Algo::kAirTopk, false).model_us;
      const double grid =
          k <= max_k(Algo::kGridSelect, n)
              ? run_algo(spec, values, 1, n, k, Algo::kGridSelect, false)
                    .model_us
              : std::numeric_limits<double>::quiet_NaN();
      double sota = std::numeric_limits<double>::infinity();
      for (Algo b : baselines) {
        if (k > max_k(b, n)) continue;
        sota = std::min(sota,
                        run_algo(spec, values, 1, n, k, b, false).model_us);
      }
      std::cout << "fig12," << spec.name << "," << n << "," << k << "," << air
                << "," << grid << "," << sota << "\n";
    }
  }
  std::cout << "# expected shape: H100 < A100 < A10 times (bandwidth "
               "ratios); AIR beats SOTA ~3-5x; GridSelect wins only at "
               "small K\n";
  return 0;
}
