#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace topk::bench {

RunResult run_algo(const simgpu::DeviceSpec& spec,
                   std::span<const float> data, std::size_t batch,
                   std::size_t n, std::size_t k, Algo algo, bool verify) {
  simgpu::Device dev(spec);
  auto in = dev.alloc<float>(batch * n);
  std::copy(data.begin(), data.end(), in.data());
  auto out_vals = dev.alloc<float>(batch * k);
  auto out_idx = dev.alloc<std::uint32_t>(batch * k);

  dev.clear_events();
  const auto t0 = std::chrono::steady_clock::now();
  const ExecutionPlan plan = plan_select(spec, batch, n, k, algo);
  simgpu::Workspace ws(dev);
  run_select(dev, plan, ws, in, out_vals, out_idx);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const simgpu::CostModel model(spec);
  r.model_us = model.total_us(dev.events());
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      r.kernel_bytes += ke->stats.bytes_total();
      ++r.kernels;
    }
  }
  if (verify) {
    for (std::size_t b = 0; b < batch && r.verified; ++b) {
      SelectResult res;
      res.values.assign(out_vals.data() + b * k, out_vals.data() + (b + 1) * k);
      res.indices.assign(out_idx.data() + b * k, out_idx.data() + (b + 1) * k);
      const std::string err =
          verify_topk(std::span<const float>(data.data() + b * n, n), k, res);
      if (!err.empty()) {
        std::cerr << "VERIFY FAILED " << algo_name(algo) << " n=" << n
                  << " k=" << k << " batch=" << batch << ": " << err << "\n";
        r.verified = false;
      }
    }
  }
  return r;
}

BenchScale BenchScale::from_env() {
  BenchScale s;  // default max_log_n raised 20 -> 22 with the tile fast path
  if (const char* v = std::getenv("TOPK_MAX_LOG_N")) {
    // Single-device sweeps are bounded by DeviceSpec::max_select_elems
    // (plan_select rejects anything larger with a pointer at the sharded
    // path); only topk::shard's host-side coordinator takes N past this.
    s.max_log_n = std::clamp(std::atoi(v), 10, 28);
  }
  if (const char* v = std::getenv("TOPK_VERIFY")) {
    s.verify = std::atoi(v) != 0;
  }
  return s;
}

CsvWriter::CsvWriter(std::string columns) : columns_(std::move(columns)) {}

void CsvWriter::row(const std::string& line) {
  if (!header_printed_) {
    std::cout << columns_ << "\n";
    header_printed_ = true;
  }
  std::cout << line << "\n";
}

std::string fmt_us(double us) {
  std::ostringstream os;
  if (us >= 1e5) {
    os << us / 1e3 << "ms";
  } else {
    os << us << "us";
  }
  return os.str();
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

}  // namespace topk::bench
