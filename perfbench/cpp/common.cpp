#include "common.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>

// ---- allocation probe ------------------------------------------------------
// Counts every global operator-new call, so a timed region can report how
// many host heap allocations it performed (core.host_allocs_per_query).

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t host_allocs() { return g_allocs.load(std::memory_order_relaxed); }


const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"modeled_us_geomean", "us"},
      {"wall_ms_geomean", "ms"},
      {"wall_qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"sustained_qps", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"failed_share", "ratio"},
        {"latency_tail_ms", "ms"},
        {"core.plan_us", "us"},
        {"core.upload_ms", "ms"},
        {"core.run_ms", "ms"},
        {"core.download_ms", "ms"},
        {"core.host_allocs_per_query", "count"},
        {"core.recommend_us", "us"},
        {"core.auto_regret", "ratio"},
    };
    // Registry rows that get topk.<row>.modeled_us / topk.<row>.wall_ms.
    for (const char* row :
         {"auto", "air", "grid", "radixselect", "warp", "block", "bitonic",
          "quick", "bucket", "sample", "sort", "stream-radix", "fused-warp",
          "fused-block", "shard-merge"}) {
      d.push_back({std::string("topk.") + row + ".modeled_us", "us"});
      d.push_back({std::string("topk.") + row + ".wall_ms", "ms"});
    }
    const std::vector<MetricDef> rest = {
        {"topk.kernels_per_query", "count"},
        {"topk.kernel_mb_per_query", "MB"},
        {"topk.lane_ops_per_query", "count"},
        {"topk.syncs_per_query", "count"},
        {"topk.memcpys_per_query", "count"},
        {"topk.host_ops_per_query", "count"},
        {"topk.workspace_mb", "MiB"},
        {"topk.modeled_spread", "ratio"},
        {"simgpu.device_busy_us", "us"},
        {"simgpu.transfer_us", "us"},
        {"simgpu.host_us", "us"},
        {"simgpu.mem_sol", "ratio"},
        {"simgpu.emu_ns_per_key", "ns"},
        {"simgpu.launch_wall_us", "us"},
        {"simgpu.pool_hit_rate", "ratio"},
        {"simgpu.steady_allocs", "count"},
        {"simgpu.peak_live_mb", "MiB"},
        {"serve.submit_us", "us"},
        {"serve.in_service_ms_p50", "ms"},
        {"serve.in_service_ms_tail", "ms"},
        {"serve.generator_lag_ms", "ms"},
        {"serve.batch_rows_mean", "rows"},
        {"serve.batches_per_s", "1/s"},
        {"serve.plan_cache_hit_rate", "ratio"},
        {"serve.pool_hit_rate", "ratio"},
        {"serve.device_allocs", "count"},
        {"serve.stats_us", "us"},
        {"serve.backlog_max", "count"},
        {"serve.submitted", "count"},
        {"serve.rejected", "count"},
        {"serve.timed_out", "count"},
        {"serve.failed", "count"},
        {"shard.select_us", "us"},
        {"shard.gather_us", "us"},
        {"shard.merge_us", "us"},
        {"shard.output_us", "us"},
        {"shard.straggler_ratio", "ratio"},
        {"shard.shards_mean", "count"},
        {"shard.plan_cache_hit_rate", "ratio"},
        {"self_ms.bench", "ms"},
        {"self_ms.core", "ms"},
        {"self_ms.serve", "ms"},
        {"self_ms.shard", "ms"},
        {"trace.spans", "count"},
        {"trace.overhead_pct", "%"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Report::print_json(bool layer) const {
  for (const std::string& f : failures) std::cout << "FAILED: " << f << "\n";
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  const auto& defs = layer ? per_layer_metrics() : end_to_end_metrics();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << defs[i].name
       << "\": {\"value\": " << v << ", \"unit\": \"" << defs[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

std::size_t count_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const auto r = static_cast<std::size_t>(std::max(rank, 1.0));
  return n > r ? n - r : 0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
