#include "serve_common.hpp"

#include <algorithm>
#include <bit>

#include "data/distributions.hpp"
#include "workloads.hpp"

namespace perfbench {

RowPool::RowPool(const Options& opt, std::vector<int> lns,
                 std::size_t per_class, std::size_t k_max)
    : log_ns(std::move(lns)) {
  std::uint64_t stream = 0;
  for (const int ln : log_ns) {
    std::vector<std::vector<float>> cls_rows;
    std::vector<std::vector<double>> cls_best;
    for (std::size_t r = 0; r < per_class; ++r) {
      cls_rows.push_back(topk::data::uniform_values(std::size_t{1} << ln,
                                                    input_seed(opt, stream++)));
      cls_best.push_back(oracle_topk<float>(cls_rows.back(), k_max, false));
    }
    rows.push_back(std::move(cls_rows));
    best.push_back(std::move(cls_best));
  }
}

std::string RowPool::check(std::size_t cls, std::size_t row, std::size_t k,
                           const topk::SelectResult& r) const {
  const std::vector<float>& keys = rows[cls][row];
  const std::vector<double>& b = best[cls][row];
  const std::vector<double> want(b.begin(),
                                 b.begin() + static_cast<std::ptrdiff_t>(k));
  const std::vector<double> values(r.values.begin(), r.values.end());
  std::vector<double> scratch;
  std::vector<std::uint32_t> idx_scratch;
  return check_answer(values, r.indices, keys.size(), want, false, scratch,
                      idx_scratch,
                      [&](std::uint32_t i) { return double(keys[i]); });
}

void serve_layer_metrics(const topk::serve::ServiceStats& a,
                         const topk::serve::ServiceStats& b, double seconds,
                         Report& rep) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double batches = d(a.batches, b.batches);
  rep.set("serve.batch_rows_mean",
          batches > 0 ? d(a.completed, b.completed) / batches : 0.0);
  rep.set("serve.batches_per_s", batches / seconds);
  const double plans = d(a.plan_cache_hits, b.plan_cache_hits) +
                       d(a.plan_cache_misses, b.plan_cache_misses);
  rep.set("serve.plan_cache_hit_rate",
          plans > 0 ? d(a.plan_cache_hits, b.plan_cache_hits) / plans : 0.0);
  const double binds =
      d(a.pool_hits, b.pool_hits) + d(a.pool_misses, b.pool_misses);
  const double pool_rate =
      binds > 0 ? d(a.pool_hits, b.pool_hits) / binds : 0.0;
  rep.set("serve.pool_hit_rate", pool_rate);
  rep.set("simgpu.pool_hit_rate", pool_rate);
  rep.set("serve.device_allocs", d(a.device_allocs, b.device_allocs));
  const double completed = std::max(1.0, d(a.completed, b.completed));
  rep.set("simgpu.steady_allocs",
          d(a.device_allocs, b.device_allocs) / completed);
  rep.set("serve.submitted", d(a.submitted, b.submitted));
  rep.set("serve.rejected", d(a.rejected, b.rejected));
  rep.set("serve.timed_out", d(a.timed_out, b.timed_out));
  rep.set("serve.failed", d(a.failed, b.failed));
}

void core_probes(const std::vector<int>& log_ns,
                 const std::vector<std::size_t>& ks,
                 const simgpu::DeviceSpec& spec, Report& rep) {
  std::vector<double> rec_us, plan_us;
  for (const int ln : log_ns) {
    for (const std::size_t k : ks) {
      for (const std::size_t rows : {1, 4, 16, 32}) {
        const std::size_t n = std::size_t{1} << ln;
        const std::size_t k_exec = std::min(n, std::bit_ceil(k));
        topk::WorkloadHints hints;
        hints.batch = rows;
        const auto t0 = Clock::now();
        const topk::Algo algo = topk::recommend_algorithm(n, k_exec, hints);
        const auto t1 = Clock::now();
        (void)topk::plan_select(spec, rows, n, k_exec, algo);
        const auto t2 = Clock::now();
        rec_us.push_back(us_between(t0, t1));
        plan_us.push_back(us_between(t1, t2));
      }
    }
  }
  rep.set("core.recommend_us", median(rec_us));
  rep.set("core.plan_us", median(plan_us));
}

}  // namespace perfbench
