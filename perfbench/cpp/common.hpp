#pragma once

// Shared plumbing of the perfbench binary: options, the metric tables that
// BENCHMARK.json mirrors, the run report, sample statistics, the host oracle
// and the allocation / memory probes.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrunken shapes and rates for the benchmark's own tests; never used for
  /// reported numbers.
  bool tiny = false;
  /// Directory for the trace and count-digest files.
  std::string out_dir = ".";
};

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Every end-to-end metric, printed by every workload when tracing is off.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Every per-layer metric, printed by every workload when tracing is on.  A
/// layer a workload does not run reads 0 there.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Result of one workload run: attempts, failures (each naming its cell) and
/// metric values by name.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  std::map<std::string, double> values;

  void fail(const std::string& what);
  void set(const std::string& name, double v) { values[name] = v; }
  /// Print the result line: end-to-end metrics, or per-layer ones when
  /// `layer` is true.  Metrics the workload did not set print as 0.
  void print_json(bool layer) const;
};

// ---- sample statistics -----------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// Number of samples strictly beyond the nearest-rank percentile.
[[nodiscard]] std::size_t count_beyond(std::size_t n, double p);
[[nodiscard]] double median(std::vector<double> v);
/// Geometric mean of positive samples; 0 if empty.
[[nodiscard]] double geomean(const std::vector<double>& v);

// ---- probes ----------------------------------------------------------------

/// Process memory high-water mark (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();
/// Global operator-new calls so far (hook defined in common.cpp).
[[nodiscard]] std::uint64_t host_allocs();

// ---- host oracle -----------------------------------------------------------

/// The best k keys of `row`, sorted best-first (ascending for smallest-K,
/// descending for largest-K).  Keys are widened to double, which is exact
/// for the f32 and i32 keys the workloads use.
template <typename T>
std::vector<double> oracle_topk(std::span<const T> row, std::size_t k,
                                bool greatest) {
  std::vector<T> keys(row.begin(), row.end());
  const auto better = [greatest](T a, T b) {
    return greatest ? a > b : a < b;
  };
  std::nth_element(keys.begin(),
                   keys.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   keys.end(), better);
  std::sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(k),
            better);
  return std::vector<double>(keys.begin(),
                             keys.begin() + static_cast<std::ptrdiff_t>(k));
}

/// Check one answer against the oracle: every index is in range and
/// distinct, every value equals row[index], and the value multiset equals
/// the oracle's.  Returns "" when correct, else the first violation.
/// `scratch` is reused across calls.
std::string check_answer(std::span<const double> values,
                         std::span<const std::uint32_t> indices,
                         std::size_t n, const std::vector<double>& oracle,
                         bool greatest, std::vector<double>& scratch,
                         std::vector<std::uint32_t>& idx_scratch,
                         const auto& key_at) {
  const std::size_t k = oracle.size();
  if (values.size() != k || indices.size() != k) {
    return "answer has " + std::to_string(values.size()) + " keys, want " +
           std::to_string(k);
  }
  idx_scratch.assign(indices.begin(), indices.end());
  std::sort(idx_scratch.begin(), idx_scratch.end());
  for (std::size_t i = 0; i < k; ++i) {
    if (idx_scratch[i] >= n) return "index out of range";
    if (i > 0 && idx_scratch[i] == idx_scratch[i - 1]) {
      return "duplicate index " + std::to_string(idx_scratch[i]);
    }
    if (key_at(indices[i]) != values[i]) {
      return "value does not match key at index " +
             std::to_string(indices[i]);
    }
  }
  scratch.assign(values.begin(), values.end());
  if (greatest) {
    std::sort(scratch.begin(), scratch.end(), std::greater<>());
  } else {
    std::sort(scratch.begin(), scratch.end());
  }
  if (scratch != oracle) return "selected keys differ from the oracle";
  return "";
}

}  // namespace perfbench
