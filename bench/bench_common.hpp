#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"

namespace topk::bench {

/// One benchmark measurement.
struct RunResult {
  double model_us = 0.0;   ///< modeled device time (the reported metric)
  double wall_ms = 0.0;    ///< emulator wall-clock (diagnostic only)
  bool verified = true;    ///< result checked against std::nth_element
  std::uint64_t kernel_bytes = 0;  ///< device-memory traffic of the run
  std::uint64_t kernels = 0;       ///< kernel launches in the run
};

/// Execute one (algo, data, batch, n, k) measurement on a fresh simulated
/// device with the given spec.  The input is placed in device memory before
/// the recorded event stream begins, matching the paper's timed region.
RunResult run_algo(const simgpu::DeviceSpec& spec,
                   std::span<const float> data, std::size_t batch,
                   std::size_t n, std::size_t k, Algo algo,
                   bool verify = false);

/// Environment-tunable benchmark scale.
///
/// The paper sweeps N up to 2^30 on an A100; the SIMT emulator is ~100x
/// slower per element than real silicon, so default sweeps cap N at
/// 2^`max_log_n` and can be widened via TOPK_MAX_LOG_N.  Setting
/// TOPK_VERIFY=0 skips per-run verification (useful for big sweeps).
/// The default rose from 20 to 22 when the tile-granular fast path landed,
/// and from 22 to 24 when the streaming radix tier made large-N runs
/// workspace-bounded (see docs/performance.md for the numbers behind each
/// bump).
struct BenchScale {
  int max_log_n = 24;
  bool verify = true;

  static BenchScale from_env();
};

/// Emit one CSV row (also echoed to stdout).  `header()` prints the column
/// names once.
class CsvWriter {
 public:
  explicit CsvWriter(std::string columns);
  void row(const std::string& line);

 private:
  bool header_printed_ = false;
  std::string columns_;
};

/// Format microseconds with sensible precision.
std::string fmt_us(double us);

/// `s` as a quoted JSON string: quote, backslash and control characters
/// escaped.
std::string json_string(const std::string& s);

/// One flat JSON object, its scalar fields in insertion order.  Numbers
/// print as an ostream prints them (a non-finite one as null).
class JsonRow {
 public:
  JsonRow& add(const std::string& key, const std::string& v) {
    return field(key, json_string(v));
  }
  JsonRow& add(const std::string& key, const char* v) {
    return field(key, json_string(v));
  }
  JsonRow& add(const std::string& key, bool v) {
    return field(key, v ? "true" : "false");
  }
  template <typename V>
    requires std::is_arithmetic_v<V>
  JsonRow& add(const std::string& key, V v) {
    if constexpr (std::is_floating_point_v<V>) {
      if (!std::isfinite(v)) return field(key, "null");
    }
    std::ostringstream os;
    os << v;
    return field(key, os.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonRow& field(const std::string& key, const std::string& json);
  std::string body_;
};

/// The BENCH_*.json report every bench writes: scalar `meta` fields, then
/// named arrays of flat rows (one row a line), arrays in the order of their
/// first row.
class JsonReport {
 public:
  JsonRow& meta() { return meta_; }
  void add_row(const std::string& array, JsonRow row);
  /// Write the report to `path`; false when the file could not be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  JsonRow meta_;
  std::vector<std::pair<std::string, std::vector<JsonRow>>> arrays_;
};

/// Geometric-mean helper used by the speedup summaries.
double geomean(const std::vector<double>& xs);

}  // namespace topk::bench
