#pragma once

// Pieces shared by the two serving workloads (serve_burst, serve_open).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/topk.hpp"
#include "serve/service.hpp"

namespace perfbench {

/// Key rows per row-length class, generated from the seed, each with its
/// best keys sorted ascending (the host oracle for any k up to k_max).
struct RowPool {
  RowPool(const Options& opt, std::vector<int> log_ns, std::size_t per_class,
          std::size_t k_max);

  std::vector<int> log_ns;
  std::vector<std::vector<std::vector<float>>> rows;   // [class][row]
  std::vector<std::vector<std::vector<double>>> best;  // [class][row]

  /// Check a smallest-k answer for one pool row; "" or the first violation.
  [[nodiscard]] std::string check(std::size_t cls, std::size_t row,
                                  std::size_t k,
                                  const topk::SelectResult& r) const;
};

/// Per-layer serve figures from two stats() snapshots `seconds` apart.
void serve_layer_metrics(const topk::serve::ServiceStats& a,
                         const topk::serve::ServiceStats& b, double seconds,
                         Report& rep);

/// Benchmark-side probes of the core layer at the serving mix's shapes:
/// recommend_algorithm and plan_select, as a micro-batch of each size
/// would call them (core.recommend_us, core.plan_us).
void core_probes(const std::vector<int>& log_ns,
                 const std::vector<std::size_t>& ks,
                 const simgpu::DeviceSpec& spec, Report& rep);

}  // namespace perfbench
