// Recall/speedup frontier for the bucketed approximate tier: for each
// (N, distribution, recall_target) cell, run the exact recommender pick and
// Algo::kBucketApprox on the same data and report modeled device time,
// modeled speedup, the planner's analytic expected recall, and the measured
// recall against the std::partial_sort reference.
//
// Output: a CSV table on stdout and BENCH_approx.json in the working
// directory (schema documented in docs/performance.md).  `--smoke` pins the
// sweep to the CI gate shape.  Gates (nonzero exit on failure):
//   * measured recall >= recall_target in every cell (mean over repeats),
//   * modeled speedup > 1x over the exact recommender pick at N=2^22,
//     recall_target=0.9, on all three paper distributions,
//   * full mode only: >= 3x on the adversarial distribution at that shape —
//     the exact tier's multi-pass worst case against the tier's
//     data-oblivious single pass (uniform/normal sit on the full-read floor,
//     so their ceiling is ~2x; see docs/performance.md).

#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data/recall.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/bucket_approx.hpp"

namespace topk::bench {
namespace {

struct ApproxRun {
  double model_us = 0.0;
  double recall = 0.0;
};

/// One measured select under explicit options (run_algo has no opt
/// parameter and always verifies exactly; the approximate leg verifies by
/// recall instead).
double run_with_opt(const simgpu::DeviceSpec& spec,
                    std::span<const float> data, std::size_t n, std::size_t k,
                    Algo algo, const SelectOptions& opt,
                    std::vector<float>* out = nullptr) {
  simgpu::Device dev(spec);
  auto in = dev.alloc<float>(n);
  std::copy(data.begin(), data.end(), in.data());
  auto out_vals = dev.alloc<float>(k);
  auto out_idx = dev.alloc<std::uint32_t>(k);
  dev.clear_events();
  const ExecutionPlan plan = plan_select(spec, 1, n, k, algo, opt);
  simgpu::Workspace ws(dev);
  run_select(dev, plan, ws, in, out_vals, out_idx);
  if (out) out->assign(out_vals.data(), out_vals.data() + k);
  return simgpu::CostModel(spec).total_us(dev.events());
}

struct Cell {
  std::size_t n = 0;
  std::size_t k = 0;
  std::string dist;
  double recall_target = 0.0;
  std::size_t chunks = 0;
  std::size_t keep = 0;
  double expected_recall = 0.0;
  double measured_recall = 0.0;
  double approx_us = 0.0;
  std::string exact_algo;
  double exact_us = 0.0;
  double speedup = 0.0;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace
}  // namespace topk::bench

int main(int argc, char** argv) {
  using namespace topk;
  using namespace topk::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const BenchScale scale = BenchScale::from_env();
  const simgpu::DeviceSpec spec;
  const std::size_t k = 256;
  const std::size_t gate_n = std::size_t{1} << 22;
  const double gate_rt = 0.9;
  const std::size_t repeats = smoke ? 2 : 4;

  std::vector<std::size_t> ns;
  if (smoke) {
    ns.push_back(gate_n);  // the CI gate shape, nothing else
  } else {
    for (int log_n = 20; log_n <= std::max(22, scale.max_log_n);
         log_n += 2) {
      ns.push_back(std::size_t{1} << log_n);
    }
  }
  const std::vector<double> targets =
      smoke ? std::vector<double>{0.9, 0.95}
            : std::vector<double>{0.8, 0.9, 0.95, 0.99};
  const std::vector<data::DistributionSpec> dists = {
      {data::Distribution::kUniform, 0},
      {data::Distribution::kNormal, 0},
      {data::Distribution::kAdversarial, 20},
  };

  CsvWriter csv(
      "n,k,dist,recall_target,chunks,keep,expected_recall,measured_recall,"
      "approx_us,exact_algo,exact_us,speedup");
  std::vector<Cell> cells;
  for (const std::size_t n : ns) {
    for (const auto& dist : dists) {
      // One exact baseline per (n, dist): the recommender's pick with no
      // recall hint — exactly what a caller without an SLO would run.
      WorkloadHints exact_hints;
      exact_hints.batch = 1;
      const Algo exact_algo = recommend_algorithm(n, k, exact_hints);
      const auto baseline_data =
          data::generate(dist, n, 0xA77 + n);
      const double exact_us =
          run_with_opt(spec, baseline_data, n, k, exact_algo, {});

      for (const double rt : targets) {
        SelectOptions opt;
        opt.recall_target = rt;
        BucketApproxOptions bopt;
        bopt.recall_target = rt;
        const BucketApproxShape shape =
            bucket_approx_configure(n, k, 1, bopt, spec);

        double recall_sum = 0.0;
        double approx_us = 0.0;
        for (std::size_t r = 0; r < repeats; ++r) {
          const auto values =
              r == 0 ? baseline_data : data::generate(dist, n, 0xB33 + n + r);
          std::vector<float> approx_vals;
          approx_us = run_with_opt(spec, values, n, k, Algo::kBucketApprox,
                                   opt, &approx_vals);
          recall_sum += data::recall_at_k(
              approx_vals, data::exact_topk_values(values, k));
        }
        Cell c;
        c.n = n;
        c.k = k;
        c.dist = dist.name();
        c.recall_target = rt;
        c.chunks = shape.chunks;
        c.keep = shape.keep;
        c.expected_recall = shape.expected_recall;
        c.measured_recall = recall_sum / static_cast<double>(repeats);
        c.approx_us = approx_us;
        c.exact_algo = algo_name(exact_algo);
        c.exact_us = exact_us;
        c.speedup = exact_us / approx_us;
        cells.push_back(c);
        std::ostringstream row;
        row << n << "," << k << "," << c.dist << "," << rt << "," << c.chunks
            << "," << c.keep << "," << fmt(c.expected_recall) << ","
            << fmt(c.measured_recall) << "," << fmt(c.approx_us) << ","
            << c.exact_algo << "," << fmt(c.exact_us) << ","
            << fmt(c.speedup);
        csv.row(row.str());
      }
    }
  }

  JsonReport report;
  report.meta()
      .add("bench", "bench_approx")
      .add("smoke", smoke)
      .add("k", k)
      .add("repeats", repeats);
  for (const Cell& c : cells) {
    report.add_row("results", JsonRow()
                                  .add("n", c.n)
                                  .add("k", c.k)
                                  .add("dist", c.dist)
                                  .add("recall_target", c.recall_target)
                                  .add("chunks", c.chunks)
                                  .add("keep", c.keep)
                                  .add("expected_recall", c.expected_recall)
                                  .add("measured_recall", c.measured_recall)
                                  .add("approx_us", c.approx_us)
                                  .add("exact_algo", c.exact_algo)
                                  .add("exact_us", c.exact_us)
                                  .add("speedup", c.speedup));
  }
  if (report.write("BENCH_approx.json")) {
    std::cout << "wrote BENCH_approx.json (" << cells.size() << " cells)\n";
  } else {
    std::cerr << "could not write BENCH_approx.json\n";
  }

  // --- gates ---------------------------------------------------------------
  bool ok = true;
  for (const Cell& c : cells) {
    if (c.measured_recall < c.recall_target) {
      std::cerr << "FAIL: measured recall " << fmt(c.measured_recall)
                << " below target " << fmt(c.recall_target) << " (n=" << c.n
                << ", " << c.dist << ")\n";
      ok = false;
    }
    // The planner's promise must never overstate measurement by more than
    // sampling noise.
    if (c.measured_recall + 0.05 < c.expected_recall) {
      std::cerr << "FAIL: measured recall " << fmt(c.measured_recall)
                << " far below modeled " << fmt(c.expected_recall)
                << " (n=" << c.n << ", " << c.dist << ")\n";
      ok = false;
    }
  }
  for (const Cell& c : cells) {
    if (c.n != gate_n || c.recall_target != gate_rt) continue;
    if (c.speedup <= 1.0) {
      std::cerr << "FAIL: speedup " << fmt(c.speedup)
                << "x not above 1x at the gate shape (" << c.dist << ")\n";
      ok = false;
    }
    if (!smoke && c.dist == "adversarial(M=20)" && c.speedup < 3.0) {
      std::cerr << "FAIL: adversarial speedup " << fmt(c.speedup)
                << "x below the 3x acceptance floor\n";
      ok = false;
    }
  }
  if (ok) std::cout << "all gates passed\n";
  return ok ? 0 : 1;
}
