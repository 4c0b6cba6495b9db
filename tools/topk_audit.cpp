// topk_audit: static workspace-safety audit of planned selections.
//
// Builds ExecutionPlans for registry algorithms across a shape/K grid and
// runs the static plan auditor (src/verify/plan_audit.hpp) on each — no
// kernels execute, so the whole sweep is plan-time only.  Exit status is 0
// iff every audited plan is clean, which makes the binary a CI gate: the
// plan-audit job runs `topk_audit --all --grid --json` and fails the build
// on any sizing, initialization-order, write-race or lifetime defect in any
// plan the registry can produce.  Every configuration is planned in both
// directions, and the largest-K plan must match its smallest-K twin's
// layout and schedule exactly (the direction-parity rule: direction is a
// KeyOrder inside the kernels, never a planned segment or step).
//
// Usage:
//   topk_audit [--all | --algo KEY] [--grid] [--sharded] [--json] [--verbose]
//
//   --all      audit every concrete kAlgoTable row (default when no --algo)
//   --algo KEY audit one algorithm by registry key ("air", "radixselect", ...)
//   --grid     sweep n = 2^10 .. 2^TOPK_MAX_LOG_N (env, default 18) and
//              k in {1, 16, 256, 2048} (clamped per row), batch in {1, 4};
//              without it, one representative shape per algorithm.  Every
//              shape is audited once per key dtype the row declares
//              (f32/f16/bf16 and, for carrier-generic rows, i32/u32), and
//              streaming rows add large-K shapes up to n=2^24, k=2^20
//   --sharded  additionally audit the plans a sharded multi-device query
//              executes (topk::shard::plan_sharded against a device capped
//              at 2^22 keys), in both directions: every distinct per-shard
//              plan plus the cross-shard merge plan when the merge runs on
//              a device (host merges have none), including the N = 2^26
//              shape no single capped device can serve
//   --json     emit one JSON report document on stdout
//   --verbose  print every audited configuration, not just failures

#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/topk.hpp"
#include "shard/shard.hpp"
#include "topk/registry.hpp"
#include "verify/plan_audit.hpp"

namespace {

struct Config {
  topk::Algo algo;
  std::string_view key;
  std::size_t batch, n, k;
  bool greatest;
  topk::KeyType dtype;
};

struct Result {
  Config cfg;
  topk::verify::AuditReport report;
  std::string plan_error;  // non-empty when plan_select itself threw
};

std::size_t max_log_n_from_env() {
  if (const char* v = std::getenv("TOPK_MAX_LOG_N")) {
    const long parsed = std::strtol(v, nullptr, 10);
    if (parsed >= 10 && parsed <= 30) return static_cast<std::size_t>(parsed);
  }
  return 18;
}

std::vector<Config> build_grid(const topk::AlgoRow& row, bool grid,
                               const simgpu::DeviceSpec& spec) {
  std::vector<Config> configs;
  // Every shape is audited once per key type the registry row declares
  // (the dtype dimension of the grid): the plan's carrier domain depends on
  // it.  Each smallest-K config is followed by its largest-K twin, which the
  // parity rule compares it against.  Payloads never appear here — the
  // payload gather is a host-side post-pass over the winning indices and
  // plans identically with or without one.
  const auto add = [&](std::size_t batch, std::size_t n, std::size_t k) {
    if (k == 0 || k > n) return;
    if (row.k_limit != 0 && k > row.k_limit) return;
    // Shapes past the per-device capacity can only be served sharded —
    // unless the row is a streaming tier, whose scratch is bounded
    // independent of n; single-device plans for the rest are rejected by
    // design, not defects.
    if (!row.streaming && n > spec.max_select_elems) return;
    for (std::size_t d = 0; d < topk::kNumKeyTypes; ++d) {
      const auto t = static_cast<topk::KeyType>(d);
      if ((row.dtypes & topk::key_type_bit(t)) == 0) continue;
      configs.push_back({row.algo, row.key, batch, n, k, false, t});
      configs.push_back({row.algo, row.key, batch, n, k, true, t});
    }
  };
  if (!grid) {
    add(1, std::size_t{1} << 14, 64);
    add(4, std::size_t{1} << 12, 16);
  } else {
    const std::size_t max_log_n = max_log_n_from_env();
    for (std::size_t log_n = 10; log_n <= max_log_n; log_n += 2) {
      const std::size_t n = std::size_t{1} << log_n;
      for (std::size_t k : {std::size_t{1}, std::size_t{16}, std::size_t{256},
                            std::size_t{2048}}) {
        add(1, n, k);
        add(4, n, k);
      }
    }
  }
  if (row.streaming) {
    // The streaming schedule's distinguishing shapes: multi-chunk rows with
    // K far past the partial-sorting limits, up to the N = 2^24 / K = 2^20
    // scale the large-K acceptance gate executes.
    add(1, std::size_t{1} << 22, std::size_t{1} << 12);
    add(2, std::size_t{1} << 22, std::size_t{1} << 16);
    add(1, std::size_t{1} << 24, std::size_t{1} << 20);
  }
  return configs;
}

std::string config_label(const Config& cfg) {
  std::ostringstream out;
  out << cfg.key << " dtype=" << topk::key_type_name(cfg.dtype)
      << " batch=" << cfg.batch << " n=" << cfg.n << " k=" << cfg.k
      << (cfg.greatest ? " greatest" : " smallest");
  return out.str();
}

/// Append the direction-parity findings of `largest` against its
/// smallest-K twin to `report`.
void add_parity(topk::verify::AuditReport& report,
                const topk::ExecutionPlan& smallest,
                const topk::ExecutionPlan& largest) {
  for (auto& f :
       topk::verify::audit_direction_parity(smallest, largest).findings) {
    report.findings.push_back(std::move(f));
  }
}

/// One audited plan out of a sharded query's plan set.
struct ShardedAudit {
  std::string label;
  topk::verify::AuditReport report;
  std::string plan_error;
};

/// Audit every plan a sharded query would execute, in both directions, for
/// a sweep of query shapes against a device capped at 2^22 keys — the
/// scale-out scenario (first row: N = 2^26, a shape no single capped device
/// can serve).  Each largest-K plan also answers to the parity rule against
/// the same position of the smallest-K plan set.
std::vector<ShardedAudit> audit_sharded(const simgpu::DeviceSpec& base) {
  simgpu::DeviceSpec spec = base;
  spec.max_select_elems = std::size_t{1} << 22;
  struct SweepRow {
    std::size_t n, k, shards;  // shards == 0: recommend_shards picks
  };
  constexpr SweepRow kSweep[] = {
      {std::size_t{1} << 26, 256, 0},  {std::size_t{1} << 26, 2048, 16},
      {std::size_t{1} << 24, 256, 4},  {std::size_t{1} << 20, 64, 2},
      {std::size_t{1} << 20, 64, 7},   {std::size_t{1} << 20, 2048, 1},
  };
  std::vector<ShardedAudit> out;
  for (const SweepRow& row : kSweep) {
    std::optional<topk::shard::ShardedPlan> twin;
    for (const bool greatest : {false, true}) {
      std::ostringstream shape;
      shape << "n=" << row.n << " k=" << row.k << " shards=";
      if (row.shards == 0) {
        shape << "auto";
      } else {
        shape << row.shards;
      }
      shape << (greatest ? " greatest" : " smallest");
      try {
        topk::SelectOptions opt;
        opt.greatest = greatest;
        const topk::shard::ShardedPlan sp = topk::shard::plan_sharded(
            spec, row.n, row.k, row.shards, topk::Algo::kAuto, opt);
        // A host merge has no device plan to audit; the label says so.
        shape << " merge=" << topk::shard::merge_site_name(sp.merge);
        for (std::size_t i = 0; i < sp.plans.size(); ++i) {
          const auto& [label, plan] = sp.plans[i];
          ShardedAudit a;
          a.label = shape.str() + " :: " + label;
          a.report = topk::verify::audit_plan(plan);
          if (twin) add_parity(a.report, twin->plans.at(i).second, plan);
          out.push_back(std::move(a));
        }
        twin = sp;
      } catch (const std::exception& e) {
        ShardedAudit a;
        a.label = shape.str();
        a.plan_error = e.what();
        out.push_back(std::move(a));
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false, grid = false, sharded = false, json = false,
       verbose = false;
  std::string_view algo_key;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--all") {
      all = true;
    } else if (arg == "--grid") {
      grid = true;
    } else if (arg == "--sharded") {
      sharded = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--algo" && i + 1 < argc) {
      algo_key = argv[++i];
    } else {
      std::cerr << "topk_audit: unknown argument '" << arg << "'\n"
                << "usage: topk_audit [--all | --algo KEY] [--grid]"
                   " [--sharded] [--json] [--verbose]\n";
      return 2;
    }
  }
  if (!all && algo_key.empty()) all = true;

  const simgpu::DeviceSpec spec{};  // audit against the default device model
  std::vector<Result> results;
  std::size_t defects = 0, plan_errors = 0;

  for (const topk::AlgoRow& row : topk::kAlgoTable) {
    if (row.plan == nullptr) continue;  // kAuto resolves before planning
    if (!all && row.key != algo_key) continue;
    // The smallest-K plan of the config just audited: its largest-K twin
    // follows immediately (build_grid).
    topk::ExecutionPlan twin;
    for (const Config& cfg : build_grid(row, grid, spec)) {
      Result res{cfg, {}, {}};
      try {
        topk::SelectOptions opt;
        opt.greatest = cfg.greatest;
        opt.dtype = cfg.dtype;
        const topk::ExecutionPlan plan =
            topk::plan_select(spec, cfg.batch, cfg.n, cfg.k, cfg.algo, opt);
        res.report = topk::verify::audit_plan(plan);
        if (cfg.greatest) {
          add_parity(res.report, twin, plan);
        } else {
          twin = plan;
        }
      } catch (const std::exception& e) {
        res.plan_error = e.what();
      }
      defects += res.report.findings.size();
      plan_errors += res.plan_error.empty() ? 0 : 1;
      results.push_back(std::move(res));
    }
  }

  if (!all && results.empty()) {
    std::cerr << "topk_audit: no registry row matches --algo '" << algo_key
              << "'\n";
    return 2;
  }

  std::vector<ShardedAudit> sharded_results;
  if (sharded) {
    sharded_results = audit_sharded(spec);
    for (const ShardedAudit& a : sharded_results) {
      defects += a.report.findings.size();
      plan_errors += a.plan_error.empty() ? 0 : 1;
    }
  }

  if (json) {
    std::ostringstream out;
    out << "{\"configs\": " << results.size() << ", \"defects\": " << defects
        << ", \"plan_errors\": " << plan_errors << ", \"reports\": [";
    bool first = true;
    for (const Result& res : results) {
      if (!res.plan_error.empty() || !res.report.clean() || verbose) {
        if (!first) out << ", ";
        first = false;
        out << "{\"algo\": \"" << res.cfg.key << "\", \"dtype\": \""
            << topk::key_type_name(res.cfg.dtype)
            << "\", \"batch\": " << res.cfg.batch << ", \"n\": " << res.cfg.n
            << ", \"k\": " << res.cfg.k << ", \"greatest\": "
            << (res.cfg.greatest ? "true" : "false");
        if (!res.plan_error.empty()) {
          out << ", \"plan_error\": \"" << res.plan_error << "\"";
        } else {
          out << ", \"audit\": " << topk::verify::to_json(res.report);
        }
        out << "}";
      }
    }
    out << "]";
    if (!sharded_results.empty()) {
      out << ", \"sharded\": [";
      bool sfirst = true;
      for (const ShardedAudit& a : sharded_results) {
        if (!a.plan_error.empty() || !a.report.clean() || verbose) {
          if (!sfirst) out << ", ";
          sfirst = false;
          out << "{\"plan\": \"" << a.label << "\"";
          if (!a.plan_error.empty()) {
            out << ", \"plan_error\": \"" << a.plan_error << "\"";
          } else {
            out << ", \"audit\": " << topk::verify::to_json(a.report);
          }
          out << "}";
        }
      }
      out << "]";
    }
    out << "}";
    std::cout << out.str() << "\n";
  } else {
    for (const Result& res : results) {
      if (!res.plan_error.empty()) {
        std::cout << "PLAN ERROR " << config_label(res.cfg) << ": "
                  << res.plan_error << "\n";
      } else if (!res.report.clean()) {
        std::cout << "DEFECTS    " << config_label(res.cfg) << "\n";
        for (const topk::verify::Finding& f : res.report.findings) {
          std::cout << "  " << f.to_string() << "\n";
        }
      } else if (verbose) {
        std::cout << "clean      " << config_label(res.cfg) << " ("
                  << res.report.steps_walked << " steps, "
                  << res.report.binds_checked << " binds)\n";
      }
    }
    for (const ShardedAudit& a : sharded_results) {
      if (!a.plan_error.empty()) {
        std::cout << "PLAN ERROR sharded " << a.label << ": " << a.plan_error
                  << "\n";
      } else if (!a.report.clean()) {
        std::cout << "DEFECTS    sharded " << a.label << "\n";
        for (const topk::verify::Finding& f : a.report.findings) {
          std::cout << "  " << f.to_string() << "\n";
        }
      } else if (verbose) {
        std::cout << "clean      sharded " << a.label << " ("
                  << a.report.steps_walked << " steps, "
                  << a.report.binds_checked << " binds)\n";
      }
    }
    std::cout << results.size() + sharded_results.size()
              << " plan(s) audited, " << defects << " defect(s), "
              << plan_errors << " plan error(s)\n";
  }

  return (defects == 0 && plan_errors == 0) ? 0 : 1;
}
