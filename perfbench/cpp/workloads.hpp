#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

// Each workload sets up (several times, reporting the median set-up time),
// then runs its timed phase (see timed_phase).
Report run_paper_grid(const Options& opt);
Report run_serve_burst(const Options& opt);
Report run_serve_open(const Options& opt);
Report run_shard_large(const Options& opt);

/// Build the workload state `reps` times (the previous one is destroyed
/// first) and return the last; the median build time goes to setup_s.
template <typename State>
std::unique_ptr<State> timed_setup(int reps, Report& rep,
                                   const std::function<std::unique_ptr<State>()>& build) {
  std::unique_ptr<State> state;
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    state.reset();
    const auto t0 = Clock::now();
    state = build();
    secs.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  rep.set("setup_s", median(secs));
  return state;
}

/// Run the timed phase with `run(seconds)` and set its end-to-end figures
/// with `e2e(phase, report)`.  With --trace 1 the phase runs twice on the
/// same set-up, untraced then traced, for half the time each: the traced
/// phase is returned for the per-layer figures, and the change in
/// `overhead_metric` between the halves is the tracing overhead.
template <typename Run, typename E2E>
auto timed_phase(const Options& opt, Tracer& tr, Report& rep,
                 const std::string& overhead_metric, Run run, E2E e2e) {
  if (!opt.trace) {
    auto ph = run(opt.seconds);
    e2e(ph, rep);
    return ph;
  }
  Report untraced;
  e2e(run(opt.seconds / 2), untraced);
  tr.enable(true);
  auto ph = run(opt.seconds / 2);
  e2e(ph, rep);
  rep.set("trace.overhead_pct", 100.0 * (rep.values[overhead_metric] /
                                             untraced.values[overhead_metric] -
                                         1.0));
  return ph;
}

/// Set-up repetitions per run (`full` of them at full scale).
[[nodiscard]] inline int setup_reps(const Options& opt, int full = 3) {
  return opt.tiny ? 1 : full;
}

/// Seed of the i-th input stream of a run.
[[nodiscard]] inline std::uint64_t input_seed(const Options& opt,
                                              std::uint64_t i) {
  return opt.seed * 1000003ULL + i * 7919ULL + 1;
}

[[nodiscard]] inline std::string out_path(const Options& opt,
                                          const std::string& suffix) {
  return opt.out_dir + "/" + opt.workload + "-seed" +
         std::to_string(opt.seed) + suffix;
}

/// Close a traced phase: per-layer self time per query from the spans, the
/// span count, and the Chrome trace-event file.
void finish_trace(const Tracer& tr, Report& rep, std::uint64_t queries,
                  const Options& opt);

}  // namespace perfbench
