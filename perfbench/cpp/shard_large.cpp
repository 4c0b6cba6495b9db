// shard_large: a closed loop with one caller over topk::shard.
//
// Coordinator::select over a pool of 4 simulated devices whose
// max_select_elems is capped at 2^20, so an N = 2^22 query must split;
// shards = 0 lets recommend_shards decide.  Shapes: k in {64, 256, 2048},
// uniform +-1000 and radix-adversarial keys, both directions (largest-K
// negates at the coordinator boundary).  Each direction has its own
// coordinator, since the direction is part of the coordinator's config.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "shard/shard.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// latency_tail_ms percentile: a full run makes a few hundred calls.
constexpr double kShardTailPct = 95.0;

struct ShapeDef {
  std::size_t input = 0;  // 0 uniform, 1 adversarial
  std::size_t k = 0;
  bool greatest = false;
  std::string name;
};

struct Shards {
  explicit Shards(const Options& opt);

  std::size_t n = 0;
  std::vector<std::vector<float>> inputs;
  std::vector<ShapeDef> shapes;
  std::vector<std::vector<double>> oracle;  // per shape; filled after set-up
  topk::shard::ShardConfig cfg;
  std::unique_ptr<topk::shard::Coordinator> smallest, largest;
  std::vector<double> plan_us;
};

Shards::Shards(const Options& opt) {
  // N = 2^24 on 2^22-capped devices streams ~200 MB of host memory per call
  // (input, negated stage, four shard uploads), and its best-call wall moved
  // 10-12 % between runs, and between 10 s windows of one run, with the
  // shared host's memory traffic.  A quarter of that split the same way
  // (four shards) moves 2-3 %.
  const int log_n = opt.tiny ? 16 : 22;
  n = std::size_t{1} << log_n;
  std::vector<float> uni = topk::data::uniform_values(n, input_seed(opt, 0));
  for (float& v : uni) v = v * 2000.0f - 1000.0f;  // (0, 1] -> (-1000, 1000]
  inputs.push_back(std::move(uni));
  inputs.push_back(
      topk::data::radix_adversarial_values(n, 20, input_seed(opt, 1)));
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    for (const std::size_t k : {64, 256, 2048}) {
      for (const bool greatest : {false, true}) {
        shapes.push_back(
            {in, k, greatest,
             std::string("shard n=2^") + std::to_string(log_n) + " k=" +
                 std::to_string(k) + (in == 0 ? " uniform" : " adversarial") +
                 (greatest ? " largest" : " smallest")});
      }
    }
  }
  cfg.devices = 4;
  cfg.device_spec.max_select_elems = std::size_t{1} << (opt.tiny ? 14 : 20);
  cfg.shards = 0;
  smallest = std::make_unique<topk::shard::Coordinator>(cfg);
  topk::shard::ShardConfig big = cfg;
  big.options.greatest = true;
  largest = std::make_unique<topk::shard::Coordinator>(big);
  // Warm-up pass: one query per plan shape (k) and direction, which fills
  // every plan cache and workspace pool of both coordinators.
  for (const ShapeDef& s : shapes) {
    if (s.input != 0) continue;
    topk::shard::Coordinator& c = s.greatest ? *largest : *smallest;
    (void)c.select(inputs[0], s.k);
  }
  // Benchmark-side planner probe at the same shapes.
  for (const ShapeDef& s : shapes) {
    if (s.input != 0) continue;
    const std::size_t shards = topk::shard::recommend_shards(
        n, s.k, cfg.devices, cfg.device_spec);
    topk::SelectOptions so;
    so.greatest = s.greatest;
    const auto t0 = Clock::now();
    (void)topk::shard::plan_sharded(cfg.device_spec, n, s.k, shards,
                                    topk::Algo::kAuto, so);
    plan_us.push_back(us_between(t0, Clock::now()));
  }
}

struct Sample {
  std::size_t shape = 0;
  double wall_ms = 0.0;
  topk::shard::ShardedResult res;
};

struct Phase {
  std::vector<Sample> samples;
  std::size_t plan_hits = 0;
  std::size_t plan_misses = 0;
};

std::size_t hits(const Shards& s) {
  return s.smallest->plan_cache_hits() + s.largest->plan_cache_hits();
}
std::size_t misses(const Shards& s) {
  return s.smallest->plan_cache_misses() + s.largest->plan_cache_misses();
}

Phase run_phase(Shards& sh, Tracer& tr, Report& rep, double seconds) {
  Phase ph;
  const std::size_t h0 = hits(sh), m0 = misses(sh);
  std::vector<double> values, scratch;
  std::vector<std::uint32_t> idx_scratch;
  double modeled_clock = 0.0;
  const auto start = Clock::now();
  do {
    for (std::size_t si = 0; si < sh.shapes.size(); ++si) {
      const ShapeDef& s = sh.shapes[si];
      topk::shard::Coordinator& c = s.greatest ? *sh.largest : *sh.smallest;
      const std::vector<float>& data = sh.inputs[s.input];
      Sample smp;
      smp.shape = si;
      const auto t0 = Clock::now();
      smp.res = c.select(data, s.k);
      const auto t1 = Clock::now();
      smp.wall_ms = ms_between(t0, t1);
      if (tr.on()) {
        const std::uint64_t qid = tr.next_query();
        Span root;
        root.query = qid;
        root.name = "query";
        root.ts_us = tr.at_us(t0);
        root.dur_us = us_between(t0, t1);
        root.args = {{"shape", double(si)},
                     {"shards", double(smp.res.shards)},
                     {"modeled_us", smp.res.timing.total_us}};
        const std::uint64_t rid = tr.add(std::move(root));
        tr.wall("shard.select", rid, qid, t0, t1);
        // The coordinator's modeled phases, end to end on the modeled clock.
        Span m;
        m.query = qid;
        m.name = "query.modeled";
        m.pid = 2;
        m.ts_us = modeled_clock;
        m.dur_us = smp.res.timing.total_us;
        const std::uint64_t mid = tr.add(m);
        double at = modeled_clock;
        const topk::shard::ShardTiming& t = smp.res.timing;
        for (const auto& [name, us] :
             {std::pair<const char*, double>{"shard.phase.select", t.select_us},
              {"shard.phase.gather", t.gather_us},
              {"shard.phase.merge", t.merge_us},
              {"shard.phase.output", t.output_us}}) {
          Span p;
          p.parent = mid;
          p.query = qid;
          p.name = name;
          p.pid = 2;
          p.ts_us = at;
          p.dur_us = us;
          at += us;
          tr.add(std::move(p));
        }
        modeled_clock += t.total_us + 1.0;
      }
      ++rep.attempted;
      values.assign(smp.res.topk.values.begin(), smp.res.topk.values.end());
      const std::string err = check_answer(
          values, smp.res.topk.indices, data.size(), sh.oracle[si],
          s.greatest, scratch, idx_scratch,
          [&](std::uint32_t i) { return double(data[i]); });
      if (!err.empty()) rep.fail(s.name + ": " + err);
      smp.res.topk = {};  // checked; keep only the timings
      ph.samples.push_back(std::move(smp));
    }
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
  ph.plan_hits = hits(sh) - h0;
  ph.plan_misses = misses(sh) - m0;
  return ph;
}

void end_to_end(const Shards& sh, const Phase& ph, Report& rep) {
  std::vector<std::vector<double>> modeled(sh.shapes.size()),
      wall(sh.shapes.size());
  for (const Sample& s : ph.samples) {
    modeled[s.shape].push_back(s.res.timing.total_us);
    wall[s.shape].push_back(s.wall_ms);
  }
  // Wall figures take each shape's best call of the run: interference from
  // the rest of a shared host only ever adds time.
  std::vector<double> m, w;
  double round_ms = 0.0;
  for (std::size_t i = 0; i < sh.shapes.size(); ++i) {
    m.push_back(median(modeled[i]));
    w.push_back(wall[i].empty()
                    ? 0.0
                    : *std::min_element(wall[i].begin(), wall[i].end()));
    round_ms += w.back();
  }
  const double qps = static_cast<double>(sh.shapes.size()) / (round_ms / 1e3);
  rep.set("modeled_us_geomean", geomean(m));
  rep.set("wall_ms_geomean", geomean(w));
  rep.set("wall_qps", qps);
  rep.set("sustained_qps", qps);
  rep.set("latency_p50_ms", median(w));
  std::vector<double> all_wall;
  for (const Sample& s : ph.samples) all_wall.push_back(s.wall_ms);
  rep.set("latency_tail_ms", percentile(all_wall, kShardTailPct));
}

void per_layer(const Shards& sh, const Phase& ph, Report& rep) {
  std::vector<double> sel, gat, mer, out, straggle, shards;
  std::map<std::string, std::vector<double>> row_sel;
  for (const Sample& s : ph.samples) {
    const topk::shard::ShardedResult& r = s.res;
    sel.push_back(r.timing.select_us);
    gat.push_back(r.timing.gather_us);
    mer.push_back(r.timing.merge_us);
    out.push_back(r.timing.output_us);
    shards.push_back(static_cast<double>(r.shards));
    row_sel[std::string(topk::algo_key(r.shard_algo))].push_back(
        r.timing.select_us);
    if (!r.shard_us.empty()) {
      double mx = 0.0, sum = 0.0;
      for (const double u : r.shard_us) {
        mx = std::max(mx, u);
        sum += u;
      }
      straggle.push_back(mx / (sum / static_cast<double>(r.shard_us.size())));
    }
  }
  rep.set("shard.select_us", geomean(sel));
  rep.set("shard.gather_us", geomean(gat));
  rep.set("shard.merge_us", geomean(mer));
  rep.set("shard.output_us", geomean(out));
  double st = 0.0;
  for (const double x : straggle) st += x;
  rep.set("shard.straggler_ratio",
          straggle.empty() ? 0.0 : st / static_cast<double>(straggle.size()));
  double sh_sum = 0.0;
  for (const double x : shards) sh_sum += x;
  rep.set("shard.shards_mean",
          shards.empty() ? 0.0 : sh_sum / static_cast<double>(shards.size()));
  const double plans = static_cast<double>(ph.plan_hits + ph.plan_misses);
  rep.set("shard.plan_cache_hit_rate",
          plans > 0 ? static_cast<double>(ph.plan_hits) / plans : 0.0);
  for (const auto& [row, v] : row_sel) {
    rep.set("topk." + row + ".modeled_us", geomean(v));
  }
  rep.set("topk.shard-merge.modeled_us", geomean(mer));
  rep.set("core.plan_us", median(sh.plan_us));
}

void write_digest(const Shards& sh, const Phase& ph, const Options& opt) {
  std::ofstream os(out_path(opt, "-digest.json"));
  os.precision(12);
  os << "{\"workload\": \"shard_large\", \"seed\": " << opt.seed
     << ", \"sim_threads\": " << simgpu::ThreadPool::instance().size()
     << ", \"cells\": [\n";
  for (std::size_t i = 0; i < sh.shapes.size(); ++i) {
    std::vector<double> total;
    const topk::shard::ShardedResult* last = nullptr;
    for (const Sample& s : ph.samples) {
      if (s.shape != i) continue;
      total.push_back(s.res.timing.total_us);
      last = &s.res;
    }
    if (last == nullptr) continue;
    const auto [lo, hi] = std::minmax_element(total.begin(), total.end());
    os << (i == 0 ? "" : ",\n") << "  {\"cell\": \"" << sh.shapes[i].name
       << "\", \"algo\": \"" << topk::algo_key(last->shard_algo)
       << "\", \"shards\": " << last->shards
       << ", \"select_us\": " << last->timing.select_us
       << ", \"gather_us\": " << last->timing.gather_us
       << ", \"merge_us\": " << last->timing.merge_us
       << ", \"output_us\": " << last->timing.output_us
       << ", \"modeled_us\": " << median(total)
       << ", \"modeled_us_min\": " << *lo << ", \"modeled_us_max\": " << *hi
       << ", \"queries\": " << total.size() << "}";
  }
  os << "\n]}\n";
}

}  // namespace

Report run_shard_large(const Options& opt) {
  Report rep;
  Tracer tr(false);
  std::unique_ptr<Shards> sh = timed_setup<Shards>(
      setup_reps(opt, 5), rep, [&] { return std::make_unique<Shards>(opt); });
  for (const ShapeDef& s : sh->shapes) {
    sh->oracle.push_back(oracle_topk<float>(sh->inputs[s.input], s.k,
                                            s.greatest));
  }
  const Phase ph = timed_phase(
      opt, tr, rep, "wall_ms_geomean",
      [&](double s) { return run_phase(*sh, tr, rep, s); },
      [&](const Phase& p, Report& r) { end_to_end(*sh, p, r); });
  if (opt.trace) {
    per_layer(*sh, ph, rep);
    finish_trace(tr, rep, ph.samples.size(), opt);
  }
  write_digest(*sh, ph, opt);
  return rep;
}

}  // namespace perfbench
