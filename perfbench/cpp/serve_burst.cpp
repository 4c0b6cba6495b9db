// serve_burst: bursts of the serving mix into topk::serve, closed loop.
//
// One caller submits a burst back to back into a TopkService with two
// device workers and auto dispatch (exact), waits for every answer, and
// moves on to the next.  A burst is one coalescing bucket's micro-batch: 32
// requests of one row length whose k values share one padded k, so k-padding
// and trimming happen.  The 11 buckets of the serving mix (rows of 2^12 /
// 2^14 / 2^16, k spread over 8..256) take turns.  Each burst fills its
// bucket, so it flushes on size and runs the same batch every time; the
// flush timer is set out of the way (serve_open exercises it).  One batch
// in flight at a time keeps the figures free of the two workers racing for
// the shared emulator pool, whose hand-offs made whole-mix bursts too
// erratic to gate on.  A monitoring client polls stats() once a second.

#include <algorithm>
#include <atomic>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve_common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using topk::serve::QueryResult;
using topk::serve::QueryStatus;

/// One coalescing bucket of a burst: a row-length class and the requested
/// k values, which share one padded k and split the micro-batch evenly.
struct BucketSpec {
  std::size_t cls;
  std::vector<std::size_t> ks;
};

constexpr std::size_t kBatch = 32;  // ServiceConfig::max_batch default
constexpr double kTailPct = 99.0;   // latency_tail_ms, over the kept samples
constexpr std::chrono::milliseconds kPollInterval{1000};
/// Per-request samples kept per series.  A full run answers a few hundred
/// thousand requests; a fixed, pre-reserved cap keeps the benchmark's own
/// memory the same in every run, so peak_rss_mb does not follow throughput.
constexpr std::size_t kMaxSamples = std::size_t{1} << 16;

/// Append `x` to a series unless it is full.
void keep(std::vector<double>& v, double x) {
  if (v.capacity() < kMaxSamples) v.reserve(kMaxSamples);
  if (v.size() < kMaxSamples) v.push_back(x);
}

struct Request {
  std::size_t cls = 0;
  std::size_t row = 0;
  std::size_t k = 0;
};

struct Burst {
  explicit Burst(const Options& opt);

  std::vector<int> log_ns;
  RowPool pool;
  std::vector<Request> requests;  // kBatch per bucket, bucket by bucket
  std::unique_ptr<topk::serve::TopkService> svc;
};

std::vector<int> burst_log_ns(bool tiny) {
  return tiny ? std::vector<int>{8, 10, 12} : std::vector<int>{12, 14, 16};
}

/// The serving mix: one bucket per (row length, padded k).
std::vector<BucketSpec> burst_buckets() {
  return {{0, {8}},  {0, {13}},       {0, {24}},       {0, {50, 64}},
          {0, {100}}, {0, {180, 256}}, {1, {13}},       {1, {50, 64}},
          {1, {180, 256}}, {2, {24}},  {2, {180, 256}}};
}

Burst::Burst(const Options& opt)
    : log_ns(burst_log_ns(opt.tiny)), pool(opt, log_ns, 16, 256) {
  std::mt19937_64 rng(input_seed(opt, 1000));
  std::uniform_int_distribution<std::size_t> row(0, 15);
  for (const BucketSpec& b : burst_buckets()) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      requests.push_back({b.cls, row(rng), b.ks[i % b.ks.size()]});
    }
  }
  topk::serve::ServiceConfig cfg;
  cfg.num_devices = 2;
  // Every bucket fills to max_batch within a burst; a long flush timer keeps
  // host stalls during submission from splitting a batch.
  cfg.max_wait = std::chrono::milliseconds(100);
  cfg.admission_capacity = 2 * requests.size();
  svc = std::make_unique<topk::serve::TopkService>(cfg);
  // Warm-up pass: every bucket's batch once, which fills every plan cache
  // and workspace pool.  One burst at a time, as in the timed phase: with
  // the whole mix in flight, how many row copies were alive at once (up to
  // 32 MiB) depended on how far the workers had got, and so did
  // peak_rss_mb.
  std::vector<std::future<QueryResult>> warm;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& q = requests[i];
    warm.push_back(svc->submit(std::vector<float>(pool.rows[q.cls][q.row]), q.k));
    if (warm.size() < kBatch) continue;
    for (auto& f : warm) {
      if (f.get().status != QueryStatus::kOk) {
        throw std::runtime_error("serve_burst: warm-up query failed");
      }
    }
    warm.clear();
  }
}

struct Phase {
  // Per bucket: each burst's makespan (first submit to last answer), the
  // batch's modeled µs (the members' device shares summed), and the
  // algorithm it ran.
  std::vector<std::vector<double>> batch_wall_ms, batch_us;
  std::vector<std::string> batch_algo;
  std::vector<double> latency_ms, in_service_ms, submit_us, stats_us;
  std::map<std::string, std::vector<double>> algo_device_us, algo_wall_ms;
  double backlog_max = 0.0;
  topk::serve::ServiceStats before, after;
  double seconds = 0.0;
  std::uint64_t queries = 0;
};

Phase run_phase(Burst& b, Tracer& tr, Report& rep, double seconds) {
  Phase ph;
  ph.before = b.svc->stats();
  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load()) {
      const auto t0 = Clock::now();
      const topk::serve::ServiceStats s = b.svc->stats();
      const auto t1 = Clock::now();
      ph.stats_us.push_back(us_between(t0, t1));
      ph.backlog_max = std::max(
          ph.backlog_max,
          static_cast<double>(s.submitted - s.completed - s.rejected -
                              s.timed_out - s.failed));
      tr.wall("serve.stats", 0, 0, t0, t1, 2);
      std::this_thread::sleep_until(t0 + kPollInterval);
    }
  });

  const std::size_t buckets = burst_buckets().size();
  ph.batch_wall_ms.resize(buckets);
  ph.batch_us.resize(buckets);
  ph.batch_algo.resize(buckets);
  std::vector<std::vector<float>> keys(kBatch);
  std::vector<std::future<QueryResult>> futs(kBatch);
  std::vector<Clock::time_point> s0(kBatch), s1(kBatch);
  const auto start = Clock::now();
  do {
    for (std::size_t j = 0; j < buckets; ++j) {
      const Request* burst = &b.requests[j * kBatch];
      for (std::size_t i = 0; i < kBatch; ++i) {
        keys[i] = b.pool.rows[burst[i].cls][burst[i].row];
      }
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        s0[i] = Clock::now();
        futs[i] = b.svc->submit(std::move(keys[i]), burst[i].k);
        s1[i] = Clock::now();
      }
      double makespan = 0.0;
      double batch_us = 0.0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        const Request& q = burst[i];
        QueryResult r = futs[i].get();
        ++rep.attempted;
        ++ph.queries;
        const std::string err =
            r.status == QueryStatus::kOk
                ? b.pool.check(q.cls, q.row, q.k, r.topk)
                : topk::serve::query_status_name(r.status);
        if (!err.empty()) {
          rep.fail("serve_burst n=2^" + std::to_string(b.log_ns[q.cls]) +
                   " k=" + std::to_string(q.k) + ": " + err);
          continue;
        }
        // Latency runs from the burst's start (every request is due then).
        const double lat = ms_between(t0, s0[i]) + r.wall_us / 1e3;
        makespan = std::max(makespan, lat);
        batch_us += r.device_us;
        const std::string algo(topk::algo_key(r.algo));
        ph.batch_algo[j] = algo;
        keep(ph.latency_ms, lat);
        keep(ph.in_service_ms, r.wall_us / 1e3);
        keep(ph.submit_us, us_between(s0[i], s1[i]));
        keep(ph.algo_device_us[algo], r.device_us);
        keep(ph.algo_wall_ms[algo], r.wall_us / 1e3);
        if (tr.on()) {
          const auto end =
              s0[i] + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::micro>(r.wall_us));
          const std::uint64_t qid = tr.next_query();
          Span root;
          root.query = qid;
          root.name = "query";
          root.async = true;
          root.ts_us = tr.at_us(t0);
          root.dur_us = us_between(t0, std::max(end, s1[i]));
          root.args = {{"n", double(b.pool.rows[q.cls][0].size())},
                       {"k", double(q.k)},
                       {"batch_rows", double(r.batch_rows)},
                       {"device_us", r.device_us}};
          const std::uint64_t rid = tr.add(std::move(root));
          tr.wall("serve.submit", rid, qid, s0[i], s1[i], 1, true);
          tr.wall("serve.in_service", rid, qid, s0[i], end, 1, true);
        }
      }
      ph.batch_wall_ms[j].push_back(makespan);
      ph.batch_us[j].push_back(batch_us);
    }
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
  ph.seconds = ms_between(start, Clock::now()) / 1e3;
  stop = true;
  monitor.join();
  ph.after = b.svc->stats();
  return ph;
}

/// Wall figures take each bucket's best burst of the run: interference from
/// the rest of a shared host only ever adds time.  A burst's requests are
/// answered together when its batch resolves, so its makespan is also their
/// latency.
void end_to_end(const Burst& b, const Phase& ph, Report& rep) {
  std::vector<double> modeled, wall;
  double round_ms = 0.0;
  for (std::size_t j = 0; j < ph.batch_wall_ms.size(); ++j) {
    modeled.push_back(median(ph.batch_us[j]) / static_cast<double>(kBatch));
    const std::vector<double>& w = ph.batch_wall_ms[j];
    wall.push_back(w.empty() ? 0.0 : *std::min_element(w.begin(), w.end()));
    round_ms += wall.back();
  }
  const double qps = static_cast<double>(b.requests.size()) / (round_ms / 1e3);
  rep.set("modeled_us_geomean", geomean(modeled));
  rep.set("wall_ms_geomean", geomean(wall));
  rep.set("wall_qps", qps);
  rep.set("sustained_qps", qps);
  rep.set("latency_p50_ms", median(wall));
  rep.set("latency_tail_ms", percentile(ph.latency_ms, kTailPct));
}

void per_layer(const Burst& b, const Phase& ph, Report& rep) {
  rep.set("serve.submit_us", median(ph.submit_us));
  rep.set("serve.in_service_ms_p50", percentile(ph.in_service_ms, 50.0));
  rep.set("serve.in_service_ms_tail", percentile(ph.in_service_ms, kTailPct));
  rep.set("serve.stats_us", median(ph.stats_us));
  rep.set("serve.backlog_max", ph.backlog_max);
  serve_layer_metrics(ph.before, ph.after, ph.seconds, rep);
  for (const auto& [algo, v] : ph.algo_device_us) {
    rep.set("topk." + algo + ".modeled_us", geomean(v));
    rep.set("topk." + algo + ".wall_ms", geomean(ph.algo_wall_ms.at(algo)));
  }
  std::vector<std::size_t> ks;
  for (const BucketSpec& s : burst_buckets()) {
    ks.insert(ks.end(), s.ks.begin(), s.ks.end());
  }
  core_probes(b.log_ns, ks, b.svc->config().device_spec, rep);
}

/// Count digest: per bucket, the algorithm its batch ran and the batch's
/// modeled µs (median, min and max over the run's bursts).
void write_digest(const Burst& b, const Phase& ph, const Options& opt) {
  std::ofstream os(out_path(opt, "-digest.json"));
  os.precision(12);
  os << "{\"workload\": \"serve_burst\", \"seed\": " << opt.seed
     << ", \"cells\": [\n";
  const std::vector<BucketSpec> specs = burst_buckets();
  for (std::size_t j = 0; j < specs.size(); ++j) {
    const std::vector<double>& v = ph.batch_us[j];
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    const bool any = lo != v.end();
    os << "  {\"cell\": \"serve_burst n=2^" << b.log_ns[specs[j].cls]
       << " k=" << specs[j].ks.front() << ".." << specs[j].ks.back()
       << "\", \"algo\": \"" << ph.batch_algo[j]
       << "\", \"batch_rows\": " << kBatch
       << ", \"modeled_us\": " << median(v)
       << ", \"modeled_us_min\": " << (any ? *lo : 0.0)
       << ", \"modeled_us_max\": " << (any ? *hi : 0.0)
       << ", \"queries\": " << v.size() << "}"
       << (j + 1 < specs.size() ? "," : "") << "\n";
  }
  os << "]}\n";
}

}  // namespace

Report run_serve_burst(const Options& opt) {
  Report rep;
  Tracer tr(false);
  std::unique_ptr<Burst> b = timed_setup<Burst>(
      setup_reps(opt, 15), rep, [&] { return std::make_unique<Burst>(opt); });
  const Phase ph = timed_phase(
      opt, tr, rep, "wall_ms_geomean",
      [&](double s) { return run_phase(*b, tr, rep, s); },
      [&](const Phase& p, Report& r) { end_to_end(*b, p, r); });
  if (opt.trace) {
    per_layer(*b, ph, rep);
    finish_trace(tr, rep, ph.queries, opt);
  }
  write_digest(*b, ph, opt);
  b->svc->shutdown();
  return rep;
}

}  // namespace perfbench
