// serve_open: an open loop into topk::serve.
//
// Poisson arrivals, generated from the seed, climb a fixed rate ladder into
// a TopkService with two device workers and default batching (auto
// dispatch, exact).  Requests mix row lengths 2^12 / 2^14 / 2^16 with k
// spread over 8..256 (so k-padding and trimming happen); a share carries a
// loose deadline.  A monitoring client polls stats() at a fixed interval.
// Latency is timed from each request's due time, so a stall also charges
// the requests queued behind it; the generator's own lateness is reported
// and a run whose generator fell too far behind is refused.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/topk.hpp"
#include "serve/service.hpp"
#include "serve_common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using topk::serve::QueryResult;
using topk::serve::QueryStatus;

/// The ladder, the tail percentile and the limits are part of the
/// benchmark's definition (see README.md).
struct Shape {
  std::vector<double> rates;   // requests per second, one step each
  std::vector<int> log_ns;     // row lengths
  std::vector<double> n_share; // share of requests per row length
  std::vector<std::size_t> ks;
  std::size_t pool_rows;       // distinct rows per row length
  double tail_pct;             // latency_tail_ms percentile
  double latency_limit_ms;     // tail limit a step must meet
  double max_lag_ms;           // generator lateness that voids the run
};

Shape serve_shape(bool tiny) {
  Shape s;
  s.rates = tiny ? std::vector<double>{100, 200}
                 : std::vector<double>{1000, 2000, 4000};
  s.log_ns = tiny ? std::vector<int>{8, 10, 12} : std::vector<int>{12, 14, 16};
  s.n_share = {0.5, 0.3, 0.2};
  s.ks = {8, 13, 24, 50, 64, 100, 180, 256};
  s.pool_rows = tiny ? 8 : 32;
  s.tail_pct = 99.0;
  s.latency_limit_ms = 50.0;
  s.max_lag_ms = 20.0;
  return s;
}

constexpr double kLooseShare = 0.25;                 // requests with a deadline
constexpr std::chrono::milliseconds kLooseDeadline{2000};
constexpr std::chrono::milliseconds kPollInterval{1000};

struct Request {
  std::size_t step = 0;
  double due_s = 0.0;  // offset from the step start
  std::size_t cls = 0; // row-length class
  std::size_t row = 0; // pool row
  std::size_t k = 0;
  bool deadline = false;
};

struct Serve {
  explicit Serve(const Options& opt);

  Shape shape;
  RowPool pool;
  std::vector<std::vector<Request>> schedule;  // [step]
  std::unique_ptr<topk::serve::TopkService> svc;
};

Serve::Serve(const Options& opt)
    : shape(serve_shape(opt.tiny)),
      pool(opt, shape.log_ns, shape.pool_rows,
           *std::max_element(shape.ks.begin(), shape.ks.end())) {
  // Arrival schedule: Poisson per step, all choices drawn from the seed.
  std::mt19937_64 rng(input_seed(opt, 1000));
  std::discrete_distribution<std::size_t> cls(shape.n_share.begin(),
                                              shape.n_share.end());
  std::uniform_int_distribution<std::size_t> row(0, shape.pool_rows - 1);
  std::uniform_int_distribution<std::size_t> kk(0, shape.ks.size() - 1);
  std::bernoulli_distribution loose(kLooseShare);
  const double step_s = opt.seconds / static_cast<double>(shape.rates.size());
  schedule.resize(shape.rates.size());
  for (std::size_t s = 0; s < shape.rates.size(); ++s) {
    std::exponential_distribution<double> gap(shape.rates[s]);
    for (double t = gap(rng); t < step_s; t += gap(rng)) {
      Request q;
      q.step = s;
      q.due_s = t;
      q.cls = cls(rng);
      q.row = row(rng);
      q.k = shape.ks[kk(rng)];
      q.deadline = loose(rng);
      schedule[s].push_back(q);
    }
  }
  topk::serve::ServiceConfig cfg;
  cfg.num_devices = 2;
  svc = std::make_unique<topk::serve::TopkService>(cfg);
  // Warm-up pass: every (row length, k) of the mix, a full micro-batch's
  // worth each, so plan caches, workspace pools and staging buffers fill.
  std::vector<std::future<QueryResult>> warm;
  for (const auto& rows : pool.rows) {
    for (const std::size_t k : shape.ks) {
      for (const std::vector<float>& row : rows) {
        warm.push_back(svc->submit(std::vector<float>(row), k));
      }
    }
  }
  for (auto& f : warm) {
    if (f.get().status != QueryStatus::kOk) {
      throw std::runtime_error("serve_open: warm-up query failed");
    }
  }
}

/// What the collector learns about one request.
struct Done {
  std::size_t step = 0;
  double due_s = 0.0;  // offset from the step start
  double lag_ms = 0.0;
  double submit_us = 0.0;
  double latency_ms = 0.0;  // from due time to resolution
  QueryResult res;
};

struct InFlight {
  Request req;
  Clock::time_point due, s0, s1;
  std::future<QueryResult> fut;
};

/// Samples of half a second of a step.  Figures are taken per window: wall
/// figures report the step's best window (interference from the rest of a
/// shared host only ever adds time, the same best-of convention the closed
/// loops use), the tail and the modeled share the median window.
struct Window {
  std::vector<double> latency_ms, in_service_ms, device_us;
};

struct StepStats {
  double seconds = 0.0;
  std::vector<Window> windows;
  std::vector<double> in_service_ms;
  std::map<std::string, std::vector<double>> algo_device_us, algo_wall_ms;
  std::uint64_t completed = 0;
  double backlog_end = 0.0;
};

struct Phase {
  std::vector<StepStats> steps;
  std::vector<double> lag_ms, submit_us, stats_us;
  double backlog_max = 0.0;
  topk::serve::ServiceStats before, after;
  double seconds = 0.0;
};

Phase run_phase(Serve& sv, Tracer& tr, Report& rep, double seconds) {
  Phase ph;
  ph.steps.resize(sv.shape.rates.size());
  const double step_s = seconds / static_cast<double>(sv.shape.rates.size());
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(step_s * 2.0));
  for (StepStats& st : ph.steps) {
    st.seconds = step_s;
    st.windows.resize(windows);
  }
  ph.before = sv.svc->stats();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;  // guarded by mu
  bool gen_done = false;       // guarded by mu
  std::vector<Done> done;      // collector-owned until join

  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || gen_done; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      Done d;
      d.step = f.req.step;
      d.due_s = f.req.due_s;
      d.res = f.fut.get();
      d.lag_ms = ms_between(f.due, f.s0);
      d.submit_us = us_between(f.s0, f.s1);
      d.latency_ms = d.lag_ms + d.res.wall_us / 1e3;
      const std::string cell =
          "serve n=2^" + std::to_string(sv.shape.log_ns[f.req.cls]) +
          " k=" + std::to_string(f.req.k);
      if (d.res.status == QueryStatus::kOk) {
        const std::string err =
            sv.pool.check(f.req.cls, f.req.row, f.req.k, d.res.topk);
        if (!err.empty()) d.res.error = cell + ": " + err;
        d.res.topk = {};  // checked; keep only the timings
      }
      if (tr.on()) {
        const auto end = f.s0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::micro>(
                                        d.res.wall_us));
        const std::uint64_t qid = tr.next_query();
        Span root;
        root.query = qid;
        root.name = "query";
        root.async = true;
        root.ts_us = tr.at_us(f.due);
        root.dur_us = us_between(f.due, std::max(end, f.s1));
        root.args = {{"n", double(sv.pool.rows[f.req.cls][0].size())},
                     {"k", double(f.req.k)},
                     {"batch_rows", double(d.res.batch_rows)},
                     {"device_us", d.res.device_us}};
        const std::uint64_t rid = tr.add(std::move(root));
        tr.wall("serve.submit", rid, qid, f.s0, f.s1, 1, true);
        tr.wall("serve.in_service", rid, qid, f.s0, end, 1, true);
      }
      done.push_back(std::move(d));
    }
  });

  std::atomic<bool> stop_monitor{false};
  std::vector<std::pair<Clock::time_point, double>> backlog;  // monitor-owned
  std::thread monitor([&] {
    while (!stop_monitor.load()) {
      const auto t0 = Clock::now();
      const topk::serve::ServiceStats s = sv.svc->stats();
      const auto t1 = Clock::now();
      ph.stats_us.push_back(us_between(t0, t1));
      backlog.emplace_back(
          t1, static_cast<double>(s.submitted - s.completed - s.rejected -
                                  s.timed_out - s.failed));
      tr.wall("serve.stats", 0, 0, t0, t1, 2);
      std::this_thread::sleep_until(t0 + kPollInterval);
    }
  });

  // The generator: this thread.
  const auto start = Clock::now();
  std::vector<Clock::time_point> step_end(sv.schedule.size());
  for (std::size_t s = 0; s < sv.schedule.size(); ++s) {
    const auto step_start =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(step_s * double(s)));
    for (const Request& q : sv.schedule[s]) {
      if (q.due_s >= step_s) break;
      std::vector<float> keys = sv.pool.rows[q.cls][q.row];
      InFlight f;
      f.req = q;
      f.due = step_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(q.due_s));
      std::this_thread::sleep_until(f.due);
      f.s0 = Clock::now();
      f.fut = sv.svc->submit(
          std::move(keys), q.k,
          q.deadline ? std::optional<std::chrono::microseconds>(kLooseDeadline)
                     : std::nullopt);
      f.s1 = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(f));
      }
      cv.notify_one();
    }
    step_end[s] = step_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(step_s));
    std::this_thread::sleep_until(step_end[s]);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    gen_done = true;
  }
  cv.notify_one();
  collector.join();
  stop_monitor = true;
  monitor.join();
  ph.seconds = ms_between(start, Clock::now()) / 1e3;
  ph.after = sv.svc->stats();

  for (const auto& [t, b] : backlog) {
    ph.backlog_max = std::max(ph.backlog_max, b);
    for (std::size_t s = 0; s < step_end.size(); ++s) {
      // The last poll before a step's end stands for its final backlog.
      if (t <= step_end[s] && (s == 0 || t > step_end[s - 1])) {
        ph.steps[s].backlog_end = b;
      }
    }
  }
  for (Done& d : done) {
    ++rep.attempted;
    StepStats& st = ph.steps[d.step];
    Window& win = st.windows[std::min(
        st.windows.size() - 1,
        static_cast<std::size_t>(d.due_s / step_s *
                                 static_cast<double>(st.windows.size())))];
    ph.lag_ms.push_back(d.lag_ms);
    ph.submit_us.push_back(d.submit_us);
    // A refused or failed request counts as missing the latency limit.
    const bool ok = d.res.status == QueryStatus::kOk && d.res.error.empty();
    win.latency_ms.push_back(ok ? d.latency_ms
                                : std::numeric_limits<double>::infinity());
    if (!ok) {
      rep.fail(d.res.error.empty()
                   ? std::string("serve: ") +
                         topk::serve::query_status_name(d.res.status)
                   : d.res.error);
      continue;
    }
    ++st.completed;
    st.in_service_ms.push_back(d.res.wall_us / 1e3);
    win.in_service_ms.push_back(d.res.wall_us / 1e3);
    win.device_us.push_back(d.res.device_us);
    const std::string algo(topk::algo_key(d.res.algo));
    st.algo_device_us[algo].push_back(d.res.device_us);
    st.algo_wall_ms[algo].push_back(d.res.wall_us / 1e3);
  }
  return ph;
}

/// `stat` of each non-empty window of a step.
template <typename F>
std::vector<double> per_window(const StepStats& st, F stat) {
  std::vector<double> v;
  for (const Window& w : st.windows) {
    if (!w.latency_ms.empty()) v.push_back(stat(w));
  }
  return v;
}

double lowest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

void end_to_end(const Serve& sv, const Phase& ph, Report& rep) {
  const StepStats& top = ph.steps.back();
  const double tail_pct = sv.shape.tail_pct;
  const auto tail = [&](const Window& w) {
    if (count_beyond(w.latency_ms.size(), tail_pct) < 10) {
      std::cout << "serve_open: fewer than 10 samples beyond p" << tail_pct
                << " in a window\n";
    }
    return percentile(w.latency_ms, tail_pct);
  };
  rep.set("modeled_us_geomean", median(per_window(top, [](const Window& w) {
            return geomean(w.device_us);
          })));
  rep.set("wall_ms_geomean", lowest(per_window(top, [](const Window& w) {
            return geomean(w.in_service_ms);
          })));
  rep.set("wall_qps", static_cast<double>(top.completed) / top.seconds);
  rep.set("latency_p50_ms", lowest(per_window(top, [](const Window& w) {
            return percentile(w.latency_ms, 50.0);
          })));
  rep.set("latency_tail_ms", median(per_window(top, tail)));
  double sustained = 0.0;
  for (std::size_t s = 0; s < ph.steps.size(); ++s) {
    const StepStats& st = ph.steps[s];
    const double step_tail = median(per_window(st, tail));
    const bool meets =
        step_tail <= sv.shape.latency_limit_ms &&
        st.backlog_end <= sv.shape.rates[s] * sv.shape.latency_limit_ms / 1e3;
    std::cout << "serve_open: step " << sv.shape.rates[s] << "/s p"
              << tail_pct << " " << step_tail
              << " ms, backlog at end " << st.backlog_end
              << (meets ? " (meets the limit)\n" : " (misses the limit)\n");
    if (!meets) break;
    sustained = static_cast<double>(st.completed) / st.seconds;
  }
  rep.set("sustained_qps", sustained);
  const double lag_tail = percentile(ph.lag_ms, 99.0);
  if (lag_tail > sv.shape.max_lag_ms) {
    throw std::runtime_error(
        "serve_open: invalid run, the generator fell behind (p99 lag " +
        std::to_string(lag_tail) +
        " ms > " + std::to_string(sv.shape.max_lag_ms) + " ms)");
  }
}

void per_layer(const Serve& sv, const Phase& ph, Report& rep) {
  const StepStats& top = ph.steps.back();
  const double tail_pct = sv.shape.tail_pct;
  rep.set("serve.submit_us", median(ph.submit_us));
  rep.set("serve.in_service_ms_p50", percentile(top.in_service_ms, 50.0));
  rep.set("serve.in_service_ms_tail", percentile(top.in_service_ms, tail_pct));
  rep.set("serve.generator_lag_ms", percentile(ph.lag_ms, tail_pct));
  rep.set("serve.stats_us", median(ph.stats_us));
  rep.set("serve.backlog_max", ph.backlog_max);
  serve_layer_metrics(ph.before, ph.after, ph.seconds, rep);
  for (const auto& [algo, v] : top.algo_device_us) {
    rep.set("topk." + algo + ".modeled_us", geomean(v));
    rep.set("topk." + algo + ".wall_ms", geomean(top.algo_wall_ms.at(algo)));
  }
  core_probes(sv.shape.log_ns, sv.shape.ks, sv.svc->config().device_spec,
              rep);
}

}  // namespace

Report run_serve_open(const Options& opt) {
  Report rep;
  Tracer tr(false);
  std::unique_ptr<Serve> sv = timed_setup<Serve>(
      setup_reps(opt), rep, [&] { return std::make_unique<Serve>(opt); });
  const Phase ph = timed_phase(
      opt, tr, rep, "latency_p50_ms",
      [&](double s) { return run_phase(*sv, tr, rep, s); },
      [&](const Phase& p, Report& r) { end_to_end(*sv, p, r); });
  if (opt.trace) {
    per_layer(*sv, ph, rep);
    std::uint64_t queries = 0;
    for (const StepStats& st : ph.steps) {
      for (const Window& w : st.windows) queries += w.latency_ms.size();
    }
    finish_trace(tr, rep, queries, opt);
  }
  sv->svc->shutdown();
  return rep;
}

}  // namespace perfbench
