#pragma once

// In-memory span recorder for the traced run.  Spans are recorded by the
// benchmark's own code around each call into a library layer, kept in memory,
// and written at exit as Chrome trace-event JSON (Perfetto opens it).
//
//  - pid 1 holds wall-clock spans.  Each query has a root span ("query") with
//    an id; its children are the layer calls ("core.run_select",
//    "serve.submit", ...).  Spans of one query share `query`.
//  - pid 2 holds modeled device time (CostModel timelines), laid end to end
//    on a modeled clock; those spans are excluded from wall self time.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  std::uint64_t query = 0;   ///< 0 for spans outside any query
  std::string name;
  int pid = 1;
  int tid = 1;
  /// Overlapping spans on one lane (concurrent serving queries) are written
  /// as async begin/end pairs keyed by `query` instead of complete events.
  bool async = false;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool on() const { return enabled_; }
  /// Switch recording on or off; call only while no other thread records.
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] double at_us(Clock::time_point t) const {
    return us_between(epoch_, t);
  }

  /// Fresh query id (never 0).
  std::uint64_t next_query();

  /// Record a span; assigns and returns its id.  Thread-safe.  No-op
  /// returning 0 when tracing is off.
  std::uint64_t add(Span s);

  /// Record a wall-clock span from two time points.
  std::uint64_t wall(std::string name, std::uint64_t parent,
                     std::uint64_t query, Clock::time_point t0,
                     Clock::time_point t1, int tid = 1, bool async = false);

  [[nodiscard]] std::size_t size() const;

  /// Self time per layer (name prefix before the first '.'; the "query" and
  /// "setup" roots count as the "bench" layer) summed over wall spans, ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Write every span as Chrome trace-event JSON.
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;
  std::uint64_t next_query_ = 1;
};

}  // namespace perfbench
