#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::uint64_t Tracer::next_query() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_query_++;
}

std::uint64_t Tracer::add(Span s) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  s.id = next_id_++;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t Tracer::wall(std::string name, std::uint64_t parent,
                           std::uint64_t query, Clock::time_point t0,
                           Clock::time_point t1, int tid, bool async) {
  if (!enabled_) return 0;
  Span s;
  s.parent = parent;
  s.query = query;
  s.name = std::move(name);
  s.tid = tid;
  s.async = async;
  s.ts_us = at_us(t0);
  s.dur_us = us_between(t0, t1);
  return add(std::move(s));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.pid == 1 && s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans_) {
    if (s.pid != 1) continue;
    // Covered = length of the union of the children's intervals, clipped to
    // the span.
    iv.clear();
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const double b = std::max(c->ts_us, s.ts_us);
        const double e = std::min(c->ts_us + c->dur_us, s.ts_us + s.dur_us);
        if (e > b) iv.emplace_back(b, e);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_b = 0.0;
    double cur_e = -1.0;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const std::size_t dot = s.name.find('.');
    const std::string layer =
        dot == std::string::npos ? "bench" : s.name.substr(0, dot);
    self[layer] += std::max(0.0, s.dur_us - covered) / 1e3;
  }
  return self;
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_args(std::ostream& os, const Span& s) {
  os << "\"args\":{\"span_id\":" << s.id << ",\"parent\":" << s.parent
     << ",\"query\":" << s.query;
  for (const auto& [k, v] : s.args) {
    os << ",";
    write_escaped(os, k);
    os << ":" << v;
  }
  os << "}";
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os.precision(15);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"wall clock (benchmark spans)\"}},\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"modeled device time (CostModel)\"}}";
  for (const Span& s : spans_) {
    const std::string cat = s.name.substr(0, s.name.find('.'));
    if (s.async) {
      for (const bool begin : {true, false}) {
        os << ",\n{\"name\":";
        write_escaped(os, s.name);
        os << ",\"cat\":";
        write_escaped(os, cat);
        os << ",\"ph\":\"" << (begin ? 'b' : 'e') << "\",\"id\":" << s.query
           << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid
           << ",\"ts\":" << (begin ? s.ts_us : s.ts_us + s.dur_us) << ",";
        write_args(os, s);
        os << "}";
      }
      continue;
    }
    os << ",\n{\"name\":";
    write_escaped(os, s.name);
    os << ",\"cat\":";
    write_escaped(os, cat);
    os << ",\"ph\":\"X\",\"pid\":" << s.pid << ",\"tid\":" << s.tid
       << ",\"ts\":" << s.ts_us << ",\"dur\":" << s.dur_us << ",";
    write_args(os, s);
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
