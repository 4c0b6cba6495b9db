#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace topk::bench {

RunResult run_algo(const simgpu::DeviceSpec& spec,
                   std::span<const float> data, std::size_t batch,
                   std::size_t n, std::size_t k, Algo algo, bool verify) {
  simgpu::Device dev(spec);
  auto in = dev.alloc<float>(batch * n);
  std::copy(data.begin(), data.end(), in.data());
  auto out_vals = dev.alloc<float>(batch * k);
  auto out_idx = dev.alloc<std::uint32_t>(batch * k);

  dev.clear_events();
  const auto t0 = std::chrono::steady_clock::now();
  const ExecutionPlan plan = plan_select(spec, batch, n, k, algo);
  simgpu::Workspace ws(dev);
  run_select(dev, plan, ws, in, out_vals, out_idx);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const simgpu::CostModel model(spec);
  r.model_us = model.total_us(dev.events());
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      r.kernel_bytes += ke->stats.bytes_total();
      ++r.kernels;
    }
  }
  if (verify) {
    for (std::size_t b = 0; b < batch && r.verified; ++b) {
      SelectResult res;
      res.values.assign(out_vals.data() + b * k, out_vals.data() + (b + 1) * k);
      res.indices.assign(out_idx.data() + b * k, out_idx.data() + (b + 1) * k);
      const std::string err =
          verify_topk(std::span<const float>(data.data() + b * n, n), k, res);
      if (!err.empty()) {
        std::cerr << "VERIFY FAILED " << algo_name(algo) << " n=" << n
                  << " k=" << k << " batch=" << batch << ": " << err << "\n";
        r.verified = false;
      }
    }
  }
  return r;
}

BenchScale BenchScale::from_env() {
  BenchScale s;  // default max_log_n raised 20 -> 22 with the tile fast path
  if (const char* v = std::getenv("TOPK_MAX_LOG_N")) {
    // Single-device sweeps are bounded by DeviceSpec::max_select_elems
    // (plan_select rejects anything larger with a pointer at the sharded
    // path); only topk::shard's host-side coordinator takes N past this.
    s.max_log_n = std::clamp(std::atoi(v), 10, 28);
  }
  if (const char* v = std::getenv("TOPK_VERIFY")) {
    s.verify = std::atoi(v) != 0;
  }
  return s;
}

CsvWriter::CsvWriter(std::string columns) : columns_(std::move(columns)) {}

void CsvWriter::row(const std::string& line) {
  if (!header_printed_) {
    std::cout << columns_ << "\n";
    header_printed_ = true;
  }
  std::cout << line << "\n";
}

std::string fmt_us(double us) {
  std::ostringstream os;
  if (us >= 1e5) {
    os << us / 1e3 << "ms";
  } else {
    os << us << "us";
  }
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonRow& JsonRow::field(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": " + json;
  return *this;
}

void JsonReport::add_row(const std::string& array, JsonRow row) {
  for (auto& [name, rows] : arrays_) {
    if (name == array) {
      rows.push_back(std::move(row));
      return;
    }
  }
  arrays_.push_back({array, {std::move(row)}});
}

bool JsonReport::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\n  \"meta\": " << meta_.str();
  for (const auto& [name, rows] : arrays_) {
    out << ",\n  " << json_string(name) << ": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    " << rows[i].str() << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  ]";
  }
  out << "\n}\n";
  out.close();
  return !out.fail();
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

}  // namespace topk::bench
