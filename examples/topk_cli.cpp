// Interactive explorer: run any top-K algorithm on a generated workload and
// print the modeled device timeline plus summary counters.
//
//   $ ./examples/topk_cli [algo] [log2_n] [k] [distribution] [batch]
//   $ ./examples/topk_cli air 20 2048 adversarial 1
//   $ ./examples/topk_cli auto 20 256 uniform 8     # dispatch planner picks
//   $ ./examples/topk_cli auto 24 256 uniform 1 --shards auto   # scale out
//   $ ./examples/topk_cli auto 22 256 uniform 1 --recall 0.9 --explain
//
// Algorithms: auto, air, grid, radixselect, warp, block, bitonic, quick,
//             bucket, sample, sort, bucket-approx.  Distributions: uniform,
//             normal, adversarial.  With "auto" the recommender chooses (and the
//             chosen algorithm is printed).
//
// `--shards N|auto` routes the query through the multi-device shard
// coordinator (a 4-device pool; `auto` lets recommend_shards pick) and
// prints the coordinator's phase breakdown plus per-shard modeled times
// instead of the single-device timeline.  Requires batch == 1.
//
// `--recall R` sets the recall SLO (WorkloadHints::recall_target): below
// 1.0 the recommender may route the bucketed approximate tier, and the
// result is then scored by measured recall against the exact reference
// instead of the exactness verifier.  `--explain` prints the recommender's
// per-candidate modeled costs (and, with a sub-1.0 SLO, the approximate
// tier's chunk shape and analytic expected recall) before running.
//
// `--dtype {f32,f16,bf16,i32,u32}` runs the query with typed keys (the
// generated floats are converted; i32/u32 scale them into the integer
// domain) through the typed select path, verifying against an exact host
// reference in the key's own ordinal domain.  `--explain` then shows the
// recommender race filtered by dtype: candidates whose registry row lacks
// the key type are listed as filtered instead of priced.  `--payload`
// attaches a u32 payload (the key's global position) and checks the
// winners' entries ride along.

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "data/recall.hpp"
#include "shard/shard.hpp"
#include "simgpu/simgpu.hpp"
#include "simgpu/timeline.hpp"
#include "topk/bucket_approx.hpp"
#include "topk/key_codec.hpp"

namespace {

int usage() {
  std::cerr << "usage: topk_cli [algo] [log2_n] [k] "
               "[uniform|normal|adversarial] [batch] [--shards N|auto] "
               "[--recall R] [--dtype T] [--payload] [--explain]\n"
               "  algos: auto air grid radixselect warp block bitonic quick "
               "bucket sample sort stream-radix bucket-approx\n"
               "  dtypes: f32 f16 bf16 i32 u32\n";
  return 2;
}

/// The monotone radix ordinal of one key, from its storage bits — the
/// domain typed results are verified in (total order, exact for every
/// dtype including NaN patterns).
std::uint64_t key_ordinal(topk::KeyType t, std::uint32_t bits) {
  switch (t) {
    case topk::KeyType::kF16:
      return topk::RadixTraits<topk::half>::to_radix(
          topk::half::from_bits(static_cast<std::uint16_t>(bits)));
    case topk::KeyType::kBF16:
      return topk::RadixTraits<topk::bf16>::to_radix(
          topk::bf16::from_bits(static_cast<std::uint16_t>(bits)));
    case topk::KeyType::kI32:
      return topk::RadixTraits<std::int32_t>::to_radix(
          std::bit_cast<std::int32_t>(bits));
    default:
      return bits;  // u32: identity
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool sharded = false;
  std::size_t shards = 0;
  bool explain = false;
  bool payload = false;
  double recall_target = 1.0;
  topk::KeyType dtype = topk::KeyType::kF32;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dtype") {
      if (i + 1 >= argc) return usage();
      const auto parsed = topk::parse_key_type(argv[++i]);
      if (!parsed) return usage();
      dtype = *parsed;
    } else if (arg == "--payload") {
      payload = true;
    } else if (arg == "--shards") {
      if (i + 1 >= argc) return usage();
      sharded = true;
      const std::string v = argv[++i];
      if (v != "auto") {
        shards = std::strtoull(v.c_str(), nullptr, 10);
        if (shards == 0) return usage();
      }
    } else if (arg == "--recall") {
      if (i + 1 >= argc) return usage();
      recall_target = std::strtod(argv[++i], nullptr);
      if (!(recall_target > 0.0) || recall_target > 1.0) {
        std::cerr << "--recall must be in (0, 1]\n";
        return 2;
      }
    } else if (arg == "--explain") {
      explain = true;
    } else {
      pos.push_back(arg);
    }
  }
  std::string algo_key = pos.size() > 0 ? pos[0] : "air";
  const int log_n = pos.size() > 1 ? std::atoi(pos[1].c_str()) : 20;
  const std::size_t k =
      pos.size() > 2 ? std::strtoull(pos[2].c_str(), nullptr, 10) : 64;
  const std::string dist_key = pos.size() > 3 ? pos[3] : "uniform";
  const std::size_t batch =
      pos.size() > 4 ? std::strtoull(pos[4].c_str(), nullptr, 10) : 1;

  const auto algo = topk::parse_algo(algo_key);
  if (!algo || log_n < 1 || log_n > 26 || k == 0) {
    return usage();
  }
  topk::data::DistributionSpec dist;
  if (dist_key == "uniform") {
    dist = {topk::data::Distribution::kUniform, 0};
  } else if (dist_key == "normal") {
    dist = {topk::data::Distribution::kNormal, 0};
  } else if (dist_key == "adversarial") {
    dist = {topk::data::Distribution::kAdversarial, 20};
  } else {
    return usage();
  }

  const std::size_t n = std::size_t{1} << log_n;

  if (sharded) {
    if (batch != 1) {
      std::cerr << "--shards requires batch == 1\n";
      return 2;
    }
    if (dtype != topk::KeyType::kF32 || payload) {
      std::cerr << "--shards runs f32 keys here; use "
                   "shard::Coordinator::select_typed for typed/key-value "
                   "sharded queries\n";
      return 2;
    }
    const auto values = topk::data::generate(dist, n, 0xC11);
    topk::shard::ShardConfig cfg;
    cfg.devices = 4;
    cfg.algo = *algo;  // kAuto recommends at the per-shard shape
    topk::shard::Coordinator coord(cfg);
    const topk::shard::ShardedResult r = coord.select(values, k, shards);
    const std::string err = topk::verify_topk(values, k, r.topk);
    if (!err.empty()) {
      std::cerr << "verification FAILED: " << err << "\n";
      return 1;
    }
    std::cout << "sharded " << topk::algo_name(r.shard_algo) << "  n=2^"
              << log_n << "  k=" << k << "  " << dist.name() << "  shards="
              << r.shards << " over " << r.devices << " device(s)\n";
    std::cout << "verified OK | modeled " << r.timing.total_us
              << " us = select " << r.timing.select_us << " + gather "
              << r.timing.gather_us << " + merge " << r.timing.merge_us
              << " (" << topk::shard::merge_site_name(r.merge) << ") + output "
              << r.timing.output_us << "\n";
    for (std::size_t s = 0; s < r.shard_us.size(); ++s) {
      std::cout << "  shard " << s << " (device " << s % r.devices
                << "): " << r.shard_us[s] << " us\n";
    }
    std::cout << "plan cache: " << coord.plan_cache_hits() << " hits / "
              << coord.plan_cache_misses() << " misses\n";
    return 0;
  }

  // Resolve "auto" through the dispatch planner first so the max_k check
  // (and the banner) name the algorithm that actually runs.
  const bool was_auto = *algo == topk::Algo::kAuto;
  const topk::Algo chosen =
      topk::resolve_algo(*algo, n, k, batch, recall_target, dtype);
  if (was_auto) {
    std::cout << "auto -> " << topk::algo_name(chosen)
              << " (recommended for n=2^" << log_n << " k=" << k
              << " batch=" << batch;
    if (dtype != topk::KeyType::kF32) {
      std::cout << " dtype=" << topk::key_type_name(dtype);
    }
    if (recall_target < 1.0) std::cout << " recall>=" << recall_target;
    std::cout << ")\n";
  }
  if (!topk::algo_supports_dtype(chosen, dtype)) {
    std::cerr << topk::algo_name(chosen) << " does not support dtype "
              << topk::key_type_name(dtype) << "\n";
    return 2;
  }
  if (explain) {
    // Per-candidate modeled costs the recommender's race saw, cheapest
    // first, with the winner marked; candidates the dtype filter removed
    // are listed unpriced so the race's shape is visible.
    struct Row {
      topk::Algo algo;
      double us;
    };
    std::vector<Row> rows;
    std::vector<topk::Algo> cands(topk::all_algorithms().begin(),
                                  topk::all_algorithms().end());
    cands.push_back(topk::Algo::kStreamRadix);
    std::vector<topk::Algo> filtered;
    for (const topk::Algo cand : cands) {
      if (k > topk::max_k(cand, n)) continue;
      if (!topk::algo_supports_dtype(cand, dtype)) {
        filtered.push_back(cand);
        continue;
      }
      rows.push_back(
          {cand, topk::estimated_batch_cost_us(cand, batch, n, k,
                                               recall_target)});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.us < b.us; });
    std::cout << "modeled per-candidate costs (batch=" << batch
              << " dtype=" << topk::key_type_name(dtype) << "):\n";
    for (const Row& r : rows) {
      std::cout << "  " << (r.algo == chosen ? "-> " : "   ")
                << topk::algo_name(r.algo) << ": " << r.us << " us";
      if (r.algo == topk::Algo::kBucketApprox) {
        topk::BucketApproxOptions bopt;
        bopt.recall_target = recall_target;
        const auto shape =
            topk::bucket_approx_configure(n, k, batch, bopt,
                                          simgpu::DeviceSpec{});
        std::cout << "  (chunks=" << shape.chunks << " keep=" << shape.keep
                  << " expected recall=" << shape.expected_recall
                  << (recall_target >= 1.0 ? ", exact" : "") << ")";
      }
      std::cout << "\n";
    }
    for (const topk::Algo f : filtered) {
      std::cout << "   " << topk::algo_name(f) << ": filtered (no "
                << topk::key_type_name(dtype) << " support)\n";
    }
  }
  if (k > topk::max_k(chosen, n)) {
    std::cerr << "k=" << k << " unsupported by "
              << topk::algo_name(chosen) << " (max "
              << topk::max_k(chosen, n) << ")\n";
    return 2;
  }

  const auto values = topk::data::generate(dist, batch * n, 0xC11);
  simgpu::Device dev;
  topk::SelectOptions opt;
  opt.recall_target = recall_target;

  // Typed runs convert the generated floats into the requested key type
  // (i32/u32 reinterpret the float bits — a deterministic, order-scrambling
  // integer workload) and go through the typed select path; `row_bits`
  // keeps each key's storage pattern for ordinal-domain verification.
  const bool typed = dtype != topk::KeyType::kF32 || payload;
  std::vector<topk::half> keys_f16;
  std::vector<topk::bf16> keys_bf16;
  std::vector<std::int32_t> keys_i32;
  std::vector<std::uint32_t> keys_u32;
  std::vector<std::uint32_t> row_bits;
  std::vector<std::uint32_t> ids;
  std::vector<float> decoded;  ///< exact float value per typed key
  std::vector<topk::SelectResult> results;
  if (typed) {
    const std::size_t total = batch * n;
    row_bits.resize(total);
    decoded.resize(total);
    topk::KeyView kv;
    switch (dtype) {
      case topk::KeyType::kF32:
        for (std::size_t i = 0; i < total; ++i) {
          row_bits[i] = std::bit_cast<std::uint32_t>(values[i]);
          decoded[i] = values[i];
        }
        kv = topk::KeyView::of(std::span<const float>(values));
        break;
      case topk::KeyType::kF16:
        keys_f16.reserve(total);
        for (std::size_t i = 0; i < total; ++i) {
          keys_f16.emplace_back(values[i]);
          row_bits[i] = keys_f16.back().bits();
          decoded[i] = static_cast<float>(keys_f16.back());
        }
        kv = topk::KeyView::of(std::span<const topk::half>(keys_f16));
        break;
      case topk::KeyType::kBF16:
        keys_bf16.reserve(total);
        for (std::size_t i = 0; i < total; ++i) {
          keys_bf16.emplace_back(values[i]);
          row_bits[i] = keys_bf16.back().bits();
          decoded[i] = static_cast<float>(keys_bf16.back());
        }
        kv = topk::KeyView::of(std::span<const topk::bf16>(keys_bf16));
        break;
      case topk::KeyType::kI32:
        keys_i32.resize(total);
        for (std::size_t i = 0; i < total; ++i) {
          keys_i32[i] = std::bit_cast<std::int32_t>(values[i]);
          row_bits[i] = std::bit_cast<std::uint32_t>(keys_i32[i]);
          decoded[i] = static_cast<float>(keys_i32[i]);
        }
        kv = topk::KeyView::of(std::span<const std::int32_t>(keys_i32));
        break;
      case topk::KeyType::kU32:
        keys_u32.resize(total);
        for (std::size_t i = 0; i < total; ++i) {
          keys_u32[i] = std::bit_cast<std::uint32_t>(values[i]);
          row_bits[i] = keys_u32[i];
          decoded[i] = static_cast<float>(keys_u32[i]);
        }
        kv = topk::KeyView::of(std::span<const std::uint32_t>(keys_u32));
        break;
    }
    topk::PayloadView pv;
    if (payload) {
      ids.resize(total);
      for (std::size_t i = 0; i < total; ++i) {
        ids[i] = static_cast<std::uint32_t>(i);
      }
      pv = topk::PayloadView::of(std::span<const std::uint32_t>(ids));
    }
    results = topk::select_batch(dev, kv, batch, n, k, chosen, opt, pv);
  } else {
    results = topk::select_batch(dev, values, batch, n, k, chosen, opt);
  }

  // Verify every problem — exactly, unless the run is genuinely
  // approximate, where the score is measured recall against the exact
  // reference.  Typed exact runs verify in the key's ordinal domain
  // (total order, exact for every dtype including NaN patterns).
  const bool approximate =
      chosen == topk::Algo::kBucketApprox && recall_target < 1.0;
  double recall_sum = 0.0;
  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const float> row(values.data() + b * n, n);
    if (approximate) {
      const std::span<const float> score_row =
          typed ? std::span<const float>(decoded).subspan(b * n, n) : row;
      recall_sum += topk::data::recall_at_k(
          results[b].values, topk::data::exact_topk_values(score_row, k));
      continue;
    }
    if (typed) {
      const topk::SelectResult& r = results[b];
      std::vector<std::uint64_t> ord(n);
      for (std::size_t i = 0; i < n; ++i) {
        ord[i] = key_ordinal(dtype, row_bits[b * n + i]);
      }
      std::vector<bool> seen(n, false);
      std::vector<std::uint64_t> got(k);
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint32_t idx = r.indices[i];
        if (idx >= n || seen[idx]) {
          std::cerr << "verification FAILED (problem " << b
                    << "): bad/duplicate index " << idx << "\n";
          return 1;
        }
        seen[idx] = true;
        const std::uint32_t bits =
            dtype == topk::KeyType::kF32
                ? std::bit_cast<std::uint32_t>(r.values[i])
                : r.values_bits[i];
        got[i] = key_ordinal(dtype, bits);
        if (got[i] != ord[idx]) {
          std::cerr << "verification FAILED (problem " << b
                    << "): value/index mismatch at position " << i << "\n";
          return 1;
        }
        if (payload &&
            r.payload[i] != static_cast<std::uint64_t>(b * n + idx)) {
          std::cerr << "verification FAILED (problem " << b
                    << "): payload mismatch at position " << i << "\n";
          return 1;
        }
      }
      std::vector<std::uint64_t> want = ord;
      std::nth_element(want.begin(), want.begin() + static_cast<long>(k) - 1,
                       want.end());
      want.resize(k);
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      if (got != want) {
        std::cerr << "verification FAILED (problem " << b
                  << "): top-k ordinal multiset differs\n";
        return 1;
      }
      continue;
    }
    const std::string err = topk::verify_topk(row, k, results[b]);
    if (!err.empty()) {
      std::cerr << "verification FAILED (problem " << b << "): " << err
                << "\n";
      return 1;
    }
  }

  const simgpu::CostModel model(dev.spec());
  const simgpu::Timeline tl = model.simulate(dev.events());
  std::uint64_t bytes = 0, kernels = 0;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      bytes += ke->stats.bytes_total();
      ++kernels;
    }
  }

  std::cout << topk::algo_name(chosen) << "  n=2^" << log_n
            << "  k=" << k << "  batch=" << batch << "  " << dist.name()
            << "  (" << dev.spec().name << " model)\n";
  if (approximate) {
    std::cout << "measured recall "
              << recall_sum / static_cast<double>(batch) << " (target >= "
              << recall_target << ")";
  } else {
    std::cout << "verified OK";
  }
  std::cout << " | modeled " << tl.total_us << " us | " << kernels
            << " kernels | " << bytes / 1024.0 / 1024.0
            << " MiB device traffic\n\n";
  std::cout << simgpu::render_timeline(tl, 90);
  return 0;
}
