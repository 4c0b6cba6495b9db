#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/partial_sort_common.hpp"
#include "topk/shard_merge.hpp"
#include "topk/warp_scan.hpp"
#include "topk/warp_select.hpp"

namespace topk {

/// Bucketed approximate top-k ("Approximate Top-k for Increased
/// Parallelism", PAPERS.md): split each row into C contiguous chunks, keep
/// the q smallest per chunk in one embarrassingly-parallel pass, then refine
/// the C*q-candidate union down to k in a single shared-memory sort.  The
/// exact tiers pay a data-dependent multi-pass cost at large N; this tier
/// reads the input once at full device occupancy and its only error mode is
/// a true top-k element hiding beyond its chunk's q-th rank.
///
/// Exactness boundary: a chunk's q smallest are found exactly (each warp
/// keeps the q smallest of its sub-range; merging warp lists keeps the q
/// smallest of the union — the shard-merge tournament argument).  So when
/// q >= k every chunk retains any of its globally top-k elements, the
/// candidate union is a superset of the true top-k, and the refine emits the
/// exact answer: recall_target = 1.0 degrades to an exact algorithm by
/// construction, not by routing convention.
struct BucketApproxOptions {
  /// Expected-recall floor the chunk/keep shape is sized for.  Must be in
  /// (0, 1]; 1.0 forces keep = k, which is exact (see above).
  double recall_target = 1.0;
  /// Override the chunk count C (rounded up to a power of two); 0 = derive
  /// from device saturation.  Exposed for tests and the bench frontier.
  std::size_t buckets = 0;
  /// Override the per-chunk keep q; 0 = smallest q whose modeled recall
  /// clears recall_target (plus a small guard band).
  std::size_t keep = 0;
};

/// The (C, q, W) shape the planner picked, plus the analytic recall it
/// promises.  Split out of the plan so the recommender can price the tier
/// without building one.
struct BucketApproxShape {
  std::size_t chunks = 1;       ///< C: contiguous chunks per row
  std::size_t keep = 0;         ///< q: candidates kept per chunk
  int warps = 1;                ///< W: warps per scan block
  double expected_recall = 1.0; ///< analytic E[|approx ∩ exact|] / k
};

namespace bucket_approx_detail {

/// Binomial(k, 1/chunks) pmf in log space (std::lgamma), so k = 2048 with
/// small chunk counts cannot underflow the recurrence the way a naive
/// f(0) = (1-p)^k seed does.
inline std::vector<double> chunk_hit_pmf(std::size_t k, std::size_t chunks) {
  std::vector<double> f(k + 1);
  const double p = 1.0 / static_cast<double>(chunks);
  const double lp = std::log(p);
  const double lq = std::log1p(-p);
  const double lgk = std::lgamma(static_cast<double>(k) + 1.0);
  for (std::size_t x = 0; x <= k; ++x) {
    const auto xd = static_cast<double>(x);
    const auto kd = static_cast<double>(k);
    f[x] = std::exp(lgk - std::lgamma(xd + 1.0) - std::lgamma(kd - xd + 1.0) +
                    xd * lp + (kd - xd) * lq);
  }
  return f;
}

}  // namespace bucket_approx_detail

/// Analytic expected recall of keeping the `keep` smallest of each of
/// `chunks` equal chunks: with the true top-k spread uniformly over chunk
/// positions (all three paper generators draw positions iid), the count X
/// landing in one chunk is Binomial(k, 1/chunks) and the chunk contributes
/// min(X, keep) captured elements, so
///   R = (chunks / k) * E[min(X, keep)].
/// keep >= k is exactly 1.0 (superset argument in the header comment);
/// splitting a chunk across warps only ever raises the captured count, so
/// this is a floor regardless of W.
inline double bucket_approx_expected_recall(std::size_t k, std::size_t chunks,
                                            std::size_t keep) {
  if (k == 0 || chunks == 0 || keep == 0) {
    throw std::invalid_argument(
        "bucket_approx_expected_recall: k, chunks, keep must be > 0");
  }
  if (keep >= k) return 1.0;
  if (chunks == 1) {
    return static_cast<double>(keep) / static_cast<double>(k);
  }
  const auto f = bucket_approx_detail::chunk_hit_pmf(k, chunks);
  double captured = 0.0;
  for (std::size_t x = 0; x <= k; ++x) {
    captured += static_cast<double>(std::min(x, keep)) * f[x];
  }
  return std::clamp(
      static_cast<double>(chunks) * captured / static_cast<double>(k), 0.0,
      1.0);
}

/// Pick (C, q, W) for a problem shape and recall target.
///
///   - C: enough blocks to saturate the device at kMaxWarpsPerBlock warps
///     each (ceil(saturating_warps / kMaxWarpsPerBlock) blocks across the
///     batch), rounded up to a power of two.  Halved while a chunk cannot
///     seed q candidates or the refine sort outgrows shared memory.
///   - q: smallest value in [ceil(k/C), k] whose modeled recall clears
///     recall_target + 0.02 — the guard band keeps measured recall from
///     straddling the SLO on sampling noise.  q = k iff recall_target = 1.0.
///   - W: warps per block, capped by device saturation and by the chunk
///     being wide enough to feed every warp at least one round.
inline BucketApproxShape bucket_approx_configure(
    std::size_t n, std::size_t k, std::size_t batch,
    const BucketApproxOptions& opt, const simgpu::DeviceSpec& spec,
    std::size_t pair_bytes = sizeof(float) + sizeof(std::uint32_t)) {
  if (!(opt.recall_target > 0.0) || opt.recall_target > 1.0) {
    throw std::invalid_argument(
        "bucket_approx: recall_target must be in (0, 1]");
  }
  const double target = std::min(1.0, opt.recall_target + 0.02);
  const auto max_w = static_cast<std::size_t>(simgpu::kMaxWarpsPerBlock);
  const std::size_t sat_warps =
      spec.sm_count * spec.saturating_warps_per_sm;
  const std::size_t sat_blocks = (sat_warps + max_w - 1) / max_w;
  std::size_t chunks = opt.buckets != 0
                           ? next_pow2(opt.buckets)
                           : next_pow2((sat_blocks + batch - 1) / batch);
  chunks = std::min(chunks, next_pow2(n));
  for (;;) {
    std::size_t keep;
    const std::size_t keep_floor = (k + chunks - 1) / chunks;
    if (opt.keep != 0) {
      keep = std::clamp(opt.keep, keep_floor, k);
    } else if (target >= 1.0) {
      keep = k;  // only q = k is analytically exact
    } else {
      keep = keep_floor;
      // The pmf depends on (k, chunks) only, so walk q upward against
      // prefix sums instead of re-integrating per candidate.
      if (keep < k && chunks > 1) {
        const auto f = bucket_approx_detail::chunk_hit_pmf(k, chunks);
        double sum_xf = 0.0;  // sum of x*f(x) for x <= keep
        double cdf = 0.0;     // sum of f(x) for x <= keep
        for (std::size_t x = 0; x <= keep; ++x) {
          sum_xf += static_cast<double>(x) * f[x];
          cdf += f[x];
        }
        const auto kd = static_cast<double>(k);
        const auto cd = static_cast<double>(chunks);
        while (keep < k) {
          const double captured =
              sum_xf + static_cast<double>(keep) * (1.0 - cdf);
          if (cd * captured / kd >= target) break;
          ++keep;
          sum_xf += static_cast<double>(keep) * f[keep];
          cdf += f[keep];
        }
      } else if (keep < k && chunks == 1) {
        keep = std::min(
            k, static_cast<std::size_t>(
                   std::ceil(target * static_cast<double>(k))));
      }
    }
    const bool fits_chunk = n / chunks >= keep;
    const bool fits_shared =
        next_pow2(chunks * keep) * pair_bytes <= spec.shared_mem_per_block;
    if ((fits_chunk && fits_shared) || chunks == 1) {
      if (chunks == 1 && !fits_shared) {
        throw std::invalid_argument(
            "bucket_approx: k too large for this device's shared memory");
      }
      const std::size_t chunk_len = std::max<std::size_t>(1, n / chunks);
      const std::size_t warp_cap =
          (chunk_len + simgpu::kWarpSize - 1) / simgpu::kWarpSize;
      const std::size_t warp_fill =
          (sat_warps + batch * chunks - 1) / (batch * chunks);
      const std::size_t warps =
          std::clamp<std::size_t>(std::min(warp_fill, warp_cap), 1, max_w);
      return BucketApproxShape{chunks, keep, static_cast<int>(warps),
                               bucket_approx_expected_recall(k, chunks, keep)};
    }
    chunks /= 2;
  }
}

/// Execution plan: one saturating scan pass (batch*C blocks of W warps, each
/// chunk reduced to its q smallest), then — unless C*q == k, where the
/// concatenated chunk lists already have output shape — one refine block per
/// problem that sorts the C*q candidates in shared memory and emits the k
/// smallest.
template <typename T>
struct BucketApproxPlan {
  BucketApproxOptions opt;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t chunks = 0;    ///< C: contiguous chunks per row
  std::size_t keep = 0;      ///< q: candidates kept per chunk
  std::size_t cand = 0;      ///< C*q candidates per problem
  std::size_t sort_len = 0;  ///< next_pow2(cand): refine sort length
  int warps = 0;             ///< W: warps per scan block
  bool direct = false;       ///< C*q == k: scan emits, no refine launch
  double expected_recall = 1.0;
  std::size_t seg_cand_val = 0;  ///< refine mode only
  std::size_t seg_cand_idx = 0;  ///< refine mode only
};

/// Footprint contracts: the scan reads the whole input and writes each
/// chunk's candidate slice block-locally (segment-bounded — the candidate
/// count is a tuning choice); the refine reads the candidate segments and
/// writes each problem's k-slice of the outputs.  The direct-emit variant
/// fuses the two when the candidate union already has output shape.
inline void register_bucket_approx_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"BucketApproxScan",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
           {"cand_val",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            8},
           {"cand_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            4},
       }});
  simgpu::register_footprint(
      {"BucketApproxScanEmit",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
           {"out_vals",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            8},
           {"out_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            4},
       }});
  simgpu::register_footprint(
      {"BucketApproxRefine",
       {
           {"cand_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8},
           {"cand_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4},
           {"out_vals",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            8},
           {"out_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            4},
       }});
}

/// Phase 1: pick the (C, q, W) shape, lay out the candidate buffers, record
/// the kernel sequence.
template <typename T>
BucketApproxPlan<T> bucket_approx_plan(const Shape& s,
                                       const simgpu::DeviceSpec& spec,
                                       const BucketApproxOptions& opt,
                                       simgpu::WorkspaceLayout& layout,
                                       simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);
  if (s.k > kMaxSelectionK) {
    throw std::invalid_argument("bucket_approx: k exceeds the " +
                                std::to_string(kMaxSelectionK) +
                                " candidate-list limit");
  }
  register_bucket_approx_footprints();
  const BucketApproxShape shape = bucket_approx_configure(
      s.n, s.k, s.batch, opt, spec, sizeof(T) + sizeof(std::uint32_t));

  BucketApproxPlan<T> p;
  p.opt = opt;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.chunks = shape.chunks;
  p.keep = shape.keep;
  p.warps = shape.warps;
  p.cand = p.chunks * p.keep;
  p.sort_len = next_pow2(p.cand);
  p.direct = p.cand == s.k;
  p.expected_recall = shape.expected_recall;

  const auto scan_grid = static_cast<int>(s.batch * p.chunks);
  const int scan_threads = p.warps * simgpu::kWarpSize;
  if (p.direct) {
    simgpu::record_launch(sched, "BucketApproxScanEmit", scan_grid,
                          scan_threads, s.batch, s.n, s.k,
                          {{"in", simgpu::kBindInput},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
    return p;
  }
  p.seg_cand_val = layout.add<T>("bucket approx cand val", s.batch * p.cand);
  p.seg_cand_idx =
      layout.add<std::uint32_t>("bucket approx cand idx", s.batch * p.cand);
  simgpu::record_launch(sched, "BucketApproxScan", scan_grid, scan_threads,
                        s.batch, s.n, s.k,
                        {{"in", simgpu::kBindInput},
                         {"cand_val", static_cast<int>(p.seg_cand_val)},
                         {"cand_idx", static_cast<int>(p.seg_cand_idx)}});
  simgpu::record_launch(sched, "BucketApproxRefine",
                        static_cast<int>(s.batch), 1024, s.batch, s.n, s.k,
                        {{"cand_val", static_cast<int>(p.seg_cand_val)},
                         {"cand_idx", static_cast<int>(p.seg_cand_idx)},
                         {"out_vals", simgpu::kBindOutVals},
                         {"out_idx", simgpu::kBindOutIdx}});
  return p;
}

/// Phase 2: the scan pass (direct-emitting when C*q == k), then the
/// shared-memory refine sort.
template <typename T>
void bucket_approx_run(simgpu::Device& dev, const BucketApproxPlan<T>& plan,
                       simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                       simgpu::DeviceBuffer<T> out_vals,
                       simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  if (in.size() < plan.batch * plan.n ||
      out_vals.size() < plan.batch * plan.k ||
      out_idx.size() < plan.batch * plan.k) {
    throw std::invalid_argument("bucket_approx: buffer too small");
  }
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const std::size_t chunks = plan.chunks;
  const std::size_t keep = plan.keep;
  const std::size_t cand = plan.cand;
  const std::size_t L = plan.sort_len;
  const int warps = plan.warps;
  // C*q == k: each chunk's sorted q-list is its block's slice of the output
  // (the candidate union is the approximate result); otherwise the lists
  // land in the candidate segments for the refine.
  simgpu::DeviceBuffer<T> cand_val = out_vals;
  simgpu::DeviceBuffer<std::uint32_t> cand_idx = out_idx;
  if (!plan.direct) {
    cand_val = ws.get<T>(plan.seg_cand_val);
    cand_idx = ws.get<std::uint32_t>(plan.seg_cand_idx);
  }

  {
    simgpu::LaunchConfig cfg{
        plan.direct ? "BucketApproxScanEmit" : "BucketApproxScan",
        static_cast<int>(plan.batch * chunks), warps * simgpu::kWarpSize,
        plan.batch, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto blk = static_cast<std::size_t>(ctx.block_idx());
      const std::size_t prob = blk / chunks;
      const std::size_t chunk = blk % chunks;
      const auto [cbegin, cend] =
          block_chunk(n, static_cast<int>(chunks), static_cast<int>(chunk));
      // W warp engines reduce the chunk to its q smallest: each warp scans
      // its contiguous slice, then the warp lists merge into warp 0's.
      warp_scan::WarpEngines<faiss_detail::WarpSelectEngine<T>> engines(
          warps, ctx, keep);
      warp_scan::scan_contiguous(ctx, engines, in, {}, [&](int w) {
        const auto [wb, we] = block_chunk(cend - cbegin, warps, w);
        return warp_scan::WarpRange{prob * n, cbegin + wb, cbegin + we};
      });
      ctx.sync();
      const auto& list = engines.merged_list(ctx);
      warp_scan::store_list(ctx, list.keys(), list.indices(), cand_val,
                            cand_idx, (prob * chunks + chunk) * keep, keep);
    });
  }
  if (plan.direct) return;

  simgpu::LaunchConfig cfg{"BucketApproxRefine", static_cast<int>(plan.batch),
                           1024, plan.batch, n, k};
  simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
    const auto prob = static_cast<std::size_t>(ctx.block_idx());
    auto keys = ctx.shared<T>(L, "bucket refine keys");
    auto idx = ctx.shared<std::uint32_t>(L, "bucket refine idx");
    warp_scan::load_list(ctx, cand_val, cand_idx, prob * cand, keys, idx,
                         cand);
    for (std::size_t i = cand; i < L; ++i) {
      keys[i] = sort_sentinel<T>();
      idx[i] = 0;
    }
    shard_merge_detail::sort_pairs(ctx, keys, idx, L, k);
    warp_scan::store_list(ctx, keys, idx, out_vals, out_idx, prob * k, k);
  });
}

/// Host reference for the approximate contract: the exact k smallest of the
/// union of each chunk's exact q smallest, as a sorted value multiset (the
/// comparison granularity verify_topk and the invariance tests use — index
/// choice between equal values is open).
template <typename T>
std::vector<T> bucket_approx_reference(std::span<const T> row, std::size_t k,
                                       std::size_t chunks, std::size_t keep) {
  std::vector<T> cand;
  cand.reserve(chunks * keep);
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [begin, end] =
        block_chunk(row.size(), static_cast<int>(chunks), static_cast<int>(c));
    std::vector<T> chunk(row.begin() + static_cast<std::ptrdiff_t>(begin),
                         row.begin() + static_cast<std::ptrdiff_t>(end));
    const std::size_t q = std::min(keep, chunk.size());
    std::partial_sort(chunk.begin(),
                      chunk.begin() + static_cast<std::ptrdiff_t>(q),
                      chunk.end());
    cand.insert(cand.end(), chunk.begin(),
                chunk.begin() + static_cast<std::ptrdiff_t>(q));
  }
  const std::size_t kk = std::min(k, cand.size());
  std::partial_sort(cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(kk),
                    cand.end());
  cand.resize(kk);
  return cand;
}

/// One-shot entry point: plan + bind + run.
template <typename T>
void bucket_approx(simgpu::Device& dev, simgpu::DeviceBuffer<T> in,
                   std::size_t batch, std::size_t n, std::size_t k,
                   simgpu::DeviceBuffer<T> out_vals,
                   simgpu::DeviceBuffer<std::uint32_t> out_idx,
                   const BucketApproxOptions& opt = {}) {
  simgpu::WorkspaceLayout layout;
  const auto plan =
      bucket_approx_plan<T>(Shape{batch, n, k, false}, dev.spec(), opt, layout);
  simgpu::Workspace ws(dev);
  ws.bind(layout);
  bucket_approx_run(dev, plan, ws, in, out_vals, out_idx);
}

}  // namespace topk
