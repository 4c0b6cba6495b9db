// Two-stage ANN re-ranking through the fused row-wise path (the serving
// shape the paper's batch experiments highlight: many small rows, one
// launch).  Stage 1 scores every database vector against each query using
// only a prefix of the dimensions — a cheap, approximate screen — and keeps
// a per-query shortlist.  Stage 2 computes exact distances for the
// shortlists only and re-ranks ALL queries in a single fused warp-per-row
// launch, with FusedRowwiseOptions::in_idx carrying the original database
// ids so the fused kernel emits final answers directly.
//
//   $ ./examples/ann_rerank

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/topk.hpp"
#include "data/ann_dataset.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/fused_rowwise.hpp"

int main() {
  constexpr std::size_t kDatabase = 1 << 14;
  constexpr std::size_t kQueries = 64;     // micro-batch for the fused launch
  constexpr std::size_t kShortlist = 512;  // candidates kept per query
  constexpr std::size_t kNeighbors = 10;
  constexpr std::size_t kCoarseDims = 48;  // stage-1 distance uses 48 of 96

  const topk::data::AnnDataset db =
      topk::data::make_deep_like(kDatabase, /*seed=*/7);
  const std::vector<float> queries =
      topk::data::make_queries(db, kQueries, /*seed=*/13);

  simgpu::Device dev;
  std::cout << "two-stage kNN over " << db.name << " (" << db.count << " x "
            << db.dim << "), " << kQueries << " queries\n";

  // ---- stage 1: coarse screen on a dimension prefix --------------------
  // One GridSelect per query over the truncated-distance array keeps the
  // kShortlist most promising candidate ids.
  std::vector<std::uint32_t> shortlist_ids(kQueries * kShortlist);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const float* query = queries.data() + q * db.dim;
    std::vector<float> coarse(db.count);
    for (std::size_t v = 0; v < db.count; ++v) {
      const float* vec = db.vectors.data() + v * db.dim;
      float d2 = 0.0f;
      for (std::size_t d = 0; d < kCoarseDims; ++d) {
        const float diff = query[d] - vec[d];
        d2 += diff * diff;
      }
      coarse[v] = d2;
    }
    const topk::SelectResult r =
        topk::select(dev, coarse, kShortlist, topk::Algo::kGridSelect);
    std::copy(r.indices.begin(), r.indices.end(),
              shortlist_ids.begin() + q * kShortlist);
  }

  // ---- stage 2: exact re-rank, every query in ONE fused launch ---------
  // Rows are the queries, columns their shortlisted candidates' exact
  // distances; in_idx maps each column back to its database id.
  auto rerank = dev.alloc<float>(kQueries * kShortlist);
  auto in_idx = dev.alloc<std::uint32_t>(kQueries * kShortlist);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const float* query = queries.data() + q * db.dim;
    for (std::size_t c = 0; c < kShortlist; ++c) {
      const std::uint32_t id = shortlist_ids[q * kShortlist + c];
      const float* vec = db.vectors.data() + id * db.dim;
      float d2 = 0.0f;
      for (std::size_t d = 0; d < db.dim; ++d) {
        const float diff = query[d] - vec[d];
        d2 += diff * diff;
      }
      rerank.data()[q * kShortlist + c] = d2;
      in_idx.data()[q * kShortlist + c] = id;
    }
  }
  auto out_vals = dev.alloc<float>(kQueries * kNeighbors);
  auto out_idx = dev.alloc<std::uint32_t>(kQueries * kNeighbors);
  topk::FusedRowwiseOptions opt;
  opt.in_idx = in_idx;
  simgpu::WorkspaceLayout layout;
  const auto plan = topk::fused_rowwise_plan<float>(
      topk::Shape{kQueries, kShortlist, kNeighbors}, dev.spec(), opt,
      /*block_variant=*/false, layout);
  simgpu::Workspace ws(dev);
  ws.bind(layout);
  topk::fused_rowwise_run(dev, plan, ws, rerank, out_vals, out_idx);

  // ---- verify ----------------------------------------------------------
  // The fused answer must equal a per-row reference select over the same
  // shortlist; recall@10 against the exact full-database answer measures
  // how much the coarse screen gave up (reporting only — approximation is
  // the point of stage 1).
  std::size_t recall_hits = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const std::vector<float> row(
        rerank.data() + q * kShortlist,
        rerank.data() + (q + 1) * kShortlist);
    const topk::SelectResult want =
        topk::reference_select(row, kNeighbors);
    std::vector<float> got(out_vals.data() + q * kNeighbors,
                           out_vals.data() + (q + 1) * kNeighbors);
    std::vector<float> ref = want.values;
    std::sort(got.begin(), got.end());
    std::sort(ref.begin(), ref.end());
    if (got != ref) {
      std::cerr << "fused re-rank mismatch for query " << q << "\n";
      return 1;
    }
    // Every emitted index must be a database id from this query's
    // shortlist whose exact distance matches the emitted value.
    for (std::size_t i = 0; i < kNeighbors; ++i) {
      const std::uint32_t id = out_idx.data()[q * kNeighbors + i];
      bool found = false;
      for (std::size_t c = 0; c < kShortlist; ++c) {
        if (shortlist_ids[q * kShortlist + c] == id &&
            rerank.data()[q * kShortlist + c] ==
                out_vals.data()[q * kNeighbors + i]) {
          found = true;
          break;
        }
      }
      if (!found) {
        std::cerr << "fused re-rank emitted a foreign id for query " << q
                  << "\n";
        return 1;
      }
    }

    const float* query = queries.data() + q * db.dim;
    const std::vector<float> exact =
        topk::data::l2_distances(db, query, db.count);
    const topk::SelectResult truth =
        topk::reference_select(exact, kNeighbors);
    for (std::size_t i = 0; i < kNeighbors; ++i) {
      const std::uint32_t id = out_idx.data()[q * kNeighbors + i];
      for (std::uint32_t tid : truth.indices) {
        if (tid == id) {
          ++recall_hits;
          break;
        }
      }
    }
  }
  const double recall = static_cast<double>(recall_hits) /
                        static_cast<double>(kQueries * kNeighbors);
  std::cout << "fused re-rank: " << kQueries << " queries x " << kShortlist
            << " candidates in one launch, k=" << kNeighbors
            << "  [exact within shortlist: OK]\n";
  std::cout << "recall@10 vs exact search: " << std::setprecision(3) << recall
            << " (coarse screen used " << kCoarseDims << "/" << db.dim
            << " dims)\n";
  return recall >= 0.5 ? 0 : 1;
}
