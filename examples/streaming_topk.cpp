// On-the-fly top-K (paper §2.2/§4): WarpSelect-family selectors "can serve
// as a device function within other kernels" and "process data on-the-fly
// because they maintain top-K results for all seen elements".
//
// This example fuses distance computation and selection in ONE kernel using
// the SharedQueueEngine: each warp computes query-to-vector L2 distances and
// pushes them straight into its shared-queue selector — the distance array
// is never materialized in device memory.  The two-stage pipeline (distance
// kernel writes the array, selection kernel reads it back) pays the extra
// round trip.
//
//   $ ./examples/streaming_topk

#include <algorithm>
#include <iostream>

#include "core/topk.hpp"
#include "data/ann_dataset.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/grid_select.hpp"

namespace {

constexpr std::size_t kN = 1 << 14;
constexpr std::size_t kDim = 96;
constexpr std::size_t kK = 16;

std::uint64_t traffic(const simgpu::Device& dev) {
  std::uint64_t bytes = 0;
  for (const auto& e : dev.events()) {
    if (const auto* k = std::get_if<simgpu::KernelEvent>(&e)) {
      bytes += k->stats.bytes_total();
    }
  }
  return bytes;
}

/// Distance of one row to the (shared-memory cached) query, accumulated in
/// double to match the host reference exactly.
float row_distance(simgpu::BlockCtx& ctx,
                   simgpu::DeviceBuffer<float> vectors, std::size_t row,
                   std::span<const float> query) {
  double acc = 0.0;
  for (std::size_t d = 0; d < kDim; ++d) {
    const double diff =
        static_cast<double>(ctx.load(vectors, row * kDim + d)) - query[d];
    acc += diff * diff;
  }
  ctx.ops(2 * kDim);
  return static_cast<float>(acc);
}

}  // namespace

int main() {
  const auto db = topk::data::make_deep_like(kN, 3, kDim);
  const auto query = topk::data::make_queries(db, 1, 5);

  simgpu::Device dev;
  auto d_vectors = dev.alloc<float>(kN * kDim);
  std::copy(db.vectors.begin(), db.vectors.end(), d_vectors.data());
  auto d_query = dev.alloc<float>(kDim);
  std::copy(query.begin(), query.end(), d_query.data());
  auto d_out_val = dev.alloc<float>(kK);
  auto d_out_idx = dev.alloc<std::uint32_t>(kK);
  auto d_distances = dev.alloc<float>(kN);

  // ---- fused kernel: distances are consumed as they are produced ---------
  dev.clear_events();
  simgpu::launch(dev, {"fused_distance_topk", 1, 32},
                 [=](simgpu::BlockCtx& ctx) {
                   // Cache the query in shared memory once per block.
                   auto squery = ctx.shared<float>(kDim);
                   for (std::size_t d = 0; d < kDim; ++d) {
                     squery[d] = ctx.load(d_query, d);
                   }
                   ctx.sync();
                   topk::SharedQueueEngine<float> selector(ctx, kK);
                   float vals[simgpu::kWarpSize];
                   std::uint32_t idxs[simgpu::kWarpSize];
                   for (std::size_t base = 0; base < kN;
                        base += simgpu::kWarpSize) {
                     const std::size_t count =
                         std::min<std::size_t>(simgpu::kWarpSize, kN - base);
                     for (std::size_t lane = 0; lane < count; ++lane) {
                       const std::size_t row = base + lane;
                       vals[lane] = row_distance(ctx, d_vectors, row, squery);
                       idxs[lane] = static_cast<std::uint32_t>(row);
                     }
                     // The gated round skips the ballot emulation for
                     // batches with no candidate distances (same charges,
                     // see docs/performance.md "warp fast path").
                     selector.round_gated(ctx, vals, idxs, count);
                   }
                   selector.finalize(ctx);
                   for (std::size_t i = 0; i < kK; ++i) {
                     ctx.store(d_out_val, i, selector.list().keys()[i]);
                     ctx.store(d_out_idx, i, selector.list().indices()[i]);
                   }
                 });
  const std::uint64_t fused_bytes = traffic(dev);
  topk::SelectResult fused;
  fused.values.assign(d_out_val.data(), d_out_val.data() + kK);
  fused.indices.assign(d_out_idx.data(), d_out_idx.data() + kK);

  // ---- two-stage pipeline: distance kernel, then a selection kernel ------
  dev.clear_events();
  simgpu::launch(dev, {"distance_kernel", 8, 32}, [=](simgpu::BlockCtx& ctx) {
    auto squery = ctx.shared<float>(kDim);
    for (std::size_t d = 0; d < kDim; ++d) {
      squery[d] = ctx.load(d_query, d);
    }
    ctx.sync();
    const std::size_t per = kN / 8;
    const auto b = static_cast<std::size_t>(ctx.block_idx());
    for (std::size_t row = b * per; row < (b + 1) * per; ++row) {
      ctx.store(d_distances, row, row_distance(ctx, d_vectors, row, squery));
    }
  });
  simgpu::WorkspaceLayout layout;
  const auto plan = topk::grid_select_plan<float>(topk::Shape{1, kN, kK},
                                                  dev.spec(), {}, layout);
  simgpu::Workspace ws(dev);
  ws.bind(layout);
  topk::grid_select_run(dev, plan, ws, d_distances, d_out_val, d_out_idx);
  const std::uint64_t staged_bytes = traffic(dev);

  // Both paths must agree with the host reference.
  const auto distances = topk::data::l2_distances(db, query.data(), kN);
  topk::SelectResult staged;
  staged.values.assign(d_out_val.data(), d_out_val.data() + kK);
  staged.indices.assign(d_out_idx.data(), d_out_idx.data() + kK);
  const std::string staged_err = topk::verify_topk(distances, kK, staged);
  if (!staged_err.empty()) {
    std::cerr << "staged selection wrong: " << staged_err << "\n";
    return 1;
  }
  const std::string fused_err = topk::verify_topk(distances, kK, fused);
  if (!fused_err.empty()) {
    std::cerr << "fused selection wrong: " << fused_err << "\n";
    return 1;
  }

  std::cout << "on-the-fly top-" << kK << " over " << kN << " vectors: OK\n";
  std::cout << "device traffic, fused selector : " << fused_bytes
            << " bytes (distance array never hits memory)\n";
  std::cout << "device traffic, two-stage      : " << staged_bytes
            << " bytes\n";
  std::cout << "round trip saved               : "
            << (staged_bytes - fused_bytes) << " bytes\n";
  return staged_bytes > fused_bytes ? 0 : 1;
}
