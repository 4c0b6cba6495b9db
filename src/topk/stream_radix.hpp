#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/radix_select.hpp"

namespace topk {

/// Options for the streaming large-K radix select (RadiK direction).
struct StreamRadixOptions {
  /// Target chunk length.  Scratch is sized by max(chunk, 2k), never by n —
  /// the bounded-workspace contract the large-K tier exists for.
  std::size_t chunk_target = std::size_t{1} << 22;
};

/// Execution plan for the streaming chunked radix select: the host walks the
/// input row in `chunks` bounded slices, runs RadixSelect's pass loop over
/// each slice into a 2k union buffer, and folds the union back to k with
/// the same loop whenever it fills.  Workspace = the loop's candidate
/// ping-pong of one chunk + two 2k union sides + histogram/cursors —
/// independent of n for n >> chunk_target.  Largest-K runs through the
/// loop's order mask, like every row.
template <typename T>
struct StreamRadixPlan {
  std::size_t batch = 0;
  std::size_t chunks = 1;     ///< S: host-loop slice count
  std::size_t chunk_cap = 0;  ///< max slice length = ceil(n / chunks)
  std::size_t cand_cap = 0;   ///< candidate buffer length = max(chunk_cap, 2k)
  RadixPassLoop<T> loop;
  std::size_t seg_union_val[2] = {0, 0};
  std::size_t seg_union_idx[2] = {0, 0};
};

/// Footprint contracts for the streaming radix kernels.  Winners and
/// survivors append through reserved atomic cursors into segment-sized
/// union sides; the terminal copies are single-block.
inline void register_stream_radix_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint({"Memset", memset_operands()});
  simgpu::register_footprint({"StreamHist", hist_operands()});
  simgpu::register_footprint(
      {"StreamFilter",
       filter_operands("win_val", "win_idx", AffineVar::kSegElems)});
  simgpu::register_footprint(
      {"StreamTake",
       {
           {"src_val", Access::kRead, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 8},
           {"src_idx", Access::kRead, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 4},
           {"win_val", Access::kWrite, WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}}, 8},
           {"win_idx", Access::kWrite, WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}}, 4},
       }});
  simgpu::register_footprint(
      {"StreamEmit",
       {
           {"src_val", Access::kRead, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 8},
           {"src_idx", Access::kRead, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 4},
           {"out_vals", Access::kWrite, WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}}, 8},
           {"out_idx", Access::kWrite, WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}}, 4},
       }});
}

/// Phase 1 of the streaming radix select: pick the chunk schedule, plan the
/// pass loop under this row's kernel names, and lay out the bounded
/// workspace.
template <typename T>
StreamRadixPlan<T> stream_radix_plan(const Shape& s,
                                     const simgpu::DeviceSpec& spec,
                                     const StreamRadixOptions& opt,
                                     simgpu::WorkspaceLayout& layout,
                                     simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);

  StreamRadixPlan<T> p;
  p.batch = s.batch;
  // Chunk schedule: aim for chunk_target-sized slices, but never let a slice
  // drop below k (every slice must be able to yield k winners), so the slice
  // count is capped at n/k.
  const std::size_t target =
      std::max<std::size_t>(1, (s.n + opt.chunk_target - 1) / opt.chunk_target);
  const std::size_t cap = std::max<std::size_t>(1, s.n / s.k);
  p.chunks = std::min(target, cap);
  p.chunk_cap = (s.n + p.chunks - 1) / p.chunks;
  p.cand_cap = std::max(p.chunk_cap, 2 * s.k);

  p.loop = radix_pass_loop_plan<T>(s, p.cand_cap, layout);
  for (std::size_t pass = 0; pass < p.loop.passes.size(); ++pass) {
    const std::string id = std::to_string(pass);
    p.loop.passes[pass].hist_name =
        simgpu::intern_name("StreamHist(" + id + ")");
    p.loop.passes[pass].filter_name =
        simgpu::intern_name("StreamFilter(" + id + ")");
  }
  p.loop.take_name = simgpu::intern_name("StreamTake");
  p.seg_union_val[0] = layout.add<T>("stream union vals 0", 2 * s.k);
  p.seg_union_val[1] = layout.add<T>("stream union vals 1", 2 * s.k);
  p.seg_union_idx[0] = layout.add<std::uint32_t>("stream union idx 0",
                                                 2 * s.k);
  p.seg_union_idx[1] = layout.add<std::uint32_t>("stream union idx 1",
                                                 2 * s.k);

  if (sched != nullptr) {
    register_stream_radix_footprints();
    // Nominal per-problem unrolling for the static auditor: one chunk
    // select into union side 0; when the plan actually streams, a second
    // chunk select plus the union fold (side 0 -> side 1).
    const auto uval = [&](int side) {
      return static_cast<int>(p.seg_union_val[side]);
    };
    const auto uidx = [&](int side) {
      return static_cast<int>(p.seg_union_idx[side]);
    };
    const auto record_chunk = [&] {
      record_radix_pass_loop(sched, p.loop, spec, p.chunk_cap,
                             simgpu::kBindInput, simgpu::kBindInput,
                             {"win_val", uval(0)}, {"win_idx", uidx(0)});
    };
    record_chunk();
    int emit_side = 0;
    if (p.chunks > 1) {
      record_chunk();
      record_radix_pass_loop(sched, p.loop, spec, 2 * s.k, uval(0), uidx(0),
                             {"win_val", uval(1)}, {"win_idx", uidx(1)});
      emit_side = 1;
    }
    simgpu::record_launch(sched, "StreamEmit", 1, kBlockThreads, 1, s.n, s.k,
                          {{"src_val", uval(emit_side)},
                           {"src_idx", uidx(emit_side)},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
  }
  return p;
}

/// Phase 2: the host-orchestrated streaming loop.  Per problem, each chunk
/// runs the pass loop over its slice — winners appended (with row-local
/// global indices) into the active 2k union side — and every time the union
/// fills, one more pass loop folds it back to k on the other side.  Scratch
/// never exceeds the planned candidate/union capacities, so the same plan
/// covers any n at fixed k and chunk target.
template <typename T>
void stream_radix_run(simgpu::Device& dev, const StreamRadixPlan<T>& plan,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                      simgpu::DeviceBuffer<T> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t n = plan.loop.n;
  const std::size_t k = plan.loop.k;
  if (in.size() < plan.batch * n) {
    throw std::invalid_argument("stream_radix: input too small");
  }
  if (out_vals.size() < plan.batch * k || out_idx.size() < plan.batch * k) {
    throw std::invalid_argument("stream_radix: output buffers too small");
  }
  const simgpu::DeviceBuffer<T> union_val[2] = {
      ws.get<T>(plan.seg_union_val[0]), ws.get<T>(plan.seg_union_val[1])};
  const simgpu::DeviceBuffer<std::uint32_t> union_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_union_idx[0]),
      ws.get<std::uint32_t>(plan.seg_union_idx[1])};

  for (std::size_t prob = 0; prob < plan.batch; ++prob) {
    int uside = 0;         // union side accumulating chunk winners
    std::size_t have = 0;  // winners currently staged on that side
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      const auto [begin, end] =
          block_chunk(n, static_cast<int>(plan.chunks), static_cast<int>(c));
      radix_pass_loop_run(
          dev, plan.loop, ws,
          RadixSource<T>{in, {}, prob * n + begin, end - begin, begin},
          union_val[uside], union_idx[uside], have);
      have += k;
      if (have == 2 * k) {
        radix_pass_loop_run(
            dev, plan.loop, ws,
            RadixSource<T>{union_val[uside], union_idx[uside], 0, 2 * k, 0},
            union_val[1 - uside], union_idx[1 - uside], 0);
        uside = 1 - uside;
        have = k;
      }
    }
    const auto fv = union_val[uside];
    const auto fi = union_idx[uside];
    const std::uint64_t out_base = prob * k;
    simgpu::LaunchConfig cfg{"StreamEmit", 1, kBlockThreads, 1, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      copy_pairs(ctx, fv, fi, 0, out_vals, out_idx, out_base, k);
      ctx.ops(k);
    });
    dev.synchronize("emit");
  }
}

}  // namespace topk
