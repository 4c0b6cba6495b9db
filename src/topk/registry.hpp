#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <variant>

#include "core/topk.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/air_topk.hpp"
#include "topk/bitonic_topk.hpp"
#include "topk/bucket_approx.hpp"
#include "topk/bucket_select.hpp"
#include "topk/fused_rowwise.hpp"
#include "topk/grid_select.hpp"
#include "topk/quick_select.hpp"
#include "topk/radix_select.hpp"
#include "topk/sample_select.hpp"
#include "topk/shard_merge.hpp"
#include "topk/sort_topk.hpp"
#include "topk/stream_radix.hpp"
#include "topk/warp_select.hpp"

/// Table-driven selector registry: every Algo resolves to one AlgoRow holding
/// its CLI key, display name, K ceiling and its plan function.  The four AIR
/// ablation variants collapse onto one plan function parameterized by
/// AirTopkOptions flags, and GridSelect's thread-queue ablation onto
/// grid_select with shared_queue = false.  Every row selects in both
/// directions: Shape::greatest becomes the plan's KeyOrder.
///
/// Dispatch through the table never touches the heap: row lookup is a linear
/// scan of a constexpr array, the plan lives in a variant inside PlanImpl,
/// and run_planned visits that variant to reach the plan type's *_run.
namespace topk {

/// The concrete, cacheable product of plan_select(): resolved algorithm,
/// shape, the workspace layout whose segments run_select() binds, and the
/// per-algorithm plan.  Owned behind ExecutionPlan's shared_ptr so copies of
/// the handle are cheap and the layout outlives every binding (Workspace
/// captures it by pointer).
struct PlanImpl {
  Algo algo = Algo::kAuto;  ///< concrete algorithm (kAuto resolved at plan)
  Shape shape;              ///< batch/n/k plus the direction
  /// Key element type this plan executes (SelectOptions::dtype at plan
  /// time), and the carrier it resolved to: i32/u32 keys run the algorithm
  /// instantiated at uint32_t over monotone radix ordinals; everything else
  /// runs the float instantiation.
  KeyType dtype = KeyType::kF32;
  bool u32_carrier = false;
  simgpu::WorkspaceLayout layout;
  /// Nominal kernel sequence recorded by the plan function, for the static
  /// plan auditor (src/verify).  Not consumed by run_select.
  simgpu::KernelSchedule schedule;
  std::variant<SortTopkPlan<float>, BitonicTopkPlan<float>,
               QuickSelectPlan<float>, BucketSelectPlan<float>,
               SampleSelectPlan<float>, RadixSelectPlan<float>,
               AirTopkPlan<float>, GridSelectPlan<float>,
               faiss_detail::FaissSelectPlan<float>, FusedRowwisePlan<float>,
               ShardMergePlan<float>, BucketApproxPlan<float>,
               StreamRadixPlan<float>, SortTopkPlan<std::uint32_t>,
               BitonicTopkPlan<std::uint32_t>, RadixSelectPlan<std::uint32_t>,
               AirTopkPlan<std::uint32_t>, GridSelectPlan<std::uint32_t>,
               faiss_detail::FaissSelectPlan<std::uint32_t>,
               StreamRadixPlan<std::uint32_t>>
      plan;
};

namespace registry_detail {

using PlanFn = void (*)(PlanImpl&, const simgpu::DeviceSpec&,
                        const SelectOptions&);

/// Call `plan(tag)` with a value of the key carrier the plan executes on:
/// uint32_t for integer dtypes (radix ordinals), float otherwise.
template <typename F>
void on_carrier(const PlanImpl& impl, F&& plan) {
  if (impl.u32_carrier) {
    plan(std::uint32_t{});
  } else {
    plan(float{});
  }
}

/// One AirTopkOptions for all four AIR table rows: the ablation variants are
/// flag deltas on the same planner, not separate implementations.
inline AirTopkOptions air_options_for(Algo algo) {
  AirTopkOptions o;
  if (algo == Algo::kAirTopkNoAdaptive) o.adaptive = false;
  if (algo == Algo::kAirTopkNoEarlyStop) o.early_stopping = false;
  if (algo == Algo::kAirTopkFusedFilter) o.fuse_last_filter = true;
  return o;
}

inline void plan_air(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                     const SelectOptions&) {
  on_carrier(impl, [&](auto key) {
    impl.plan = air_topk_plan<decltype(key)>(impl.shape, spec,
                                             air_options_for(impl.algo),
                                             impl.layout, &impl.schedule);
  });
}

inline void plan_grid(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                      const SelectOptions&) {
  GridSelectOptions o;
  o.shared_queue = impl.algo != Algo::kGridSelectThreadQueue;
  on_carrier(impl, [&](auto key) {
    impl.plan = grid_select_plan<decltype(key)>(impl.shape, spec, o,
                                                impl.layout, &impl.schedule);
  });
}

inline void plan_radix(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  on_carrier(impl, [&](auto key) {
    impl.plan = radix_select_plan<decltype(key)>(impl.shape, spec, impl.layout,
                                                 &impl.schedule);
  });
}

inline void plan_warp(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                      const SelectOptions&) {
  on_carrier(impl, [&](auto key) {
    impl.plan = faiss_detail::faiss_select_plan<decltype(key)>(
        impl.shape, spec, /*num_warps=*/1, "WarpSelect", impl.layout,
        &impl.schedule);
  });
}

inline void plan_block(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  on_carrier(impl, [&](auto key) {
    impl.plan = faiss_detail::faiss_select_plan<decltype(key)>(
        impl.shape, spec, /*num_warps=*/4, "BlockSelect", impl.layout,
        &impl.schedule);
  });
}

inline void plan_bitonic(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                         const SelectOptions&) {
  on_carrier(impl, [&](auto key) {
    impl.plan = bitonic_topk_plan<decltype(key)>(impl.shape, spec, impl.layout,
                                                 &impl.schedule);
  });
}

inline void plan_sort(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                      const SelectOptions&) {
  on_carrier(impl, [&](auto key) {
    impl.plan = sort_topk_plan<decltype(key)>(impl.shape, spec, impl.layout,
                                              &impl.schedule);
  });
}

inline void plan_stream_radix(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                              const SelectOptions&) {
  on_carrier(impl, [&](auto key) {
    impl.plan = stream_radix_plan<decltype(key)>(impl.shape, spec, {},
                                                 impl.layout, &impl.schedule);
  });
}

inline void plan_quick(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  impl.plan = quick_select_plan<float>(impl.shape, spec, impl.layout,
                                       &impl.schedule);
}

inline void plan_bucket(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                        const SelectOptions&) {
  impl.plan = bucket_select_plan<float>(impl.shape, spec, impl.layout,
                                        &impl.schedule);
}

inline void plan_sample(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                        const SelectOptions&) {
  impl.plan = sample_select_plan<float>(impl.shape, spec, impl.layout,
                                        &impl.schedule);
}

inline void plan_fused_warp(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                            const SelectOptions&) {
  impl.plan = fused_rowwise_plan<float>(impl.shape, spec, {},
                                        /*block_variant=*/false, impl.layout,
                                        &impl.schedule);
}

inline void plan_fused_block(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                             const SelectOptions&) {
  impl.plan = fused_rowwise_plan<float>(impl.shape, spec, {},
                                        /*block_variant=*/true, impl.layout,
                                        &impl.schedule);
}

inline void plan_shard_merge(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                             const SelectOptions&) {
  impl.plan = shard_merge_plan<float>(impl.shape, spec, impl.layout,
                                      &impl.schedule);
}

inline void plan_bucket_approx(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                               const SelectOptions& opt) {
  BucketApproxOptions o;
  o.recall_target = opt.recall_target;
  impl.plan = bucket_approx_plan<float>(impl.shape, spec, o, impl.layout,
                                        &impl.schedule);
}

/// Plan type -> its *_run, for both carriers; the only place the registry
/// names run functions.
template <typename T, typename... A>
void run_plan(const SortTopkPlan<T>& p, simgpu::Device& d, A&&... a) {
  sort_topk_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const BitonicTopkPlan<T>& p, simgpu::Device& d, A&&... a) {
  bitonic_topk_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const QuickSelectPlan<T>& p, simgpu::Device& d, A&&... a) {
  quick_select_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const BucketSelectPlan<T>& p, simgpu::Device& d, A&&... a) {
  bucket_select_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const SampleSelectPlan<T>& p, simgpu::Device& d, A&&... a) {
  sample_select_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const RadixSelectPlan<T>& p, simgpu::Device& d, A&&... a) {
  radix_select_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const AirTopkPlan<T>& p, simgpu::Device& d, A&&... a) {
  air_topk_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const GridSelectPlan<T>& p, simgpu::Device& d, A&&... a) {
  grid_select_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const faiss_detail::FaissSelectPlan<T>& p, simgpu::Device& d,
              A&&... a) {
  faiss_detail::faiss_select_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const FusedRowwisePlan<T>& p, simgpu::Device& d, A&&... a) {
  fused_rowwise_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const ShardMergePlan<T>& p, simgpu::Device& d, A&&... a) {
  shard_merge_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const BucketApproxPlan<T>& p, simgpu::Device& d, A&&... a) {
  bucket_approx_run(d, p, a...);
}
template <typename T, typename... A>
void run_plan(const StreamRadixPlan<T>& p, simgpu::Device& d, A&&... a) {
  stream_radix_run(d, p, a...);
}

/// The key carrier a per-algorithm plan was instantiated at.
template <typename Plan>
struct plan_carrier;
template <template <typename> class Plan, typename T>
struct plan_carrier<Plan<T>> {
  using type = T;
};

}  // namespace registry_detail

/// Run the plan held in `impl` on carrier-T buffers: one std::visit over the
/// plan variant, each alternative forwarded to its *_run.  A plan whose
/// carrier is not T is a registry bug (run_select checks the public carrier
/// first), reported as std::logic_error.
template <typename T>
void run_planned(simgpu::Device& dev, const PlanImpl& impl,
                 simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                 simgpu::DeviceBuffer<T> out_vals,
                 simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  std::visit(
      [&](const auto& plan) {
        using Plan = std::decay_t<decltype(plan)>;
        if constexpr (std::is_same_v<
                          typename registry_detail::plan_carrier<Plan>::type,
                          T>) {
          registry_detail::run_plan(plan, dev, ws, in, out_vals, out_idx);
        } else {
          throw std::logic_error(
              "run_select: the plan's key carrier does not match the "
              "buffers (registry row planned the wrong instantiation)");
        }
      },
      impl.plan);
}

/// One registry row per Algo value.  `k_limit` of 0 means no ceiling below n
/// (paper §2.2 gives the partial-sorting methods their hard limits).  kAuto
/// has no plan function: it is resolved to a concrete algorithm before
/// lookup.  The run side needs no column: run_planned visits the plan.
///
/// `dtypes` is the KeyType bitmask the row accepts (key_type_bit): the
/// radix/comparison kernels that are fully carrier-generic declare all five
/// key types and plan on the u32 carrier for integers; the float-arithmetic
/// tiers (pivots, bucket math, packed-u64 SIMD paths) stay float-family.
/// `streaming` rows bound their scratch independently of n and are exempt
/// from the device's max_select_elems single-select capacity check.
struct AlgoRow {
  Algo algo;
  std::string_view key;   ///< CLI/parse key (algo_key / parse_algo)
  std::string_view name;  ///< human-readable display name (algo_name)
  std::size_t k_limit;
  registry_detail::PlanFn plan;
  unsigned dtypes;  ///< supported-KeyType bitmask (key_type_bit)
  bool streaming;   ///< scratch bounded independent of n; no n capacity cap
};

inline constexpr std::array<AlgoRow, 20> kAlgoTable = {{
    {Algo::kAirTopk, "air", "AIR Top-K", 0, &registry_detail::plan_air,
     kDtypesAll, false},
    {Algo::kGridSelect, "grid", "GridSelect", 2048,
     &registry_detail::plan_grid, kDtypesAll, false},
    {Algo::kRadixSelect, "radixselect", "RadixSelect", 0,
     &registry_detail::plan_radix, kDtypesAll, false},
    {Algo::kWarpSelect, "warp", "WarpSelect", 2048,
     &registry_detail::plan_warp, kDtypesAll, false},
    {Algo::kBlockSelect, "block", "BlockSelect", 2048,
     &registry_detail::plan_block, kDtypesAll, false},
    {Algo::kBitonicTopk, "bitonic", "Bitonic Top-K", 256,
     &registry_detail::plan_bitonic, kDtypesAll, false},
    {Algo::kQuickSelect, "quick", "QuickSelect", 0,
     &registry_detail::plan_quick, kDtypesFloatFamily, false},
    {Algo::kBucketSelect, "bucket", "BucketSelect", 0,
     &registry_detail::plan_bucket, kDtypesFloatFamily, false},
    {Algo::kSampleSelect, "sample", "SampleSelect", 0,
     &registry_detail::plan_sample, kDtypesFloatFamily, false},
    {Algo::kSort, "sort", "Sort", 0, &registry_detail::plan_sort, kDtypesAll,
     false},
    {Algo::kAirTopkNoAdaptive, "air-noadaptive", "AIR Top-K (no adaptive)", 0,
     &registry_detail::plan_air, kDtypesAll, false},
    {Algo::kAirTopkNoEarlyStop, "air-noearlystop", "AIR Top-K (no early stop)",
     0, &registry_detail::plan_air, kDtypesAll, false},
    {Algo::kAirTopkFusedFilter, "air-fusedfilter",
     "AIR Top-K (fused last filter)", 0, &registry_detail::plan_air,
     kDtypesAll, false},
    {Algo::kGridSelectThreadQueue, "grid-threadqueue",
     "GridSelect (thread queues)", 2048, &registry_detail::plan_grid,
     kDtypesAll, false},
    {Algo::kFusedWarpRowwise, "fused-warp", "Fused row-wise (warp/row)", 2048,
     &registry_detail::plan_fused_warp, kDtypesFloatFamily, false},
    {Algo::kFusedBlockRowwise, "fused-block", "Fused row-wise (block/row)",
     2048, &registry_detail::plan_fused_block, kDtypesFloatFamily, false},
    {Algo::kShardMerge, "shard-merge", "Shard candidate merge", 2048,
     &registry_detail::plan_shard_merge, kDtypesFloatFamily, false},
    {Algo::kBucketApprox, "bucket-approx", "Bucketed approximate Top-K", 2048,
     &registry_detail::plan_bucket_approx, kDtypesFloatFamily, false},
    {Algo::kStreamRadix, "stream-radix", "Streaming radix select", kMaxK,
     &registry_detail::plan_stream_radix, kDtypesAll, true},
    {Algo::kAuto, "auto", "Auto", 0, nullptr, kDtypesAll, false},
}};

/// The registry row for `algo`, or nullptr for values outside the enum.
/// Linear scan of the constexpr rows: no hashing, no heap, and the table
/// order matches the enum so the common case exits immediately.
[[nodiscard]] inline const AlgoRow* find_algo_row(Algo algo) {
  const auto idx = static_cast<std::size_t>(algo);
  if (idx < kAlgoTable.size() && kAlgoTable[idx].algo == algo) {
    return &kAlgoTable[idx];
  }
  for (const AlgoRow& row : kAlgoTable) {
    if (row.algo == algo) return &row;
  }
  return nullptr;
}

}  // namespace topk
