#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/topk.hpp"
#include "simgpu/simgpu.hpp"

/// Sharded multi-device top-K: execute one query whose N exceeds any single
/// device by splitting the input across a pool of simulated devices, running
/// the ordinary per-shard selection through the plan/run layer, and reducing
/// the per-shard candidate lists where that is cheapest: on the host, which
/// already holds them after the gather, or with the hierarchical device-side
/// merge (Algo::kShardMerge) on device 0.
///
/// Execution shape (one query, S shards, D devices):
///
///   host input ──split──> shard 0..S-1  (device s % D, round-robin rounds)
///        per shard: cached ExecutionPlan + pooled Workspace -> top-k
///        written as one packed 2k-word block (k values | k indices),
///        gathered with ONE recorded D2H copy, indices rebased host-side
///   merge_site(S, k, spec) == kHost:
///        nth_element over the S·k gathered candidates (charged as a host
///        step on device 0) -> exact top-k, no further transfer
///   merge_site(S, k, spec) == kDevice:
///        S·k values ──H2D──> device 0 ──ShardMerge plan──> packed
///        (k values | k positions) ──one D2H──> exact top-k
///
/// Largest-K is the options' direction on every plan of the query: the
/// per-shard plans and the merge plan select natively (KeyOrder), and the
/// host merge packs the same KeyOrder's keys, so no key is ever rewritten.
namespace topk::shard {

/// Pool + query configuration for a Coordinator.
struct ShardConfig {
  /// Devices in the pool (>= 1).  A device-side merge runs on device 0, and
  /// a host-side merge is charged to device 0's event log.
  std::size_t devices = 4;
  /// Spec of every pooled device.  `max_select_elems` is the per-device
  /// ceiling that forces sharding; cap it low (e.g. 1 << 22) to scale out.
  simgpu::DeviceSpec device_spec{};
  /// Shard count; 0 picks recommend_shards() per query.  Clamped so every
  /// shard fits one device and still holds at least k keys.
  std::size_t shards = 0;
  /// Per-shard selection algorithm (kAuto recommends at the per-shard
  /// shape via WorkloadHints::shards).
  Algo algo = Algo::kAuto;
  /// greatest (every plan's direction) and sorted (the final result).
  SelectOptions options{};
};

/// Where a sharded query's cross-shard merge runs (see merge_site()).
enum class MergeSite {
  kNone,    ///< one shard: its candidates are the result
  kHost,    ///< the host selects over the candidates it gathered
  kDevice,  ///< candidates go back up to device 0 for the ShardMerge plan
};

/// "none" / "host" / "device".
[[nodiscard]] const char* merge_site_name(MergeSite site);

/// Modeled-time breakdown of one sharded query (CostModel over each pooled
/// device's event log; devices run concurrently, so the selection and gather
/// phases cost the busiest device, not the sum).
struct ShardTiming {
  double select_us = 0.0;  ///< busiest device: per-shard selection kernels
  /// Busiest device: one packed (values | indices) D2H copy per shard it
  /// ran, ceil(S / D) copies.  0 for one shard, whose copy is output_us.
  double gather_us = 0.0;
  /// kHost: the host selection step.  kDevice: candidate H2D + the
  /// ShardMerge kernels.  kNone: 0.
  double merge_us = 0.0;
  /// The one packed D2H copy of the final result: the single shard's copy,
  /// or the device merge's (values | positions).  0 after a host merge,
  /// whose result is already on the host.
  double output_us = 0.0;
  double total_us = 0.0;   ///< sum of the four phases
};

/// Result of one sharded query.
struct ShardedResult {
  SelectResult topk;          ///< indices into the original host input
  Algo shard_algo = Algo::kAuto;  ///< concrete per-shard algorithm
  std::size_t shards = 0;
  std::size_t devices = 0;    ///< devices actually used (min(shards, pool))
  MergeSite merge = MergeSite::kNone;  ///< where the cross-shard merge ran
  ShardTiming timing;
  std::vector<double> shard_us;  ///< modeled per-shard selection + gather
};

/// The plans one sharded query executes, labeled for audit tooling:
/// one per distinct shard shape (block_chunk yields at most two) plus the
/// cross-shard merge plan when the merge runs on a device.  `topk_audit
/// --sharded` walks these through the same static schedule auditor as
/// single-device plans.
struct ShardedPlan {
  std::size_t shards = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  Algo shard_algo = Algo::kAuto;
  MergeSite merge = MergeSite::kNone;
  std::vector<std::pair<std::string, ExecutionPlan>> plans;
};

/// Host-side coordinator owning the device pool, per-device pooled
/// workspaces, and the per-shape plan caches.  Single-driver contract: one
/// thread drives a Coordinator (matching simgpu::Device).
class Coordinator {
 public:
  explicit Coordinator(const ShardConfig& cfg);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Execute one top-k query over `data`, sharded per the config.  `shards`
  /// / `algo` override the config for this query when non-zero / non-kAuto
  /// (the serving layer forwards per-request WorkloadHints through them).
  ShardedResult select(std::span<const float> data, std::size_t k,
                       std::size_t shards = 0, Algo algo = Algo::kAuto);

  /// Typed key-value variant: float-family keys (f32/f16/bf16) are encoded
  /// to their exact float carrier, sharded and merged in the carrier domain
  /// (carrier order equals key order, so ties/NaNs shard exactly), and the
  /// result is decoded back (SelectResult::values_bits).  A payload, when
  /// present, must cover every key; the winners' entries are gathered into
  /// SelectResult::payload after the cross-shard merge.  Integer key types
  /// throw std::invalid_argument — the shard pipeline is float-carrier only;
  /// route i32/u32 queries through the streaming tier instead.
  ShardedResult select_typed(KeyView keys, std::size_t k,
                             PayloadView payload = {}, std::size_t shards = 0,
                             Algo algo = Algo::kAuto);

  [[nodiscard]] const ShardConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t plan_cache_hits() const { return plan_hits_; }
  [[nodiscard]] std::size_t plan_cache_misses() const { return plan_misses_; }

 private:
  struct DeviceSlot;

  ShardConfig cfg_;
  std::vector<std::unique_ptr<DeviceSlot>> slots_;
  /// (n, k, algo) -> plan; block_chunk keeps this at <= 2 live shard shapes
  /// per (n, k, shards) triple, plus one merge-plan entry per (shards, k)
  /// that merges on a device.
  std::map<std::tuple<std::size_t, std::size_t, Algo>, ExecutionPlan> plans_;
  std::vector<float> typed_stage_;  ///< f16/bf16 carrier-encoded keys
  std::size_t plan_hits_ = 0;
  std::size_t plan_misses_ = 0;
};

/// One-shot convenience wrapper: build a Coordinator, run one query.
ShardedResult sharded_select(std::span<const float> data, std::size_t k,
                             const ShardConfig& cfg = {});

/// Shard-count floor/ceiling for a query: every shard must fit the device
/// (ceil(n / max_select_elems) at least) and still hold >= k keys (n / k at
/// most).  Throws when the interval is empty (k too large for the pool).
[[nodiscard]] std::size_t min_shards(std::size_t n,
                                     const simgpu::DeviceSpec& spec);
[[nodiscard]] std::size_t max_shards(std::size_t n, std::size_t k);

/// Host operations charged for selecting k of m gathered candidates on the
/// host: m * ceil(log2 m), the n log2 n form SampleSelect's sort_sample
/// host step is charged in.
[[nodiscard]] std::uint64_t host_merge_ops(std::size_t m);

/// The one merge-placement decision: kNone for one shard; kHost when the
/// host step over the shards * k gathered candidates (host_merge_ops) costs
/// no more than the cheapest possible device merge — candidate H2D, one
/// launch of min_kernel_duration_us and the packed result D2H — both
/// priced by CostModel under `spec`; kDevice otherwise.  Under the default
/// spec the host wins up to about 2,800 candidates.
[[nodiscard]] MergeSite merge_site(std::size_t shards, std::size_t k,
                                   const simgpu::DeviceSpec& spec);

/// First-order modeled cost (microseconds) of a sharded query, phase by
/// phase as ShardTiming books it: per-shard selection cost
/// (estimated_batch_cost_us at the per-shard shape) plus one packed result
/// copy, times the round count ceil(shards / devices), plus the merge at
/// merge_site() — the host step, or candidate H2D + the merge-tree estimate
/// + the packed result copy.  Used by recommend_shards.
[[nodiscard]] double estimated_sharded_cost_us(
    Algo algo, std::size_t shards, std::size_t devices, std::size_t n,
    std::size_t k, const simgpu::DeviceSpec& spec = {});

/// Pick a shard count for (n, k) on a pool of `devices`: race the unsharded
/// candidate (when it fits the device at all) against doublings from the
/// feasibility floor, under estimated_sharded_cost_us.
[[nodiscard]] std::size_t recommend_shards(std::size_t n, std::size_t k,
                                           std::size_t devices,
                                           const simgpu::DeviceSpec& spec);

/// Pure planning view of one sharded query, for the static auditor: the
/// per-shard plans (one per distinct block_chunk shape) and, for a device
/// merge, the merge plan, exactly as Coordinator::select on a pool of
/// `devices` would cache them (shards == 0 resolves the shard count for that
/// pool).  No Device is created.
[[nodiscard]] ShardedPlan plan_sharded(
    const simgpu::DeviceSpec& spec, std::size_t n, std::size_t k,
    std::size_t shards, Algo algo, const SelectOptions& opt = {},
    std::size_t devices = ShardConfig{}.devices);

}  // namespace topk::shard
