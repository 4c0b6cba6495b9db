#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simgpu/simgpu.hpp"

namespace topk {

/// Every algorithm in the benchmark (paper Table 1 plus the two proposed
/// methods and their ablation variants).
enum class Algo {
  kAirTopk,             ///< AIR Top-K (this paper, §3)
  kGridSelect,          ///< GridSelect (this paper, §4)
  kRadixSelect,         ///< host-managed RadixSelect (DrTopK)
  kWarpSelect,          ///< Faiss WarpSelect: one warp, per-thread queues
  kBlockSelect,         ///< Faiss BlockSelect: one block of 4 warps
  kBitonicTopk,         ///< Bitonic Top-K (Shanbhag et al.), K <= 256
  kQuickSelect,         ///< GpuSelection QuickSelect
  kBucketSelect,        ///< GpuSelection BucketSelect
  kSampleSelect,        ///< GpuSelection SampleSelect
  kSort,                ///< full radix sort (CUB style) then take K
  // --- ablation variants ---
  kAirTopkNoAdaptive,   ///< AIR without the adaptive buffering (Fig. 9)
  kAirTopkNoEarlyStop,  ///< AIR without early stopping (Fig. 10)
  kAirTopkFusedFilter,  ///< AIR with the last filter fused (§3.1, rejected)
  kGridSelectThreadQueue,  ///< GridSelect with per-thread queues (Fig. 11)
  // --- fused row-wise family (serving-shaped micro-batches) ---
  kFusedWarpRowwise,   ///< one warp per row, whole batch in a single launch
  kFusedBlockRowwise,  ///< one block per row, partials + grid-spanning merge
  // --- sharded scale-out (queries larger than one device) ---
  kShardMerge,  ///< sorted-run merge-prune tree; the cross-shard reduction
                ///< stage of topk::shard, usable standalone (k <= 2048)
  // --- approximate tier (recall-SLO routed) ---
  kBucketApprox,  ///< bucketed one-pass approximate top-k: top-q per chunk
                  ///< plus a shared-memory refine; exact when
                  ///< recall_target = 1.0 (k <= 2048)
  // --- streaming large-K tier (RadiK direction) ---
  kStreamRadix,  ///< chunked host-loop radix select: bounded scratch
                 ///< independent of N, K up to kMaxK (2^20)
  // --- dispatch ---
  kAuto,  ///< let recommend_algorithm() pick per (n, k, batch) at run time
};

[[nodiscard]] std::string algo_name(Algo algo);

/// The short registry key for an algorithm ("air", "grid", ...; the ablation
/// variants get "air-noadaptive", "air-noearlystop", "air-fusedfilter" and
/// "grid-threadqueue").  Round-trips through parse_algo for every Algo value.
[[nodiscard]] std::string_view algo_key(Algo algo);

/// Parse a registry key back to its Algo ("auto" maps to Algo::kAuto, which
/// defers the choice to recommend_algorithm() at execution time).  Returns
/// nullopt for unknown keys.
[[nodiscard]] std::optional<Algo> parse_algo(std::string_view key);

/// All benchmarkable algorithms in a stable order (main methods first).
[[nodiscard]] std::span<const Algo> all_algorithms();

class half;   // topk/half.hpp
class bf16;   // topk/bf16.hpp

/// Key element type of a selection problem.  Every algorithm executes on one
/// of two carrier domains:
///  - f32 carrier: f32 keys run as-is; f16/bf16 keys are encoded to their
///    exact 16-bit radix ordinal (an integer in [0, 65536), exactly
///    representable in float, totally ordered — NaNs by bit pattern) and
///    decoded back after selection.
///  - u32 carrier: i32/u32 keys are encoded to their monotone radix ordinal
///    and the algorithm is instantiated at uint32_t.
/// Registry rows declare which key types they accept (algo_supports_dtype);
/// recommend_algorithm filters its cost race by them.
enum class KeyType : std::uint8_t { kF32 = 0, kF16, kBF16, kI32, kU32 };

inline constexpr std::size_t kNumKeyTypes = 5;

[[nodiscard]] std::string_view key_type_name(KeyType t);  // "f32", ...
[[nodiscard]] std::optional<KeyType> parse_key_type(std::string_view key);

/// True for i32/u32 — key types that execute on the u32 carrier.
[[nodiscard]] constexpr bool key_type_is_integer(KeyType t) {
  return t == KeyType::kI32 || t == KeyType::kU32;
}

/// Bit for KeyType `t` in an AlgoRow dtype mask.
[[nodiscard]] constexpr unsigned key_type_bit(KeyType t) {
  return 1u << static_cast<unsigned>(t);
}
inline constexpr unsigned kDtypesFloatFamily =
    key_type_bit(KeyType::kF32) | key_type_bit(KeyType::kF16) |
    key_type_bit(KeyType::kBF16);
inline constexpr unsigned kDtypesAll =
    kDtypesFloatFamily | key_type_bit(KeyType::kI32) |
    key_type_bit(KeyType::kU32);

/// Whether the registry row for `algo` declares support for key type `t`
/// (false for Algo::kAuto — resolve first).
[[nodiscard]] bool algo_supports_dtype(Algo algo, KeyType t);

/// Hard ceiling on K across the whole system (TOPK_MAX_K): the streaming
/// large-K tier supports K up to 2^20; validate_select_args,
/// reference_select and plan_select all reject anything beyond it.
inline constexpr std::size_t kMaxK = std::size_t{1} << 20;

/// Type-erased, non-owning view of a key array.  Construct via of(); the
/// dtype travels with the pointer so typed select()/serve entry points can
/// dispatch on it.
struct KeyView {
  KeyType dtype = KeyType::kF32;
  const void* data = nullptr;
  std::size_t size = 0;  ///< elements

  KeyView() = default;
  KeyView(KeyType t, const void* p, std::size_t count)
      : dtype(t), data(p), size(count) {}

  static KeyView of(std::span<const float> s) {
    return {KeyType::kF32, s.data(), s.size()};
  }
  static KeyView of(std::span<const half> s);   // defined in key_codec.hpp
  static KeyView of(std::span<const bf16> s);   // defined in key_codec.hpp
  static KeyView of(std::span<const std::int32_t> s) {
    return {KeyType::kI32, s.data(), s.size()};
  }
  static KeyView of(std::span<const std::uint32_t> s) {
    return {KeyType::kU32, s.data(), s.size()};
  }
};

/// Optional per-key payload carried through selection (the "value" of a
/// key-value select: ANN candidate ids, document ids, ...).  u32 payloads
/// widen losslessly into the u64 result vector.
enum class PayloadKind : std::uint8_t { kNone = 0, kU32, kU64 };

struct PayloadView {
  PayloadKind kind = PayloadKind::kNone;
  const void* data = nullptr;
  std::size_t size = 0;  ///< elements; must equal batch*n when present

  PayloadView() = default;

  static PayloadView of(std::span<const std::uint32_t> s) {
    PayloadView v;
    v.kind = PayloadKind::kU32;
    v.data = s.data();
    v.size = s.size();
    return v;
  }
  static PayloadView of(std::span<const std::uint64_t> s) {
    PayloadView v;
    v.kind = PayloadKind::kU64;
    v.data = s.data();
    v.size = s.size();
    return v;
  }

  [[nodiscard]] bool present() const { return kind != PayloadKind::kNone; }
};

/// Maximum supported K for an algorithm at problem size n (0 = unsupported).
/// Partial-sorting methods have hard K limits (paper §2.2: 256 for Bitonic
/// Top-K, 2048 for the selection queues).
[[nodiscard]] std::size_t max_k(Algo algo, std::size_t n);

/// Workload description for algorithm recommendation.
struct WorkloadHints {
  /// Independent problems executed in one launch set (the paper benchmarks
  /// batch = 100 throughout §5).  The serving layer's batch planner passes
  /// the micro-batch size it assembled; many-row micro-batches route to the
  /// fused row-wise family via the batch-aware cost estimate below.
  std::size_t batch = 1;
  /// Planned shard count for queries split across a device pool by
  /// topk::shard (0/1 = unsharded).  When > 1 the recommendation is made at
  /// the per-shard row length ceil(n / shards) — the shape each device
  /// actually selects over — and k must fit inside one shard.
  std::size_t shards = 0;
  /// Minimum acceptable recall, in (0, 1].  1.0 (the default) demands an
  /// exact result and can never route to the approximate tier; anything
  /// below enters Algo::kBucketApprox into the cost race against the exact
  /// pick, priced at the (buckets, keep) shape the planner would choose for
  /// this target.  Values outside (0, 1] are rejected with
  /// std::invalid_argument.
  double recall_target = 1.0;
  /// Key element type of the workload.  Candidates whose registry row does
  /// not declare this dtype are filtered out of the recommendation race.
  KeyType dtype = KeyType::kF32;
};

/// First-order modeled cost (microseconds) of running `algo` on one
/// (batch, n, k) micro-batch, from the default A100-class DeviceSpec
/// constants: per-launch overhead, one memory-bound input sweep, and a
/// lane-op term scaled by how many warps the algorithm can actually spawn.
/// Deliberately coarse — it only needs to rank choices whose costs differ
/// structurally: host-serial per-row pipelines (RadixSelect's run loop)
/// scale their launch count with batch and lose to any fused launch as
/// soon as rows dominate; one-warp-per-row fused scans beat
/// warps-per-row + merge structures at small n, and vice versa at mid n.
/// `recall_target` only affects Algo::kBucketApprox, whose launch count and
/// candidate volume depend on the (buckets, keep) shape the planner would
/// pick for that target; every exact algorithm ignores it.
[[nodiscard]] double estimated_batch_cost_us(Algo algo, std::size_t batch,
                                             std::size_t n, std::size_t k,
                                             double recall_target = 1.0);

/// The paper's §5.1 usage guidelines as an API, extended for the serving
/// tier's many-row micro-batches:
///  1) many rows (batch >= 64) -> the cheapest of the batch candidates
///     {fused row-wise (warp/row), fused row-wise (block/row), GridSelect,
///     AIR Top-K, RadixSelect} that serve k and the dtype, under
///     estimated_batch_cost_us (RadixSelect's host-serial row loop prices
///     it out here — that is the point);
///  2) large N with small K (< 256) -> GridSelect (the measured winner);
///  3) everything else -> AIR Top-K.
/// Below recall_target 1 the pick then races Algo::kBucketApprox at
/// modeled cost.  Throws std::invalid_argument on invalid hints.
[[nodiscard]] Algo recommend_algorithm(std::size_t n, std::size_t k,
                                       const WorkloadHints& hints = {});

/// One candidate of a recommendation race.
struct PricedCandidate {
  Algo algo = Algo::kAuto;
  double us = 0.0;  ///< estimated_batch_cost_us; 0 when `skipped`
  const char* skipped = nullptr;  ///< why it was not priced, else null
};

/// How recommend_algorithm reached its pick, for tools that explain it:
/// the rule that chose the exact row, and what each race it ran
/// priced.  A race it did not run is empty.
struct Recommendation {
  Algo algo = Algo::kAuto;   ///< what recommend_algorithm returns
  Algo exact = Algo::kAuto;  ///< the exact pick the approximate race faced
  const char* rule = "";     ///< the rule that chose `exact`
  /// Rule 1's candidates in listed order (which breaks cost ties).
  std::vector<PricedCandidate> batch_race;
  /// Below recall_target 1: Algo::kBucketApprox, then `exact`.
  std::vector<PricedCandidate> approx_race;
};

/// recommend_algorithm with its reasons.
[[nodiscard]] Recommendation explain_recommendation(
    std::size_t n, std::size_t k, const WorkloadHints& hints = {});

/// Resolve Algo::kAuto into a concrete algorithm via recommend_algorithm
/// (identity for every other value).  select()/select_batch()/plan_select()
/// call this, so kAuto is usable anywhere a concrete Algo is.
[[nodiscard]] Algo resolve_algo(Algo algo, std::size_t n, std::size_t k,
                                std::size_t batch = 1,
                                double recall_target = 1.0,
                                KeyType dtype = KeyType::kF32);

/// Result of one top-K problem: the k smallest values and their indices in
/// the input list.  Order within the result set is unspecified.
///
/// For non-f32 key types the typed entry points fill the extra fields:
/// `values` always holds a float rendering of each selected key (exact for
/// f16/bf16; a lossy convenience cast for i32/u32 beyond 2^24), and
/// `values_bits` holds the authoritative raw storage bits — the 16-bit
/// f16/bf16 pattern zero-extended, or the 32-bit two's-complement / unsigned
/// pattern for i32/u32.  Empty for plain f32 selects.  `payload` holds the
/// gathered per-key payload (u32 widened to u64) when one was supplied.
struct SelectResult {
  std::vector<float> values;
  std::vector<std::uint32_t> indices;
  KeyType dtype = KeyType::kF32;
  std::vector<std::uint32_t> values_bits;
  std::vector<std::uint64_t> payload;
};

/// Reorder a result best-first in place: ascending values for smallest-K,
/// descending for largest-K (KeyOrder::less), with values, indices and any
/// payload permuted together.
/// `order_scratch` holds the permutation and is resized to k on every call;
/// batched post-passes hoist one scratch vector outside the row loop so the
/// sort allocates nothing per row once warm.  Shared by select()'s sorted
/// option and the serving layer's per-query post-pass.
void sort_result_best_first(SelectResult& r, bool greatest,
                            std::vector<std::uint32_t>& order_scratch);

/// Extra knobs forwarded to the algorithms.
struct SelectOptions {
  /// Select the largest K instead of the smallest (the plan's KeyOrder,
  /// topk/key_order.hpp, applied wherever keys are compared).
  bool greatest = false;
  bool sorted = false;            ///< order results best-first
  /// Recall the approximate tier (Algo::kBucketApprox) sizes its bucket
  /// shape for; must be in (0, 1].  At the default 1.0 the tier keeps k
  /// candidates per bucket and is provably exact, so every exact-contract
  /// harness covers it unchanged.  Exact algorithms ignore this knob.
  double recall_target = 1.0;
  /// Key element type the plan executes.  The typed select() overloads set
  /// this from the KeyView; direct plan_select callers set it themselves.
  /// The algorithm's registry row must declare the dtype or plan_select
  /// throws.  i32/u32 plans run on the u32 carrier — use the uint32
  /// run_select overload.
  KeyType dtype = KeyType::kF32;
};

/// Run one top-K selection on the simulated device.  `data` is copied to the
/// device outside the recorded event stream (the paper's timed region also
/// starts with the data resident on the GPU).
SelectResult select(simgpu::Device& dev, std::span<const float> data,
                    std::size_t k, Algo algo, const SelectOptions& opt = {});

/// Batched selection: `data` holds `batch` problems of `n` contiguous
/// elements; returns one result per problem.
std::vector<SelectResult> select_batch(simgpu::Device& dev,
                                       std::span<const float> data,
                                       std::size_t batch, std::size_t n,
                                       std::size_t k, Algo algo,
                                       const SelectOptions& opt = {});

/// Typed key-value selection: keys of any KeyType, with an optional payload
/// gathered alongside the winners (see SelectResult).  opt.dtype is taken
/// from the KeyView.  The payload, when present, must cover every key
/// (payload.size == keys.size).
SelectResult select(simgpu::Device& dev, KeyView keys, std::size_t k,
                    Algo algo, const SelectOptions& opt = {},
                    PayloadView payload = {});

/// Typed batched key-value selection; keys.size must equal batch*n and the
/// payload (when present) covers all batch*n entries.  Indices (and payload
/// gathers) are row-local, as in the float overload.
std::vector<SelectResult> select_batch(simgpu::Device& dev, KeyView keys,
                                       std::size_t batch, std::size_t n,
                                       std::size_t k, Algo algo,
                                       const SelectOptions& opt = {},
                                       PayloadView payload = {});

struct PlanImpl;  // registry internals (topk/registry.hpp)

/// Cacheable handle to a planned selection: the resolved algorithm, shape,
/// and the workspace layout run_select() binds.  Produced by plan_select();
/// copies are cheap (one shared_ptr) and the underlying plan is immutable,
/// so one plan can serve concurrent workers and repeated runs.  A default-
/// constructed handle is invalid (valid() == false) and run_select() rejects
/// it.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
  [[nodiscard]] Algo algo() const;      ///< concrete (never kAuto)
  [[nodiscard]] std::size_t batch() const;
  [[nodiscard]] std::size_t n() const;
  [[nodiscard]] std::size_t k() const;
  [[nodiscard]] bool greatest() const;
  [[nodiscard]] KeyType dtype() const;
  /// True when the plan executes on the u32 carrier (i32/u32 keys); such
  /// plans run through the uint32 run_select overload.
  [[nodiscard]] bool u32_carrier() const;
  /// Named workspace segments (sizes/alignments) this plan's run binds.
  [[nodiscard]] const simgpu::WorkspaceLayout& layout() const;
  /// Scratch bytes one bound workspace slab needs for this plan.
  [[nodiscard]] std::size_t workspace_bytes() const;
  /// The nominal kernel sequence the plan function recorded against the
  /// layout: every launch with its grid and operand-to-segment binds, plus
  /// host transfer/compute steps.  Consumed by the static plan auditor
  /// (src/verify); run_select never reads it.
  [[nodiscard]] const simgpu::KernelSchedule& schedule() const;

 private:
  friend ExecutionPlan plan_select(const simgpu::DeviceSpec&, std::size_t,
                                   std::size_t, std::size_t, Algo,
                                   const SelectOptions&);
  friend void run_select(simgpu::Device&, const ExecutionPlan&,
                         simgpu::Workspace&, simgpu::DeviceBuffer<float>,
                         simgpu::DeviceBuffer<float>,
                         simgpu::DeviceBuffer<std::uint32_t>);
  friend void run_select(simgpu::Device&, const ExecutionPlan&,
                         simgpu::Workspace&,
                         simgpu::DeviceBuffer<std::uint32_t>,
                         simgpu::DeviceBuffer<std::uint32_t>,
                         simgpu::DeviceBuffer<std::uint32_t>);

  explicit ExecutionPlan(std::shared_ptr<const PlanImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<const PlanImpl> impl_;
};

/// Phase 1 of the two-phase execution contract: validate the problem, pick
/// the concrete algorithm (kAuto resolves via recommend_algorithm), and
/// precompute everything the run needs — kernel schedule, grids, interned
/// kernel names, and the named workspace segments.  Pure function of
/// (spec, shape, algo, opt): no Device needed, safe to cache and share.
/// A largest-K plan has the same layout and schedule as its smallest-K twin.
[[nodiscard]] ExecutionPlan plan_select(const simgpu::DeviceSpec& spec,
                                        std::size_t batch, std::size_t n,
                                        std::size_t k, Algo algo,
                                        const SelectOptions& opt = {});

/// Phase 2: bind the plan's layout into `ws` (pooled; a warm workspace whose
/// slab already fits re-binds without touching the pool) and execute.  This
/// path performs zero allocations — device or host — once `ws` is warm;
/// bench_substrate gates its steady-state alloc counter at exactly 0 on it.
/// `in` holds batch*n keys resident on the device; results land unordered
/// in out_vals/out_idx (batch*k each).
void run_select(simgpu::Device& dev, const ExecutionPlan& plan,
                simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                simgpu::DeviceBuffer<float> out_vals,
                simgpu::DeviceBuffer<std::uint32_t> out_idx);

/// u32-carrier run: same contract as the float overload, for plans built
/// with an integer dtype (i32/u32 keys encoded to radix ordinals).
void run_select(simgpu::Device& dev, const ExecutionPlan& plan,
                simgpu::Workspace& ws,
                simgpu::DeviceBuffer<std::uint32_t> in,
                simgpu::DeviceBuffer<std::uint32_t> out_vals,
                simgpu::DeviceBuffer<std::uint32_t> out_idx);

/// True when the TOPK_SIMCHECK environment variable requests the simcheck
/// sanitizer (set and neither empty nor "0"); read per call so tests can
/// toggle it.  When it is set, select()/select_batch() attach a sanitizer to
/// the Device (if none is attached yet) and abort with std::runtime_error on
/// any issue the selection raises.
[[nodiscard]] bool simcheck_env_enabled();

/// Throw std::runtime_error formatting every sanitizer issue recorded after
/// `issues_before` (the simcheck abort used by select/select_batch, exposed
/// so the abort path is directly testable).
void throw_if_new_issues(const simgpu::Sanitizer& san,
                         std::size_t issues_before, Algo algo);

/// Reference result via std::nth_element (for verification).
SelectResult reference_select(std::span<const float> data, std::size_t k);

/// Check that `result` is a correct top-k answer for `data`: indices valid
/// and distinct, values match data[index], and the value multiset equals the
/// reference top-k multiset.  Returns an empty string on success, otherwise
/// a description of the first violation.
std::string verify_topk(std::span<const float> data, std::size_t k,
                        const SelectResult& result);

}  // namespace topk
