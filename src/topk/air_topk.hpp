#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "simgpu/simd.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/key_order.hpp"

namespace topk {

/// Options for AIR Top-K (paper §3).  Defaults follow the paper: 11-bit
/// digits, alpha = 128, adaptive buffering and early stopping enabled.  The
/// `adaptive` and `early_stopping` switches exist to reproduce the ablations
/// of Fig. 9 and Fig. 10.
struct AirTopkOptions {
  int alpha = 128;
  bool adaptive = true;
  bool early_stopping = true;
  /// Fuse the final filtering into the last iteration-fused kernel's last
  /// thread block instead of launching a separate grid-wide filter kernel.
  /// Saves one launch, but the single last block then scans all remaining
  /// candidates alone — disastrous when the adversarial distribution leaves
  /// ~N candidates unbuffered, which is exactly why the paper evaluates but
  /// does not adopt this design (§3.1).
  bool fuse_last_filter = false;
  int digit_bits = 11;
  /// Optional input indices (size batch*n).  When set, the reported result
  /// indices are taken from this buffer instead of the positions in `in` —
  /// the RAFT select_k `in_idx` feature used to chain selections (e.g. a
  /// coarse top-4k followed by a refined top-k keeps the original ids).
  simgpu::DeviceBuffer<std::uint32_t> in_idx{};
};

namespace air_detail {

/// Per-problem device-side control state (Algorithm 1's K, C, C',
/// target-digit prefix, plus output/buffer cursors and early-stop flags).
enum Field : std::size_t {
  kKRem = 0,    ///< K still to be found among current candidates
  kCand,        ///< C: candidate count after the latest completed pass
  kCandPrev,    ///< C': candidate count one pass earlier
  kPrefix,      ///< radix bits of the K-th element found so far (MSB-aligned)
  kOutCount,    ///< results written (atomic cursor into out_vals/out_idx)
  kTieCount,    ///< ticket counter for elements equal to the K-th value
  kBufCount0,   ///< write cursor of candidate buffer 0
  kBufCount1,   ///< write cursor of candidate buffer 1
  kDone,        ///< early stopping triggered (K == C)
  kCopied,      ///< early-stop copy-out already performed
  kNumFields
};

struct PassPlan {
  int start_bit = 0;  ///< LSB position of this pass's digit
  int width = 0;      ///< digit width in bits
};

/// Upper bound on the radix pass count: 64-bit keys with 1-bit digits.
inline constexpr int kMaxPasses = 64;

/// MSB-to-LSB digit plan: e.g. 32-bit keys with 11-bit digits give passes
/// over bits [21,32), [10,21), [0,10).
inline std::vector<PassPlan> plan_passes(int total_bits, int digit_bits) {
  std::vector<PassPlan> plan;
  int covered = 0;
  while (covered < total_bits) {
    const int width = std::min(digit_bits, total_bits - covered);
    covered += width;
    plan.push_back({total_bits - covered, width});
  }
  return plan;
}

}  // namespace air_detail

/// Execution plan for AIR Top-K: the MSB-to-LSB digit schedule with interned
/// per-pass kernel names, the launch grid (AIR uses one grid shape for every
/// kernel) and the workspace segments for control state, per-pass histograms,
/// last-block election counters and the adaptive candidate double buffer.
template <typename T>
struct AirTopkPlan {
  AirTopkOptions opt;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  KeyOrder<T> order;
  std::vector<air_detail::PassPlan> passes;
  std::vector<std::string_view> pass_names;  // interned per-pass kernel names
  int num_passes = 0;
  std::uint64_t n_over_alpha = 0;
  std::size_t bufcap = 0;
  GridShape shape;
  std::size_t seg_st = 0;
  std::size_t seg_finish = 0;
  std::size_t seg_val[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
  std::vector<std::size_t> seg_hist;  // one segment per radix pass
};

/// Footprint contracts for the AIR Top-K kernels.  Every scratch bound is
/// segment-sized (candidate capacity depends on the adaptive flag, histogram
/// widths on the digit schedule); result appends and the control-state
/// updates go through atomic-reserved cursors or the last-block election, so
/// they are declared kReserved rather than block-local.  air_init binds one
/// "hist" operand per radix pass — repeated binds of one operand are part of
/// the contract.
inline void register_air_topk_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"air_init",
       {
           {"st",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            8},
           {"finish",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            4},
           {"hist",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            4},
       }});
  simgpu::register_footprint(
      {"iteration_fused_kernel",
       {
           {"in",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            8,
            /*optional=*/true},
           {"in_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            4,
            /*optional=*/true},
           {"buf_in_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8,
            /*optional=*/true},
           {"buf_in_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4,
            /*optional=*/true},
           {"st", Access::kReadWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 8},
           {"hist", Access::kReadWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 4},
           {"finish", Access::kAtomic, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 4},
           {"buf_out_val",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kSegElems}},
            8,
            /*optional=*/true},
           {"buf_out_idx",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kSegElems}},
            4,
            /*optional=*/true},
           {"out_vals",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kBatchK}},
            8},
           {"out_idx",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kBatchK}},
            4},
       }});
  simgpu::register_footprint(
      {"last_filter_kernel",
       {
           {"in",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            8,
            /*optional=*/true},
           {"in_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            4,
            /*optional=*/true},
           {"buf_in_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8,
            /*optional=*/true},
           {"buf_in_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4,
            /*optional=*/true},
           {"st", Access::kReadWrite, WriteScope::kReserved,
            {{AffineVar::kSegElems}}, 8},
           {"finish",
            Access::kAtomic,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4,
            /*optional=*/true},
           {"out_vals",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kBatchK}},
            8},
           {"out_idx",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kBatchK}},
            4},
       }});
}

/// Phase 1 of AIR Top-K: validate, build the digit schedule and lay out the
/// workspace.  The candidate buffer capacity depends on the adaptive flag —
/// N/alpha + 1 when adaptive buffering is on, N when off — so toggling the
/// Fig. 9 ablation changes the plan's memory footprint, as in RAFT.
template <typename T>
AirTopkPlan<T> air_topk_plan(const Shape& s, const simgpu::DeviceSpec& spec,
                             const AirTopkOptions& opt,
                             simgpu::WorkspaceLayout& layout,
                             simgpu::KernelSchedule* sched = nullptr) {
  using Traits = RadixTraits<T>;
  using namespace air_detail;

  validate_problem(s.n, s.k, s.batch);
  if (opt.alpha < 4) {
    // 4C memory accesses for buffered candidates vs N loads (paper §3.2).
    throw std::invalid_argument("air_topk: alpha must be >= 4");
  }
  if (opt.digit_bits < 1 ||
      (std::size_t{4} << opt.digit_bits) > spec.shared_mem_per_block) {
    // The per-block histogram (2^b counters) must fit in shared memory —
    // the constraint that makes b = 11 "a suitable value" in §3.1.
    throw std::invalid_argument(
        "air_topk: digit_bits histogram exceeds shared memory");
  }
  if (!opt.in_idx.empty() && opt.in_idx.size() < s.batch * s.n) {
    throw std::invalid_argument("air_topk: in_idx too small");
  }

  AirTopkPlan<T> p;
  p.opt = opt;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.order = KeyOrder<T>(s.greatest);
  p.passes = plan_passes(Traits::kBits, opt.digit_bits);
  p.num_passes = static_cast<int>(p.passes.size());
  p.pass_names.reserve(p.passes.size());
  for (int i = 0; i < p.num_passes; ++i) {
    p.pass_names.push_back(simgpu::intern_name(
        "iteration_fused_kernel(" + std::to_string(i + 1) + ")"));
  }
  p.n_over_alpha =
      static_cast<std::uint64_t>(s.n) / static_cast<std::uint64_t>(opt.alpha);
  p.bufcap =
      opt.adaptive ? static_cast<std::size_t>(p.n_over_alpha) + 1 : s.n;
  p.shape = make_grid(s.batch, s.n, spec);

  p.seg_st = layout.add<std::uint64_t>("air state", s.batch * kNumFields);
  p.seg_hist.reserve(p.passes.size());
  for (const PassPlan& pp : p.passes) {
    p.seg_hist.push_back(
        layout.add<std::uint32_t>("air hist", s.batch << pp.width));
  }
  // One last-block election counter per (pass + last filter) per problem.
  p.seg_finish = layout.add<std::uint32_t>(
      "air finish", (static_cast<std::size_t>(p.num_passes) + 1) * s.batch);
  p.seg_val[0] = layout.add<T>("air cand vals 0", s.batch * p.bufcap);
  p.seg_val[1] = layout.add<T>("air cand vals 1", s.batch * p.bufcap);
  p.seg_idx[0] = layout.add<std::uint32_t>("air cand idx 0",
                                           s.batch * p.bufcap);
  p.seg_idx[1] = layout.add<std::uint32_t>("air cand idx 1",
                                           s.batch * p.bufcap);

  if (sched != nullptr) {
    register_air_topk_footprints();
    // Nominal schedule: init, one fused kernel per pass (later passes bind
    // both the input and the candidate buffer — the adaptive read source is
    // data-dependent, so the superset is recorded), then the last filter
    // unless it is fused away.
    const bool has_in_idx = !opt.in_idx.empty();
    std::vector<simgpu::OperandBind> init_binds;
    init_binds.push_back({"st", static_cast<int>(p.seg_st)});
    init_binds.push_back({"finish", static_cast<int>(p.seg_finish)});
    for (const std::size_t seg : p.seg_hist) {
      init_binds.push_back({"hist", static_cast<int>(seg)});
    }
    simgpu::record_launch(sched, "air_init", static_cast<int>(s.batch),
                          kBlockThreads, s.batch, s.n, s.k,
                          std::move(init_binds));
    const int last_kernel =
        opt.fuse_last_filter ? p.num_passes - 1 : p.num_passes;
    for (int pass = 0; pass <= last_kernel; ++pass) {
      const bool is_last_filter = (pass == p.num_passes);
      std::vector<simgpu::OperandBind> binds;
      binds.push_back({"in", simgpu::kBindInput});
      if (has_in_idx) binds.push_back({"in_idx", simgpu::kBindInput});
      if (pass >= 2) {
        binds.push_back(
            {"buf_in_val", static_cast<int>(p.seg_val[(pass + 1) & 1])});
        binds.push_back(
            {"buf_in_idx", static_cast<int>(p.seg_idx[(pass + 1) & 1])});
      }
      binds.push_back({"st", static_cast<int>(p.seg_st)});
      if (!is_last_filter) {
        binds.push_back(
            {"hist",
             static_cast<int>(p.seg_hist[static_cast<std::size_t>(pass)])});
      }
      binds.push_back({"finish", static_cast<int>(p.seg_finish)});
      if (pass >= 1 && !is_last_filter) {
        binds.push_back(
            {"buf_out_val", static_cast<int>(p.seg_val[pass & 1])});
        binds.push_back(
            {"buf_out_idx", static_cast<int>(p.seg_idx[pass & 1])});
      }
      binds.push_back({"out_vals", simgpu::kBindOutVals});
      binds.push_back({"out_idx", simgpu::kBindOutIdx});
      simgpu::record_launch(
          sched,
          is_last_filter ? std::string_view{"last_filter_kernel"}
                         : p.pass_names[static_cast<std::size_t>(pass)],
          p.shape.total_blocks(), kBlockThreads, s.batch, s.n, s.k,
          std::move(binds));
    }
  }
  return p;
}

/// Phase 2 of AIR Top-K: Adaptive and Iteration-fused Radix Top-K (paper §3).
///
/// Finds, for each of `batch` independent problems of `n` elements laid out
/// contiguously in `in`, the `k` smallest values and their indices.  The
/// whole computation consists of one init kernel (the analogue of
/// cudaMemsetAsync on the control state), one iteration-fused kernel per
/// radix pass, and one last-filter kernel; the host only launches kernels —
/// there are no host<->device transfers or synchronizations.
///
/// Output order within the result set is unspecified (as with the RAFT
/// implementation); the result *set* is deterministic except for which
/// elements tie at the K-th value.
template <typename T>
void air_topk_run(simgpu::Device& dev, const AirTopkPlan<T>& plan,
                  simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                  simgpu::DeviceBuffer<T> out_vals,
                  simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  using Traits = RadixTraits<T>;
  using Bits = typename Traits::Bits;
  using namespace air_detail;

  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const AirTopkOptions& opt = plan.opt;
  if (in.size() < batch * n) {
    throw std::invalid_argument("air_topk: input too small");
  }
  if (out_vals.size() < batch * k || out_idx.size() < batch * k) {
    throw std::invalid_argument("air_topk: output buffers too small");
  }
  const auto in_idx = opt.in_idx;  // empty: indices are row positions
  // Largest-k == smallest-k in complemented key space.
  const Bits order_mask = plan.order.radix_mask();

  const int num_passes = plan.num_passes;
  const std::uint64_t n_over_alpha = plan.n_over_alpha;
  const std::size_t bufcap = plan.bufcap;

  auto st = ws.get<std::uint64_t>(plan.seg_st);
  // Kernels capture raw pointers into these function-scope arrays (launch
  // runs the blocks to completion before returning, so the storage outlives
  // every block); capturing the plan's std::vectors by value would allocate.
  simgpu::DeviceBuffer<std::uint32_t> hist_local[kMaxPasses];
  for (int i = 0; i < num_passes; ++i) {
    hist_local[i] =
        ws.get<std::uint32_t>(plan.seg_hist[static_cast<std::size_t>(i)]);
  }
  const simgpu::DeviceBuffer<std::uint32_t>* const hist = hist_local;
  const PassPlan* const passes = plan.passes.data();
  auto finish = ws.get<std::uint32_t>(plan.seg_finish);
  simgpu::DeviceBuffer<T> buf_val[2] = {ws.get<T>(plan.seg_val[0]),
                                        ws.get<T>(plan.seg_val[1])};
  simgpu::DeviceBuffer<std::uint32_t> buf_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_idx[0]),
      ws.get<std::uint32_t>(plan.seg_idx[1])};

  const GridShape shape = plan.shape;
  const int bpp = shape.blocks_per_problem;

  const auto sidx = [](std::size_t prob, Field f) {
    return prob * kNumFields + static_cast<std::size_t>(f);
  };

  // ---- init kernel: control state + histograms (cudaMemsetAsync analogue)
  {
    simgpu::LaunchConfig cfg{"air_init", static_cast<int>(batch),
                             kBlockThreads, batch, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto prob = static_cast<std::size_t>(ctx.block_idx());
      ctx.store<std::uint64_t>(st, sidx(prob, kKRem), k);
      ctx.store<std::uint64_t>(st, sidx(prob, kCand), n);
      ctx.store<std::uint64_t>(st, sidx(prob, kCandPrev), n);
      ctx.store<std::uint64_t>(st, sidx(prob, kPrefix), 0);
      ctx.store<std::uint64_t>(st, sidx(prob, kOutCount), 0);
      ctx.store<std::uint64_t>(st, sidx(prob, kTieCount), 0);
      ctx.store<std::uint64_t>(st, sidx(prob, kBufCount0), 0);
      ctx.store<std::uint64_t>(st, sidx(prob, kBufCount1), 0);
      ctx.store<std::uint64_t>(st, sidx(prob, kDone), 0);
      ctx.store<std::uint64_t>(st, sidx(prob, kCopied), 0);
      for (int p = 0; p <= num_passes; ++p) {
        ctx.store<std::uint32_t>(
            finish, static_cast<std::size_t>(p) * batch + prob, 0);
      }
      for (int p = 0; p < num_passes; ++p) {
        zero_fill(ctx, hist[p], prob << passes[p].width,
                  std::size_t{1} << passes[p].width);
      }
      ctx.ops(1u << opt.digit_bits);
    });
  }

  // ---- one iteration-fused kernel per pass, then the last filter ---------
  const int last_kernel = opt.fuse_last_filter ? num_passes - 1 : num_passes;
  for (int p = 0; p <= last_kernel; ++p) {
    const bool is_last_filter = (p == num_passes);
    const bool fuse_filter_here =
        opt.fuse_last_filter && (p == num_passes - 1);
    const PassPlan cur = is_last_filter ? PassPlan{} : passes[p];
    const PassPlan prev = (p > 0) ? passes[p - 1] : PassPlan{};
    const std::size_t nb = std::size_t{1} << cur.width;
    const std::uint32_t digit_mask = (1u << cur.width) - 1u;
    const auto ghist =
        is_last_filter ? simgpu::DeviceBuffer<std::uint32_t>{} : hist[p];
    const auto buf_in_val = buf_val[(p + 1) & 1];
    const auto buf_in_idx = buf_idx[(p + 1) & 1];
    const auto buf_out_val = buf_val[p & 1];
    const auto buf_out_idx = buf_idx[p & 1];
    const Field buf_out_count = ((p & 1) != 0) ? kBufCount1 : kBufCount0;
    const bool adaptive = opt.adaptive;
    const bool early = opt.early_stopping;

    simgpu::LaunchConfig cfg{
        is_last_filter ? std::string_view{"last_filter_kernel"}
                       : plan.pass_names[static_cast<std::size_t>(p)],
        shape.total_blocks(), kBlockThreads, batch, n, k};

    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const std::size_t prob = shape.problem_of(ctx.block_idx());
      const int bip = shape.block_in_problem(ctx.block_idx());

      const std::uint64_t done = ctx.load(st, sidx(prob, kDone));
      const std::uint64_t copied = ctx.load(st, sidx(prob, kCopied));
      if (done != 0 && copied != 0) return;  // early-stopped and drained
      const bool copy_mode = done != 0;

      const std::uint64_t cand = ctx.load(st, sidx(prob, kCand));
      const std::uint64_t cand_prev = ctx.load(st, sidx(prob, kCandPrev));
      const std::uint64_t prefix = ctx.load(st, sidx(prob, kPrefix));
      const std::uint64_t k_rem = ctx.load(st, sidx(prob, kKRem));

      // Where do we read from?  Pass 0 and pass 1 always scan the input;
      // later passes read the candidate buffer iff the previous pass stored
      // candidates (Algorithm 1 line 7, generalized by the adaptive flag).
      const bool from_buf =
          (p >= 2) && (adaptive ? (cand_prev < n_over_alpha) : true);
      // Do we store candidates this pass?  (Algorithm 1 line 17.)
      const bool store_flag =
          (p >= 1) && !is_last_filter && !copy_mode &&
          (adaptive ? (cand < n_over_alpha) : true);

      const RadixSource<T> src =
          from_buf ? RadixSource<T>{buf_in_val, buf_in_idx, prob * bufcap,
                                    cand_prev, 0}
                   : RadixSource<T>{in, in_idx, prob * n, n, 0};
      const auto [begin, end] = block_chunk(src.count, bpp, bip);

      // Result and candidate-buffer appends use warp-aggregated atomics
      // (one reservation per staged batch), as the RAFT kernels do.
      AggregatedAppender<T, std::uint64_t> out_app(
          out_vals, out_idx, prob * k, st, sidx(prob, kOutCount), k,
          "air_topk results");
      AggregatedAppender<T, std::uint64_t> buf_app(
          buf_out_val, buf_out_idx, prob * bufcap, st,
          sidx(prob, buf_out_count), bufcap, "air_topk candidates");
      auto emit = [&](T value, std::uint32_t index) {
        out_app.push(ctx, value, index);
      };

      // Tie tickets (elements equal to the K-th value in the last filter)
      // are likewise reserved in warp-sized batches.
      T tie_v[32];
      std::uint32_t tie_i[32];
      std::size_t tie_staged = 0;
      auto flush_ties = [&]() {
        if (tie_staged == 0) return;
        const std::uint64_t base = ctx.atomic_add(
            st, sidx(prob, kTieCount), static_cast<std::uint64_t>(tie_staged));
        for (std::size_t i = 0; i < tie_staged; ++i) {
          if (base + i < k_rem) emit(tie_v[i], tie_i[i]);
        }
        ctx.ops(2);
        tie_staged = 0;
      };

      simgpu::SharedSpan<std::uint32_t> shist;
      if (!is_last_filter && !copy_mode) {
        shist = ctx.shared_zero<std::uint32_t>(nb, "air digit histogram");
      }
      // Raw histogram pointer while no sanitizer is attached (shared
      // accesses are uncounted, so this cannot perturb KernelStats); nullptr
      // means go through the shadowed SharedRef.
      std::uint32_t* const hraw = shist.unchecked_data();

      // Pass p >= 1 keeps the keys whose radix prefix through the previous
      // pass's digit is the K-th prefix found so far (`equal`), and finds
      // results among the keys that match it up to that digit and are
      // smaller there (`below`, prefix in [lo, target)).
      const auto target = static_cast<Bits>(prefix);
      const Bits lo = (target >> prev.width) << prev.width;
      // What happens to a kept key: a below key is a result; an equal one
      // is a result in copy mode (early stopping: every remaining candidate
      // is one), takes a tie ticket in the last filter, and otherwise is
      // buffered (when storing) and counted under its digit of this pass.
      // Pass 0 keeps every key as equal.
      const auto take = [&](T value, std::uint32_t index, bool below,
                            std::uint32_t digit) {
        if (below || copy_mode) {
          emit(value, index);
          return;
        }
        if (is_last_filter) {
          tie_v[tie_staged] = value;
          tie_i[tie_staged] = index;
          if (++tie_staged == 32) flush_ties();
          return;
        }
        if (store_flag) buf_app.push(ctx, value, index);
        if (hraw != nullptr) {
          ++hraw[digit];
        } else {
          ++shist[digit];
        }
      };

      // The unchecked path classifies whole tiles with SIMD and hands
      // take() the kept keys in element order; the per-element loop is its
      // reference.  Both load the same tiles, and the charges below are
      // bulk, so KernelStats are identical.
      bool tiled = false;
      if constexpr (simgpu::simd::kRadixCarrier<T>) {
        if (ctx.unchecked_tiles()) {
          if (p == 0) {
            histogram_tiles(ctx, src, begin, end, order_mask, cur.start_bit,
                            digit_mask, hraw);
          } else {
            const simgpu::simd::DigitRule rule{
                .order = order_mask, .shift = prev.start_bit, .lo = lo,
                .target = target, .tag_shift = cur.start_bit,
                .tag_mask = digit_mask};
            scan_classified_tiles(
                ctx, src, begin, end, rule, [&](const ClassifiedTile<T>& t) {
                  if (copy_mode || is_last_filter) {
                    for (std::size_t s = 0; s < t.kept; ++s) {
                      take(t.value(s), t.index(s),
                           t.tag[s] == simgpu::simd::kBelowTag, t.tag[s]);
                    }
                    return;
                  }
                  // take() of a counting pass, a tile at a time: below keys
                  // are results and equal keys are buffered when storing,
                  // each appender seeing its pushes in element order; then
                  // the SIMD histogram counts the equal keys' tags (their
                  // next digit).  A below key's tag, kBelowTag, masks to the
                  // last bin, which gives those counts back.
                  std::size_t below = 0;
                  for (std::size_t s = 0; s < t.kept; ++s) {
                    below += t.tag[s] == simgpu::simd::kBelowTag ? 1 : 0;
                  }
                  if (below != 0 || store_flag) {
                    for (std::size_t s = 0; s < t.kept; ++s) {
                      if (t.tag[s] == simgpu::simd::kBelowTag) {
                        out_app.push(ctx, t.value(s), t.index(s));
                      } else if (store_flag) {
                        buf_app.push(ctx, t.value(s), t.index(s));
                      }
                    }
                  }
                  simgpu::simd::histogram_digits<std::uint32_t>(
                      {t.tag, t.kept}, 0, 0, digit_mask, hraw);
                  hraw[digit_mask] -= static_cast<std::uint32_t>(below);
                });
          }
          tiled = true;
        }
      }
      if (!tiled) {
        scan_source(ctx, src, begin, end, [&](T value, std::uint32_t index) {
          const Bits key = Traits::to_radix(value) ^ order_mask;
          const auto digit =
              static_cast<std::uint32_t>(key >> cur.start_bit) & digit_mask;
          if (p == 0) {
            take(value, index, false, digit);
            return;
          }
          const auto pk = static_cast<Bits>(key >> prev.start_bit);
          if (pk == target || (pk >= lo && pk < target)) {
            take(value, index, pk != target, digit);
          }
        });
      }
      // ~10 lane ops per element: load issue, radix transform, prefix
      // compare chain, digit extract (shift+mask), shared-histogram address
      // arithmetic + increment, loop bookkeeping.
      ctx.ops(10 * (end - begin));

      // Drain the staged appends before the block retires.
      flush_ties();
      out_app.flush(ctx);
      buf_app.flush(ctx);

      // Fused epilogue: flush the block histogram and let the last block of
      // this problem compute prefix sum + target digit (Algorithm 1 l.23-28).
      if (!is_last_filter && !copy_mode) {
        ctx.sync();
        ctx.flush_counts(ghist, prob << cur.width, shist);
        ctx.ops(nb);
      }
      if (is_last_filter && !copy_mode) return;

      const std::uint32_t finished = ctx.atomic_add(
          finish, static_cast<std::size_t>(p) * batch + prob, 1u);
      if (finished != static_cast<std::uint32_t>(bpp - 1)) return;

      // ---- last thread block of this problem ----
      if (copy_mode) {
        ctx.store<std::uint64_t>(st, sidx(prob, kCopied), 1);
        return;
      }
      std::uint64_t total = 0;
      std::uint32_t target_digit = 0;
      std::uint64_t less = 0;
      std::uint64_t target_count = 0;
      for (std::size_t d = 0; d < nb; ++d) {
        const std::uint32_t c = ctx.load(ghist, (prob << cur.width) + d);
        if (total + c >= k_rem) {
          target_digit = static_cast<std::uint32_t>(d);
          less = total;
          target_count = c;
          break;
        }
        total += c;
      }
      ctx.ops(2 * nb);
      ctx.store<std::uint64_t>(st, sidx(prob, kCandPrev), cand);
      ctx.store<std::uint64_t>(st, sidx(prob, kCand), target_count);
      ctx.store<std::uint64_t>(st, sidx(prob, kKRem), k_rem - less);
      ctx.store<std::uint64_t>(st, sidx(prob, kPrefix),
                               (prefix << cur.width) | target_digit);
      ctx.store<std::uint64_t>(
          st, sidx(prob, ((p + 1) & 1) != 0 ? kBufCount1 : kBufCount0), 0);
      if (early && (k_rem - less) == target_count) {
        ctx.store<std::uint64_t>(st, sidx(prob, kDone), 1);
      }

      if (fuse_filter_here) {
        // Fused final filter: this (single) last thread block scans the
        // remaining candidates by itself and writes the final results.
        const auto kth = static_cast<Bits>((prefix << cur.width) |
                                           target_digit);
        const std::uint64_t ties_needed = k_rem - less;
        std::uint64_t ties_taken = 0;
        const std::size_t fcount = store_flag ? cand : n;
        const RadixSource<T> fsrc =
            store_flag ? RadixSource<T>{buf_out_val, buf_out_idx,
                                        prob * bufcap, fcount, 0}
                       : RadixSource<T>{in, in_idx, prob * n, fcount, 0};
        const Bits flo = (kth >> cur.width) << cur.width;
        const auto ftake = [&](T value, std::uint32_t index, bool below) {
          if (below) {
            emit(value, index);
          } else if (ties_taken < ties_needed) {
            emit(value, index);
            ++ties_taken;
          }
        };
        bool ftiled = false;
        if constexpr (simgpu::simd::kRadixCarrier<T>) {
          if (ctx.unchecked_tiles()) {
            const simgpu::simd::DigitRule rule{
                .order = order_mask, .lo = flo, .target = kth};
            scan_classified(ctx, fsrc, 0, fcount, rule,
                            [&](T value, std::uint32_t index,
                                std::uint32_t tag) {
                              ftake(value, index,
                                    tag == simgpu::simd::kBelowTag);
                            });
            ftiled = true;
          }
        }
        if (!ftiled) {
          scan_source(ctx, fsrc, 0, fcount,
                      [&](T value, std::uint32_t index) {
                        const Bits key = Traits::to_radix(value) ^ order_mask;
                        if (key == kth || (key >= flo && key < kth)) {
                          ftake(value, index, key != kth);
                        }
                      });
        }
        ctx.ops(6 * fcount);
        out_app.flush(ctx);
      }
    });
  }
}

}  // namespace topk
