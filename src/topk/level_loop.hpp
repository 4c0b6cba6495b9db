#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"

namespace topk {

/// The level plumbing of the host-looped rows (QuickSelect, BucketSelect,
/// SampleSelect and the radix pass loop), held once.  One level counts the
/// live candidates into classes, copies the histogram to the host, scans it
/// for the class that holds the K-th key, filters the winners (classes
/// below it) out and the ties (that class) on to the next level, and ends
/// with a copy of the tied remainder.  That host round trip per level is
/// what AIR Top-K's iteration fusion removes (paper §3.1, Fig. 8).  What a
/// row classifies by, and how it leaves the loop early, stays in the row.

// ---- operand contracts ------------------------------------------------------
// Histogram and candidate bounds are segment-sized: the class count is a
// tuning constant and the candidate capacity each row's choice (n for the
// partition rows and RadixSelect, a chunk for stream-radix).

namespace level_detail {

/// The live candidates of a level: the input row on the first level (no
/// index operand), a candidate buffer pair after; then, when `table` names
/// one, a lookup table the classification reads (SampleSelect's
/// splitters, which its pivot fallback leaves unread).
inline std::vector<simgpu::OperandSpec> source_operands(bool with_idx,
                                                        const char* table) {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  std::vector<simgpu::OperandSpec> ops = {
      {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8,
       /*optional=*/true},
      {"src_val", Access::kRead, WriteScope::kNone,
       {{AffineVar::kSegElems}}, 8, /*optional=*/true},
  };
  if (with_idx) {
    ops.push_back({"src_idx", Access::kRead, WriteScope::kNone,
                   {{AffineVar::kSegElems}}, 4, /*optional=*/true});
  }
  if (table != nullptr) {
    ops.push_back({table, Access::kRead, WriteScope::kNone,
                   {{AffineVar::kSegElems}}, 8, /*optional=*/true});
  }
  return ops;
}

}  // namespace level_detail

/// The level's clear of its histogram and its two append cursors; with
/// `cursors_optional` the cursors may be left to another kernel of the row.
inline std::vector<simgpu::OperandSpec> memset_operands(
    bool cursors_optional = false) {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  return {
      {"hist", Access::kWrite, WriteScope::kSingleBlock,
       {{AffineVar::kSegElems}}, 4},
      {"counters", Access::kWrite, WriteScope::kSingleBlock,
       {{AffineVar::kOne, 2}}, 4, cursors_optional},
  };
}

/// The level's class count into the histogram.
inline std::vector<simgpu::OperandSpec> hist_operands(
    const char* table = nullptr) {
  auto ops = level_detail::source_operands(false, table);
  ops.push_back({"hist", simgpu::Access::kAtomic, simgpu::WriteScope::kNone,
                 {{simgpu::AffineVar::kSegElems}}, 4});
  return ops;
}

/// The level's filter: winners append through the reserved cursor 0 to
/// (win_val, win_idx), bounded by `win_extent`; ties go to (dst_val,
/// dst_idx) through cursor 1.
inline std::vector<simgpu::OperandSpec> filter_operands(
    const char* win_val, const char* win_idx, simgpu::AffineVar win_extent,
    const char* table = nullptr) {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  auto ops = level_detail::source_operands(true, table);
  ops.push_back({"counters", Access::kAtomic, WriteScope::kNone,
                 {{AffineVar::kOne, 2}}, 4});
  ops.push_back({win_val, Access::kWrite, WriteScope::kReserved,
                 {{win_extent}}, 8});
  ops.push_back({win_idx, Access::kWrite, WriteScope::kReserved,
                 {{win_extent}}, 4});
  ops.push_back({"dst_val", Access::kWrite, WriteScope::kReserved,
                 {{AffineVar::kSegElems}}, 8});
  ops.push_back({"dst_idx", Access::kWrite, WriteScope::kReserved,
                 {{AffineVar::kSegElems}}, 4});
  return ops;
}

/// The remainder copy: the first live candidates (or, on degenerate
/// shapes, an input prefix) into the output slice.
inline std::vector<simgpu::OperandSpec> remainder_operands() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  auto ops = level_detail::source_operands(true, nullptr);
  ops.push_back({"out_vals", Access::kWrite, WriteScope::kBlockLocal,
                 {{AffineVar::kBatchK}}, 8});
  ops.push_back({"out_idx", Access::kWrite, WriteScope::kBlockLocal,
                 {{AffineVar::kBatchK}}, 4});
  return ops;
}

/// Footprint contract for the "CopyRemainder" terminal kernel shared by
/// RadixSelect, BucketSelect and SampleSelect.
inline void register_copy_remainder_footprint() {
  simgpu::register_footprint({"CopyRemainder", remainder_operands()});
}

// ---- schedule ---------------------------------------------------------------

/// One level as the static auditor sees it: the histogram launch, the
/// histogram copy, the scan and the filter.  Names and labels are the
/// owning row's.
struct LevelSteps {
  std::string_view hist_name = {};
  std::string_view filter_name = {};
  const char* copy_label = nullptr;  ///< the histogram's D2H copy
  const char* scan_label = nullptr;  ///< the host scan for the target class
  int grid = 1;
  std::size_t n = 0;
  std::size_t k = 0;
  int seg_hist = 0;
  int seg_host_hist = 0;
  int seg_counters = 0;
};

/// Record one level into the nominal schedule.  `src_val == kBindInput`
/// reads the caller's input; otherwise (src_val, src_idx) name a segment
/// pair.  `table` (SampleSelect's splitters) is bound after the source when
/// its name is set; winners go to (win_val, win_idx) and ties to the
/// segment pair (dst_val, dst_idx).
inline void record_level(simgpu::KernelSchedule* sched, const LevelSteps& l,
                         int src_val, int src_idx,
                         const simgpu::OperandBind& table,
                         const simgpu::OperandBind& win_val,
                         const simgpu::OperandBind& win_idx, int dst_val,
                         int dst_idx) {
  std::vector<simgpu::OperandBind> hist_binds;
  std::vector<simgpu::OperandBind> filter_binds;
  if (src_val == simgpu::kBindInput) {
    hist_binds.push_back({"in", simgpu::kBindInput});
    filter_binds.push_back({"in", simgpu::kBindInput});
  } else {
    hist_binds.push_back({"src_val", src_val});
    filter_binds.push_back({"src_val", src_val});
    filter_binds.push_back({"src_idx", src_idx});
  }
  if (!table.operand.empty()) {
    hist_binds.push_back(table);
    filter_binds.push_back(table);
  }
  hist_binds.push_back({"hist", l.seg_hist});
  simgpu::record_launch(sched, l.hist_name, l.grid, kBlockThreads, 1, l.n,
                        l.k, std::move(hist_binds));
  simgpu::record_host(
      sched, l.copy_label,
      {{"hist", l.seg_hist, simgpu::Access::kRead},
       {"host_hist", l.seg_host_hist, simgpu::Access::kWrite}});
  simgpu::record_host(sched, l.scan_label,
                      {{"host_hist", l.seg_host_hist, simgpu::Access::kRead}});
  filter_binds.push_back({"counters", l.seg_counters});
  filter_binds.push_back(win_val);
  filter_binds.push_back(win_idx);
  filter_binds.push_back({"dst_val", dst_val});
  filter_binds.push_back({"dst_idx", dst_idx});
  simgpu::record_launch(sched, l.filter_name, l.grid, kBlockThreads, 1, l.n,
                        l.k, std::move(filter_binds));
}

// ---- run --------------------------------------------------------------------

/// The class of a level's histogram that holds the k_rem-th live candidate.
struct LevelTarget {
  std::uint32_t cls = 0;     ///< the target class
  std::uint64_t less = 0;    ///< candidates in the classes below it: winners
  std::uint64_t count = 0;   ///< candidates in it: the next level's ties
};

/// The host half of a level: copy the histogram `hist` (one bin per class)
/// to `host_hist` under `copy_label`, charge the scan under `scan_label`,
/// and find the class that holds the k_rem-th candidate.
inline LevelTarget find_target(simgpu::Device& dev,
                               simgpu::DeviceBuffer<std::uint32_t> hist,
                               std::span<std::uint32_t> host_hist,
                               const char* copy_label, const char* scan_label,
                               std::uint64_t k_rem) {
  dev.copy_to_host(hist, host_hist, copy_label);
  dev.host_compute(scan_label,
                   static_cast<std::uint64_t>(3 * host_hist.size()));
  LevelTarget t;
  for (std::size_t cls = 0; cls < host_hist.size(); ++cls) {
    const std::uint32_t c = host_hist[cls];
    if (t.less + c >= k_rem) {
      t.cls = static_cast<std::uint32_t>(cls);
      t.count = c;
      break;
    }
    t.less += c;
  }
  return t;
}

/// Liveness bound of the host-looped partition rows.  On ordered keys every
/// level shrinks the candidate count, but a NaN pivot compares false
/// against every key, sends them all to one side, and the count never
/// falls.  next() takes each level's surviving count and throws
/// std::logic_error, naming the row and problem, once kMaxStalledLevels
/// consecutive levels have not shrunk it; a level that stalls and then
/// recovers is legal.  Host-side only: it records no event, so counts and
/// modeled time are unaffected.
class LevelGuard {
 public:
  static constexpr int kMaxStalledLevels = 64;

  LevelGuard(const char* row, std::size_t problem, std::uint64_t count)
      : row_(row), problem_(problem), count_(count) {}

  void next(std::uint64_t count) {
    stalled_ = count < count_ ? 0 : stalled_ + 1;
    count_ = count;
    if (stalled_ >= kMaxStalledLevels) {
      throw std::logic_error(
          std::string(row_) + ": problem " + std::to_string(problem_) +
          ": the candidate count (" + std::to_string(count_) +
          ") has not fallen in " + std::to_string(kMaxStalledLevels) +
          " consecutive levels; a NaN pivot sends every key to one side");
    }
  }

  /// Whether the last level left the candidate count where it was.
  [[nodiscard]] bool stalled() const { return stalled_ > 0; }

 private:
  const char* row_;
  std::size_t problem_;
  std::uint64_t count_;
  int stalled_ = 0;
};

/// One problem's state across the levels of a partition row.
struct LevelRow {
  std::size_t prob = 0;
  std::uint64_t k_rem = 0;       ///< results still to find
  std::uint64_t count = 0;       ///< live candidates
  std::uint64_t out_cursor = 0;  ///< next output slot
  /// Candidate buffers: side[0] holds the live candidates (unless
  /// from_input), side[1] and side[2] are free for the next level.
  std::array<int, 3> side = {0, 1, 2};
  bool from_input = true;  ///< the live candidates are still the input row
  bool stalled = false;    ///< the last level did not shrink `count`

  /// Keep the target class of a level whose filter sent its winners to the
  /// output and its ties to side[1]: the ties are the live candidates now.
  void keep(const LevelTarget& t) {
    out_cursor += t.less;
    k_rem -= t.less;
    count = t.count;
    std::swap(side[0], side[1]);
    from_input = false;
  }
};

/// The per-problem loop of QuickSelect, BucketSelect and SampleSelect:
/// it owns each problem's LevelRow and LevelGuard, copies the remainder
/// once count == k_rem, and checks the result count.  `level(row)` runs one
/// level of the row's own kind and returns true once it has written the
/// problem's last result itself; run() then synchronizes ("final").
template <typename T>
struct LevelLoop {
  simgpu::Device& dev;
  const char* row;               ///< the row's name in errors
  std::string_view collect_name;  ///< the remainder copy's kernel name
  std::size_t n = 0;
  std::size_t k = 0;
  simgpu::DeviceBuffer<T> in;
  simgpu::DeviceBuffer<T> out_vals;
  simgpu::DeviceBuffer<std::uint32_t> out_idx;
  std::span<const simgpu::DeviceBuffer<T>> cand_val;
  std::span<const simgpu::DeviceBuffer<std::uint32_t>> cand_idx;

  /// Append the first m candidates of (vals, idx), or of the raw input row
  /// when `from_input`, at the row's output cursor: one launch of
  /// collect_name over make_grid(1, m) blocks, none for m == 0.
  void collect(LevelRow& r, bool from_input, simgpu::DeviceBuffer<T> vals,
               simgpu::DeviceBuffer<std::uint32_t> idx,
               std::uint64_t m) const {
    if (m == 0) return;
    const GridShape shape = make_grid(1, m, dev.spec());
    const int bpp = shape.blocks_per_problem;
    const auto src = in;
    const std::size_t in_base = r.prob * n;
    const auto dst_val = out_vals;
    const auto dst_idx = out_idx;
    const std::uint64_t dst = r.out_cursor;
    simgpu::LaunchConfig cfg{collect_name, shape.total_blocks(),
                             kBlockThreads, 1, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const auto [begin, end] = block_chunk(m, bpp, ctx.block_idx());
      copy_candidates(ctx, from_input, src, in_base, vals, idx, begin, end,
                      dst_val, dst_idx, dst);
    });
    r.out_cursor += m;
  }

  /// collect() from the live candidates.
  void collect_live(LevelRow& r, std::uint64_t m) const {
    const auto s = static_cast<std::size_t>(r.side[0]);
    collect(r, r.from_input, cand_val[s], cand_idx[s], m);
  }

  template <typename Level>
  void run(std::size_t batch, Level&& level) const {
    for (std::size_t prob = 0; prob < batch; ++prob) {
      LevelRow r;
      r.prob = prob;
      r.k_rem = k;
      r.count = n;
      r.out_cursor = prob * k;
      LevelGuard guard(row, prob, r.count);
      while (true) {
        if (r.count == r.k_rem) {
          collect_live(r, r.count);
          dev.synchronize("final");
          break;
        }
        if (level(r)) {
          dev.synchronize("final");
          break;
        }
        guard.next(r.count);
        r.stalled = guard.stalled();
      }
      if (r.out_cursor != prob * k + k) {
        throw std::logic_error(std::string(row) + ": result count mismatch");
      }
    }
  }
};

}  // namespace topk
