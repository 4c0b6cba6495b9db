#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "simgpu/buffer.hpp"
#include "simgpu/device.hpp"
#include "simgpu/footprint.hpp"
#include "simgpu/sanitizer.hpp"
#include "simgpu/scratch_alloc.hpp"
#include "simgpu/shared_arena.hpp"
#include "simgpu/simd.hpp"

namespace simgpu {

inline constexpr int kWarpSize = 32;

/// Elements per tile used by the bulk device-memory accessors below and the
/// algorithm scan helpers: large enough to amortize the per-tile accounting
/// to noise, small enough that a staged tile (keys + indices) stays resident
/// in L1.
inline constexpr std::size_t kTileElems = 1024;

/// Intern a kernel/segment name into permanent storage and return a stable
/// view of it.  LaunchConfig and KernelStats hold string_views so recording
/// a kernel event never heap-allocates on the hot path; names built
/// dynamically (per-pass suffixes such as "Filter(2)") must be interned
/// once at *plan* time and the views reused across runs.  Interned storage
/// is never freed, so views outlive every plan and event log.  Idempotent:
/// interning the same spelling twice returns the same view.
[[nodiscard]] std::string_view intern_name(std::string_view name);

/// Largest number of warps one thread block can hold (1024 threads).
inline constexpr int kMaxWarpsPerBlock = 1024 / kWarpSize;

/// A warp: 32 lanes executed in lockstep by the emulator.  Kernels written
/// against this class are structured exactly like warp-synchronous CUDA
/// code: per-lane state lives in `std::array<T, 32>` "registers" and the
/// collective primitives (ballot, rank, reductions) have the same semantics
/// as `__ballot_sync` / `__popc` / shuffle-based reductions.
class Warp {
 public:
  /// `active_lane`, when provided, is updated with the lane currently
  /// executing inside each() — the sanitizer uses it for attribution.
  explicit Warp(int index, int* active_lane = nullptr)
      : index_(index), active_lane_(active_lane) {}

  [[nodiscard]] int index() const { return index_; }

  /// Execute `f(lane)` for each lane in order — the moral equivalent of one
  /// SIMT instruction region.
  template <typename F>
  void each(F&& f) const {
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (active_lane_ != nullptr) *active_lane_ = lane;
      f(lane);
    }
    if (active_lane_ != nullptr) *active_lane_ = -1;
  }

  /// __ballot_sync analogue: bit `lane` is set iff `pred(lane)` is true.
  template <typename Pred>
  [[nodiscard]] static std::uint32_t ballot(Pred&& pred) {
    std::uint32_t mask = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (pred(lane)) mask |= (1u << lane);
    }
    return mask;
  }

  [[nodiscard]] static int popc(std::uint32_t mask) {
    return std::popcount(mask);
  }

  /// Number of set bits strictly below `lane` — the exclusive rank used for
  /// the two-step insertion's storing positions.
  [[nodiscard]] static int rank_below(std::uint32_t mask, int lane) {
    return std::popcount(mask & ((1u << lane) - 1u));
  }

 private:
  int index_;
  int* active_lane_ = nullptr;
};

/// Resource counters accumulated by one thread block while it runs; flushed
/// into the kernel's KernelStats when the block retires.
struct BlockCounters {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t lane_ops = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t scattered_atomic_ops = 0;
  std::uint64_t block_syncs = 0;
};

/// Thrown when a kernel requests more shared memory than the device spec
/// provides per block (the analogue of a CUDA launch failure).
class SharedMemoryOverflow : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BlockCtx;

namespace detail {
/// The lock of a small striped table that BlockCtx::flush_counts takes for
/// a flush into the span starting at `bins`: one stripe per span start, so
/// blocks flushing the same histogram serialize and different histograms
/// rarely share a stripe.
[[nodiscard]] std::mutex& flush_lock(const void* bins);

/// Suppressed-access sink for out-of-bounds shared references.
template <typename T>
T* shared_sink() {
  static thread_local T sink{};
  return &sink;
}
}  // namespace detail

/// Reference into block shared memory, returned by SharedSpan::operator[].
/// Reads and writes route through the owning BlockCtx so the sanitizer can
/// shadow them; with checking off every operation degenerates to one null
/// test around the raw access.
template <typename T>
class SharedRef {
 public:
  SharedRef(BlockCtx* ctx, T* p) : ctx_(ctx), p_(p) {}

  operator T() const;                           // NOLINT: deliberate implicit
  SharedRef& operator=(T v);                    // NOLINT
  SharedRef& operator=(const SharedRef& other); // NOLINT: deep assign
  SharedRef(const SharedRef&) = default;

  T operator++();     ///< pre-increment, returns the new value
  T operator++(int);  ///< post-increment, returns the old value
  SharedRef& operator+=(T v);
  SharedRef& operator-=(T v);

 private:
  BlockCtx* ctx_;
  T* p_;
};

/// View of a block shared-memory allocation (what BlockCtx::shared returns).
/// Mirrors the std::span surface the kernels use, but indexes through
/// SharedRef so the sanitizer observes every element access, and refuses
/// out-of-range indices/subspans when checking is on.  Implicitly converts
/// to std::span<const T> for read-only helpers; there is deliberately no
/// implicit mutable-span conversion — raw writes would bypass the shadow
/// valid bits and poison uninitialized-read tracking.
template <typename T>
class SharedSpan {
 public:
  using element_type = T;
  using value_type = std::remove_cv_t<T>;

  SharedSpan() = default;
  SharedSpan(BlockCtx* ctx, T* data, std::size_t size,
             std::size_t arena_offset)
      : ctx_(ctx), data_(data), size_(size), off_(arena_offset) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  SharedRef<T> operator[](std::size_t i) const;

  [[nodiscard]] SharedSpan subspan(std::size_t offset,
                                   std::size_t count) const {
    if (offset > size_ || count > size_ - offset) {
      throw std::out_of_range("SharedSpan::subspan: range exceeds span");
    }
    return SharedSpan(ctx_, data_ + offset, count, off_ + offset * sizeof(T));
  }

  /// Read-only raw view (element reads through it are not shadowed).
  operator std::span<const T>() const { return {data_, size_}; }  // NOLINT

  /// Raw mutable pointer for the unchecked path, or nullptr when the caller
  /// must go through SharedRef.  Non-null only when no sanitizer is
  /// attached: shared-memory accesses are not charged to BlockCounters, so
  /// writing through the raw pointer cannot perturb KernelStats, and with
  /// the sanitizer off there is no shadow state to keep element-exact.  Hot
  /// loops hoist this once and fall back to operator[] on nullptr.
  [[nodiscard]] T* unchecked_data() const;

 private:
  BlockCtx* ctx_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t off_ = 0;  ///< byte offset within the block's shared arena
};

/// Accounted scattered element stores (see BlockCtx::scatter_writer).
///
/// Kernels whose store destinations are data-dependent (radix scatter by
/// digit, filter compaction) cannot use store_tile, but when the per-element
/// store COUNT is known up front the byte accounting can still be bulk: the
/// factory pre-charges `count` element writes and put() degenerates to a raw
/// write.  With a sanitizer attached, put() instead charges/shadows per
/// element exactly like BlockCtx::store — the caller contract (exactly
/// `count` puts per writer) makes the charged totals identical either way.
template <typename T>
class ScatterWriter {
 public:
  /// The hot branch is a raw store so it inlines into big scatter loops;
  /// the per-element charge/shadow mode lives out of line.
  void put(std::size_t i, T v) {
    if (bulk_charged_) {
      data_[i] = v;  // bounds unchecked, exactly like store() w/o simcheck
      return;
    }
    put_slow(i, v);
  }

 private:
  void put_slow(std::size_t i, T v);

  friend class BlockCtx;
  ScatterWriter(BlockCtx* ctx, const DeviceBuffer<T>& b, bool bulk_charged)
      : ctx_(ctx),
        data_(b.data()),
        size_(b.size()),
        bulk_charged_(bulk_charged) {}

  BlockCtx* ctx_;
  T* data_;
  std::size_t size_;
  bool bulk_charged_;
};

/// Execution context of one thread block.
///
/// One OS thread runs the whole block, iterating its warps with
/// `for_each_warp`.  A phase between two `sync()` calls must be written as a
/// single `for_each_warp` pass; because warps of a phase run to completion
/// before the next phase starts, `__syncthreads` semantics hold by
/// construction (sync() just counts the barrier for the cost model).
/// Different blocks of a grid run concurrently on the host thread pool, so
/// all grid-level cooperation (atomic result appends, last-block election)
/// is genuinely concurrent.
///
/// When the owning Device has a Sanitizer attached, every load/store/atomic
/// and every SharedRef access is shadow-checked (see sanitizer.hpp).  All
/// hooks are guarded by one null test, and the resource counters are bumped
/// identically with checking on or off, so modeled time and traffic are
/// bit-identical either way.
class BlockCtx {
 public:
  BlockCtx(int block_idx, int grid_dim, int block_threads,
           std::byte* shared_arena, std::size_t shared_capacity,
           Sanitizer* sanitizer = nullptr,
           std::string_view kernel_name = {},
           std::uint32_t launch_id = 0)
      : block_idx_(block_idx),
        grid_dim_(grid_dim),
        block_threads_(block_threads),
        shared_arena_(shared_arena),
        shared_capacity_(shared_capacity),
        san_(sanitizer),
        kernel_name_(kernel_name),
        launch_id_(launch_id) {
    if (san_ != nullptr) {
      sshadow_ = std::make_unique<SharedShadow>();
      sshadow_->cells.resize(shared_capacity_);
    }
  }

  [[nodiscard]] int block_idx() const { return block_idx_; }
  [[nodiscard]] int grid_dim() const { return grid_dim_; }
  [[nodiscard]] int block_threads() const { return block_threads_; }
  [[nodiscard]] int num_warps() const { return block_threads_ / kWarpSize; }

  template <typename F>
  void for_each_warp(F&& f) {
    for (int w = 0; w < num_warps(); ++w) {
      active_warp_ = w;
      Warp warp(w, san_ != nullptr ? &active_lane_ : nullptr);
      f(warp);
    }
    active_warp_ = -1;
    active_lane_ = -1;
  }

  /// __syncthreads analogue; a semantic no-op by phase construction, counted
  /// for the cost model.  With the sanitizer on it also advances the shared
  /// -memory race epoch, and flags barriers issued from inside a warp region
  /// (on hardware those would not be reached uniformly by the block).
  void sync() {
    ++counters_.block_syncs;
    if (san_ != nullptr) {
      if (active_warp_ >= 0 && san_->config().check_sync) {
        SanitizerIssue issue;
        issue.kind = IssueKind::kSyncDivergence;
        issue.kernel = std::string(kernel_name_);
        issue.block = block_idx_;
        issue.warp = active_warp_;
        issue.lane = active_lane_;
        issue.detail =
            "sync() issued inside a for_each_warp region — the barrier is "
            "not reached uniformly by all warps of the block";
        san_->report(std::move(issue));
      }
      ++sync_epoch_;
    }
  }

  /// ---- Shared memory ----------------------------------------------------

  /// Allocate `n` elements of block shared memory (uninitialized).  `name`
  /// labels the allocation in sanitizer reports.
  template <typename T>
  SharedSpan<T> shared(std::size_t n, const char* name = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t align = alignof(T);
    std::size_t offset = (shared_offset_ + align - 1) / align * align;
    if (offset + n * sizeof(T) > shared_capacity_) {
      throw SharedMemoryOverflow(
          "shared memory request exceeds per-block capacity");
    }
    T* p = reinterpret_cast<T*>(shared_arena_ + offset);
    shared_offset_ = offset + n * sizeof(T);
    if (san_ != nullptr) {
      sshadow_->allocs.push_back(
          {offset, n * sizeof(T), name != nullptr ? name : "<shared>"});
    }
    return SharedSpan<T>(this, p, n, offset);
  }

  /// Allocate zero-initialized shared memory.
  template <typename T>
  SharedSpan<T> shared_zero(std::size_t n, const char* name = nullptr) {
    auto s = shared<T>(n, name);
    std::memset(static_cast<void*>(shared_arena_ + shared_offset_ -
                                   n * sizeof(T)),
                0, n * sizeof(T));
    if (san_ != nullptr) {
      const std::size_t begin = shared_offset_ - n * sizeof(T);
      for (std::size_t b = begin; b < shared_offset_; ++b) {
        sshadow_->cells[b].valid = true;
      }
    }
    return s;
  }

  /// ---- Accounted device memory access -----------------------------------

  template <typename T>
  T load(const DeviceBuffer<T>& b, std::size_t i) {
    counters_.bytes_read += sizeof(T);
    if (san_ != nullptr &&
        !device_access_ok(b.data(), sizeof(T), i, b.size(), true, false,
                          false)) {
      return T{};
    }
    return b.data()[i];
  }

  template <typename T>
  void store(const DeviceBuffer<T>& b, std::size_t i,
             std::type_identity_t<T> v) {
    counters_.bytes_written += sizeof(T);
    if (san_ != nullptr &&
        !device_access_ok(b.data(), sizeof(T), i, b.size(), false, true,
                          false)) {
      return;
    }
    b.data()[i] = v;
  }

  /// Atomic read-modify-write on device memory (atomicAdd analogue).
  /// Atomics are L2-resident on modern GPUs, so they are charged to the
  /// atomic counter rather than DRAM traffic.
  template <typename T>
  T atomic_add(const DeviceBuffer<T>& b, std::size_t i,
               std::type_identity_t<T> v) {
    ++counters_.atomic_ops;
    if (san_ != nullptr &&
        !device_access_ok(b.data(), sizeof(T), i, b.size(), true, true,
                          true)) {
      return T{};
    }
    std::atomic_ref<T> ref(b.data()[i]);
    return ref.fetch_add(v, std::memory_order_seq_cst);
  }

  /// Atomic add to an address that is NOT a contended hot counter — e.g.
  /// flushing a per-block shared-memory histogram into global bins.  Same
  /// semantics as atomic_add, charged at the scattered-atomic rate.
  template <typename T>
  T atomic_add_scattered(const DeviceBuffer<T>& b, std::size_t i,
                         std::type_identity_t<T> v) {
    ++counters_.scattered_atomic_ops;
    if (san_ != nullptr &&
        !device_access_ok(b.data(), sizeof(T), i, b.size(), true, true,
                          true)) {
      return T{};
    }
    std::atomic_ref<T> ref(b.data()[i]);
    return ref.fetch_add(v, std::memory_order_seq_cst);
  }

  /// Reserve `count` consecutive slots of the cursor b[i] (an append of
  /// `count` elements): one fetch_add of `count`, returning the first slot,
  /// charged as `count` contended atomics — what `count` calls of
  /// atomic_add(b, i, 1), one per appended element, charge.  On one emulator
  /// thread the slots are the ones those calls would return in turn.
  template <typename T>
  T atomic_reserve(const DeviceBuffer<T>& b, std::size_t i,
                   std::type_identity_t<T> count) {
    counters_.atomic_ops += static_cast<std::uint64_t>(count);
    if (san_ != nullptr &&
        !device_access_ok(b.data(), sizeof(T), i, b.size(), true, true,
                          true)) {
      return T{};
    }
    std::atomic_ref<T> ref(b.data()[i]);
    return ref.fetch_add(count, std::memory_order_seq_cst);
  }

  /// Flush a block's per-bin counts into global bins:
  /// dst[first + d] += counts[d] for every d, charged as one scattered
  /// atomic per non-zero entry — what a loop of atomic_add_scattered over
  /// the non-zero bins charges.  On the unchecked path (unchecked_tiles)
  /// the adds are plain adds under one lock of a striped table keyed by
  /// &dst[first], not one seq_cst RMW per bin; the caller's next atomic (a
  /// last-block election, say) still orders them before whatever it
  /// publishes to.  Flushes that can run concurrently must therefore cover
  /// the same span or disjoint ones, as per-problem histograms do.  A span
  /// reaching past `dst` is suppressed wholesale, like store_tile.  With a
  /// sanitizer attached it is that per-bin loop, reading the counts through
  /// SharedRef, so simcheck sees every shared read and every atomic.
  template <typename T>
  void flush_counts(const DeviceBuffer<T>& dst, std::size_t first,
                    const SharedSpan<T>& counts) {
    if (const T* raw = counts.unchecked_data(); raw != nullptr) {
      const std::size_t n = counts.size();
      std::uint64_t nonzero = 0;
      for (std::size_t d = 0; d < n; ++d) nonzero += raw[d] != 0 ? 1 : 0;
      counters_.scattered_atomic_ops += nonzero;
      if (nonzero == 0 || first > dst.size() || n > dst.size() - first) {
        return;
      }
      T* const bins = dst.data() + first;
      const std::lock_guard<std::mutex> lock(detail::flush_lock(bins));
      for (std::size_t d = 0; d < n; ++d) bins[d] += raw[d];
      return;
    }
    for (std::size_t d = 0; d < counts.size(); ++d) {
      if (counts[d] != 0) atomic_add_scattered(dst, first + d, counts[d]);
    }
  }

  template <typename T>
  T atomic_min(const DeviceBuffer<T>& b, std::size_t i,
               std::type_identity_t<T> v) {
    ++counters_.atomic_ops;
    if (san_ != nullptr &&
        !device_access_ok(b.data(), sizeof(T), i, b.size(), true, true,
                          true)) {
      return T{};
    }
    std::atomic_ref<T> ref(b.data()[i]);
    T cur = ref.load(std::memory_order_seq_cst);
    while (v < cur &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_seq_cst)) {
    }
    return cur;
  }

  template <typename T>
  T atomic_max(const DeviceBuffer<T>& b, std::size_t i,
               std::type_identity_t<T> v) {
    ++counters_.atomic_ops;
    if (san_ != nullptr &&
        !device_access_ok(b.data(), sizeof(T), i, b.size(), true, true,
                          true)) {
      return T{};
    }
    std::atomic_ref<T> ref(b.data()[i]);
    T cur = ref.load(std::memory_order_seq_cst);
    while (cur < v &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_seq_cst)) {
    }
    return cur;
  }

  /// ---- Tile-granular device memory access --------------------------------
  ///
  /// Bulk counterparts of load/store.  They charge BlockCounters once per
  /// tile instead of once per element and expose contiguous spans the
  /// compiler can autovectorize, which is what lets the emulator touch each
  /// element through a wide, cheap path.  With a sanitizer attached every
  /// element of the tile is shadow-checked exactly as the scalar accessors
  /// would check it (simcheck loses no precision); counters are charged
  /// identically with checking on or off and identically to an equivalent
  /// sequence of scalar load/store calls, so KernelStats and modeled time
  /// are bit-identical in both simcheck modes.

  /// Accounted read of `count` contiguous elements starting at `first`.
  /// Returns a read-only view of the tile.  A tile reaching past the buffer
  /// extent is suppressed wholesale (empty span) and reported through the
  /// sanitizer when one is attached — scalar loads suppress the same
  /// accesses element by element.
  template <typename T>
  [[nodiscard]] std::span<const T> load_tile(const DeviceBuffer<T>& b,
                                             std::size_t first,
                                             std::size_t count) {
    counters_.bytes_read += count * sizeof(T);
    if (count == 0) return {};
    if (first > b.size() || count > b.size() - first) {
      if (san_ != nullptr) {
        (void)device_access_ok(b.data(), sizeof(T),
                               first > b.size() ? first : b.size(), b.size(),
                               true, false, false);
      }
      return {};
    }
    if (san_ != nullptr) {
      for (std::size_t i = 0; i < count; ++i) {
        (void)device_access_ok(b.data(), sizeof(T), first + i, b.size(), true,
                               false, false);
      }
    }
    return {b.data() + first, count};
  }

  /// Accounted write of `src` into b[first, first + src.size()).  One memcpy
  /// when unchecked; per-element shadowed stores when the sanitizer is
  /// attached, so shadow valid bits and race slots stay element-exact.
  template <typename T>
  void store_tile(const DeviceBuffer<T>& b, std::size_t first,
                  std::span<const T> src) {
    counters_.bytes_written += src.size_bytes();
    if (src.empty()) return;
    if (first > b.size() || src.size() > b.size() - first) {
      if (san_ != nullptr) {
        (void)device_access_ok(b.data(), sizeof(T),
                               first > b.size() ? first : b.size(), b.size(),
                               false, true, false);
      }
      return;
    }
    if (san_ != nullptr) {
      for (std::size_t i = 0; i < src.size(); ++i) {
        if (device_access_ok(b.data(), sizeof(T), first + i, b.size(), false,
                             true, false)) {
          b.data()[first + i] = src[i];
        }
      }
      return;
    }
    std::memcpy(b.data() + first, src.data(), src.size_bytes());
  }

  /// Visit b[first, first + count) one load_tile of kTileElems elements at
  /// a time, calling `f(j, tile)` with the tile's offset j from `first`.
  template <typename T, typename F>
  void for_each_tile(const DeviceBuffer<T>& b, std::size_t first,
                     std::size_t count, F&& f) {
    for (std::size_t j = 0; j < count; j += kTileElems) {
      f(j, load_tile(b, first + j, std::min(kTileElems, count - j)));
    }
  }

  /// Visit b[first + j] for j in [0, count), calling `f(j, value)`, tile
  /// by tile (for_each_tile).
  template <typename T, typename F>
  void for_each_elem(const DeviceBuffer<T>& b, std::size_t first,
                     std::size_t count, F&& f) {
    for_each_tile(b, first, count,
                  [&](std::size_t j, std::span<const T> tile) {
                    for (std::size_t u = 0; u < tile.size(); ++u) {
                      f(j + u, tile[u]);
                    }
                  });
  }

  /// Writer for exactly `count` data-dependent (scattered) element stores
  /// into `b`.  Without a sanitizer the byte cost is charged here in bulk
  /// and each put() is a raw write; with one, put() charges and shadows per
  /// element, identically to store().  Calling put() a different number of
  /// times than `count` breaks counter invariance between the two modes —
  /// the count is the caller's promise.
  template <typename T>
  [[nodiscard]] ScatterWriter<T> scatter_writer(const DeviceBuffer<T>& b,
                                                std::size_t count) {
    const bool bulk = unchecked_tiles();
    if (bulk) counters_.bytes_written += count * sizeof(T);
    return ScatterWriter<T>(this, b, bulk);
  }

  /// Read-side counterpart of scatter_writer for exactly `count`
  /// data-dependent element reads of `b` (a search over a small table, say).
  /// Without a sanitizer the byte cost is charged here in bulk and the raw
  /// base pointer is returned, so each read is a plain load.  With one,
  /// nothing is charged and nullptr is returned: the caller reads through
  /// load(), which charges and shadows per element.  Reading a different
  /// number of elements than `count` breaks counter invariance between the
  /// two modes — the count is the caller's promise.
  template <typename T>
  [[nodiscard]] const T* prepaid_reads(const DeviceBuffer<T>& b,
                                       std::uint64_t count) {
    if (!unchecked_tiles()) return nullptr;
    counters_.bytes_read += count * sizeof(T);
    return b.data();
  }

  /// True when this block runs unchecked: no sanitizer is attached — the
  /// state in which SharedSpan::unchecked_data, scatter_writer, prepaid_reads
  /// and flush_counts go raw.  Kernels gate their whole-tile SIMD scans on
  /// it, so a simcheck run keeps their per-element loops.
  [[nodiscard]] bool unchecked_tiles() const { return san_ == nullptr; }

  /// ---- Threshold-gated warp fast path ------------------------------------

  /// True when kernels may take the threshold-gated warp fast path for this
  /// block: no sanitizer is attached (the same state as unchecked_tiles).
  /// With a sanitizer the exact per-lane round machinery runs so simcheck
  /// keeps element-exact attribution; tile_invariance_test holds the two
  /// paths to identical counts.
  [[nodiscard]] bool warpfast_enabled() const { return san_ == nullptr; }

  /// Vectorizable scan primitive for threshold-gated warp rounds: how many
  /// elements of `tile`, with `mask` xor-ed into their bits (a selection
  /// direction, topk::KeyOrder), are strictly below `threshold`.  The compare
  /// is branch-free so -O2 autovectorizes it.  Purely an emulator-side
  /// compute helper — it charges nothing; callers charge the authoritative
  /// round formula (a candidate-free round costs exactly what the exact
  /// ballot-based round charges, see topk::kEmptyRoundLaneOps).
  template <typename T>
  [[nodiscard]] static std::size_t count_below(std::span<const T> tile,
                                               T threshold,
                                               simd::KeyBits<T> mask = 0) {
    if constexpr (std::is_same_v<T, float>) {
      return simd::count_below_f32(tile.data(), tile.size(), threshold, mask);
    } else {
      using Bits = simd::KeyBits<T>;
      std::size_t below = 0;
      for (const T& v : tile) {
        const T key = std::bit_cast<T>(
            static_cast<Bits>(std::bit_cast<Bits>(v) ^ mask));
        below += static_cast<std::size_t>(key < threshold);
      }
      return below;
    }
  }

  /// ---- Compute accounting ------------------------------------------------

  /// Charge `n` lane operations to the compute model (comparisons, digit
  /// extractions, bitonic exchange steps, ...).
  void ops(std::uint64_t n) { counters_.lane_ops += n; }

  [[nodiscard]] const BlockCounters& counters() const { return counters_; }
  [[nodiscard]] BlockCounters& counters() { return counters_; }

 private:
  template <typename>
  friend class SharedRef;
  template <typename>
  friend class SharedSpan;
  template <typename>
  friend class ScatterWriter;

  [[nodiscard]] bool sanitizing() const { return san_ != nullptr; }

  [[nodiscard]] AccessSite site() const {
    return {kernel_name_, launch_id_, block_idx_, active_warp_, active_lane_};
  }

  bool device_access_ok(const void* base, std::size_t elem_size,
                        std::size_t index, std::size_t extent, bool is_read,
                        bool is_write, bool is_atomic) {
    return san_->check_device_access(base, elem_size, index, extent, is_read,
                                     is_write, is_atomic, site(), &hb_clock_);
  }

  /// SharedRef access hook: `p` points into this block's shared arena.
  void note_shared(const void* p, std::size_t bytes, std::size_t elem_size,
                   bool is_read, bool is_write) {
    if (san_ == nullptr) return;
    const auto off = static_cast<std::size_t>(
        reinterpret_cast<const std::byte*>(p) - shared_arena_);
    san_->note_shared_access(*sshadow_, off, bytes, elem_size, is_read,
                             is_write, sync_epoch_, site());
  }

  void report_shared_oob(std::size_t arena_off, std::size_t index,
                         std::size_t extent) {
    SanitizerIssue issue;
    issue.kind = IssueKind::kOutOfBounds;
    issue.kernel = std::string(kernel_name_);
    issue.block = block_idx_;
    issue.warp = active_warp_;
    issue.lane = active_lane_;
    issue.index = index;
    if (const SharedShadow::Alloc* a = sshadow_->find(arena_off)) {
      issue.buffer = a->name;
    }
    issue.detail = "shared-memory access at element " + std::to_string(index) +
                   " past span extent " + std::to_string(extent) +
                   " (suppressed; redirected to a sink)";
    san_->report(std::move(issue));
  }

  int block_idx_;
  int grid_dim_;
  int block_threads_;
  std::byte* shared_arena_;
  std::size_t shared_capacity_;
  std::size_t shared_offset_ = 0;
  BlockCounters counters_;
  Sanitizer* san_ = nullptr;
  std::string_view kernel_name_;
  std::uint32_t launch_id_ = 0;
  std::uint32_t hb_clock_ = 0;
  std::uint32_t sync_epoch_ = 0;
  int active_warp_ = -1;
  int active_lane_ = -1;
  std::unique_ptr<SharedShadow> sshadow_;
};

/// ---- SharedRef / SharedSpan out-of-line definitions ----------------------

template <typename T>
SharedRef<T>::operator T() const {
  ctx_->note_shared(p_, sizeof(T), sizeof(T), true, false);
  return *p_;
}

template <typename T>
SharedRef<T>& SharedRef<T>::operator=(T v) {
  ctx_->note_shared(p_, sizeof(T), sizeof(T), false, true);
  *p_ = v;
  return *this;
}

template <typename T>
SharedRef<T>& SharedRef<T>::operator=(const SharedRef& other) {
  const T v = static_cast<T>(other);
  return (*this = v);
}

template <typename T>
T SharedRef<T>::operator++() {
  ctx_->note_shared(p_, sizeof(T), sizeof(T), true, true);
  return ++*p_;
}

template <typename T>
T SharedRef<T>::operator++(int) {
  ctx_->note_shared(p_, sizeof(T), sizeof(T), true, true);
  const T old = *p_;
  ++*p_;
  return old;
}

template <typename T>
SharedRef<T>& SharedRef<T>::operator+=(T v) {
  ctx_->note_shared(p_, sizeof(T), sizeof(T), true, true);
  *p_ += v;
  return *this;
}

template <typename T>
SharedRef<T>& SharedRef<T>::operator-=(T v) {
  ctx_->note_shared(p_, sizeof(T), sizeof(T), true, true);
  *p_ -= v;
  return *this;
}

template <typename T>
T* SharedSpan<T>::unchecked_data() const {
  if (ctx_ != nullptr && ctx_->sanitizing()) return nullptr;
  return data_;
}

template <typename T>
void ScatterWriter<T>::put_slow(std::size_t i, T v) {
  ctx_->counters_.bytes_written += sizeof(T);
  if (ctx_->san_ != nullptr &&
      !ctx_->device_access_ok(data_, sizeof(T), i, size_, false, true,
                              false)) {
    return;
  }
  data_[i] = v;
}

template <typename T>
SharedRef<T> SharedSpan<T>::operator[](std::size_t i) const {
  if (ctx_ != nullptr && ctx_->sanitizing() && i >= size_) {
    ctx_->report_shared_oob(off_, i, size_);
    return SharedRef<T>(ctx_, detail::shared_sink<T>());
  }
  return SharedRef<T>(ctx_, data_ + i);
}

/// Launch shape of a kernel.  `name` is a view so the hot launch path never
/// heap-allocates: use a string literal, or intern_name() for names built
/// dynamically at plan time (the view must outlive the recorded event log).
struct LaunchConfig {
  std::string_view name;
  int grid = 1;                 ///< number of thread blocks
  int block_threads = 256;      ///< threads per block, multiple of 32
  /// Optional shape context for the footprint cross-check (footprint.hpp):
  /// how many problems this launch covers and their n/k.  batch == 0 means
  /// no context — the byte-ceiling checks are skipped for this launch.
  /// Purely diagnostic; never feeds KernelStats or the cost model.
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
};

/// Launch a kernel: run `body(BlockCtx&)` for every block of the grid on the
/// thread pool, accumulate the block counters, and record the kernel event
/// (with the grid's host wall time, KernelEvent::emu_ms) on the device
/// timeline.  Launches are asynchronous with respect to the
/// modeled host (no SyncEvent is recorded); wall-clock-wise the call blocks
/// until the grid drains, like a correctness-checking emulator must.
template <typename Body>
KernelStats launch(Device& dev, const LaunchConfig& cfg, Body&& body) {
  if (cfg.grid <= 0) throw std::invalid_argument("launch: grid must be > 0");
  if (cfg.block_threads <= 0 || cfg.block_threads % kWarpSize != 0) {
    throw std::invalid_argument(
        "launch: block_threads must be a positive multiple of 32");
  }
  std::atomic<std::uint64_t> bytes_read{0}, bytes_written{0}, lane_ops{0},
      atomic_ops{0}, scattered_atomic_ops{0}, block_syncs{0};
  std::atomic<std::uint64_t> max_block_bytes{0}, max_block_lane_ops{0};
  const auto fetch_max = [](std::atomic<std::uint64_t>& target,
                            std::uint64_t v) {
    std::uint64_t cur = target.load(std::memory_order_relaxed);
    while (cur < v && !target.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  };
  const std::size_t shared_cap = dev.spec().shared_mem_per_block;
  Sanitizer* const san = dev.sanitizer();
  const std::uint32_t launch_id = san != nullptr ? san->begin_launch() : 0;

  const auto wall_start = std::chrono::steady_clock::now();
  dev.pool().run_blocks(
      static_cast<std::size_t>(cfg.grid), [&](std::size_t b) {
        std::vector<std::byte>& arena = detail::shared_arena();
        if (arena.size() < shared_cap) arena.resize(shared_cap);
        const BlockScratch scratch;  // engine scratch dies with the block
        BlockCtx ctx(static_cast<int>(b), cfg.grid, cfg.block_threads,
                     arena.data(), shared_cap, san, cfg.name, launch_id);
        body(ctx);
        const BlockCounters& c = ctx.counters();
        bytes_read.fetch_add(c.bytes_read, std::memory_order_relaxed);
        bytes_written.fetch_add(c.bytes_written, std::memory_order_relaxed);
        lane_ops.fetch_add(c.lane_ops, std::memory_order_relaxed);
        atomic_ops.fetch_add(c.atomic_ops, std::memory_order_relaxed);
        scattered_atomic_ops.fetch_add(c.scattered_atomic_ops,
                                       std::memory_order_relaxed);
        block_syncs.fetch_add(c.block_syncs, std::memory_order_relaxed);
        fetch_max(max_block_bytes, c.bytes_read + c.bytes_written);
        fetch_max(max_block_lane_ops, c.lane_ops);
      });
  const double emu_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  KernelStats stats;
  stats.name = cfg.name;
  stats.grid_blocks = cfg.grid;
  stats.block_threads = cfg.block_threads;
  stats.bytes_read = bytes_read.load();
  stats.bytes_written = bytes_written.load();
  stats.lane_ops = lane_ops.load();
  stats.atomic_ops = atomic_ops.load();
  stats.scattered_atomic_ops = scattered_atomic_ops.load();
  stats.block_syncs = block_syncs.load();
  stats.max_block_bytes = max_block_bytes.load();
  stats.max_block_lane_ops = max_block_lane_ops.load();
  // Contract cross-check (debug builds): the observed counters must be
  // explainable by the kernel's registered footprint.  Strictly read-only
  // over the already-assembled stats, so KernelStats and modeled time are
  // bit-identical with checking on or off.
  if (footprint_check_enabled()) {
    check_launch_against_footprint(
        cfg.name, stats.bytes_read, stats.bytes_written,
        stats.atomic_ops + stats.scattered_atomic_ops, cfg.grid,
        cfg.block_threads, cfg.batch, cfg.n, cfg.k);
  }
  dev.record_kernel(stats, emu_ms);
  return stats;
}

}  // namespace simgpu
