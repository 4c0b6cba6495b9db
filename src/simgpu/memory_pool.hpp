#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace simgpu {

/// A per-device pool of retained memory slabs with power-of-two size-class
/// reuse.  Workspace (workspace.hpp) acquires one slab per bind and either
/// keeps it across binds (the steady-state, counted as a hit via note_hit)
/// or releases/re-acquires when the layout grows.  Released slabs are
/// always retained until trim().
///
/// The pool hands out raw host storage; it knows nothing about the cost
/// model, so pooling cannot perturb KernelStats or modeled time.  Stale-data
/// hazards introduced by reuse are surfaced, not hidden: release() poisons
/// the slab bytes (0xDB) when asked, and Workspace re-registers every
/// segment with the sanitizer on each bind, resetting the shadow to
/// "uninitialized" so a kernel reading a recycled byte before writing it is
/// reported by simcheck.
///
/// Like Device, a pool is driven from a single host thread.
class MemoryPool {
 public:
  /// Byte filled into released slabs when poisoning is requested.
  static constexpr int kPoisonByte = 0xDB;
  /// Slab base alignment, matching Device's device-memory alignment.
  static constexpr std::size_t kAlign = 256;
  /// Smallest size class, so tiny layouts don't fragment the freelist.
  static constexpr std::size_t kMinSlabBytes = std::size_t{4} << 10;

  /// One pooled allocation.  `bytes` is the size class (>= the requested
  /// size); `base` is 256-aligned.  Default-constructed slabs are empty.
  struct Slab {
    std::unique_ptr<std::byte[]> storage;
    std::byte* base = nullptr;
    std::size_t bytes = 0;

    [[nodiscard]] bool empty() const { return base == nullptr; }
  };

  struct Stats {
    std::uint64_t hits = 0;    ///< acquires served from a retained slab
    std::uint64_t misses = 0;  ///< acquires that hit the host allocator
    std::size_t bytes_held = 0;   ///< bytes idle on the freelist right now
    std::size_t bytes_live = 0;   ///< bytes in slabs currently handed out
    std::size_t high_water = 0;   ///< max of bytes_live + bytes_held

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  MemoryPool() = default;
  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  /// Get a slab of at least `bytes` (rounded up to the next power-of-two
  /// size class).  Reuses the smallest retained slab that fits; otherwise
  /// allocates fresh.
  [[nodiscard]] Slab acquire(std::size_t bytes) {
    const std::size_t want = size_class(bytes);
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].bytes >= want &&
          (best == free_.size() || free_[i].bytes < free_[best].bytes)) {
        best = i;
      }
    }
    if (best != free_.size()) {
      Slab s = std::move(free_[best]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
      bytes_held_ -= s.bytes;
      bytes_live_ += s.bytes;
      ++hits_;
      note_high_water();
      return s;
    }
    ++misses_;
    Slab s;
    s.storage = std::make_unique<std::byte[]>(want + kAlign);
    const auto addr = reinterpret_cast<std::uintptr_t>(s.storage.get());
    const std::uintptr_t aligned = (addr + kAlign - 1) / kAlign * kAlign;
    s.base = s.storage.get() + (aligned - addr);
    s.bytes = want;
    bytes_live_ += s.bytes;
    note_high_water();
    return s;
  }

  /// Return a slab; it is retained for reuse.  `poison` overwrites the
  /// slab so a stale read of recycled storage sees garbage rather than
  /// plausible old results (see Workspace::release).
  void release(Slab&& slab, bool poison = false) {
    if (slab.empty()) return;
    bytes_live_ -= slab.bytes;
    if (poison) std::memset(slab.base, kPoisonByte, slab.bytes);
    bytes_held_ += slab.bytes;
    note_high_water();
    free_.push_back(std::move(slab));
  }

  /// Record a bind served by a slab the Workspace already held — the
  /// steady-state reuse path.  Counted as a hit so hit_rate() reflects how
  /// often binding avoided the host allocator.
  void note_hit() { ++hits_; }

  /// Drop every retained slab (returns the memory to the host).
  void trim() {
    free_.clear();
    bytes_held_ = 0;
  }

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.bytes_held = bytes_held_;
    s.bytes_live = bytes_live_;
    s.high_water = high_water_;
    return s;
  }

 private:
  static std::size_t size_class(std::size_t bytes) {
    return std::bit_ceil(std::max(bytes, kMinSlabBytes));
  }

  void note_high_water() {
    high_water_ = std::max(high_water_, bytes_live_ + bytes_held_);
  }

  std::vector<Slab> free_;
  std::size_t bytes_held_ = 0;
  std::size_t bytes_live_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The named-segment memory map an ExecutionPlan describes: each segment has
/// a stable name (for sanitizer attribution), a byte offset aligned to
/// MemoryPool::kAlign, an element size, and a host flag.  Host segments are
/// staging scratch the CPU reads/writes directly (e.g. copied-back
/// histograms) and are not registered as device regions.
///
/// Segment names are string_views captured by reference: use string
/// literals or simgpu::intern_name()'d views, since plans (and their
/// layouts) are cached and the names must outlive every bind.
struct WorkspaceLayout {
  struct Segment {
    std::string_view name;
    std::size_t offset = 0;
    std::size_t bytes = 0;
    std::size_t elem_size = 1;
    bool host = false;
  };

  std::vector<Segment> segments;

  /// Append a segment of `elems` elements of T; returns its id (the index
  /// Workspace::get() takes).
  template <typename T>
  std::size_t add(std::string_view name, std::size_t elems,
                  bool host = false) {
    Segment s;
    s.name = name;
    s.offset = total_;
    s.bytes = elems * sizeof(T);
    s.elem_size = sizeof(T);
    s.host = host;
    segments.push_back(s);
    total_ = align_up(total_ + s.bytes);
    return segments.size() - 1;
  }

  [[nodiscard]] std::size_t total_bytes() const { return total_; }

  /// Empty the layout, keeping segment capacity (for layouts rebuilt every
  /// bind, e.g. the serving layer's per-batch I/O layout).
  void reset() {
    segments.clear();
    total_ = 0;
  }

 private:
  static std::size_t align_up(std::size_t off) {
    return (off + MemoryPool::kAlign - 1) / MemoryPool::kAlign *
           MemoryPool::kAlign;
  }

  std::size_t total_ = 0;
};

}  // namespace simgpu
