#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace simgpu {

class BlockScratch;

namespace scratch_detail {

/// Fixed per-thread size of the block scratch arena.  Covers the engine
/// scratch of one block at the largest shapes (32 WarpSelect engines at
/// k = 2048 hold about 3 MiB) with headroom.  Pages are committed only as
/// blocks touch them.
inline constexpr std::size_t kArenaBytes = std::size_t{8} << 20;

/// Per-thread bump arena backing the selection engines' host-side scratch
/// vectors (TopkList's merge scratch, the warp engines' queues).  Those
/// vectors live inside one simulated block, so launch() opens a BlockScratch
/// scope around every block: inside it allocations bump from the arena, and
/// the scope rewinds the arena when the block retires.  Like the
/// shared-memory arena, the arena is allocated once per thread before the
/// thread runs a block (ThreadPool sizes both), so a warmed run is
/// allocation-free whichever thread each block lands on (the two-phase
/// run() contract bench_substrate gates).  Requests outside a block scope,
/// or past the arena's end, go to the host allocator.
class Arena {
 public:
  static Arena& instance() {
    thread_local Arena arena;
    return arena;
  }

  void* take(std::size_t bytes) {
    const std::size_t need = round_up(bytes);
    if (depth_ > 0 && need <= kArenaBytes - top_) {
      void* p = base_.get() + top_;
      top_ += need;
      return p;
    }
    return ::operator new(bytes);
  }

  void give(void* p, std::size_t bytes) noexcept {
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    const auto base = reinterpret_cast<std::uintptr_t>(base_.get());
    if (at < base || at >= base + kArenaBytes) {
      ::operator delete(p);
      return;
    }
    // Freed memory is reclaimed when the block retires; only the newest
    // allocation can be popped before that.
    if (at - base + round_up(bytes) == top_) top_ = at - base;
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

 private:
  friend class simgpu::BlockScratch;

  Arena() = default;

  static std::size_t round_up(std::size_t bytes) {
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    return (bytes + kAlign - 1) / kAlign * kAlign;
  }

  struct Release {
    void operator()(std::byte* p) const noexcept { ::operator delete(p); }
  };
  // Raw storage, not value-initialized: pages stay untouched until used.
  std::unique_ptr<std::byte, Release> base_{
      static_cast<std::byte*>(::operator new(kArenaBytes))};
  std::size_t top_ = 0;
  int depth_ = 0;
};

}  // namespace scratch_detail

/// Scope of one simulated block's engine scratch (see
/// scratch_detail::Arena): ScratchAlloc serves from the thread's arena while
/// a scope is open, and the scope rewinds the arena when it closes.  Scratch
/// vectors must not outlive the block that allocated them.
class BlockScratch {
 public:
  BlockScratch()
      : arena_(scratch_detail::Arena::instance()), mark_(arena_.top_) {
    ++arena_.depth_;
  }
  ~BlockScratch() {
    --arena_.depth_;
    arena_.top_ = mark_;
  }
  BlockScratch(const BlockScratch&) = delete;
  BlockScratch& operator=(const BlockScratch&) = delete;

 private:
  scratch_detail::Arena& arena_;
  std::size_t mark_;
};

/// Allocator routing through the calling thread's block scratch arena.  Used
/// for the short-lived per-block scratch vectors of the selection engines so
/// repeated kernel executions perform no host allocations.  Stateless: all
/// instances are interchangeable.
template <typename T>
struct ScratchAlloc {
  using value_type = T;

  ScratchAlloc() = default;
  template <typename U>
  ScratchAlloc(const ScratchAlloc<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        scratch_detail::Arena::instance().take(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    scratch_detail::Arena::instance().give(p, n * sizeof(T));
  }

  friend bool operator==(const ScratchAlloc&, const ScratchAlloc&) {
    return true;
  }
};

/// A std::vector drawing from the block scratch arena.
template <typename T>
using ScratchVec = std::vector<T, ScratchAlloc<T>>;

}  // namespace simgpu
