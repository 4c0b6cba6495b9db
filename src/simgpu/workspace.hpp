#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simgpu/buffer.hpp"
#include "simgpu/device.hpp"
#include "simgpu/memory_pool.hpp"

namespace simgpu {

/// Arena of named scratch segments backing one two-phase algorithm run:
/// plan() describes the segments in a WorkspaceLayout; bind() materializes
/// them inside one pooled slab; run() reads them back as DeviceBuffers via
/// get().  A Workspace is reusable — the steady-state pattern (bench loops,
/// topk::serve workers) binds the same or similar layouts repeatedly, and
/// as long as the held slab is large enough no allocation happens at all
/// (counted as a pool hit).
///
/// Sanitizer semantics: every bind re-registers each non-host segment as a
/// fresh device region (Device::register_region), so simcheck attributes
/// accesses to the segment name and, crucially, treats recycled bytes as
/// uninitialized — slab reuse cannot silently satisfy a stale read.
///
/// The bound layout is captured by reference and must outlive the binding
/// (plans own their layouts and are cached by callers, so this holds by
/// construction).
class Workspace {
 public:
  explicit Workspace(Device& dev) : dev_(&dev) {}
  ~Workspace() { release(); }

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Materialize `layout` in pooled storage.  Reuses the held slab when it
  /// is big enough; otherwise swaps it for one from the device pool.
  void bind(const WorkspaceLayout& layout) {
    const std::size_t need = layout.total_bytes();
    if (!slab_.empty() && slab_.bytes >= need) {
      dev_->memory_pool().note_hit();
    } else {
      release();
      slab_ = dev_->pool_acquire(need);
    }
    layout_ = &layout;
    // Keep a copy of the device-segment metadata for release(): the caller's
    // layout only has to outlive the *binding*, and a Workspace destroyed
    // after its layout (reverse declaration order in a scope) must not read
    // through the stale pointer.  Segment names are literals/interned views,
    // so copying the Segment structs is enough; assign() reuses capacity, so
    // warm rebinds stay allocation-free.
    device_segments_.assign(layout.segments.begin(), layout.segments.end());
    for (const WorkspaceLayout::Segment& seg : device_segments_) {
      if (seg.host) continue;
      dev_->register_region(slab_.base + seg.offset, seg.bytes / seg.elem_size,
                            seg.elem_size, seg.name);
    }
  }

  /// The bound segment `id` (the index WorkspaceLayout::add returned) as a
  /// typed device buffer.  T must match the planned element size.
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> get(std::size_t id) const {
    const WorkspaceLayout::Segment& seg = segment(id);
    if (seg.elem_size != sizeof(T)) {
      throw std::invalid_argument(
          "Workspace::get: element type does not match the planned segment");
    }
    return DeviceBuffer<T>(reinterpret_cast<T*>(slab_.base + seg.offset),
                           seg.bytes / sizeof(T));
  }

  /// Host staging segment `id` as raw bytes (layout must have added it with
  /// host = true; host segments are not device regions).
  template <typename T>
  [[nodiscard]] T* host_ptr(std::size_t id) const {
    const WorkspaceLayout::Segment& seg = segment(id);
    if (seg.elem_size != sizeof(T)) {
      throw std::invalid_argument(
          "Workspace::host_ptr: element type does not match the segment");
    }
    return reinterpret_cast<T*>(slab_.base + seg.offset);
  }

  /// Return the held slab to the device pool.  The segment handles are
  /// poisoned, not just the pooled slab: every device segment is
  /// re-registered as a fresh "released" shadow region, so a kernel touching
  /// a stale DeviceBuffer from before the release is reported by simcheck as
  /// reading a released segment — the same verdict the static plan auditor's
  /// lifetime rule gives (see src/verify/plan_audit.hpp).  The slab bytes
  /// are poisoned unconditionally so stale reads in unchecked builds see
  /// garbage rather than plausible old results.
  void release() {
    if (slab_.empty()) return;
    if (dev_->sanitizer() != nullptr) {
      for (const WorkspaceLayout::Segment& seg : device_segments_) {
        if (seg.host) continue;
        dev_->register_region(slab_.base + seg.offset,
                              seg.bytes / seg.elem_size, seg.elem_size,
                              "released segment '" + std::string(seg.name) +
                                  "'");
      }
    }
    dev_->pool_release(std::move(slab_), /*poison=*/true);
    slab_ = {};
    layout_ = nullptr;
    device_segments_.clear();
  }

  [[nodiscard]] bool bound() const { return layout_ != nullptr; }

 private:
  [[nodiscard]] const WorkspaceLayout::Segment& segment(std::size_t id) const {
    if (layout_ == nullptr || id >= layout_->segments.size()) {
      throw std::out_of_range("Workspace: no such segment bound");
    }
    return layout_->segments[id];
  }

  Device* dev_;
  MemoryPool::Slab slab_;
  const WorkspaceLayout* layout_ = nullptr;
  /// Snapshot of the bound layout's segments, owned here so release() can
  /// poison the shadow regions even after the layout object is gone.
  std::vector<WorkspaceLayout::Segment> device_segments_;
};

}  // namespace simgpu
