#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simgpu/buffer.hpp"
#include "simgpu/device_spec.hpp"
#include "simgpu/event.hpp"
#include "simgpu/memory_pool.hpp"
#include "simgpu/sanitizer.hpp"
#include "simgpu/thread_pool.hpp"

namespace simgpu {

/// A simulated GPU: owns device memory, records the host-visible event stream
/// (kernel launches, copies, synchronizations, interleaved host work) that
/// the cost model later turns into a timeline, and carries the device spec.
///
/// Memory management mirrors a stack/arena style: `mark()` captures the
/// current allocation state and `release_to()` rolls back to it, so an
/// algorithm can allocate scratch space and return it wholesale when done
/// (see ScopedWorkspace).  Underlying chunks are retained and reused across
/// runs, so benchmark loops do not thrash the host allocator.
///
/// Host-side methods (alloc, memcpy, launch bookkeeping) must be called from
/// a single host thread, matching how a CUDA stream is driven.
class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::a100())
      : spec_(std::move(spec)) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// ---- Memory ----------------------------------------------------------

  /// Allocate `n` elements of uninitialized device memory.  `name` labels
  /// the buffer in sanitizer reports (unused when checking is off).
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t n, std::string_view name = {}) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "device memory holds trivially copyable types only");
    void* p = raw_alloc(n * sizeof(T), alignof(T));
    ++alloc_seq_;
    ++alloc_calls_;
    if (sanitizer_) {
      sanitizer_->on_alloc(p, n, sizeof(T), std::string(name), alloc_seq_);
    }
    return DeviceBuffer<T>(static_cast<T*>(p), n);
  }

  /// Allocate and zero-fill (cudaMemset analogue; not charged as traffic —
  /// setup cost is outside all measured regions in the paper as well).
  template <typename T>
  DeviceBuffer<T> alloc_zero(std::size_t n, std::string_view name = {}) {
    DeviceBuffer<T> b = alloc<T>(n, name);
    std::memset(static_cast<void*>(b.data()), 0, b.size_bytes());
    if (sanitizer_) sanitizer_->mark_initialized(b.data(), b.size_bytes());
    return b;
  }

  /// Copy host data into a fresh device buffer, recording a H2D transfer.
  template <typename T>
  DeviceBuffer<T> to_device(std::span<const T> host, std::string label = {}) {
    DeviceBuffer<T> b = alloc<T>(host.size(), label);
    std::memcpy(b.data(), host.data(), host.size_bytes());
    if (sanitizer_) sanitizer_->mark_initialized(b.data(), host.size_bytes());
    events_.push_back(MemcpyEvent{MemcpyEvent::Dir::kHostToDevice,
                                  host.size_bytes(), std::move(label)});
    return b;
  }

  /// Copy host data into an existing device buffer WITHOUT recording a
  /// transfer — for staging inputs before a timed region (the paper's
  /// measurements start with the data already resident on the device).
  template <typename T>
  void upload(DeviceBuffer<T> dst, std::span<const T> src) {
    if (src.size() > dst.size()) {
      throw std::out_of_range("upload: source larger than destination");
    }
    std::memcpy(dst.data(), src.data(), src.size_bytes());
    if (sanitizer_) sanitizer_->mark_initialized(dst.data(), src.size_bytes());
  }

  /// Copy host data into an existing device buffer AND record a H2D
  /// transfer — the allocation-free counterpart of to_device() for two-phase
  /// algorithms whose run() must not allocate: the destination is a
  /// pre-planned workspace segment.  Records the same MemcpyEvent
  /// (bytes + label) a to_device() of `src` would, so the event stream stays
  /// bit-identical across the one-phase and two-phase entry points.
  template <typename T>
  void upload_recorded(DeviceBuffer<T> dst, std::span<const T> src,
                       std::string label = {}) {
    if (src.size() > dst.size()) {
      throw std::out_of_range(
          "upload_recorded: source larger than destination");
    }
    std::memcpy(dst.data(), src.data(), src.size_bytes());
    if (sanitizer_) sanitizer_->mark_initialized(dst.data(), src.size_bytes());
    events_.push_back(MemcpyEvent{MemcpyEvent::Dir::kHostToDevice,
                                  src.size_bytes(), std::move(label)});
  }

  /// Host-side element fill of a device buffer (cudaMemset-style setup,
  /// outside the recorded stream; use a kernel for accounted clears inside
  /// timed regions).
  template <typename T>
  void fill(DeviceBuffer<T> b, const T& value) {
    std::fill(b.data(), b.data() + b.size(), value);
    if (sanitizer_) sanitizer_->mark_initialized(b.data(), b.size_bytes());
  }

  /// Host-side byte memset of a device buffer (cudaMemset analogue, outside
  /// the recorded stream).
  template <typename T>
  void memset_device(DeviceBuffer<T> b, int byte_value = 0) {
    std::memset(static_cast<void*>(b.data()), byte_value, b.size_bytes());
    if (sanitizer_) sanitizer_->mark_initialized(b.data(), b.size_bytes());
  }

  /// Copy a device buffer back to the host, recording a D2H transfer.
  /// Like cudaMemcpy, this synchronizes the host with the device.
  template <typename T>
  std::vector<T> to_host(DeviceBuffer<T> buf, std::string label = {}) {
    std::vector<T> out(buf.size());
    if (sanitizer_) {
      sanitizer_->check_host_read(buf.data(), buf.size_bytes(), label);
    }
    std::memcpy(out.data(), buf.data(), buf.size_bytes());
    events_.push_back(MemcpyEvent{MemcpyEvent::Dir::kDeviceToHost,
                                  buf.size_bytes(), std::move(label)});
    return out;
  }

  /// Copy a prefix of a device buffer to host storage (D2H transfer).
  template <typename T>
  void copy_to_host(DeviceBuffer<T> buf, std::span<T> out,
                    std::string label = {}) {
    if (out.size() > buf.size()) {
      throw std::out_of_range("copy_to_host: destination larger than buffer");
    }
    if (sanitizer_) {
      sanitizer_->check_host_read(buf.data(), out.size_bytes(), label);
    }
    std::memcpy(out.data(), buf.data(), out.size_bytes());
    events_.push_back(MemcpyEvent{MemcpyEvent::Dir::kDeviceToHost,
                                  out.size_bytes(), std::move(label)});
  }

  /// ---- Sanitizer (simcheck) --------------------------------------------

  /// Attach a fresh sanitizer; all subsequent allocations and kernel
  /// launches are checked.  Storage allocated before this call is unknown to
  /// the shadow and silently skipped.  Default: no sanitizer, zero cost.
  void enable_sanitizer(SanitizerConfig cfg = {}) {
    sanitizer_ = std::make_unique<Sanitizer>(cfg);
  }

  void disable_sanitizer() { sanitizer_.reset(); }

  /// The attached sanitizer, or nullptr when checking is off.
  [[nodiscard]] Sanitizer* sanitizer() const { return sanitizer_.get(); }

  /// Allocation mark for stack-style scratch release.
  struct MemoryMark {
    std::size_t chunk_index = 0;
    std::size_t chunk_offset = 0;
    std::size_t live_bytes = 0;
    std::uint64_t alloc_seq = 0;
  };

  [[nodiscard]] MemoryMark mark() const {
    return {chunks_.size() == 0 ? 0 : active_chunk_, active_offset_,
            live_bytes_, alloc_seq_};
  }

  /// Roll allocation state back to `m`.  Buffers allocated after the mark
  /// become invalid (their storage may be reused by later allocations).
  void release_to(const MemoryMark& m) {
    active_chunk_ = m.chunk_index;
    active_offset_ = m.chunk_offset;
    live_bytes_ = m.live_bytes;
    if (sanitizer_) sanitizer_->on_release(m.alloc_seq);
  }

  [[nodiscard]] std::size_t live_bytes() const {
    return live_bytes_ + pool_live_bytes_;
  }
  [[nodiscard]] std::size_t peak_live_bytes() const { return peak_bytes_; }
  void reset_peak_live_bytes() { peak_bytes_ = live_bytes(); }

  /// Count of alloc<T>() calls since construction.  Two-phase run() paths
  /// must not allocate: benches snapshot this counter around timed regions
  /// and gate the delta at zero (register_region() does not count — binding
  /// a pooled workspace is not an allocation).
  [[nodiscard]] std::uint64_t alloc_calls() const { return alloc_calls_; }

  /// ---- Pooled workspaces ------------------------------------------------

  /// Pool of retained slabs Workspace binds draw from (see workspace.hpp).
  [[nodiscard]] MemoryPool& memory_pool() { return memory_pool_; }

  /// Workspace slab checkout, with modeled-memory accounting: slab bytes
  /// count toward live_bytes()/peak_live_bytes() like arena allocations, but
  /// are tracked outside the arena's mark()/release_to() stack (a workspace
  /// may be bound inside a ScopedWorkspace region and released after it).
  [[nodiscard]] MemoryPool::Slab pool_acquire(std::size_t bytes) {
    MemoryPool::Slab s = memory_pool_.acquire(bytes);
    pool_live_bytes_ += s.bytes;
    peak_bytes_ = std::max(peak_bytes_, live_bytes());
    return s;
  }

  /// Return a workspace slab to the pool (see MemoryPool::release).
  void pool_release(MemoryPool::Slab&& slab, bool poison) {
    if (!slab.empty()) pool_live_bytes_ -= slab.bytes;
    memory_pool_.release(std::move(slab), poison);
  }

  /// Introduce an externally owned storage region (a workspace segment) to
  /// the device, as if it had just been allocated: the sanitizer opens a
  /// fresh shadow region for it — evicting any overlapping region from an
  /// earlier bind, so data left by a previous layout reads as uninitialized
  /// — and attributes subsequent accesses to `name`.  No storage changes
  /// hands and alloc_calls() is not bumped.
  void register_region(const void* base, std::size_t elems,
                       std::size_t elem_size, std::string_view name) {
    ++alloc_seq_;
    if (sanitizer_) {
      sanitizer_->on_alloc(base, elems, elem_size, std::string(name),
                           alloc_seq_);
    }
  }

  /// ---- Host/device interaction events ----------------------------------

  /// cudaDeviceSynchronize analogue: the host blocks until the device
  /// drains.  Charged by the cost model.
  void synchronize(std::string label = {}) {
    // Built in place: GCC 12 misreads a moved temporary variant as reading
    // the MemcpyEvent alternative (-Wmaybe-uninitialized).
    events_.emplace_back(std::in_place_type<SyncEvent>, std::move(label));
  }

  /// Record host-side CPU work of roughly `host_ops` scalar operations
  /// (used by baselines that process intermediate data on the CPU).
  void host_compute(std::string label, std::uint64_t host_ops) {
    events_.push_back(HostComputeEvent{std::move(label), host_ops});
  }

  void record_kernel(KernelStats stats, double emu_ms) {
    events_.push_back(KernelEvent{std::move(stats), emu_ms});
  }

  [[nodiscard]] const EventLog& events() const { return events_; }
  EventLog take_events() { return std::exchange(events_, {}); }
  void clear_events() { events_.clear(); }

  [[nodiscard]] ThreadPool& pool() const { return ThreadPool::instance(); }

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 20;
  static constexpr std::size_t kAlign = 256;

  struct Chunk {
    std::unique_ptr<std::byte[]> storage;
    std::byte* base = nullptr;  // storage aligned up to kAlign
    std::size_t capacity = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t /*align*/) {
    const std::size_t rounded = (bytes + kAlign - 1) / kAlign * kAlign;
    if (chunks_.empty()) add_chunk(std::max(rounded, kChunkBytes));
    if (active_offset_ + rounded > chunks_[active_chunk_].capacity) {
      // Advance to the next chunk that fits, appending one if needed.
      std::size_t next = active_chunk_ + 1;
      while (next < chunks_.size() && chunks_[next].capacity < rounded) ++next;
      if (next == chunks_.size()) add_chunk(std::max(rounded, kChunkBytes));
      active_chunk_ = next;
      active_offset_ = 0;
    }
    std::byte* p = chunks_[active_chunk_].base + active_offset_;
    active_offset_ += rounded;
    live_bytes_ += rounded;
    peak_bytes_ = std::max(peak_bytes_, live_bytes_);
    return p;
  }

  void add_chunk(std::size_t capacity) {
    Chunk c;
    // alloc() hands out uninitialized memory, so the chunk is not
    // zero-filled: its pages are faulted in when first touched rather than
    // all when the chunk is added.
    c.storage = std::make_unique_for_overwrite<std::byte[]>(capacity + kAlign);
    const auto addr = reinterpret_cast<std::uintptr_t>(c.storage.get());
    const std::uintptr_t aligned = (addr + kAlign - 1) / kAlign * kAlign;
    c.base = c.storage.get() + (aligned - addr);
    c.capacity = capacity;
    chunks_.push_back(std::move(c));
  }

  DeviceSpec spec_;
  std::vector<Chunk> chunks_;
  std::size_t active_chunk_ = 0;
  std::size_t active_offset_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::uint64_t alloc_seq_ = 0;
  std::uint64_t alloc_calls_ = 0;
  EventLog events_;
  std::unique_ptr<Sanitizer> sanitizer_;
  MemoryPool memory_pool_;
  std::size_t pool_live_bytes_ = 0;
};

/// RAII guard releasing all device allocations made during its lifetime.
class ScopedWorkspace {
 public:
  explicit ScopedWorkspace(Device& dev) : dev_(dev), mark_(dev.mark()) {}
  ~ScopedWorkspace() { dev_.release_to(mark_); }
  ScopedWorkspace(const ScopedWorkspace&) = delete;
  ScopedWorkspace& operator=(const ScopedWorkspace&) = delete;

 private:
  Device& dev_;
  Device::MemoryMark mark_;
};

}  // namespace simgpu
