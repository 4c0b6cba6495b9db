#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

namespace simgpu {

/// A non-owning, pointer-like handle to a typed region of simulated device
/// memory, analogous to a raw device pointer captured by value in a CUDA
/// kernel.  The storage is owned by the Device that allocated it; handles
/// remain valid until the Device is destroyed or reset.
///
/// Kernels must access device memory through the BlockCtx accessors
/// (`load`/`store`/`atomic_*`) so that device-memory traffic is accounted;
/// the raw `data()` escape hatch exists for host-side code (memcpy, result
/// verification) only.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(T* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size_bytes() const { return size_ * sizeof(T); }

  /// Host-side view of the underlying storage (no traffic accounting).
  [[nodiscard]] std::span<T> host_span() const { return {data_, size_}; }

  /// Sub-range view, like pointer arithmetic on a device pointer.  Unlike
  /// raw pointer arithmetic, a view past the end of this buffer is refused
  /// rather than silently minted.
  [[nodiscard]] DeviceBuffer<T> subspan(std::size_t offset,
                                        std::size_t count) const {
    if (offset > size_ || count > size_ - offset) {
      throw std::out_of_range("DeviceBuffer::subspan: range exceeds buffer");
    }
    return DeviceBuffer<T>(data_ + offset, count);
  }

  /// The same storage viewed as a same-size element type, like casting a
  /// device pointer (e.g. the float half of a packed u32 allocation).  The
  /// element count and byte extent are unchanged, so bounds checks and the
  /// sanitizer's per-element shadow cells cover the view exactly as they
  /// cover the buffer.
  template <typename U>
  [[nodiscard]] DeviceBuffer<U> as() const {
    static_assert(sizeof(U) == sizeof(T),
                  "DeviceBuffer::as reinterprets same-size elements only");
    return DeviceBuffer<U>(reinterpret_cast<U*>(data_), size_);
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace simgpu
