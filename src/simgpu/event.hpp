#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace simgpu {

/// Aggregated resource usage of one kernel execution, accumulated from the
/// per-block counters while the kernel runs.  These numbers feed the cost
/// model; they are what a profiler would report as memory/compute throughput
/// sources on real hardware.
struct KernelStats {
  /// Kernel name.  A view, not an owning string, so recording a kernel event
  /// performs no heap allocation on the hot path: launch sites name kernels
  /// with string literals, and dynamically built names (per-pass suffixes)
  /// must be interned once via simgpu::intern_name(), whose storage is
  /// permanent.
  std::string_view name;
  int grid_blocks = 0;
  int block_threads = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t lane_ops = 0;
  /// Contended atomics (many threads updating the same counter).
  std::uint64_t atomic_ops = 0;
  /// Scattered atomics (distinct addresses, e.g. histogram-bin flushes);
  /// these distribute across L2 slices and are much cheaper.
  std::uint64_t scattered_atomic_ops = 0;
  std::uint64_t block_syncs = 0;
  /// Heaviest single block's device traffic / lane ops: a kernel cannot
  /// finish before its straggler block does (load imbalance matters for
  /// last-block reductions and single-block merge phases).
  std::uint64_t max_block_bytes = 0;
  std::uint64_t max_block_lane_ops = 0;

  [[nodiscard]] int warps_per_block() const { return block_threads / 32; }
  [[nodiscard]] std::uint64_t bytes_total() const {
    return bytes_read + bytes_written;
  }
};

/// A kernel launch recorded on the device timeline.  Launches are
/// asynchronous with respect to the host: the host pays only the launch
/// overhead and continues.
struct KernelEvent {
  KernelStats stats;
  /// Host wall time the emulator spent running the grid, in milliseconds.
  /// Diagnostic only (`topk_cli --explain` lists it per kernel): the cost
  /// model never reads it, so modeled time stays independent of the host.
  double emu_ms = 0.0;
};

/// A host<->device copy.  Like cudaMemcpy, a copy synchronizes the host with
/// the device before the transfer starts.
struct MemcpyEvent {
  enum class Dir { kHostToDevice, kDeviceToHost };
  Dir dir = Dir::kHostToDevice;
  std::uint64_t bytes = 0;
  std::string label;
};

/// An explicit host-side synchronization (cudaDeviceSynchronize analogue).
struct SyncEvent {
  std::string label;
};

/// Host-side CPU work between device operations (e.g. the prefix-sum the
/// host-managed RadixSelect baseline performs on a copied-back histogram).
struct HostComputeEvent {
  std::string label;
  std::uint64_t host_ops = 0;
};

using Event = std::variant<KernelEvent, MemcpyEvent, SyncEvent, HostComputeEvent>;

using EventLog = std::vector<Event>;

/// Human-readable one-line description of an event (used by the timeline
/// renderer and in test diagnostics).
std::string describe(const Event& event);

}  // namespace simgpu
