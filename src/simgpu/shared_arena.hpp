#pragma once

#include <cstddef>
#include <vector>

namespace simgpu::detail {

/// Fixed per-thread backing size for simulated shared memory.  Covers the
/// largest shared_mem_per_block of any built-in DeviceSpec (228 KiB on the
/// H100-class spec) with headroom, so a thread's arena is sized exactly once
/// and never grows across kernels or devices.  Keeping the size constant is
/// what makes steady-state launches allocation-free: block-to-thread
/// assignment is nondeterministic, so a cap that tracked the *current*
/// kernel's shared_cap would let a cold pool thread resize mid-launch.
inline constexpr std::size_t kSharedArenaBytes = 256 * 1024;

/// The calling thread's shared-memory arena, allocated on first touch.
/// ThreadPool workers touch it at thread start and a driving thread at the
/// start of each run_blocks call, before it runs any block, so one warm-up
/// launch sizes every arena a timed launch can use.
inline std::vector<std::byte>& shared_arena() {
  thread_local std::vector<std::byte> arena(kSharedArenaBytes);
  return arena;
}

}  // namespace simgpu::detail
