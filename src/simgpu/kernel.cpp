#include "simgpu/kernel.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

namespace simgpu {

namespace {

/// -1 until first read, then 0/1.  Relaxed is enough: the switches are
/// flipped from the driving host thread between launches, never mid-kernel.
std::atomic<int> g_tile_path{-1};
std::atomic<int> g_warpfast_path{-1};
std::atomic<int> g_pool{-1};

int toggle_from_env(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && std::string_view(v) == "0") ? 0 : 1;
}

bool lazy_toggle(std::atomic<int>& toggle, const char* env) {
  int v = toggle.load(std::memory_order_relaxed);
  if (v < 0) {
    v = toggle_from_env(env);
    toggle.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

}  // namespace

bool tile_path_enabled() { return lazy_toggle(g_tile_path, "TOPK_SIM_TILE"); }

void set_tile_path_enabled(bool enabled) {
  g_tile_path.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool warpfast_path_enabled() {
  return lazy_toggle(g_warpfast_path, "TOPK_SIM_WARPFAST");
}

void set_warpfast_path_enabled(bool enabled) {
  g_warpfast_path.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool pool_enabled() { return lazy_toggle(g_pool, "TOPK_SIM_POOL"); }

void set_pool_enabled(bool enabled) {
  g_pool.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::mutex& detail::flush_lock(const void* bins) {
  // One cache line per stripe, so stripes taken by different pool threads
  // do not false-share.
  struct alignas(64) Stripe {
    std::mutex mu;
  };
  static Stripe stripes[64];
  const auto h = static_cast<std::uint64_t>(
                     reinterpret_cast<std::uintptr_t>(bins) >> 2) *
                 0x9E3779B97F4A7C15ull;
  return stripes[h >> 58].mu;
}

std::string_view intern_name(std::string_view name) {
  // std::set gives stable node addresses for the lifetime of the program;
  // the transparent comparator lets the lookup avoid a temporary string on
  // repeat interning.  Called at plan time only, so the mutex is cold.
  static std::mutex mu;
  static std::set<std::string, std::less<>>* names =
      new std::set<std::string, std::less<>>();  // leaked: views must outlive
                                                 // every event log
  std::lock_guard<std::mutex> lock(mu);
  auto it = names->find(name);
  if (it == names->end()) it = names->emplace(name).first;
  return *it;
}

}  // namespace simgpu
