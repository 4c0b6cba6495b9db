#include "simgpu/kernel.hpp"

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

namespace simgpu {

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
