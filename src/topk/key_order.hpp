#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

#include "simgpu/kernel.hpp"
#include "topk/radix_traits.hpp"

namespace topk {

/// True when (key, index) pairs of key type T pack into one uint64 ordered
/// like the pairs (KeyOrder::pack): the f32 and u32 carriers, and i32.
template <typename T>
inline constexpr bool kPackableKey = sizeof(T) == 4 && std::is_arithmetic_v<T>;

/// The selection direction, in one place.  Every row keeps the K keys that
/// come first under less(): IEEE `<` on key(x), so ±0 compare equal and NaN
/// is unordered.  key(x) xors a per-plan mask into x's bits — 0 for
/// smallest-K; for largest-K the sign bit on floating-point keys (IEEE
/// negation: NaN stays NaN, ±0 swap) and all ones on integer keys (the
/// complement).  Buffers hold raw values; only comparisons, sentinels and
/// packed keys see key(x).
template <typename T>
class KeyOrder {
 public:
  using Bits = typename RadixTraits<T>::Bits;

  constexpr KeyOrder() = default;  ///< smallest-K
  constexpr explicit KeyOrder(bool greatest) : greatest_(greatest) {}

  [[nodiscard]] constexpr bool greatest() const { return greatest_; }
  [[nodiscard]] constexpr Bits mask() const {
    if (!greatest_) return Bits{0};
    return std::is_floating_point_v<T> ? Bits{1} << (8 * sizeof(T) - 1)
                                       : static_cast<Bits>(~Bits{0});
  }
  /// The same direction on radix ordinals (the radix rows' order mask):
  /// to_radix(key(x)) == to_radix(x) ^ radix_mask() for every bit pattern.
  [[nodiscard]] constexpr Bits radix_mask() const {
    return greatest() ? static_cast<Bits>(~Bits{0}) : Bits{0};
  }

  [[nodiscard]] T key(T x) const {
    if constexpr (std::is_floating_point_v<T>) {
      return greatest() ? -x : x;  // IEEE negation: the sign-bit xor
    } else {
      return std::bit_cast<T>(
          static_cast<Bits>(std::bit_cast<Bits>(x) ^ mask()));
    }
  }
  /// key(a) < key(b).  Negation and complement reverse the order and keep
  /// NaN unordered, so largest-K only swaps the operands.
  [[nodiscard]] bool less(T a, T b) const {
    return greatest() ? b < a : a < b;
  }
  /// The last key of the order, held by pads and empty slots: +inf (max
  /// without infinities) for smallest-K, -inf (lowest; 0 on u32) for
  /// largest-K.
  [[nodiscard]] T worst() const {
    using L = std::numeric_limits<T>;
    return key(L::has_infinity ? L::infinity() : L::max());
  }

  /// (x, index) -> uint64 ordered by (key(x), index).  No value is
  /// reserved, so a key equal to worst() at index 0 packs like an empty
  /// slot (an open defect: the pad needs an index no real element has).
  [[nodiscard]] std::uint64_t pack(T x, std::uint32_t index) const
    requires kPackableKey<T>
  {
    const Bits ord = RadixTraits<T>::to_radix(x) ^ radix_mask();
    return static_cast<std::uint64_t>(ord) << 32 | index;
  }
  /// The raw key of a packed pair (its index is the low 32 bits).
  [[nodiscard]] T unpack(std::uint64_t packed) const
    requires kPackableKey<T>
  {
    return RadixTraits<T>::from_radix(static_cast<Bits>(packed >> 32) ^
                                      radix_mask());
  }

  /// How many keys of `tile` come before `bound` (charges nothing).
  [[nodiscard]] std::size_t count_less(std::span<const T> tile,
                                       T bound) const {
    return simgpu::BlockCtx::count_below(tile, key(bound), mask());
  }

 private:
  // A bool, not the mask: no uint32 or float store can alias it, so hot
  // loops keep it in a register.
  bool greatest_ = false;
};

}  // namespace topk
