#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

namespace topk {

/// Monotone bit reinterpretations for radix-based selection.
///
/// `to_radix` maps a value to an unsigned integer such that
/// `a < b  <=>  to_radix(a) < to_radix(b)`; `from_radix` inverts it.  These
/// are the standard tricks used by GPU radix sorts (CUB) and by RAFT's
/// select_radix: flip the sign bit for signed integers, and for IEEE-754
/// floats flip the sign bit for non-negative values / all bits for negative
/// values.
///
/// NaN note: like CUB's radix sort, NaNs order by their bit pattern —
/// positive NaNs above +inf, negative NaNs below -inf.
template <typename T>
struct RadixTraits;

template <>
struct RadixTraits<float> {
  using Bits = std::uint32_t;
  static constexpr int kBits = 32;

  static Bits to_radix(float v) {
    const auto b = std::bit_cast<Bits>(v);
    return (b & 0x80000000u) ? ~b : (b | 0x80000000u);
  }
  static float from_radix(Bits b) {
    const Bits raw = (b & 0x80000000u) ? (b & 0x7FFFFFFFu) : ~b;
    return std::bit_cast<float>(raw);
  }
};

template <>
struct RadixTraits<std::uint32_t> {
  using Bits = std::uint32_t;
  static constexpr int kBits = 32;

  static Bits to_radix(std::uint32_t v) { return v; }
  static std::uint32_t from_radix(Bits b) { return b; }
};

template <>
struct RadixTraits<std::int32_t> {
  using Bits = std::uint32_t;
  static constexpr int kBits = 32;

  static Bits to_radix(std::int32_t v) {
    return static_cast<Bits>(v) ^ 0x80000000u;
  }
  static std::int32_t from_radix(Bits b) {
    return static_cast<std::int32_t>(b ^ 0x80000000u);
  }
};

template <>
struct RadixTraits<double> {
  using Bits = std::uint64_t;
  static constexpr int kBits = 64;

  static Bits to_radix(double v) {
    const auto b = std::bit_cast<Bits>(v);
    return (b & 0x8000000000000000ull) ? ~b : (b | 0x8000000000000000ull);
  }
  static double from_radix(Bits b) {
    const Bits raw =
        (b & 0x8000000000000000ull) ? (b & 0x7FFFFFFFFFFFFFFFull) : ~b;
    return std::bit_cast<double>(raw);
  }
};

}  // namespace topk
