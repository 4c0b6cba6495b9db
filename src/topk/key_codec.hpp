#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/topk.hpp"
#include "topk/bf16.hpp"
#include "topk/half.hpp"
#include "topk/radix_traits.hpp"

namespace topk {

inline KeyView KeyView::of(std::span<const half> s) {
  return {KeyType::kF16, s.data(), s.size()};
}
inline KeyView KeyView::of(std::span<const bf16> s) {
  return {KeyType::kBF16, s.data(), s.size()};
}

/// Carrier codec: every KeyType executes on one of two carrier element
/// types (float or uint32_t), chosen so carrier ordering equals key
/// ordering and the round trip is exact.
///
///  - f32:      identity on the float carrier.
///  - f16/bf16: the 16-bit radix ordinal, cast to float.  Ordinals live in
///    [0, 65536) so the cast is exact, and the ordinal order is the total
///    key order (NaNs by bit pattern, -0 below +0) — which is what lets
///    comparison-based algorithms run 16-bit floats without NaN hazards.
///  - i32/u32:  the 32-bit radix ordinal on the uint32_t carrier (i32 flips
///    the sign bit; u32 is the identity).
namespace codec {

[[nodiscard]] constexpr bool uses_u32_carrier(KeyType t) {
  return key_type_is_integer(t);
}

// --- scalar encode to the carrier domain ---

inline float encode_f16(half h) {
  return static_cast<float>(RadixTraits<half>::to_radix(h));
}
inline float encode_bf16(bf16 h) {
  return static_cast<float>(RadixTraits<bf16>::to_radix(h));
}
inline std::uint32_t encode_i32(std::int32_t v) {
  return RadixTraits<std::int32_t>::to_radix(v);
}
inline std::uint32_t encode_u32(std::uint32_t v) { return v; }

// --- scalar decode from the carrier domain ---

inline half decode_f16(float carrier) {
  return RadixTraits<half>::from_radix(
      static_cast<std::uint16_t>(carrier));
}
inline bf16 decode_bf16(float carrier) {
  return RadixTraits<bf16>::from_radix(
      static_cast<std::uint16_t>(carrier));
}
inline std::int32_t decode_i32(std::uint32_t carrier) {
  return RadixTraits<std::int32_t>::from_radix(carrier);
}

// --- bulk encode ---

/// Encode a float-family KeyView into float carriers.  `dst` must hold
/// keys.size elements.  Throws std::invalid_argument on an integer dtype.
inline void encode_keys_f32(KeyView keys, float* dst) {
  switch (keys.dtype) {
    case KeyType::kF32: {
      const auto* src = static_cast<const float*>(keys.data);
      for (std::size_t i = 0; i < keys.size; ++i) dst[i] = src[i];
      return;
    }
    case KeyType::kF16: {
      const auto* src = static_cast<const half*>(keys.data);
      for (std::size_t i = 0; i < keys.size; ++i) dst[i] = encode_f16(src[i]);
      return;
    }
    case KeyType::kBF16: {
      const auto* src = static_cast<const bf16*>(keys.data);
      for (std::size_t i = 0; i < keys.size; ++i) {
        dst[i] = encode_bf16(src[i]);
      }
      return;
    }
    default:
      throw std::invalid_argument(
          "encode_keys_f32: integer key types run on the u32 carrier");
  }
}

/// Encode an integer KeyView into uint32 carriers (radix ordinals).
inline void encode_keys_u32(KeyView keys, std::uint32_t* dst) {
  switch (keys.dtype) {
    case KeyType::kI32: {
      const auto* src = static_cast<const std::int32_t*>(keys.data);
      for (std::size_t i = 0; i < keys.size; ++i) dst[i] = encode_i32(src[i]);
      return;
    }
    case KeyType::kU32: {
      const auto* src = static_cast<const std::uint32_t*>(keys.data);
      for (std::size_t i = 0; i < keys.size; ++i) dst[i] = src[i];
      return;
    }
    default:
      throw std::invalid_argument(
          "encode_keys_u32: float-family key types run on the f32 carrier");
  }
}

/// Decode a result whose `values` currently hold f32-carrier values into
/// user-facing form: for f16/bf16, `values` becomes the exact float value of
/// each key and `values_bits` its 16-bit storage pattern (zero-extended).
/// No-op for f32.
inline void decode_result_f32(KeyType dtype, SelectResult& r) {
  r.dtype = dtype;
  if (dtype == KeyType::kF32) return;
  r.values_bits.resize(r.values.size());
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    if (dtype == KeyType::kF16) {
      const half h = decode_f16(r.values[i]);
      r.values_bits[i] = h.bits();
      r.values[i] = static_cast<float>(h);
    } else {
      const bf16 h = decode_bf16(r.values[i]);
      r.values_bits[i] = h.bits();
      r.values[i] = static_cast<float>(h);
    }
  }
}

/// Decode a u32-carrier result: `values_bits` gets the authoritative raw
/// storage bits (two's complement for i32), `values` a lossy float
/// rendering for display/verification convenience.
inline void decode_result_u32(KeyType dtype,
                              std::span<const std::uint32_t> carrier_vals,
                              SelectResult& r) {
  r.dtype = dtype;
  r.values.resize(carrier_vals.size());
  r.values_bits.resize(carrier_vals.size());
  for (std::size_t i = 0; i < carrier_vals.size(); ++i) {
    if (dtype == KeyType::kI32) {
      const std::int32_t v = decode_i32(carrier_vals[i]);
      r.values_bits[i] = std::bit_cast<std::uint32_t>(v);
      r.values[i] = static_cast<float>(v);
    } else {
      const std::uint32_t v = carrier_vals[i];
      r.values_bits[i] = v;
      r.values[i] = static_cast<float>(v);
    }
  }
}

/// Read one payload entry, widened to u64.  Precondition: p.present() and
/// i < p.size.
[[nodiscard]] inline std::uint64_t payload_at(PayloadView p, std::size_t i) {
  return p.kind == PayloadKind::kU32
             ? static_cast<const std::uint32_t*>(p.data)[i]
             : static_cast<const std::uint64_t*>(p.data)[i];
}

/// Copy/widen a payload view into the uniform u64 representation.
inline std::vector<std::uint64_t> widen_payload(PayloadView p) {
  std::vector<std::uint64_t> out(p.size);
  if (p.kind == PayloadKind::kU32) {
    const auto* src = static_cast<const std::uint32_t*>(p.data);
    for (std::size_t i = 0; i < p.size; ++i) out[i] = src[i];
  } else if (p.kind == PayloadKind::kU64) {
    const auto* src = static_cast<const std::uint64_t*>(p.data);
    for (std::size_t i = 0; i < p.size; ++i) out[i] = src[i];
  }
  return out;
}

}  // namespace codec
}  // namespace topk
