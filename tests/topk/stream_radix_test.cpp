// Streaming large-K radix select: correctness of the chunk/fold loop (forced
// with a tiny chunk target so every code path runs at test-sized n), the
// large-shape acceptance the tier exists for (N=2^24, K=2^20, fp32 and fp16
// keys with u32 payloads), and the bounded-workspace contract — the pooled
// workspace high-water mark must be BYTE-IDENTICAL across N once the chunk
// schedule saturates, because scratch is sized by chunk/union capacity, not
// by the row length.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/key_codec.hpp"
#include "topk/stream_radix.hpp"

namespace topk {
namespace {

template <typename T>
std::vector<T> reference_best(std::span<const T> data, std::size_t k,
                              bool greatest) {
  std::vector<T> want(data.begin(), data.end());
  if (greatest) {
    std::partial_sort(want.begin(), want.begin() + static_cast<long>(k),
                      want.end(), std::greater<>());
  } else {
    std::partial_sort(want.begin(), want.begin() + static_cast<long>(k),
                      want.end());
  }
  want.resize(k);
  std::sort(want.begin(), want.end());
  return want;
}

/// One direct plan/run of the streaming row with an artificially small
/// chunk target, so the union-fold path runs many times at test-sized n.
/// Results are checked here; the launched kernels' stats go to `stats`.
template <typename T>
void run_direct(const std::vector<T>& data, std::size_t batch, std::size_t n,
                std::size_t k, bool greatest, std::size_t chunk_target,
                bool sanitize, std::vector<simgpu::KernelStats>& stats) {
  simgpu::Device dev;
  if (sanitize) dev.enable_sanitizer();
  auto in = dev.alloc<T>(batch * n);
  std::copy(data.begin(), data.end(), in.data());
  if (sanitize) {
    // The host-side staging copy bypasses the shadow; mark it like an upload.
    dev.sanitizer()->mark_initialized(in.data(), batch * n * sizeof(T));
  }
  auto ov = dev.alloc<T>(batch * k);
  auto oi = dev.alloc<std::uint32_t>(batch * k);
  StreamRadixOptions opt;
  opt.chunk_target = chunk_target;
  simgpu::WorkspaceLayout layout;
  const auto plan = stream_radix_plan<T>(Shape{batch, n, k, greatest},
                                         dev.spec(), opt, layout);
  simgpu::Workspace ws(dev);
  ws.bind(layout);
  dev.clear_events();
  stream_radix_run(dev, plan, ws, in, ov, oi);
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      stats.push_back(ke->stats);
    }
  }
  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const T> row(data.data() + b * n, n);
    std::vector<T> got(ov.data() + b * k, ov.data() + (b + 1) * k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t idx = oi.data()[b * k + i];
      ASSERT_LT(idx, n) << "row " << b;
      ASSERT_EQ(row[idx], got[i]) << "row " << b << " position " << i;
    }
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, reference_best(row, k, greatest))
        << "row " << b << " chunk_target=" << chunk_target
        << " sanitize=" << sanitize;
  }
  if (sanitize) {
    ASSERT_TRUE(dev.sanitizer()->snapshot().clean())
        << dev.sanitizer()->snapshot().to_string();
  }
}

/// Run the small-chunk driver with the sanitizer off (tile path and, for
/// float keys, the SIMD digit histogram of every pass including the union
/// folds) and on (scalar shared-memory histogram); both must answer
/// correctly and launch identical KernelStats.  The per-block maxima are
/// left out: blocks run concurrently, and which block of a filter pass gets
/// the heaviest slice follows the order in which the previous pass's blocks
/// appended their candidates.
template <typename T>
void check_direct(const std::vector<T>& data, std::size_t batch,
                  std::size_t n, std::size_t k, bool greatest,
                  std::size_t chunk_target) {
  std::vector<simgpu::KernelStats> fast;
  std::vector<simgpu::KernelStats> checked;
  run_direct(data, batch, n, k, greatest, chunk_target, false, fast);
  run_direct(data, batch, n, k, greatest, chunk_target, true, checked);
  ASSERT_FALSE(fast.empty());
  ASSERT_EQ(fast.size(), checked.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    const simgpu::KernelStats& x = fast[i];
    const simgpu::KernelStats& y = checked[i];
    const std::string at = "kernel[" + std::to_string(i) + "] = " +
                           std::string(x.name) +
                           " chunk_target=" + std::to_string(chunk_target);
    EXPECT_EQ(x.name, y.name) << at;
    EXPECT_EQ(x.grid_blocks, y.grid_blocks) << at;
    EXPECT_EQ(x.block_threads, y.block_threads) << at;
    EXPECT_EQ(x.bytes_read, y.bytes_read) << at;
    EXPECT_EQ(x.bytes_written, y.bytes_written) << at;
    EXPECT_EQ(x.lane_ops, y.lane_ops) << at;
    EXPECT_EQ(x.atomic_ops, y.atomic_ops) << at;
    EXPECT_EQ(x.scattered_atomic_ops, y.scattered_atomic_ops) << at;
    EXPECT_EQ(x.block_syncs, y.block_syncs) << at;
  }
}

TEST(StreamRadix, FoldLoopCorrectAcrossChunkSchedules) {
  const std::size_t n = 40000;
  const auto f = data::uniform_values(n, 0x57A1);
  std::mt19937_64 rng(0x57A2);
  std::vector<std::uint32_t> u(n);
  for (auto& v : u) v = static_cast<std::uint32_t>(rng());
  for (const std::size_t k : {std::size_t{7}, std::size_t{256}}) {
    for (const bool greatest : {false, true}) {
      // chunk_target 1<<12 forces ~10 chunks (many folds); 1<<22 is the
      // production single-chunk path at this n.
      for (const std::size_t ct :
           {std::size_t{1} << 12, std::size_t{1} << 22}) {
        check_direct<float>(f, 1, n, k, greatest, ct);
        check_direct<std::uint32_t>(u, 1, n, k, greatest, ct);
      }
    }
  }
}

TEST(StreamRadix, BatchedAndDuplicateHeavy) {
  // Few distinct values: the fold unions are saturated with ties, the
  // worst case for the cursor-reserved filter appends.
  const std::size_t batch = 3, n = 9001, k = 500;
  std::mt19937_64 rng(0x57A3);
  std::vector<float> data(batch * n);
  for (auto& v : data) v = static_cast<float>(rng() % 17);
  check_direct<float>(data, batch, n, k, false, std::size_t{1} << 12);
  check_direct<float>(data, batch, n, k, true, std::size_t{1} << 12);
}

TEST(StreamRadix, RegistryPlanRunsThroughCorePath) {
  // Through plan_select/run_select like any registry row, both carriers,
  // both orders, at an n large enough for two real chunks.
  simgpu::Device dev;
  const std::size_t n = (std::size_t{1} << 22) + 12345;
  const std::size_t k = 2048;
  const auto values = data::uniform_values(n, 0x57A4);
  for (const bool greatest : {false, true}) {
    SelectOptions opt;
    opt.greatest = greatest;
    const SelectResult r =
        select(dev, values, k, Algo::kStreamRadix, opt);
    std::vector<float> got = r.values;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, reference_best(std::span<const float>(values), k, greatest))
        << (greatest ? "greatest" : "least");
  }
}

/// One typed streaming select; returns the pooled-workspace high-water mark.
std::size_t run_streaming(KeyView keys, std::size_t n, std::size_t k,
                          PayloadView payload, SelectResult* out) {
  simgpu::Device dev;
  SelectOptions opt;
  auto results =
      select_batch(dev, keys, 1, n, k, Algo::kStreamRadix, opt, payload);
  if (out) *out = std::move(results[0]);
  return dev.memory_pool().stats().high_water;
}

TEST(StreamRadix, LargeShapeAcceptanceF32AndF16WithPayload) {
  // The acceptance shape from the tier's contract: N=2^24, K=2^20 — a
  // problem 4x larger than any single-chunk plan would allow in scratch.
  const std::size_t n = std::size_t{1} << 24;
  const std::size_t k = std::size_t{1} << 20;
  const auto values = data::uniform_values(n, 0x57A5);
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  const PayloadView pv = PayloadView::of(std::span<const std::uint32_t>(ids));

  // fp32 keys: exact against nth_element.
  SelectResult r32;
  run_streaming(KeyView::of(std::span<const float>(values)), n, k, pv, &r32);
  ASSERT_EQ(r32.values.size(), k);
  std::vector<float> got = r32.values;
  std::sort(got.begin(), got.end());
  std::vector<float> want(values);
  std::nth_element(want.begin(), want.begin() + static_cast<long>(k) - 1,
                   want.end());
  want.resize(k);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_EQ(r32.payload[i], r32.indices[i]) << "payload gather broke";
  }

  // fp16 keys: exact in the ordinal domain (ties collapse heavily at
  // half precision with 2^24 draws from [0,1) — the multiset check is on
  // ordinals, which the carrier preserves exactly).
  std::vector<half> hkeys;
  hkeys.reserve(n);
  for (const float v : values) hkeys.emplace_back(v);
  SelectResult r16;
  run_streaming(KeyView::of(std::span<const half>(hkeys)), n, k, pv, &r16);
  ASSERT_EQ(r16.values_bits.size(), k);
  std::vector<std::uint16_t> got16(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t idx = r16.indices[i];
    ASSERT_LT(idx, n);
    ASSERT_EQ(r16.values_bits[i], hkeys[idx].bits()) << "position " << i;
    ASSERT_EQ(r16.payload[i], idx);
    got16[i] = RadixTraits<half>::to_radix(hkeys[idx]);
  }
  std::vector<std::uint16_t> want16(n);
  for (std::size_t i = 0; i < n; ++i) {
    want16[i] = RadixTraits<half>::to_radix(hkeys[i]);
  }
  std::nth_element(want16.begin(), want16.begin() + static_cast<long>(k) - 1,
                   want16.end());
  want16.resize(k);
  std::sort(want16.begin(), want16.end());
  std::sort(got16.begin(), got16.end());
  EXPECT_EQ(got16, want16);
}

TEST(StreamRadix, WorkspaceHighWaterIndependentOfN) {
  // Once n exceeds the chunk target the scratch footprint is a function of
  // (chunk target, k) only.  2^22, 2^23 and 2^24 rows at the same k must
  // report byte-identical pooled high-water marks.
  const std::size_t k = std::size_t{1} << 16;
  std::vector<std::size_t> marks;
  for (const int log_n : {22, 23, 24}) {
    const std::size_t n = std::size_t{1} << log_n;
    const auto values = data::uniform_values(n, 0x57A6 + log_n);
    SelectResult r;
    marks.push_back(run_streaming(
        KeyView::of(std::span<const float>(values)), n, k, {}, &r));
    ASSERT_EQ(r.values.size(), k);
  }
  EXPECT_GT(marks[0], 0u);
  EXPECT_EQ(marks[0], marks[1]) << "2^22 vs 2^23";
  EXPECT_EQ(marks[1], marks[2]) << "2^23 vs 2^24";
}

TEST(StreamRadix, MaxKCeilingEnforcedEverywhere) {
  // kMaxK (2^20) is the system-wide K ceiling; one past it must be rejected
  // with the limit named, in the planner, the validator and the reference.
  const std::size_t too_big = kMaxK + 1;
  const simgpu::DeviceSpec spec;
  const std::size_t n = std::size_t{1} << 24;
  const auto expect_named = [](const std::function<void()>& fn) {
    try {
      fn();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("TOPK_MAX_K"), std::string::npos)
          << e.what();
    }
  };
  expect_named([&] {
    (void)plan_select(spec, 1, n, too_big, Algo::kStreamRadix, {});
  });
  expect_named([&] {
    // The host-entry validator checks the ceiling before k > n, so a tiny
    // row still reports the TOPK_MAX_K violation.
    simgpu::Device dev;
    const std::vector<float> tiny(4, 0.0f);
    (void)select(dev, std::span<const float>(tiny), too_big, Algo::kAuto);
  });
  expect_named([&] {
    const std::vector<float> tiny(4, 0.0f);
    (void)reference_select(tiny, too_big);
  });
  // The ceiling itself is plannable on the streaming row.
  EXPECT_NO_THROW(
      (void)plan_select(spec, 1, n, kMaxK, Algo::kStreamRadix, {}));
}

}  // namespace
}  // namespace topk
