#include "simgpu/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "simgpu/device.hpp"

namespace simgpu {
namespace {

TEST(Warp, BallotMatchesPredicate) {
  const std::uint32_t mask = Warp::ballot([](int lane) { return lane % 3 == 0; });
  for (int lane = 0; lane < kWarpSize; ++lane) {
    EXPECT_EQ((mask >> lane) & 1u, lane % 3 == 0 ? 1u : 0u) << lane;
  }
}

TEST(Warp, RankBelowCountsPrecedingLanes) {
  const std::uint32_t mask = 0b1011u;  // lanes 0, 1, 3 qualified
  EXPECT_EQ(Warp::rank_below(mask, 0), 0);
  EXPECT_EQ(Warp::rank_below(mask, 1), 1);
  EXPECT_EQ(Warp::rank_below(mask, 2), 2);
  EXPECT_EQ(Warp::rank_below(mask, 3), 2);
  EXPECT_EQ(Warp::rank_below(mask, 31), 3);
}

TEST(Warp, EachVisitsAllLanesInOrder) {
  Warp w(0);
  std::vector<int> lanes;
  w.each([&](int lane) { lanes.push_back(lane); });
  ASSERT_EQ(lanes.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(lanes[static_cast<std::size_t>(i)], i);
}

TEST(Launch, GridCoversAllBlocks) {
  Device dev;
  auto out = dev.alloc_zero<std::uint32_t>(64);
  launch(dev, {"mark", 64, 32}, [=](BlockCtx& ctx) {
    ctx.store<std::uint32_t>(out, static_cast<std::size_t>(ctx.block_idx()),
                             static_cast<std::uint32_t>(ctx.block_idx() + 1));
  });
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out.data()[i], static_cast<std::uint32_t>(i + 1));
  }
}

TEST(Launch, CountsTrafficExactly) {
  Device dev;
  constexpr std::size_t kN = 1000;
  auto in = dev.alloc<float>(kN);
  auto out = dev.alloc<float>(kN);
  std::iota(in.data(), in.data() + kN, 0.0f);
  const KernelStats stats =
      launch(dev, {"copy", 4, 64}, [=](BlockCtx& ctx) {
        const std::size_t per = kN / 4;
        const auto b = static_cast<std::size_t>(ctx.block_idx());
        for (std::size_t i = b * per; i < (b + 1) * per; ++i) {
          ctx.store(out, i, ctx.load(in, i));
        }
      });
  EXPECT_EQ(stats.bytes_read, kN * sizeof(float));
  EXPECT_EQ(stats.bytes_written, kN * sizeof(float));
  EXPECT_EQ(stats.grid_blocks, 4);
  EXPECT_EQ(stats.warps_per_block(), 2);
}

TEST(Launch, AtomicAddAcrossBlocksIsExact) {
  Device dev;
  auto counter = dev.alloc_zero<std::uint64_t>(1);
  constexpr int kBlocks = 500;
  const KernelStats stats =
      launch(dev, {"atomics", kBlocks, 32}, [=](BlockCtx& ctx) {
        for (int i = 0; i < 100; ++i) {
          ctx.atomic_add(counter, 0, std::uint64_t{1});
        }
      });
  EXPECT_EQ(counter.data()[0], 500u * 100u);
  EXPECT_EQ(stats.atomic_ops, 500u * 100u);
}

TEST(Launch, AtomicMinMax) {
  Device dev;
  auto lo = dev.alloc<std::uint32_t>(1);
  auto hi = dev.alloc<std::uint32_t>(1);
  lo.data()[0] = 0xFFFFFFFFu;
  hi.data()[0] = 0;
  launch(dev, {"minmax", 64, 32}, [=](BlockCtx& ctx) {
    const auto v = static_cast<std::uint32_t>(ctx.block_idx() * 7 + 3);
    ctx.atomic_min(lo, 0, v);
    ctx.atomic_max(hi, 0, v);
  });
  EXPECT_EQ(lo.data()[0], 3u);
  EXPECT_EQ(hi.data()[0], 63u * 7 + 3);
}

TEST(Launch, LastBlockElectionSeesAllWrites) {
  // The grid-cooperative pattern AIR Top-K relies on: every block writes its
  // slot, the last block to finish sums them all.
  Device dev;
  constexpr int kBlocks = 256;
  auto slots = dev.alloc_zero<std::uint64_t>(kBlocks);
  auto finished = dev.alloc_zero<std::uint32_t>(1);
  auto total = dev.alloc_zero<std::uint64_t>(1);
  launch(dev, {"election", kBlocks, 32}, [=](BlockCtx& ctx) {
    ctx.store<std::uint64_t>(slots, static_cast<std::size_t>(ctx.block_idx()),
                             static_cast<std::uint64_t>(ctx.block_idx()));
    const std::uint32_t fin = ctx.atomic_add(finished, 0, 1u);
    if (fin == kBlocks - 1) {
      std::uint64_t sum = 0;
      for (int b = 0; b < kBlocks; ++b) {
        sum += ctx.load(slots, static_cast<std::size_t>(b));
      }
      ctx.store<std::uint64_t>(total, 0, sum);
    }
  });
  EXPECT_EQ(total.data()[0], 255ull * 256 / 2);
}

TEST(Launch, SharedMemoryIsPerBlockAndBounded) {
  Device dev;
  auto out = dev.alloc_zero<std::uint32_t>(32);
  launch(dev, {"shared", 32, 64}, [=](BlockCtx& ctx) {
    auto s = ctx.shared_zero<std::uint32_t>(128);
    for (std::size_t i = 0; i < 128; ++i) {
      EXPECT_EQ(s[i], 0u);  // must not see another block's data
      s[i] = static_cast<std::uint32_t>(ctx.block_idx());
    }
    ctx.store<std::uint32_t>(out, static_cast<std::size_t>(ctx.block_idx()),
                             s[0]);
  });
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(out.data()[i], static_cast<std::uint32_t>(i));
  }
}

TEST(Launch, SharedMemoryOverflowThrows) {
  Device dev;  // A100 spec: 164 KiB per block
  EXPECT_THROW(
      launch(dev, {"overflow", 1, 32},
             [&](BlockCtx& ctx) { ctx.shared<std::uint8_t>(200 * 1024); }),
      SharedMemoryOverflow);
}

TEST(Launch, InvalidConfigRejected) {
  Device dev;
  auto noop = [](BlockCtx&) {};
  EXPECT_THROW(launch(dev, {"bad", 0, 32}, noop), std::invalid_argument);
  EXPECT_THROW(launch(dev, {"bad", 1, 31}, noop), std::invalid_argument);
  EXPECT_THROW(launch(dev, {"bad", 1, 0}, noop), std::invalid_argument);
}

TEST(Launch, SyncAndOpsAreCounted) {
  Device dev;
  const KernelStats stats = launch(dev, {"counted", 3, 32}, [](BlockCtx& ctx) {
    ctx.ops(10);
    ctx.sync();
    ctx.ops(5);
    ctx.sync();
  });
  EXPECT_EQ(stats.lane_ops, 45u);
  EXPECT_EQ(stats.block_syncs, 6u);
}

TEST(Launch, KernelEventRecordedOnDevice) {
  Device dev;
  launch(dev, {"recorded", 2, 32}, [](BlockCtx&) {});
  ASSERT_EQ(dev.events().size(), 1u);
  const auto* k = std::get_if<KernelEvent>(&dev.events()[0]);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->stats.name, "recorded");
  EXPECT_EQ(k->stats.grid_blocks, 2);
}

/// Restores the process-global tile toggle however a test exits.
class TileGuard {
 public:
  TileGuard() : was_(tile_path_enabled()) {}
  ~TileGuard() { set_tile_path_enabled(was_); }

 private:
  bool was_;
};

TEST(TileAccessors, LoadTileChargesAndReturnsData) {
  TileGuard guard;
  set_tile_path_enabled(true);
  Device dev;
  constexpr std::size_t kN = 2500;  // two full tiles + a ragged tail
  auto in = dev.alloc<float>(kN);
  std::iota(in.data(), in.data() + kN, 0.0f);
  double sum = 0.0;
  const KernelStats stats = launch(dev, {"tload", 1, 32}, [&](BlockCtx& ctx) {
    std::size_t i = 0;
    while (i < kN) {
      const std::size_t c = std::min(kTileElems, kN - i);
      const std::span<const float> t = ctx.load_tile(in, i, c);
      ASSERT_EQ(t.size(), c);
      for (const float v : t) sum += v;
      i += c;
    }
  });
  EXPECT_EQ(stats.bytes_read, kN * sizeof(float));
  EXPECT_EQ(sum, kN * (kN - 1) / 2.0);
}

TEST(TileAccessors, StoreTileRoundtripAndCharge) {
  TileGuard guard;
  set_tile_path_enabled(true);
  Device dev;
  constexpr std::size_t kN = 1300;
  auto out = dev.alloc_zero<std::uint32_t>(kN);
  const KernelStats stats = launch(dev, {"tstore", 1, 32}, [=](BlockCtx& ctx) {
    std::uint32_t buf[kTileElems];
    std::size_t i = 0;
    while (i < kN) {
      const std::size_t c = std::min(kTileElems, kN - i);
      for (std::size_t u = 0; u < c; ++u) {
        buf[u] = static_cast<std::uint32_t>(i + u);
      }
      ctx.store_tile(out, i, std::span<const std::uint32_t>(buf, c));
      i += c;
    }
  });
  EXPECT_EQ(stats.bytes_written, kN * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out.data()[i], static_cast<std::uint32_t>(i)) << i;
  }
}

TEST(TileAccessors, CountersIdenticalToScalarEquivalents) {
  TileGuard guard;
  Device dev;
  constexpr std::size_t kN = 3001;
  auto in = dev.alloc<float>(kN);
  auto out = dev.alloc<float>(kN);
  std::iota(in.data(), in.data() + kN, 0.0f);
  KernelStats got[2];
  for (const bool tile : {false, true}) {
    set_tile_path_enabled(tile);
    got[tile ? 1 : 0] =
        launch(dev, {"copy_modes", 4, 32}, [=](BlockCtx& ctx) {
          const std::size_t per = (kN + 3) / 4;
          const auto b = static_cast<std::size_t>(ctx.block_idx());
          const std::size_t begin = std::min(b * per, kN);
          const std::size_t end = std::min(begin + per, kN);
          float buf[kTileElems];
          ctx.for_each_elem(in, begin, end - begin,
                            [&](std::size_t j, float v) {
                              buf[j % kTileElems] = v + 1.0f;
                              if ((j + 1) % kTileElems == 0 ||
                                  j + 1 == end - begin) {
                                const std::size_t c = j % kTileElems + 1;
                                ctx.store_tile(
                                    out, begin + j + 1 - c,
                                    std::span<const float>(buf, c));
                              }
                            });
        });
  }
  EXPECT_EQ(got[0].bytes_read, got[1].bytes_read);
  EXPECT_EQ(got[0].bytes_written, got[1].bytes_written);
  EXPECT_EQ(got[0].bytes_read, kN * sizeof(float));
  EXPECT_EQ(got[0].bytes_written, kN * sizeof(float));
}

TEST(TileAccessors, OutOfBoundsTileSuppressedWithoutSanitizer) {
  TileGuard guard;
  set_tile_path_enabled(true);
  Device dev;
  auto small = dev.alloc_zero<std::uint32_t>(10);
  std::size_t got_elems = 1;
  const KernelStats stats = launch(dev, {"oob", 1, 32}, [&](BlockCtx& ctx) {
    got_elems = ctx.load_tile(small, 5, 10).size();  // reaches past extent
    std::uint32_t buf[4] = {1, 2, 3, 4};
    ctx.store_tile(small, 8, std::span<const std::uint32_t>(buf, 4));
  });
  EXPECT_EQ(got_elems, 0u);  // suppressed wholesale
  // Charged as requested even though suppressed (matches scalar accounting).
  EXPECT_EQ(stats.bytes_read, 10 * sizeof(std::uint32_t));
  EXPECT_EQ(stats.bytes_written, 4 * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(small.data()[i], 0u) << i;
}

TEST(TileAccessors, ForEachElemVisitsIdenticallyInBothModes) {
  TileGuard guard;
  Device dev;
  constexpr std::size_t kN = 2100;
  auto in = dev.alloc<std::uint32_t>(kN);
  std::iota(in.data(), in.data() + kN, 0u);
  for (const bool tile : {false, true}) {
    set_tile_path_enabled(tile);
    std::vector<std::uint32_t> seen;
    launch(dev, {"visit", 1, 32}, [&](BlockCtx& ctx) {
      ctx.for_each_elem(in, 100, kN - 100, [&](std::size_t j, std::uint32_t v) {
        ASSERT_EQ(v, 100 + j);
        seen.push_back(v);
      });
    });
    ASSERT_EQ(seen.size(), kN - 100) << "tile=" << tile;
    EXPECT_EQ(seen.front(), 100u) << "tile=" << tile;
    EXPECT_EQ(seen.back(), kN - 1) << "tile=" << tile;
  }
}

TEST(TileAccessors, ScatterWriterChargesIdenticallyInBothModes) {
  TileGuard guard;
  Device dev;
  constexpr std::size_t kN = 1777;
  auto out = dev.alloc_zero<std::uint32_t>(kN);
  for (const bool tile : {false, true}) {
    set_tile_path_enabled(tile);
    const KernelStats stats =
        launch(dev, {"scatter", 1, 32}, [=](BlockCtx& ctx) {
          auto w = ctx.scatter_writer(out, kN);
          for (std::size_t i = 0; i < kN; ++i) {
            w.put((i * 7919) % kN, static_cast<std::uint32_t>(i));
          }
        });
    EXPECT_EQ(stats.bytes_written, kN * sizeof(std::uint32_t))
        << "tile=" << tile;
  }
  // 7919 is coprime with kN, so every slot was written by both passes.
  std::vector<bool> hit(kN, false);
  for (std::size_t i = 0; i < kN; ++i) {
    hit[(i * 7919) % kN] = true;
  }
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }));
}

/// Restores the warpfast toggle however a test exits.
class WarpfastGuard {
 public:
  WarpfastGuard() : was_(warpfast_path_enabled()) {}
  ~WarpfastGuard() { set_warpfast_path_enabled(was_); }

 private:
  bool was_;
};

TEST(Warpfast, EnabledOnlyWithTileToggleAndNoSanitizer) {
  TileGuard tile_guard;
  WarpfastGuard wf_guard;
  for (const bool tile : {false, true}) {
    for (const bool wf : {false, true}) {
      for (const bool sanitize : {false, true}) {
        set_tile_path_enabled(tile);
        set_warpfast_path_enabled(wf);
        Device dev;
        if (sanitize) dev.enable_sanitizer();
        bool got = false;
        launch(dev, {"wfgate", 1, 32},
               [&](BlockCtx& ctx) { got = ctx.warpfast_enabled(); });
        EXPECT_EQ(got, tile && wf && !sanitize)
            << "tile=" << tile << " wf=" << wf << " sanitize=" << sanitize;
      }
    }
  }
}

TEST(Warpfast, ToggleSampledPerLaunchNotPerCall) {
  TileGuard tile_guard;
  WarpfastGuard wf_guard;
  set_tile_path_enabled(true);
  set_warpfast_path_enabled(true);
  Device dev;
  bool first = false;
  launch(dev, {"wf1", 1, 32},
         [&](BlockCtx& ctx) { first = ctx.warpfast_enabled(); });
  set_warpfast_path_enabled(false);
  bool second = true;
  launch(dev, {"wf2", 1, 32},
         [&](BlockCtx& ctx) { second = ctx.warpfast_enabled(); });
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(Warpfast, CountBelowIsExactAndChargeFree) {
  TileGuard guard;
  set_tile_path_enabled(true);
  Device dev;
  std::vector<float> fv = {3.0f, -1.0f, 2.0f, 2.0f, -7.5f, 0.0f, 9.0f};
  std::vector<int> iv = {5, -2, 7, 7, 0, -9};
  const KernelStats stats = launch(dev, {"cb", 1, 32}, [&](BlockCtx&) {
    // Strict compare: the two 2.0f / 7 duplicates of the threshold are out.
    EXPECT_EQ(BlockCtx::count_below<float>(fv, 2.0f), 3u);
    EXPECT_EQ(BlockCtx::count_below<int>(iv, 7), 4u);
    EXPECT_EQ(BlockCtx::count_below<float>({}, 2.0f), 0u);
  });
  // count_below is a pure compute helper: nothing may hit the counters.
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.lane_ops, 0u);
}

TEST(Warpfast, CountBelowWithOrderMaskEqualsUnmaskedOnReversedKeys) {
  // The largest-K mask (sign bit on floats, all ones on integers) must give
  // exactly the unmasked count over the reversed keys, on the vector path
  // (float) and the generic loop (u32, double), NaN and ±0 lanes included.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> fv = {3.0f, -1.0f, nan,  -0.0f, 0.0f, 2.0f, -7.5f,
                                 nan,  9.0f,  0.0f, -0.0f, 1.0f, -2.0f, 4.0f,
                                 5.0f, -3.0f, 0.5f, nan,   -0.5f};
  std::vector<float> rfv;
  for (const float x : fv) {
    rfv.push_back(std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) ^
                                       0x80000000u));
  }
  const std::vector<std::uint32_t> uv = {5, 0, 7, 0xFFFFFFFFu, 12, 3};
  std::vector<std::uint32_t> ruv;
  for (const std::uint32_t x : uv) ruv.push_back(~x);
  const std::vector<double> dv = {2.5, -0.0, 0.0, -4.0, 1e300, -1e-300};
  std::vector<double> rdv;
  for (const double x : dv) rdv.push_back(-x);
  for (const float t : {0.0f, -0.0f, 1.0f, -2.0f, nan}) {
    EXPECT_EQ(BlockCtx::count_below<float>(fv, t, 0x80000000u),
              BlockCtx::count_below<float>(rfv, t))
        << "threshold " << t;
  }
  for (const std::uint32_t t : {0u, 6u, 0xFFFFFFF0u}) {
    EXPECT_EQ(BlockCtx::count_below<std::uint32_t>(uv, t, ~0u),
              BlockCtx::count_below<std::uint32_t>(ruv, t))
        << "threshold " << t;
  }
  for (const double t : {0.0, -1.0, 3.0}) {
    EXPECT_EQ(BlockCtx::count_below<double>(dv, t, std::uint64_t{1} << 63),
              BlockCtx::count_below<double>(rdv, t))
        << "threshold " << t;
  }
}

TEST(TileAccessors, UncheckedSharedDataGatedOnTilePath) {
  TileGuard guard;
  Device dev;
  for (const bool tile : {false, true}) {
    set_tile_path_enabled(tile);
    launch(dev, {"shraw", 1, 32}, [&](BlockCtx& ctx) {
      auto s = ctx.shared_zero<std::uint32_t>(64);
      std::uint32_t* raw = s.unchecked_data();
      if (tile) {
        ASSERT_NE(raw, nullptr);
        raw[7] = 42;
        EXPECT_EQ(static_cast<std::uint32_t>(s[7]), 42u);
      } else {
        EXPECT_EQ(raw, nullptr);
      }
    });
  }
}

}  // namespace
}  // namespace simgpu
