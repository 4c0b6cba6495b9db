#include "simgpu/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "simgpu/cost_model.hpp"
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

TEST(Launch, EmulatorWallIsRecordedButNeverModeled) {
  Device dev;
  auto sink = dev.alloc_zero<std::uint64_t>(1);
  launch(dev, {"busy", 8, 32}, [=](BlockCtx& ctx) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) acc += i * i;
    ctx.atomic_add(sink, 0, acc);
  });
  ASSERT_EQ(dev.events().size(), 1u);
  const auto* k = std::get_if<KernelEvent>(&dev.events()[0]);
  ASSERT_NE(k, nullptr);
  EXPECT_GT(k->emu_ms, 0.0);
  // The cost model prices counters only: another wall time, same µs.
  EventLog other = dev.events();
  std::get<KernelEvent>(other[0]).emu_ms = 1e6;
  const CostModel model(dev.spec());
  EXPECT_EQ(model.total_us(other), model.total_us(dev.events()));
}

TEST(TileAccessors, LoadTileChargesAndReturnsData) {
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

/// A Device with a sanitizer attached when `sanitize` is set: the one switch
/// between the unchecked fast paths and the per-element ones.
std::unique_ptr<Device> leg_device(bool sanitize) {
  auto dev = std::make_unique<Device>();
  if (sanitize) dev->enable_sanitizer();
  return dev;
}

TEST(TileAccessors, CountersIdenticalToScalarEquivalents) {
  constexpr std::size_t kN = 3001;
  std::vector<float> host(kN);
  std::iota(host.begin(), host.end(), 0.0f);
  KernelStats got[2];
  for (const bool sanitize : {false, true}) {
    const auto dev = leg_device(sanitize);
    auto in = dev->alloc<float>(kN);
    auto out = dev->alloc<float>(kN);
    dev->upload(in, std::span<const float>(host));
    got[sanitize ? 1 : 0] =
        launch(*dev, {"copy_modes", 4, 32}, [=](BlockCtx& ctx) {
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
    if (sanitize) {
      EXPECT_TRUE(dev->sanitizer()->snapshot().clean())
          << dev->sanitizer()->snapshot().to_string();
    }
  }
  EXPECT_EQ(got[0].bytes_read, got[1].bytes_read);
  EXPECT_EQ(got[0].bytes_written, got[1].bytes_written);
  EXPECT_EQ(got[0].bytes_read, kN * sizeof(float));
  EXPECT_EQ(got[0].bytes_written, kN * sizeof(float));
}

TEST(TileAccessors, OutOfBoundsTileSuppressedWithoutSanitizer) {
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
  constexpr std::size_t kN = 2100;
  std::vector<std::uint32_t> host(kN);
  std::iota(host.begin(), host.end(), 0u);
  for (const bool sanitize : {false, true}) {
    const auto dev = leg_device(sanitize);
    auto in = dev->alloc<std::uint32_t>(kN);
    dev->upload(in, std::span<const std::uint32_t>(host));
    std::vector<std::uint32_t> seen;
    launch(*dev, {"visit", 1, 32}, [&](BlockCtx& ctx) {
      ctx.for_each_elem(in, 100, kN - 100, [&](std::size_t j, std::uint32_t v) {
        ASSERT_EQ(v, 100 + j);
        seen.push_back(v);
      });
    });
    ASSERT_EQ(seen.size(), kN - 100) << "sanitize=" << sanitize;
    EXPECT_EQ(seen.front(), 100u) << "sanitize=" << sanitize;
    EXPECT_EQ(seen.back(), kN - 1) << "sanitize=" << sanitize;
  }
}

TEST(TileAccessors, ScatterWriterChargesIdenticallyInBothModes) {
  constexpr std::size_t kN = 1777;
  for (const bool sanitize : {false, true}) {
    const auto dev = leg_device(sanitize);
    auto out = dev->alloc_zero<std::uint32_t>(kN);
    const KernelStats stats =
        launch(*dev, {"scatter", 1, 32}, [=](BlockCtx& ctx) {
          auto w = ctx.scatter_writer(out, kN);
          for (std::size_t i = 0; i < kN; ++i) {
            w.put((i * 7919) % kN, static_cast<std::uint32_t>(i));
          }
        });
    EXPECT_EQ(stats.bytes_written, kN * sizeof(std::uint32_t))
        << "sanitize=" << sanitize;
    // 7919 is coprime with kN, so every slot is written exactly once.
    const std::vector<std::uint32_t> got = dev->to_host(out);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(got[(i * 7919) % kN], static_cast<std::uint32_t>(i))
          << "sanitize=" << sanitize << " put " << i;
    }
  }
}

void expect_same_stats(const KernelStats& a, const KernelStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.bytes_read, b.bytes_read) << what;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << what;
  EXPECT_EQ(a.lane_ops, b.lane_ops) << what;
  EXPECT_EQ(a.atomic_ops, b.atomic_ops) << what;
  EXPECT_EQ(a.scattered_atomic_ops, b.scattered_atomic_ops) << what;
  EXPECT_EQ(a.block_syncs, b.block_syncs) << what;
  EXPECT_EQ(a.max_block_bytes, b.max_block_bytes) << what;
  EXPECT_EQ(a.max_block_lane_ops, b.max_block_lane_ops) << what;
}

/// Block `block`'s count for bin `d` in the flush tests: every bin non-zero
/// (dense), or every seventh bin, shifted by the block (sparse).
std::uint32_t flush_test_count(int block, std::size_t d, bool dense) {
  if (dense) return static_cast<std::uint32_t>(1 + (31 * block + d) % 5);
  return (d + static_cast<std::size_t>(block)) % 7 == 0
             ? static_cast<std::uint32_t>(block + 1)
             : 0u;
}

TEST(BulkAtomics, FlushCountsAddsAndChargesLikeThePerBinLoop) {
  // 96 blocks on the pool flush 2048-bin spans into three per-problem
  // histograms of one buffer (block b into problem b % 3), as AIR's
  // iteration-fused kernels do.  flush_counts unchecked and with a
  // sanitizer attached, and the per-bin atomic loop it replaces, must give
  // the host sums, one scattered atomic per non-zero entry and identical
  // KernelStats.
  constexpr int kBlocks = 96;
  constexpr std::size_t kBins = 2048;
  constexpr std::size_t kProblems = 3;
  for (const bool dense : {false, true}) {
    std::vector<std::uint32_t> want(kProblems * kBins, 0);
    std::uint64_t nonzero = 0;
    for (int b = 0; b < kBlocks; ++b) {
      for (std::size_t d = 0; d < kBins; ++d) {
        const std::uint32_t c = flush_test_count(b, d, dense);
        want[static_cast<std::size_t>(b) % kProblems * kBins + d] += c;
        nonzero += c != 0 ? 1 : 0;
      }
    }
    const auto run = [&](bool sanitize, bool per_bin_loop) {
      const auto dev = leg_device(sanitize);
      auto bins = dev->alloc_zero<std::uint32_t>(kProblems * kBins);
      const KernelStats stats = launch(
          *dev, {"flush", kBlocks, 64}, [=](BlockCtx& ctx) {
            auto counts = ctx.shared_zero<std::uint32_t>(kBins, "counts");
            for (std::size_t d = 0; d < kBins; ++d) {
              const std::uint32_t c =
                  flush_test_count(ctx.block_idx(), d, dense);
              if (c != 0) counts[d] = c;
            }
            ctx.sync();
            const std::size_t first =
                static_cast<std::size_t>(ctx.block_idx()) % kProblems * kBins;
            if (per_bin_loop) {
              for (std::size_t d = 0; d < kBins; ++d) {
                if (counts[d] != 0) {
                  ctx.atomic_add_scattered(bins, first + d, counts[d]);
                }
              }
            } else {
              ctx.flush_counts(bins, first, counts);
            }
          });
      const std::string what = std::string(dense ? "dense" : "sparse") +
                               " sanitize=" + std::to_string(sanitize) +
                               " loop=" + std::to_string(per_bin_loop);
      EXPECT_EQ(dev->to_host(bins), want) << what;
      EXPECT_EQ(stats.scattered_atomic_ops, nonzero) << what;
      EXPECT_EQ(stats.atomic_ops, 0u) << what;
      if (sanitize) {
        EXPECT_TRUE(dev->sanitizer()->snapshot().clean())
            << what << "\n" << dev->sanitizer()->snapshot().to_string();
      }
      return stats;
    };
    const KernelStats loop = run(false, true);
    expect_same_stats(run(false, false), loop, dense ? "dense" : "sparse");
    expect_same_stats(run(true, false), loop, dense ? "dense" : "sparse");
  }
}

TEST(BulkAtomics, ReservationsTileTheRangeAndChargeEveryAtomic) {
  // 64 blocks on the pool each reserve 1-40 slots of one cursor, five
  // times: the runs must tile [0, total) with no gap or overlap, and each
  // reservation charges one atomic per slot.
  Device dev;
  constexpr int kBlocks = 64;
  constexpr std::size_t kPer = 5;
  const auto count_of = [](std::size_t block, std::size_t j) {
    return static_cast<std::uint32_t>(1 + (block * 13 + j * 7) % 40);
  };
  auto cursor = dev.alloc_zero<std::uint32_t>(1);
  auto starts = dev.alloc_zero<std::uint32_t>(kBlocks * kPer);
  const KernelStats stats =
      launch(dev, {"reserve", kBlocks, 32}, [=](BlockCtx& ctx) {
        const auto b = static_cast<std::size_t>(ctx.block_idx());
        for (std::size_t j = 0; j < kPer; ++j) {
          ctx.store(starts, b * kPer + j,
                    ctx.atomic_reserve(cursor, 0, count_of(b, j)));
        }
      });
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t j = 0; j < kPer; ++j) {
      runs.emplace_back(starts.data()[b * kPer + j], count_of(b, j));
      total += count_of(b, j);
    }
  }
  std::sort(runs.begin(), runs.end());
  std::uint64_t next = 0;
  for (const auto& [start, count] : runs) {
    EXPECT_EQ(start, next) << "gap or overlap at slot " << next;
    next = start + count;
  }
  EXPECT_EQ(next, total);
  EXPECT_EQ(cursor.data()[0], total);
  EXPECT_EQ(stats.atomic_ops, total);
  EXPECT_EQ(stats.scattered_atomic_ops, 0u);
}

TEST(BulkAtomics, ReservationTakesTheSlotsOfPerElementAppends) {
  // One block alone: reserving n slots returns what the first of n
  // atomic_add(..., 1) calls would, and leaves the cursor where they would.
  Device dev;
  auto cursor = dev.alloc_zero<std::uint32_t>(1);
  std::vector<std::uint32_t> got;
  const KernelStats stats =
      launch(dev, {"reserve order", 1, 32}, [&](BlockCtx& ctx) {
        got.push_back(ctx.atomic_reserve(cursor, 0, 5u));
        for (int i = 0; i < 3; ++i) got.push_back(ctx.atomic_add(cursor, 0, 1u));
        got.push_back(ctx.atomic_reserve(cursor, 0, 2u));
      });
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 5, 6, 7, 8}));
  EXPECT_EQ(cursor.data()[0], 10u);
  EXPECT_EQ(stats.atomic_ops, 10u);
}

TEST(Warpfast, EnabledOnlyWithoutSanitizer) {
  for (const bool sanitize : {false, true}) {
    const auto dev = leg_device(sanitize);
    bool got = sanitize;
    launch(*dev, {"wfgate", 1, 32},
           [&](BlockCtx& ctx) { got = ctx.warpfast_enabled(); });
    EXPECT_EQ(got, !sanitize) << "sanitize=" << sanitize;
  }
}

TEST(Warpfast, SanitizerAttachedBetweenLaunchesGatesTheNextLaunch) {
  Device dev;
  bool first = false;
  launch(dev, {"wf1", 1, 32},
         [&](BlockCtx& ctx) { first = ctx.warpfast_enabled(); });
  dev.enable_sanitizer();
  bool second = true;
  launch(dev, {"wf2", 1, 32},
         [&](BlockCtx& ctx) { second = ctx.warpfast_enabled(); });
  dev.disable_sanitizer();
  bool third = false;
  launch(dev, {"wf3", 1, 32},
         [&](BlockCtx& ctx) { third = ctx.warpfast_enabled(); });
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_TRUE(third);
}

TEST(Warpfast, CountBelowIsExactAndChargeFree) {
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

TEST(TileAccessors, UncheckedSharedDataNullOnlyUnderSanitizer) {
  for (const bool sanitize : {false, true}) {
    const auto dev = leg_device(sanitize);
    launch(*dev, {"shraw", 1, 32}, [&](BlockCtx& ctx) {
      auto s = ctx.shared_zero<std::uint32_t>(64);
      std::uint32_t* raw = s.unchecked_data();
      if (!sanitize) {
        ASSERT_NE(raw, nullptr);
        raw[7] = 42;
        EXPECT_EQ(static_cast<std::uint32_t>(s[7]), 42u);
      } else {
        EXPECT_EQ(raw, nullptr);
      }
    });
  }
}

TEST(RawEscapes, LiveExactlyWhenNoSanitizerIsAttached) {
  // Every raw escape of the emulator answers one question — is a sanitizer
  // attached? — and goes raw exactly when none is: the two gates, the
  // shared-memory pointer, prepaid reads (charged up front), the bulk-charged
  // scatter writer and the plain-add counts flush, which suppresses a span
  // reaching past its buffer wholesale where the per-bin atomic loop lands
  // the bins in range and reports the rest.
  for (const bool sanitize : {false, true}) {
    const std::string what = "sanitize=" + std::to_string(sanitize);
    const auto dev = leg_device(sanitize);
    auto table = dev->alloc_zero<float>(16, "table");
    auto out = dev->alloc_zero<float>(8, "out");
    auto bins = dev->alloc_zero<std::uint32_t>(8, "bins");
    bool unchecked = sanitize;
    bool warpfast = sanitize;
    bool shared_raw = sanitize;
    bool prepaid_raw = sanitize;
    std::uint64_t prepaid_bytes = 1;
    std::uint64_t scatter_bytes = 1;
    launch(*dev, {"escapes", 1, 32}, [&](BlockCtx& ctx) {
      unchecked = ctx.unchecked_tiles();
      warpfast = ctx.warpfast_enabled();
      auto counts = ctx.shared_zero<std::uint32_t>(4, "counts");
      shared_raw = counts.unchecked_data() != nullptr;
      const std::uint64_t read0 = ctx.counters().bytes_read;
      const float* const prepaid = ctx.prepaid_reads(table, 3);
      prepaid_raw = prepaid != nullptr;
      prepaid_bytes = ctx.counters().bytes_read - read0;
      for (std::size_t i = 0; i < 3; ++i) {
        (void)(prepaid != nullptr ? prepaid[i] : ctx.load(table, i));
      }
      const std::uint64_t written0 = ctx.counters().bytes_written;
      auto w = ctx.scatter_writer(out, 2);
      scatter_bytes = ctx.counters().bytes_written - written0;
      w.put(5, 1.0f);
      w.put(2, 2.0f);
      for (std::size_t d = 0; d < 4; ++d) counts[d] = 1;
      ctx.sync();
      ctx.flush_counts(bins, 6, counts);  // bins 8 and 9 lie past the end
    });
    EXPECT_EQ(unchecked, !sanitize) << what;
    EXPECT_EQ(warpfast, !sanitize) << what;
    EXPECT_EQ(shared_raw, !sanitize) << what;
    EXPECT_EQ(prepaid_raw, !sanitize) << what;
    EXPECT_EQ(prepaid_bytes, sanitize ? 0u : 3 * sizeof(float)) << what;
    EXPECT_EQ(scatter_bytes, sanitize ? 0u : 2 * sizeof(float)) << what;
    const std::vector<float> stored = dev->to_host(out);
    EXPECT_EQ(stored[5], 1.0f) << what;
    EXPECT_EQ(stored[2], 2.0f) << what;
    const std::vector<std::uint32_t> flushed = dev->to_host(bins);
    EXPECT_EQ(flushed[6], sanitize ? 1u : 0u) << what;
    EXPECT_EQ(flushed[7], sanitize ? 1u : 0u) << what;
    if (sanitize) {
      const SanitizerReport rep = dev->sanitizer()->snapshot();
      std::size_t oob = 0;
      for (const auto& issue : rep.issues) {
        if (issue.kind == IssueKind::kOutOfBounds) ++oob;
      }
      EXPECT_EQ(oob, 2u) << rep.to_string();
      EXPECT_EQ(rep.issues.size(), 2u) << rep.to_string();
    }
  }
}

}  // namespace
}  // namespace simgpu
