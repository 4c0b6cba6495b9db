#include "simgpu/sanitizer.hpp"

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "simgpu/buffer.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernel.hpp"

// The cross-block race tests seed a genuine data race (concurrent plain
// stores from pool threads) for simcheck to catch; ThreadSanitizer rightly
// flags the same race, so those two tests are skipped under TSan.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMCHECK_UNDER_TSAN 1
#endif
#endif
#if !defined(SIMCHECK_UNDER_TSAN) && defined(__SANITIZE_THREAD__)
#define SIMCHECK_UNDER_TSAN 1
#endif

namespace simgpu {
namespace {

std::size_t count_kind(const SanitizerReport& rep, IssueKind kind) {
  std::size_t n = 0;
  for (const auto& issue : rep.issues) {
    if (issue.kind == kind) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// DeviceBuffer::subspan bounds (regression: offset+count > size was accepted
// whenever offset alone was in range).

TEST(DeviceBufferSubspan, RejectsRangePastTheEnd) {
  std::vector<float> storage(8);
  DeviceBuffer<float> buf(storage.data(), storage.size());
  EXPECT_NO_THROW((void)buf.subspan(0, 8));
  EXPECT_NO_THROW((void)buf.subspan(8, 0));
  EXPECT_NO_THROW((void)buf.subspan(6, 2));
  EXPECT_THROW((void)buf.subspan(6, 3), std::out_of_range);
  EXPECT_THROW((void)buf.subspan(9, 0), std::out_of_range);
  // Overflow-proof form: offset + count wrapping around must not pass.
  EXPECT_THROW((void)buf.subspan(1, static_cast<std::size_t>(-1)),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// Host-side fill / memset_device seed both the bytes and the shadow.

TEST(DeviceFill, FillsValuesAndShadow) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc<float>(32, "fill target");
  dev.fill(buf, 2.5f);
  const auto host = dev.to_host(buf);
  for (float v : host) EXPECT_EQ(v, 2.5f);
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
}

TEST(DeviceFill, MemsetZeroesValuesAndShadow) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc<std::uint32_t>(16, "memset target");
  dev.memset_device(buf);
  const auto host = dev.to_host(buf);
  for (std::uint32_t v : host) EXPECT_EQ(v, 0u);
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
}

// ---------------------------------------------------------------------------
// Defect class 1: out-of-bounds device accesses.

TEST(Simcheck, CatchesOutOfBoundsStore) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc_zero<float>(16, "small buffer");
  launch(dev, {"oob store", 1, 32}, [&](BlockCtx& ctx) {
    ctx.store(buf, 20, 1.0f);  // bug: element 20 of a 16-element buffer
  });
  const auto rep = dev.sanitizer()->snapshot();
  ASSERT_EQ(count_kind(rep, IssueKind::kOutOfBounds), 1u);
  const auto& issue = rep.issues[0];
  EXPECT_EQ(issue.kernel, "oob store");
  EXPECT_EQ(issue.buffer, "small buffer");
  EXPECT_EQ(issue.index, 20u);
  EXPECT_EQ(issue.block, 0);
}

TEST(Simcheck, SuppressesOutOfBoundsLoad) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc_zero<float>(8, "short buffer");
  auto out = dev.alloc_zero<float>(1, "out");
  launch(dev, {"oob load", 1, 32}, [&](BlockCtx& ctx) {
    ctx.store(out, 0, ctx.load(buf, 100));  // suppressed load yields 0
  });
  EXPECT_EQ(dev.to_host(out)[0], 0.0f);
  EXPECT_EQ(count_kind(dev.sanitizer()->snapshot(), IssueKind::kOutOfBounds),
            1u);
}

TEST(Simcheck, CatchesOutOfBoundsSharedAccess) {
  Device dev;
  dev.enable_sanitizer();
  launch(dev, {"oob shared", 1, 32}, [&](BlockCtx& ctx) {
    auto sh = ctx.shared_zero<float>(4, "tiny tile");
    sh[7] = 1.0f;  // bug: past the 4-element shared allocation
  });
  const auto rep = dev.sanitizer()->snapshot();
  ASSERT_EQ(count_kind(rep, IssueKind::kOutOfBounds), 1u);
  EXPECT_NE(rep.issues[0].detail.find("shared"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Defect class 2: conflicting non-atomic device accesses across blocks.

TEST(Simcheck, CatchesCrossBlockWriteWriteRace) {
#ifdef SIMCHECK_UNDER_TSAN
  GTEST_SKIP() << "deliberately seeds a real data race; TSan flags it too";
#endif
  Device dev;
  dev.enable_sanitizer();
  auto out = dev.alloc_zero<std::uint32_t>(1, "contended cell");
  launch(dev, {"ww race", 8, 32}, [&](BlockCtx& ctx) {
    // Bug: every block plain-stores the same element.
    ctx.store(out, 0, static_cast<std::uint32_t>(ctx.block_idx()));
  });
  EXPECT_GE(count_kind(dev.sanitizer()->snapshot(), IssueKind::kDeviceRace),
            1u);
}

TEST(Simcheck, CatchesCrossBlockReadWriteRace) {
#ifdef SIMCHECK_UNDER_TSAN
  GTEST_SKIP() << "deliberately seeds a real data race; TSan flags it too";
#endif
  Device dev;
  dev.enable_sanitizer();
  auto cell = dev.alloc<float>(1, "flag");
  dev.fill(cell, 0.0f);
  auto sink = dev.alloc_zero<float>(8, "sink");
  launch(dev, {"rw race", 8, 32}, [&](BlockCtx& ctx) {
    const auto b = static_cast<std::size_t>(ctx.block_idx());
    if (b == 0) {
      ctx.store(cell, 0, 1.0f);  // bug: unordered with the other blocks' reads
    } else {
      ctx.store(sink, b, ctx.load(cell, 0));
    }
  });
  EXPECT_GE(count_kind(dev.sanitizer()->snapshot(), IssueKind::kDeviceRace),
            1u);
}

TEST(Simcheck, AtomicContentionIsNotARace) {
  Device dev;
  dev.enable_sanitizer();
  auto counter = dev.alloc_zero<std::uint64_t>(1, "counter");
  launch(dev, {"atomic counter", 16, 32}, [&](BlockCtx& ctx) {
    for (int i = 0; i < 10; ++i) ctx.atomic_add(counter, 0, std::uint64_t{1});
  });
  EXPECT_EQ(dev.to_host(counter)[0], 160u);
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
}

TEST(Simcheck, ElectedLastBlockPatternIsNotARace) {
  // The AIR/GridSelect pattern: every block writes its own partial, an atomic
  // arrival counter elects the last block, which then reads all partials and
  // writes the result.  The atomic chain orders everything.
  Device dev;
  dev.enable_sanitizer();
  constexpr int kBlocks = 8;
  auto partials = dev.alloc_zero<std::uint32_t>(kBlocks, "partials");
  auto arrivals = dev.alloc_zero<std::uint32_t>(1, "arrivals");
  auto result = dev.alloc_zero<std::uint32_t>(1, "result");
  launch(dev, {"elected reduce", kBlocks, 32}, [&](BlockCtx& ctx) {
    const auto b = static_cast<std::size_t>(ctx.block_idx());
    ctx.store(partials, b, static_cast<std::uint32_t>(b + 1));
    const std::uint32_t old = ctx.atomic_add(arrivals, 0, std::uint32_t{1});
    if (old == kBlocks - 1) {
      std::uint32_t sum = 0;
      for (std::size_t i = 0; i < kBlocks; ++i) sum += ctx.load(partials, i);
      ctx.store(result, 0, sum);
    }
  });
  EXPECT_EQ(dev.to_host(result)[0], 36u);
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean())
      << dev.sanitizer()->snapshot().to_string();
}

// ---------------------------------------------------------------------------
// Defect class 3: shared-memory races between warps of one sync phase.
// The sequential warp loop hides these completely without the sanitizer.

TEST(Simcheck, CatchesCrossWarpSharedWriteWriteRace) {
  Device dev;
  dev.enable_sanitizer();
  launch(dev, {"shared ww", 1, 64}, [&](BlockCtx& ctx) {
    auto sh = ctx.shared_zero<std::uint32_t>(1, "shared cell");
    ctx.for_each_warp([&](Warp& w) {
      w.each([&](int lane) {
        if (lane == 0) sh[0] = 1u;  // bug: both warps write, no ordering
      });
    });
  });
  EXPECT_GE(count_kind(dev.sanitizer()->snapshot(), IssueKind::kSharedRace),
            1u);
}

TEST(Simcheck, CatchesMissingSyncBetweenSharedPhases) {
  Device dev;
  dev.enable_sanitizer();
  auto out = dev.alloc_zero<std::uint32_t>(64, "out");
  launch(dev, {"missing sync", 1, 64}, [&](BlockCtx& ctx) {
    auto sh = ctx.shared_zero<std::uint32_t>(64, "tile");
    ctx.for_each_warp([&](Warp& w) {
      w.each([&](int lane) {
        const auto t = static_cast<std::size_t>(w.index() * 32 + lane);
        sh[t] = static_cast<std::uint32_t>(t);
      });
    });
    // Bug: no ctx.sync() here.
    ctx.for_each_warp([&](Warp& w) {
      w.each([&](int lane) {
        const auto t = static_cast<std::size_t>(w.index() * 32 + lane);
        // Each thread reads a cell the OTHER warp wrote.
        const std::size_t peer = 63 - t;
        ctx.store(out, t, sh[peer]);
      });
    });
  });
  EXPECT_GE(count_kind(dev.sanitizer()->snapshot(), IssueKind::kSharedRace),
            1u);
}

TEST(Simcheck, SyncSeparatedSharedPhasesAreClean) {
  Device dev;
  dev.enable_sanitizer();
  auto out = dev.alloc_zero<std::uint32_t>(64, "out");
  launch(dev, {"synced phases", 1, 64}, [&](BlockCtx& ctx) {
    auto sh = ctx.shared_zero<std::uint32_t>(64, "tile");
    ctx.for_each_warp([&](Warp& w) {
      w.each([&](int lane) {
        const auto t = static_cast<std::size_t>(w.index() * 32 + lane);
        sh[t] = static_cast<std::uint32_t>(t);
      });
    });
    ctx.sync();
    ctx.for_each_warp([&](Warp& w) {
      w.each([&](int lane) {
        const auto t = static_cast<std::size_t>(w.index() * 32 + lane);
        ctx.store(out, t, sh[63 - t]);
      });
    });
  });
  const auto host = dev.to_host(out);
  for (std::size_t t = 0; t < 64; ++t) {
    EXPECT_EQ(host[t], static_cast<std::uint32_t>(63 - t));
  }
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean())
      << dev.sanitizer()->snapshot().to_string();
}

// ---------------------------------------------------------------------------
// Defect class 4: uninitialized reads.

TEST(Simcheck, CatchesUninitializedSharedRead) {
  Device dev;
  dev.enable_sanitizer();
  auto out = dev.alloc_zero<float>(1, "out");
  launch(dev, {"uninit shared", 1, 32}, [&](BlockCtx& ctx) {
    auto sh = ctx.shared<float>(8, "scratch");  // bug: shared, not shared_zero
    ctx.store(out, 0, sh[3]);
  });
  EXPECT_EQ(
      count_kind(dev.sanitizer()->snapshot(), IssueKind::kUninitSharedRead),
      1u);
}

TEST(Simcheck, CatchesUninitializedDeviceRead) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc<float>(8, "never written");  // bug: alloc, no init
  auto out = dev.alloc_zero<float>(1, "out");
  launch(dev, {"uninit device", 1, 32}, [&](BlockCtx& ctx) {
    ctx.store(out, 0, ctx.load(buf, 5));
  });
  const auto rep = dev.sanitizer()->snapshot();
  ASSERT_EQ(count_kind(rep, IssueKind::kUninitDeviceRead), 1u);
  EXPECT_EQ(rep.issues[0].buffer, "never written");
  EXPECT_EQ(rep.issues[0].index, 5u);
}

TEST(Simcheck, CatchesUninitializedDeviceToHostCopy) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc<float>(8, "download me");
  (void)dev.to_host(buf);  // bug: downloading a buffer no kernel produced
  const auto rep = dev.sanitizer()->snapshot();
  ASSERT_EQ(count_kind(rep, IssueKind::kUninitDeviceRead), 1u);
  EXPECT_EQ(rep.issues[0].kernel, "<host>");
}

TEST(Simcheck, InstrumentedStoresSeedValidity) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc<float>(32, "kernel-produced");
  launch(dev, {"produce", 1, 32}, [&](BlockCtx& ctx) {
    for (std::size_t i = 0; i < 32; ++i) {
      ctx.store(buf, i, static_cast<float>(i));
    }
  });
  const auto host = dev.to_host(buf);
  EXPECT_EQ(host[31], 31.0f);
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
}

// ---------------------------------------------------------------------------
// Defect class 5: sync-count divergence.

TEST(Simcheck, CatchesSyncInsideWarpRegion) {
  Device dev;
  dev.enable_sanitizer();
  launch(dev, {"divergent sync", 1, 64}, [&](BlockCtx& ctx) {
    ctx.for_each_warp([&](Warp& w) {
      if (w.index() == 0) ctx.sync();  // bug: barrier not reached uniformly
    });
  });
  EXPECT_EQ(
      count_kind(dev.sanitizer()->snapshot(), IssueKind::kSyncDivergence),
      1u);
}

// ---------------------------------------------------------------------------
// Report plumbing: config gates, flood control, clear().

TEST(Simcheck, ConfigGatesDisableIndividualChecks) {
  Device dev;
  SanitizerConfig cfg;
  cfg.check_uninit = false;
  dev.enable_sanitizer(cfg);
  auto buf = dev.alloc<float>(8, "never written");
  auto out = dev.alloc_zero<float>(1, "out");
  launch(dev, {"uninit off", 1, 32}, [&](BlockCtx& ctx) {
    ctx.store(out, 0, ctx.load(buf, 0));
  });
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
}

TEST(Simcheck, FloodControlCapsStoredIssues) {
  Device dev;
  SanitizerConfig cfg;
  cfg.max_issues = 4;
  dev.enable_sanitizer(cfg);
  auto buf = dev.alloc_zero<float>(4, "tiny");
  launch(dev, {"issue flood", 1, 32}, [&](BlockCtx& ctx) {
    for (std::size_t i = 0; i < 100; ++i) ctx.store(buf, 1000 + i, 0.0f);
  });
  const auto rep = dev.sanitizer()->snapshot();
  EXPECT_EQ(rep.issues.size(), 4u);
  EXPECT_EQ(rep.dropped, 96u);
  EXPECT_EQ(dev.sanitizer()->issue_count(), 100u);
  dev.sanitizer()->clear();
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
}

// ---------------------------------------------------------------------------
// Zero-cost contract: with and without the sanitizer the counted traffic of
// one launch is bit-identical (the checks observe, never charge).

TEST(Simcheck, CountedTrafficIdenticalWithSanitizerOn) {
  const auto run = [](Device& dev) {
    auto in = dev.alloc<float>(256, "in");
    std::vector<float> host(256);
    std::iota(host.begin(), host.end(), 0.0f);
    dev.upload(in, std::span<const float>(host));
    auto out = dev.alloc_zero<float>(256, "out");
    auto counter = dev.alloc_zero<std::uint64_t>(1, "counter");
    return launch(dev, {"mixed", 4, 64}, [&](BlockCtx& ctx) {
      const auto b = static_cast<std::size_t>(ctx.block_idx());
      auto sh = ctx.shared_zero<float>(64, "tile");
      ctx.for_each_warp([&](Warp& w) {
        w.each([&](int lane) {
          const auto t = static_cast<std::size_t>(w.index() * 32 + lane);
          sh[t] = ctx.load(in, b * 64 + t);
        });
      });
      ctx.sync();
      ctx.for_each_warp([&](Warp& w) {
        w.each([&](int lane) {
          const auto t = static_cast<std::size_t>(w.index() * 32 + lane);
          ctx.store(out, b * 64 + t, sh[t] + 1.0f);
        });
      });
      ctx.ops(64);
      ctx.atomic_add(counter, 0, std::uint64_t{1});
    });
  };

  Device plain;
  const KernelStats a = run(plain);
  Device checked;
  checked.enable_sanitizer();
  const KernelStats b = run(checked);
  EXPECT_TRUE(checked.sanitizer()->snapshot().clean())
      << checked.sanitizer()->snapshot().to_string();

  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.lane_ops, b.lane_ops);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.scattered_atomic_ops, b.scattered_atomic_ops);
  EXPECT_EQ(a.block_syncs, b.block_syncs);
  EXPECT_EQ(a.max_block_bytes, b.max_block_bytes);
  EXPECT_EQ(a.max_block_lane_ops, b.max_block_lane_ops);
}

// Storage reuse after a workspace rollback must not mis-attribute accesses to
// the released allocation.

TEST(Simcheck, WorkspaceRollbackDropsShadowRegions) {
  Device dev;
  dev.enable_sanitizer();
  {
    ScopedWorkspace ws(dev);
    auto tmp = dev.alloc_zero<float>(64, "scratch");
    launch(dev, {"touch scratch", 1, 32},
           [&](BlockCtx& ctx) { ctx.store(tmp, 0, 1.0f); });
  }
  // Same storage, new allocation: reads must be tracked against the new
  // region (fresh valid bits), not the released one.
  auto fresh = dev.alloc<float>(64, "fresh");
  auto out = dev.alloc_zero<float>(1, "out");
  launch(dev, {"read fresh", 1, 32},
         [&](BlockCtx& ctx) { ctx.store(out, 0, ctx.load(fresh, 0)); });
  const auto rep = dev.sanitizer()->snapshot();
  ASSERT_EQ(count_kind(rep, IssueKind::kUninitDeviceRead), 1u);
  EXPECT_EQ(rep.issues[0].buffer, "fresh");
}

// ---------------------------------------------------------------------------
// Tile accessors: with a sanitizer attached the bulk accessors fall back to
// per-element shadowing, so simcheck keeps element-exact precision.

TEST(SimcheckTile, CatchesOutOfBoundsTileLoad) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc_zero<float>(8, "short buffer");
  std::size_t got = 1;
  launch(dev, {"oob tile load", 1, 32}, [&](BlockCtx& ctx) {
    got = ctx.load_tile(buf, 4, 8).size();  // bug: reaches past element 8
  });
  EXPECT_EQ(got, 0u);  // suppressed wholesale, like scalar loads
  EXPECT_EQ(count_kind(dev.sanitizer()->snapshot(), IssueKind::kOutOfBounds),
            1u);
}

TEST(SimcheckTile, CatchesOutOfBoundsTileStore) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc_zero<float>(8, "short buffer");
  launch(dev, {"oob tile store", 1, 32}, [&](BlockCtx& ctx) {
    const float src[4] = {1, 2, 3, 4};
    ctx.store_tile(buf, 6, std::span<const float>(src, 4));
  });
  const auto rep = dev.sanitizer()->snapshot();
  ASSERT_EQ(count_kind(rep, IssueKind::kOutOfBounds), 1u);
  EXPECT_EQ(rep.issues[0].buffer, "short buffer");
  for (float v : dev.to_host(buf)) EXPECT_EQ(v, 0.0f);  // untouched
}

TEST(SimcheckTile, CatchesUninitializedReadThroughTilePath) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc<float>(4, "never written");  // bug: alloc, no init
  launch(dev, {"uninit tile read", 1, 32}, [&](BlockCtx& ctx) {
    float sink = 0;
    ctx.for_each_elem(buf, 0, 4, [&](std::size_t, float v) { sink += v; });
    (void)sink;
  });
  // Element-exact: every uninitialized element is reported, not one per tile.
  EXPECT_EQ(count_kind(dev.sanitizer()->snapshot(),
                       IssueKind::kUninitDeviceRead),
            4u);
}

TEST(SimcheckTile, StoreTileSeedsShadowValidity) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc<float>(8, "produced");
  launch(dev, {"tile roundtrip", 1, 32}, [&](BlockCtx& ctx) {
    const float src[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    ctx.store_tile(buf, 0, std::span<const float>(src, 8));
    const auto back = ctx.load_tile(buf, 0, 8);
    ASSERT_EQ(back.size(), 8u);
    EXPECT_EQ(back[5], 5.0f);
  });
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
}

TEST(SimcheckTile, ScatterWriterShadowsPerElementUnderSanitizer) {
  Device dev;
  dev.enable_sanitizer();
  auto buf = dev.alloc<float>(8, "scatter target");
  launch(dev, {"bad scatter", 1, 32}, [&](BlockCtx& ctx) {
    auto w = ctx.scatter_writer(buf, 3);
    w.put(0, 1.0f);
    w.put(7, 2.0f);
    w.put(12, 3.0f);  // bug: element 12 of an 8-element buffer
  });
  const auto rep = dev.sanitizer()->snapshot();
  ASSERT_EQ(count_kind(rep, IssueKind::kOutOfBounds), 1u);
  EXPECT_EQ(rep.issues[0].index, 12u);
  const auto host = dev.to_host(buf);
  EXPECT_EQ(host[0], 1.0f);
  EXPECT_EQ(host[7], 2.0f);
}

TEST(SimcheckTile, FlushCountsOutOfBoundsReportedPerBinWithAttribution) {
  // Under simcheck flush_counts is the per-bin atomic loop: a seeded
  // out-of-bounds flush (block 2's span starts 8 bins before the end of a
  // 32-bin buffer) reports each non-zero bin past the end, attributed to
  // the kernel, the block and the buffer, and lands the bins in range.
  Device dev;
  dev.enable_sanitizer();
  auto bins = dev.alloc_zero<std::uint32_t>(32, "global bins");
  launch(dev, {"oob flush", 3, 32}, [&](BlockCtx& ctx) {
    auto counts = ctx.shared_zero<std::uint32_t>(16, "block counts");
    for (std::size_t d = 0; d < 16; d += 2) counts[d] = 1;  // 8 non-zero
    ctx.sync();
    const std::size_t first = ctx.block_idx() == 2 ? 24 : 0;  // bug: 24+16
    ctx.flush_counts(bins, first, counts);
  });
  const auto rep = dev.sanitizer()->snapshot();
  ASSERT_EQ(count_kind(rep, IssueKind::kOutOfBounds), 4u) << rep.to_string();
  for (const auto& issue : rep.issues) {
    EXPECT_EQ(issue.kernel, "oob flush");
    EXPECT_EQ(issue.block, 2);
    EXPECT_EQ(issue.buffer, "global bins");
    EXPECT_GE(issue.index, 32u);
  }
  const auto host = dev.to_host(bins);
  EXPECT_EQ(host[0], 2u);   // blocks 0 and 1
  EXPECT_EQ(host[24], 1u);  // block 2's in-range bins
  EXPECT_EQ(host[25], 0u);
}

TEST(SimcheckTile, FlushesBeforeAnElectedLastBlockAreNotARace) {
  // AIR's epilogue: every block flushes its counts into one histogram, an
  // arrival counter elects the last block, which reads the histogram.
  Device dev;
  dev.enable_sanitizer();
  constexpr int kBlocks = 8;
  auto bins = dev.alloc_zero<std::uint32_t>(64, "histogram");
  auto arrivals = dev.alloc_zero<std::uint32_t>(1, "arrivals");
  auto total = dev.alloc_zero<std::uint32_t>(1, "total");
  launch(dev, {"flush then elect", kBlocks, 32}, [&](BlockCtx& ctx) {
    auto counts = ctx.shared_zero<std::uint32_t>(64, "counts");
    counts[static_cast<std::size_t>(ctx.block_idx()) * 5] = 3;
    ctx.sync();
    ctx.flush_counts(bins, 0, counts);
    if (ctx.atomic_add(arrivals, 0, 1u) == kBlocks - 1) {
      std::uint32_t sum = 0;
      for (std::size_t d = 0; d < 64; ++d) sum += ctx.load(bins, d);
      ctx.store(total, 0, sum);
    }
  });
  EXPECT_EQ(dev.to_host(total)[0], 3u * kBlocks);
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean())
      << dev.sanitizer()->snapshot().to_string();
}

TEST(SimcheckTile, UncheckedSharedDataNullUnderSanitizer) {
  Device dev;
  dev.enable_sanitizer();
  launch(dev, {"shraw gated", 1, 32}, [&](BlockCtx& ctx) {
    auto sh = ctx.shared_zero<std::uint32_t>(16, "hist");
    EXPECT_EQ(sh.unchecked_data(), nullptr);  // raw escape must stay shadowed
  });
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
}

}  // namespace
}  // namespace simgpu
