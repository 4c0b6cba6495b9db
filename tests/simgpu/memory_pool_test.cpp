// MemoryPool / Workspace coverage: size-class reuse and the hit/miss/
// high-water stats, poisoning of released slabs, and — the part that keeps pooling honest — simcheck
// attribution *inside* pooled segments: an out-of-bounds access is blamed on
// the named segment, and a read of recycled bytes after a rebind is reported
// as uninitialized rather than silently served stale data.

#include "simgpu/memory_pool.hpp"

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "simgpu/simgpu.hpp"
#include "simgpu/workspace.hpp"

namespace simgpu {
namespace {

TEST(MemoryPool, SizeClassReuseAndStats) {
  MemoryPool pool;

  // First acquire: host allocator, rounded up to the smallest size class.
  MemoryPool::Slab a = pool.acquire(1000);
  EXPECT_GE(a.bytes, MemoryPool::kMinSlabBytes);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().bytes_live, a.bytes);

  // Release retains; a fitting re-acquire is a hit on the same storage.
  std::byte* const base = a.base;
  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().bytes_live, 0u);
  EXPECT_GT(pool.stats().bytes_held, 0u);
  MemoryPool::Slab b = pool.acquire(2000);
  EXPECT_EQ(b.base, base);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);

  // A request no retained slab fits goes back to the allocator, and the
  // high-water mark tracks live + held bytes.
  MemoryPool::Slab big = pool.acquire(10 * MemoryPool::kMinSlabBytes);
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_GE(pool.stats().high_water, b.bytes + big.bytes);
  pool.release(std::move(b));
  pool.release(std::move(big));

  EXPECT_DOUBLE_EQ(pool.stats().hit_rate(), 1.0 / 3.0);
  pool.trim();
  EXPECT_EQ(pool.stats().bytes_held, 0u);
}

TEST(MemoryPool, ReleasePoisonsWhenAsked) {
  MemoryPool pool;
  MemoryPool::Slab s = pool.acquire(64);
  s.base[0] = std::byte{0x42};
  const std::size_t bytes = s.bytes;
  pool.release(std::move(s), /*poison=*/true);
  MemoryPool::Slab t = pool.acquire(64);  // the same retained slab
  for (std::size_t i = 0; i < bytes; ++i) {
    ASSERT_EQ(t.base[i], std::byte{MemoryPool::kPoisonByte}) << "byte " << i;
  }
  pool.release(std::move(t));
}

TEST(Workspace, RebindCountsHitsAndGrowthMisses) {
  Device dev;
  Workspace ws(dev);

  WorkspaceLayout small;
  small.add<float>("ws small", 256);
  WorkspaceLayout large;
  large.add<float>("ws large", 1 << 20);

  ws.bind(small);  // miss: nothing held yet
  ws.bind(small);  // hit: slab already big enough
  ws.bind(large);  // miss: must grow
  ws.bind(small);  // hit: the big slab covers the small layout
  const MemoryPool::Stats s = dev.memory_pool().stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  ws.release();
  EXPECT_EQ(dev.memory_pool().stats().bytes_live, 0u);
}

TEST(Workspace, SimcheckAttributesOobToThePooledSegment) {
  Device dev;
  dev.enable_sanitizer();
  Workspace ws(dev);
  WorkspaceLayout layout;
  const std::size_t seg = layout.add<float>("pooled scratch seg", 8);
  ws.bind(layout);
  DeviceBuffer<float> buf = ws.get<float>(seg);

  launch(dev, {"oob writer", 1, 32}, [&](BlockCtx& ctx) {
    ctx.store(buf, 9, 1.0f);  // one past-the-end-and-change of the segment
  });
  const auto rep = dev.sanitizer()->snapshot();
  EXPECT_FALSE(rep.clean());
  const std::string msg = rep.to_string();
  EXPECT_NE(msg.find("pooled scratch seg"), std::string::npos) << msg;
}

TEST(Workspace, RebindResetsShadowSoStaleReadsAreReported) {
  Device dev;
  dev.enable_sanitizer();
  Workspace ws(dev);
  WorkspaceLayout layout;
  const std::size_t seg = layout.add<float>("recycled seg", 16);

  ws.bind(layout);
  DeviceBuffer<float> buf = ws.get<float>(seg);
  launch(dev, {"writer", 1, 32}, [&](BlockCtx& ctx) {
    for (std::size_t i = 0; i < buf.size(); ++i) ctx.store(buf, i, 1.0f);
  });
  EXPECT_TRUE(dev.sanitizer()->snapshot().clean());

  // Same layout, same slab — a pool hit.  The rebind re-registers the
  // segment, so the bytes the writer left behind are stale, and reading one
  // before writing it must be flagged as uninitialized.
  ws.bind(layout);
  buf = ws.get<float>(seg);
  float sink = 0.0f;
  launch(dev, {"stale reader", 1, 32},
         [&](BlockCtx& ctx) { sink = ctx.load(buf, 0); });
  const auto rep = dev.sanitizer()->snapshot();
  EXPECT_FALSE(rep.clean()) << "stale read went undetected";
  const std::string msg = rep.to_string();
  EXPECT_NE(msg.find("recycled seg"), std::string::npos) << msg;
  (void)sink;
}

}  // namespace
}  // namespace simgpu
