#include "simgpu/device.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace simgpu {
namespace {

TEST(Device, AllocReturnsDistinctAlignedBuffers) {
  Device dev;
  auto a = dev.alloc<float>(100);
  auto b = dev.alloc<std::uint64_t>(50);
  ASSERT_NE(a.data(), nullptr);
  ASSERT_NE(b.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 256, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 256, 0u);
  // No overlap.
  const auto* a_end = reinterpret_cast<const std::byte*>(a.data() + 100);
  EXPECT_LE(static_cast<const void*>(a_end), static_cast<const void*>(b.data()));
}

TEST(Device, AllocZeroFills) {
  Device dev;
  auto b = dev.alloc_zero<std::uint32_t>(1000);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(b.data()[i], 0u);
}

// A chunk is not zero-filled and alloc() hands memory back as its last owner
// left it, so alloc_zero must clear what an earlier allocation wrote.
TEST(Device, AllocZeroClearsReusedMemory) {
  Device dev;
  const auto mark = dev.mark();
  auto dirty = dev.alloc<std::uint32_t>(1000);
  for (std::size_t i = 0; i < 1000; ++i) dirty.data()[i] = 0xdeadbeefu;
  dev.release_to(mark);
  auto b = dev.alloc_zero<std::uint32_t>(1000);
  ASSERT_EQ(b.data(), dirty.data()) << "released memory should be reused";
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(b.data()[i], 0u);
}

TEST(Device, LargeAllocationSpansChunks) {
  Device dev;
  // Larger than the 64 MiB chunk size.
  auto big = dev.alloc<float>(20u << 20);
  ASSERT_NE(big.data(), nullptr);
  big.data()[0] = 1.0f;
  big.data()[(20u << 20) - 1] = 2.0f;
  EXPECT_EQ(big.data()[0], 1.0f);
}

TEST(Device, MarkReleaseReusesMemory) {
  Device dev;
  const auto mark = dev.mark();
  auto a = dev.alloc<float>(1024);
  float* first = a.data();
  const std::size_t live_after = dev.live_bytes();
  dev.release_to(mark);
  EXPECT_LT(dev.live_bytes(), live_after);
  auto b = dev.alloc<float>(1024);
  EXPECT_EQ(b.data(), first) << "released memory should be reused";
}

TEST(Device, PeakBytesTracksHighWater) {
  Device dev;
  const auto mark = dev.mark();
  dev.alloc<float>(1 << 20);
  const std::size_t peak = dev.peak_live_bytes();
  dev.release_to(mark);
  EXPECT_EQ(dev.peak_live_bytes(), peak) << "peak survives release";
  EXPECT_LT(dev.live_bytes(), peak);
}

TEST(Device, ScopedWorkspaceReleasesOnDestruction) {
  Device dev;
  const std::size_t before = dev.live_bytes();
  {
    ScopedWorkspace ws(dev);
    dev.alloc<double>(4096);
    EXPECT_GT(dev.live_bytes(), before);
  }
  EXPECT_EQ(dev.live_bytes(), before);
}

TEST(Device, TransfersAreRecordedAsEvents) {
  Device dev;
  std::vector<float> host(256);
  std::iota(host.begin(), host.end(), 0.0f);
  auto buf = dev.to_device(std::span<const float>(host), "input");
  auto back = dev.to_host(buf, "output");
  EXPECT_EQ(back, host);
  ASSERT_EQ(dev.events().size(), 2u);
  const auto* h2d = std::get_if<MemcpyEvent>(&dev.events()[0]);
  const auto* d2h = std::get_if<MemcpyEvent>(&dev.events()[1]);
  ASSERT_NE(h2d, nullptr);
  ASSERT_NE(d2h, nullptr);
  EXPECT_EQ(h2d->dir, MemcpyEvent::Dir::kHostToDevice);
  EXPECT_EQ(h2d->bytes, 256 * sizeof(float));
  EXPECT_EQ(d2h->dir, MemcpyEvent::Dir::kDeviceToHost);
}

TEST(Device, SyncAndHostComputeRecorded) {
  Device dev;
  dev.synchronize("wait");
  dev.host_compute("prefix sum", 512);
  ASSERT_EQ(dev.events().size(), 2u);
  EXPECT_NE(std::get_if<SyncEvent>(&dev.events()[0]), nullptr);
  const auto* hc = std::get_if<HostComputeEvent>(&dev.events()[1]);
  ASSERT_NE(hc, nullptr);
  EXPECT_EQ(hc->host_ops, 512u);
}

TEST(Device, TakeEventsDrainsLog) {
  Device dev;
  dev.synchronize();
  auto events = dev.take_events();
  EXPECT_EQ(events.size(), 1u);
  EXPECT_TRUE(dev.events().empty());
}

TEST(Device, DeviceSpecProfiles) {
  EXPECT_EQ(DeviceSpec::a100().sm_count, 108);
  EXPECT_NEAR(DeviceSpec::a100().mem_bandwidth_gbps, 1555.0, 1e-9);
  EXPECT_GT(DeviceSpec::h100().mem_bandwidth_gbps,
            DeviceSpec::a100().mem_bandwidth_gbps);
  EXPECT_LT(DeviceSpec::a10().mem_bandwidth_gbps,
            DeviceSpec::a100().mem_bandwidth_gbps);
}

}  // namespace
}  // namespace simgpu
