#include "topk/common.hpp"

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simgpu/simgpu.hpp"
#include "topk/level_loop.hpp"

namespace topk {
namespace {

TEST(BlockChunk, PartitionsExactlyAndBalanced) {
  for (std::size_t count : {0u, 1u, 7u, 100u, 1000u, 4097u}) {
    for (int parts : {1, 2, 3, 7, 16, 111}) {
      std::size_t covered = 0;
      std::size_t min_len = count + 1, max_len = 0;
      std::size_t expected_begin = 0;
      for (int p = 0; p < parts; ++p) {
        const auto [begin, end] = block_chunk(count, parts, p);
        EXPECT_EQ(begin, expected_begin) << "gap or overlap";
        expected_begin = end;
        covered += end - begin;
        min_len = std::min(min_len, end - begin);
        max_len = std::max(max_len, end - begin);
      }
      EXPECT_EQ(covered, count);
      EXPECT_LE(max_len - min_len, 1u) << "imbalance > 1";
    }
  }
}

TEST(MakeGrid, CoversDeviceWithoutOverdoingIt) {
  const auto spec = simgpu::DeviceSpec::a100();
  // Large single problem: capped at 2x SM count.
  const GridShape big = make_grid(1, 1 << 26, spec);
  EXPECT_EQ(big.blocks_per_problem, 2 * spec.sm_count);
  // Small problem: a single block.
  const GridShape tiny = make_grid(1, 100, spec);
  EXPECT_EQ(tiny.blocks_per_problem, 1);
  // Big batch: per-problem blocks limited so the total stays bounded.
  const GridShape batch = make_grid(100, 1 << 26, spec);
  EXPECT_LE(batch.total_blocks(), 4096);
  EXPECT_GE(batch.blocks_per_problem, 1);
  // Problem-major indexing.
  EXPECT_EQ(batch.problem_of(0), 0u);
  EXPECT_EQ(batch.problem_of(batch.blocks_per_problem), 1u);
  EXPECT_EQ(batch.block_in_problem(batch.blocks_per_problem + 1), 1);
}

// One block per kItemsPerBlock elements, and a batched launch shares
// kMaxTotalBlocks among its problems, at least one block each.
TEST(MakeGrid, BatchSharesTheTotalBlockCap) {
  const auto spec = simgpu::DeviceSpec::a100();
  EXPECT_EQ(make_grid(1, 3 * kItemsPerBlock, spec).blocks_per_problem, 3);
  EXPECT_EQ(make_grid(1, 3 * kItemsPerBlock + 1, spec).blocks_per_problem, 4);
  const GridShape batch = make_grid(100, 1 << 26, spec);
  EXPECT_EQ(batch.blocks_per_problem,
            static_cast<int>(kMaxTotalBlocks / 100));
  EXPECT_EQ(batch.block_threads, kBlockThreads);
  const GridShape wide = make_grid(2 * kMaxTotalBlocks, 1 << 20, spec);
  EXPECT_EQ(wide.blocks_per_problem, 1);
  EXPECT_EQ(wide.total_blocks(), static_cast<int>(2 * kMaxTotalBlocks));
}

TEST(ValidateProblem, RejectsDegenerateInput) {
  EXPECT_THROW(validate_problem(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(validate_problem(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(validate_problem(10, 11, 1), std::invalid_argument);
  EXPECT_THROW(validate_problem(10, 5, 0), std::invalid_argument);
  EXPECT_NO_THROW(validate_problem(10, 10, 1));
}

TEST(AggregatedAppender, AppendsAllItemsWithBatchedAtomics) {
  simgpu::Device dev;
  constexpr std::size_t kItems = 1000;
  auto vals = dev.alloc<float>(kItems);
  auto idx = dev.alloc<std::uint32_t>(kItems);
  auto cursor = dev.alloc_zero<std::uint64_t>(1);
  const auto stats = simgpu::launch(
      dev, {"append", 4, 32}, [=](simgpu::BlockCtx& ctx) {
        AggregatedAppender<float, std::uint64_t> app(vals, idx, 0, cursor, 0,
                                                     kItems, "test");
        const auto [begin, end] =
            block_chunk(kItems, 4, ctx.block_idx());
        for (std::size_t i = begin; i < end; ++i) {
          app.push(ctx, static_cast<float>(i), static_cast<std::uint32_t>(i));
        }
        app.flush(ctx);
      });
  EXPECT_EQ(cursor.data()[0], kItems);
  // One atomic per <=32 staged items, not one per item.
  EXPECT_LE(stats.atomic_ops, kItems / 32 + 8);
  // Every item present exactly once, with value/index still paired.
  std::vector<bool> seen(kItems, false);
  for (std::size_t i = 0; i < kItems; ++i) {
    const auto id = idx.data()[i];
    ASSERT_LT(id, kItems);
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
    EXPECT_EQ(vals.data()[i], static_cast<float>(id));
  }
}

TEST(LevelGuard, ThrowsOnlyAfterTheBoundOfStalledLevels) {
  // Stalls that end before the bound are legal: a NaN pivot may stall a
  // level and the next one recover.
  LevelGuard recovers("row", 3, 1000);
  for (int i = 0; i + 1 < LevelGuard::kMaxStalledLevels; ++i) {
    recovers.next(1000);
  }
  recovers.next(999);
  for (int i = 0; i + 1 < LevelGuard::kMaxStalledLevels; ++i) {
    recovers.next(999);
  }
  recovers.next(10);

  LevelGuard stalls("quick_select", 3, 1000);
  for (int i = 0; i + 1 < LevelGuard::kMaxStalledLevels; ++i) {
    stalls.next(1000);
  }
  try {
    stalls.next(1000);
    FAIL() << "the bound-th stalled level must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quick_select"), std::string::npos) << what;
    EXPECT_NE(what.find("problem 3"), std::string::npos) << what;
  }
}

TEST(AggregatedAppender, ThrowsOnOverflow) {
  simgpu::Device dev;
  auto vals = dev.alloc<float>(8);
  auto idx = dev.alloc<std::uint32_t>(8);
  auto cursor = dev.alloc_zero<std::uint32_t>(1);
  EXPECT_THROW(
      simgpu::launch(dev, {"overflow", 1, 32},
                     [=](simgpu::BlockCtx& ctx) {
                       AggregatedAppender<float, std::uint32_t> app(
                           vals, idx, 0, cursor, 0, 8, "test");
                       for (int i = 0; i < 9; ++i) {
                         app.push(ctx, 0.0f, 0);
                       }
                       app.flush(ctx);
                     }),
      std::logic_error);
}

TEST(StragglerModel, UnbalancedKernelIsBoundByItsHeaviestBlock) {
  // Two kernels with identical aggregate traffic; one concentrates it all
  // in a single block.  The cost model must charge the imbalanced one more.
  simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  simgpu::CostModel model(spec);

  simgpu::KernelStats balanced;
  balanced.grid_blocks = 216;
  balanced.block_threads = 256;
  balanced.bytes_read = 64u << 20;
  balanced.max_block_bytes = (64u << 20) / 216;

  simgpu::KernelStats skewed = balanced;
  skewed.max_block_bytes = 64u << 20;  // one block does everything

  EXPECT_GT(model.kernel_cost(skewed).duration_us,
            5 * model.kernel_cost(balanced).duration_us);
}

TEST(StragglerModel, RealKernelRecordsMaxBlockTraffic) {
  simgpu::Device dev;
  auto buf = dev.alloc<float>(1024);
  const auto stats =
      simgpu::launch(dev, {"skew", 8, 32}, [=](simgpu::BlockCtx& ctx) {
        if (ctx.block_idx() == 3) {
          for (std::size_t i = 0; i < 1024; ++i) ctx.load(buf, i);
        } else {
          ctx.load(buf, 0);
        }
      });
  EXPECT_EQ(stats.max_block_bytes, 1024 * sizeof(float));
  EXPECT_EQ(stats.bytes_read, (1024 + 7) * sizeof(float));
}

}  // namespace
}  // namespace topk
