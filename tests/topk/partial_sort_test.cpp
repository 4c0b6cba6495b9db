#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "topk/bitonic.hpp"
#include "topk/grid_select.hpp"
#include "topk/partial_sort_common.hpp"
#include "topk/warp_select.hpp"

namespace topk {
namespace {

/// Run `fn(ctx)` inside a single-block kernel and return.
template <typename F>
void run_in_block(F&& fn) {
  simgpu::Device dev;
  simgpu::launch(dev, {"test", 1, 32}, [&](simgpu::BlockCtx& ctx) { fn(ctx); });
}

TEST(Bitonic, SortsRandomPowerOfTwo) {
  run_in_block([](simgpu::BlockCtx& ctx) {
    std::mt19937 rng(1);
    for (const std::size_t n : {1u, 2u, 4u, 32u, 256u, 1024u}) {
      std::vector<float> keys(n);
      std::vector<std::uint32_t> idx(n);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = static_cast<float>(rng() % 1000);
        idx[i] = static_cast<std::uint32_t>(i);
      }
      std::vector<float> want = keys;
      bitonic_sort<float>(ctx, keys, idx);
      std::sort(want.begin(), want.end());
      EXPECT_EQ(keys, want) << "n=" << n;
    }
  });
}

TEST(Bitonic, KeepsIndexPayloadAttached) {
  run_in_block([](simgpu::BlockCtx& ctx) {
    std::mt19937 rng(2);
    std::vector<float> original(128);
    for (float& v : original) v = static_cast<float>(rng() % 10000);
    std::vector<float> keys = original;
    std::vector<std::uint32_t> idx(128);
    for (std::size_t i = 0; i < 128; ++i) idx[i] = static_cast<std::uint32_t>(i);
    bitonic_sort<float>(ctx, keys, idx);
    for (std::size_t i = 0; i < 128; ++i) {
      EXPECT_EQ(original[idx[i]], keys[i]) << i;
    }
  });
}

TEST(Bitonic, DescendingSortWorks) {
  run_in_block([](simgpu::BlockCtx& ctx) {
    std::vector<float> keys = {5, 1, 9, 3, 7, 2, 8, 4};
    std::vector<std::uint32_t> idx(8, 0);
    bitonic_sort<float>(ctx, keys, idx, KeyOrder<float>(/*greatest=*/true));
    std::vector<float> want = {9, 8, 7, 5, 4, 3, 2, 1};
    EXPECT_EQ(keys, want);
  });
}

TEST(Bitonic, MergePruneKeepsSmallestN) {
  run_in_block([](simgpu::BlockCtx& ctx) {
    std::vector<float> a = {1, 4, 6, 9};
    std::vector<float> b = {2, 3, 5, 7};
    std::vector<std::uint32_t> ai = {10, 11, 12, 13};
    std::vector<std::uint32_t> bi = {20, 21, 22, 23};
    merge_prune<float>(ctx, a, ai, b, bi);
    std::vector<float> want = {1, 2, 3, 4};
    EXPECT_EQ(a, want);
    EXPECT_EQ(ai, (std::vector<std::uint32_t>{10, 20, 21, 11}));
  });
}

TEST(Bitonic, MergePruneChargesLaneOps) {
  simgpu::Device dev;
  const auto stats = simgpu::launch(dev, {"ops", 1, 32}, [](simgpu::BlockCtx& ctx) {
    std::vector<float> a = {1, 4, 6, 9};
    std::vector<float> b = {2, 3, 5, 7};
    std::vector<std::uint32_t> ai(4, 0), bi(4, 0);
    merge_prune<float>(ctx, a, ai, b, bi);
  });
  EXPECT_GT(stats.lane_ops, 0u);
}

TEST(Bitonic, ClosedFormChargesMatchTheNetworks) {
  // The warpfast fast paths replace network *execution* with bulk
  // ctx.ops(...) charges computed from the closed forms in bitonic.hpp;
  // charge identity rests on those forms matching what the real
  // (data-oblivious) networks charge, so pin them here at every size the
  // selection family can use.  A sanitizer attached to `checked` sends its
  // launches down the exact networks; `dev` runs the fast paths.
  for (const std::size_t n : {2u, 4u, 8u, 32u, 256u, 1024u, 2048u}) {
    std::mt19937 rng(static_cast<unsigned>(n));
    std::vector<float> a(n), b(n);
    std::vector<std::uint32_t> ai(n, 0), bi(n, 0);
    for (auto& v : a) v = static_cast<float>(rng() % 997);
    for (auto& v : b) v = static_cast<float>(rng() % 997);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    simgpu::Device dev;
    simgpu::Device checked;
    checked.enable_sanitizer();
    const auto merge_stats =
        simgpu::launch(checked, {"merge", 1, 32}, [&](simgpu::BlockCtx& ctx) {
          bitonic_merge(ctx, std::span<float>(a), std::span<std::uint32_t>(ai),
                        0, n, /*ascending=*/true);
        });
    EXPECT_EQ(merge_stats.lane_ops, bitonic_merge_ops(n)) << "n=" << n;

    const auto sort_stats =
        simgpu::launch(checked, {"sort", 1, 32}, [&](simgpu::BlockCtx& ctx) {
          bitonic_sort<float>(ctx, a, ai);
        });
    EXPECT_EQ(sort_stats.lane_ops, bitonic_sort_ops(n)) << "n=" << n;

    std::sort(a.begin(), a.end());
    const auto prune_stats =
        simgpu::launch(checked, {"prune", 1, 32}, [&](simgpu::BlockCtx& ctx) {
          merge_prune<float>(ctx, a, ai, b, bi);
        });
    EXPECT_EQ(prune_stats.lane_ops, merge_prune_ops(n)) << "n=" << n;

    // And the warpfast two-pointer fast path must charge exactly the same.
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const auto fast_stats =
        simgpu::launch(dev, {"prune-wf", 1, 32}, [&](simgpu::BlockCtx& ctx) {
          merge_prune<float>(ctx, a, ai, b, bi);
        });
    EXPECT_EQ(fast_stats.lane_ops, merge_prune_ops(n)) << "n=" << n;
  }
}

TEST(Bitonic, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(2048), 2048u);
  EXPECT_EQ(next_pow2(2049), 4096u);
}

TEST(TopkList, MaintainsSmallestKAcrossMerges) {
  run_in_block([](simgpu::BlockCtx& ctx) {
    std::vector<float> storage(64);
    std::vector<std::uint32_t> istorage(64);
    TopkList<float> list(storage, istorage, 50);
    std::mt19937 rng(3);
    std::vector<float> all;
    std::vector<float> batch_keys(37);
    std::vector<std::uint32_t> batch_idx(37);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t i = 0; i < batch_keys.size(); ++i) {
        batch_keys[i] = static_cast<float>(rng() % 100000);
        batch_idx[i] = static_cast<std::uint32_t>(all.size());
        all.push_back(batch_keys[i]);
      }
      list.merge(ctx, batch_keys, batch_idx, batch_keys.size());
    }
    std::sort(all.begin(), all.end());
    for (std::size_t i = 0; i < 50; ++i) {
      EXPECT_EQ(list.keys()[i], all[i]) << i;
    }
  });
}

// ---- packed warm-up boundary -----------------------------------------------
// The packed list appends its first k candidates unsorted and sorts them
// once when the k-th arrives.  Whatever the batch sizes, its observable
// state after every merge must be the k smallest of (every candidate so far
// ∪ k sentinels), sorted: kth() after every merge, and keys()/indices()
// wherever a reader settles the list early.

/// The reference state: the k smallest packed values of every candidate
/// offered so far and k sentinels, ascending.
struct PackedReference {
  std::size_t k;
  KeyOrder<float> ord;
  std::vector<std::uint64_t> seen;

  [[nodiscard]] std::vector<std::uint64_t> state() const {
    std::vector<std::uint64_t> v = seen;
    v.insert(v.end(), k, ord.pack(ord.worst(), 0));
    std::sort(v.begin(), v.end());
    v.resize(k);
    return v;
  }
};

/// `count` candidates with tied keys (50 distinct values, so equal keys
/// must keep their index order) and an occasional worst() key, which a merge
/// loses to the sentinel; indices continue from `next_index`.
std::vector<std::uint64_t> tied_batch(std::mt19937& rng, KeyOrder<float> ord,
                                      std::size_t count,
                                      std::uint32_t& next_index) {
  std::vector<std::uint64_t> batch(count);
  for (auto& c : batch) {
    const float key = rng() % 97 == 0 ? ord.worst()
                                      : static_cast<float>(rng() % 50);
    c = ord.pack(key, next_index++);
  }
  return batch;
}

void expect_list_matches(const TopkList<float>& list,
                         const PackedReference& ref, const std::string& what) {
  const std::vector<std::uint64_t> want = ref.state();
  const auto keys = list.keys();
  const auto idx = list.indices();
  for (std::size_t i = 0; i < ref.k; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(keys[i]),
              std::bit_cast<std::uint32_t>(ref.ord.unpack(want[i])))
        << what << " position " << i;
    ASSERT_EQ(idx[i], static_cast<std::uint32_t>(want[i])) << what << " " << i;
  }
}

TEST(TopkList, PackedWarmupMatchesReferenceAfterEveryMerge) {
  // Batch sizes cycle through queue flushes (32, 16 and below) and
  // thread-queue drains (up to 32 x 10), so drains cross k mid-batch.
  const std::size_t sizes[] = {32, 7, 1, 31, 320, 33, 96, 5, 17, 128};
  for (const std::size_t k : {1u, 13u, 24u, 100u, 256u, 2048u}) {
    for (const bool greatest : {false, true}) {
      for (const bool read_every_merge : {false, true}) {
        run_in_block([&](simgpu::BlockCtx& ctx) {
          const std::size_t cap = next_pow2(k);
          std::vector<float> storage(cap);
          std::vector<std::uint32_t> istorage(cap);
          const KeyOrder<float> ord(greatest);
          TopkList<float> list(storage, istorage, k, ord);
          PackedReference ref{k, ord, {}};
          std::mt19937 rng(static_cast<unsigned>(k) * 2 + greatest);
          std::uint32_t next_index = 0;
          for (std::size_t m = 0; ref.seen.size() < 3 * k + 64; ++m) {
            const auto batch = tied_batch(rng, ord, sizes[m % 10], next_index);
            list.merge_packed(ctx, batch.data(), batch.size());
            ref.seen.insert(ref.seen.end(), batch.begin(), batch.end());
            const std::string what = "k=" + std::to_string(k) +
                                     " greatest=" + std::to_string(greatest) +
                                     " merge " + std::to_string(m);
            const std::uint64_t kth = ref.state()[k - 1];
            ASSERT_EQ(std::bit_cast<std::uint32_t>(list.kth()),
                      std::bit_cast<std::uint32_t>(ord.unpack(kth)))
                << what;
            if (ref.seen.size() < k) {
              ASSERT_EQ(list.kth(), ord.worst()) << what;
            }
            if (read_every_merge) expect_list_matches(list, ref, what);
          }
          expect_list_matches(list, ref, "final k=" + std::to_string(k));
        });
      }
    }
  }
}

TEST(TopkList, PackedListShortOfKPadsLikeTheExactPath) {
  // Fewer than k candidates in all: keys() settles the warm-up and pads
  // with worst() at index 0, as the storage is padded.
  for (const std::size_t k : {1u, 13u, 24u, 100u, 256u, 2048u}) {
    run_in_block([&](simgpu::BlockCtx& ctx) {
      const std::size_t cap = next_pow2(k);
      std::vector<float> storage(cap);
      std::vector<std::uint32_t> istorage(cap);
      TopkList<float> list(storage, istorage, k);
      PackedReference ref{k, {}, {}};
      std::mt19937 rng(static_cast<unsigned>(k));
      std::uint32_t next_index = 0;
      const auto batch = tied_batch(rng, {}, k - 1, next_index);
      if (!batch.empty()) list.merge_packed(ctx, batch.data(), batch.size());
      ref.seen = batch;
      EXPECT_EQ(list.kth(), std::numeric_limits<float>::infinity());
      expect_list_matches(list, ref, "k=" + std::to_string(k));
      EXPECT_EQ(list.keys()[k - 1], std::numeric_limits<float>::infinity());
      EXPECT_EQ(list.indices()[k - 1], 0u);
    });
  }
}

TEST(TopkList, MergeListSettlesListsStillFilling) {
  for (const std::size_t k : {13u, 100u, 256u}) {
    for (const std::size_t other_count : {k / 3, k, 2 * k}) {
      run_in_block([&](simgpu::BlockCtx& ctx) {
        const std::size_t cap = next_pow2(k);
        std::vector<float> s1(cap), s2(cap);
        std::vector<std::uint32_t> i1(cap), i2(cap);
        TopkList<float> acc(s1, i1, k);
        TopkList<float> other(s2, i2, k);
        PackedReference ref{k, {}, {}};
        std::mt19937 rng(static_cast<unsigned>(k + other_count));
        std::uint32_t next_index = 0;
        const auto mine = tied_batch(rng, {}, k / 2, next_index);
        const auto theirs = tied_batch(rng, {}, other_count, next_index);
        acc.merge_packed(ctx, mine.data(), mine.size());
        other.merge_packed(ctx, theirs.data(), theirs.size());
        acc.merge_list(ctx, other);
        ref.seen = mine;
        ref.seen.insert(ref.seen.end(), theirs.begin(), theirs.end());
        expect_list_matches(acc, ref,
                            "k=" + std::to_string(k) +
                                " other=" + std::to_string(other_count));
        // The accumulated list keeps taking merges after the early settle.
        const auto more = tied_batch(rng, {}, 32, next_index);
        acc.merge_packed(ctx, more.data(), more.size());
        ref.seen.insert(ref.seen.end(), more.begin(), more.end());
        expect_list_matches(acc, ref, "k=" + std::to_string(k) + " after");
      });
    }
  }
}

TEST(TopkList, KthStartsAtSentinel) {
  run_in_block([](simgpu::BlockCtx& ctx) {
    (void)ctx;
    std::vector<float> storage(32);
    std::vector<std::uint32_t> istorage(32);
    TopkList<float> list(storage, istorage, 20);
    EXPECT_EQ(list.kth(), std::numeric_limits<float>::infinity());
    TopkList<float> largest(storage, istorage, 20, KeyOrder<float>(true));
    EXPECT_EQ(largest.kth(), -std::numeric_limits<float>::infinity());
  });
}

TEST(TopkList, RejectsUndersizedStorage) {
  run_in_block([](simgpu::BlockCtx& ctx) {
    (void)ctx;
    std::vector<float> storage(40);  // next_pow2(33) == 64 > 40
    std::vector<std::uint32_t> istorage(40);
    EXPECT_THROW((TopkList<float>(storage, istorage, 33)),
                 std::invalid_argument);
  });
}

TEST(ThreadQueueLen, MatchesFaissTiers) {
  EXPECT_EQ(thread_queue_len(1), 2u);
  EXPECT_EQ(thread_queue_len(32), 2u);
  EXPECT_EQ(thread_queue_len(128), 3u);
  EXPECT_EQ(thread_queue_len(256), 4u);
  EXPECT_EQ(thread_queue_len(1024), 8u);
  EXPECT_EQ(thread_queue_len(2048), 10u);
}

TEST(SharedQueueEngine, SelectsSmallestFromStream) {
  simgpu::Device dev;
  const auto values = data::uniform_values(5000, 77);
  std::vector<float> got(16);
  auto out = dev.alloc<float>(16);
  simgpu::launch(dev, {"stream", 1, 32}, [&, out](simgpu::BlockCtx& ctx) {
    SharedQueueEngine<float> engine(ctx, 16);
    float vals[simgpu::kWarpSize];
    std::uint32_t idxs[simgpu::kWarpSize];
    bool valid[simgpu::kWarpSize];
    for (std::size_t base = 0; base < values.size();
         base += simgpu::kWarpSize) {
      for (int lane = 0; lane < simgpu::kWarpSize; ++lane) {
        const std::size_t i = base + static_cast<std::size_t>(lane);
        valid[lane] = i < values.size();
        if (valid[lane]) {
          vals[lane] = values[i];
          idxs[lane] = static_cast<std::uint32_t>(i);
        }
      }
      engine.round(ctx, vals, idxs, valid);
    }
    engine.finalize(ctx);
    for (std::size_t i = 0; i < 16; ++i) {
      ctx.store(out, i, engine.list().keys()[i]);
    }
  });
  std::vector<float> want(values.begin(), values.end());
  std::sort(want.begin(), want.end());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(out.data()[i], want[i]) << i;
  }
}

TEST(SharedQueueEngine, TwoStepInsertionHandlesOverflowRound) {
  // Feed a round where every lane qualifies while the queue is nearly full:
  // step 1 fills the queue, a flush happens, step 2 inserts the rest.
  simgpu::Device dev;
  auto out = dev.alloc<float>(32);
  simgpu::launch(dev, {"overflow", 1, 32}, [=](simgpu::BlockCtx& ctx) {
    SharedQueueEngine<float> engine(ctx, 32);
    float vals[simgpu::kWarpSize];
    std::uint32_t idxs[simgpu::kWarpSize];
    bool valid[simgpu::kWarpSize];
    // Round 1: 20 qualifying values.
    for (int lane = 0; lane < 32; ++lane) {
      vals[lane] = 1000.0f - static_cast<float>(lane);
      idxs[lane] = static_cast<std::uint32_t>(lane);
      valid[lane] = lane < 20;
    }
    engine.round(ctx, vals, idxs, valid);
    // Round 2: all 32 qualify; 12 fit, flush, 20 go through step two.
    for (int lane = 0; lane < 32; ++lane) {
      vals[lane] = 500.0f - static_cast<float>(lane);
      idxs[lane] = static_cast<std::uint32_t>(32 + lane);
      valid[lane] = true;
    }
    engine.round(ctx, vals, idxs, valid);
    engine.finalize(ctx);
    for (std::size_t i = 0; i < 32; ++i) {
      ctx.store(out, i, engine.list().keys()[i]);
    }
  });
  // The 32 smallest of the 52 pushed values are 469..500.
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(out.data()[static_cast<std::size_t>(i)], 469.0f + i) << i;
  }
}

TEST(WarpSelect, UsesSingleWarpPerProblem) {
  simgpu::Device dev;
  const auto values = data::uniform_values(4096, 5);
  dev.clear_events();
  (void)select(dev, values, 32, Algo::kWarpSelect);
  bool found = false;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      if (ke->stats.name == "WarpSelect") {
        EXPECT_EQ(ke->stats.grid_blocks, 1);
        EXPECT_EQ(ke->stats.block_threads, 32);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(BlockSelect, UsesFourWarps) {
  simgpu::Device dev;
  const auto values = data::uniform_values(4096, 5);
  dev.clear_events();
  (void)select(dev, values, 32, Algo::kBlockSelect);
  bool found = false;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      if (ke->stats.name == "BlockSelect") {
        EXPECT_EQ(ke->stats.grid_blocks, 1);
        EXPECT_EQ(ke->stats.block_threads, 128);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(GridSelect, UsesManyBlocksForLargeN) {
  simgpu::Device dev;
  const auto values = data::uniform_values(1 << 20, 5);
  dev.clear_events();
  (void)select(dev, values, 32, Algo::kGridSelect);
  int partial_blocks = 0;
  for (const auto& e : dev.events()) {
    if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
      if (ke->stats.name == "GridSelect_partial") {
        partial_blocks = ke->stats.grid_blocks;
      }
    }
  }
  EXPECT_GT(partial_blocks, 16)
      << "GridSelect must spread a large problem over many blocks";
}

TEST(GridSelect, SharedQueueVariantDoesFewerMergeOpsOnSkewedData) {
  // Descending input: every element qualifies, stressing queue flushes.
  simgpu::Device dev;
  std::vector<float> values(1 << 16);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(values.size() - i);
  }
  const auto ops_for = [&](bool shared) {
    simgpu::ScopedWorkspace ws(dev);
    auto in = dev.alloc<float>(values.size());
    std::copy(values.begin(), values.end(), in.data());
    auto ov = dev.alloc<float>(64);
    auto oi = dev.alloc<std::uint32_t>(64);
    dev.clear_events();
    GridSelectOptions o;
    o.shared_queue = shared;
    simgpu::WorkspaceLayout layout;
    const auto plan = grid_select_plan<float>(Shape{1, values.size(), 64},
                                              dev.spec(), o, layout);
    simgpu::Workspace grid_ws(dev);
    grid_ws.bind(layout);
    grid_select_run(dev, plan, grid_ws, in, ov, oi);
    std::uint64_t ops = 0;
    for (const auto& e : dev.events()) {
      if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
        ops += ke->stats.lane_ops;
      }
    }
    return ops;
  };
  EXPECT_LT(ops_for(true), ops_for(false))
      << "shared queue should reduce sort/merge work";
}

TEST(PartialSorts, RejectOversizedK) {
  simgpu::Device dev;
  const auto values = data::uniform_values(10000, 5);
  EXPECT_THROW((void)select(dev, values, 2049, Algo::kWarpSelect),
               std::invalid_argument);
  EXPECT_THROW((void)select(dev, values, 2049, Algo::kBlockSelect),
               std::invalid_argument);
  EXPECT_THROW((void)select(dev, values, 2049, Algo::kGridSelect),
               std::invalid_argument);
  EXPECT_THROW((void)select(dev, values, 257, Algo::kBitonicTopk),
               std::invalid_argument);
}

}  // namespace
}  // namespace topk
