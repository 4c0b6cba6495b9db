#include "core/topk.hpp"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"

namespace topk {
namespace {

TEST(CoreApi, AlgoKeysRoundTripThroughTheRegistry) {
  // Every enum value — the ten public algorithms, the AIR ablation variants,
  // the GridSelect thread-queue flavour, and kAuto — must have a non-empty
  // display name and a parse key that round-trips exactly.
  const Algo all[] = {Algo::kAirTopk,
                      Algo::kGridSelect,
                      Algo::kRadixSelect,
                      Algo::kWarpSelect,
                      Algo::kBlockSelect,
                      Algo::kBitonicTopk,
                      Algo::kQuickSelect,
                      Algo::kBucketSelect,
                      Algo::kSampleSelect,
                      Algo::kSort,
                      Algo::kAirTopkNoAdaptive,
                      Algo::kAirTopkNoEarlyStop,
                      Algo::kAirTopkFusedFilter,
                      Algo::kGridSelectThreadQueue,
                      Algo::kAuto};
  for (Algo a : all) {
    const std::string_view key = algo_key(a);
    ASSERT_FALSE(key.empty()) << static_cast<int>(a);
    EXPECT_FALSE(algo_name(a).empty()) << key;
    EXPECT_NE(algo_name(a), "unknown") << key;
    const std::optional<Algo> parsed = parse_algo(key);
    ASSERT_TRUE(parsed.has_value()) << key;
    EXPECT_EQ(*parsed, a) << key;
    // The CLI parses through the same function, optional included.
    EXPECT_EQ(parse_algo(key), a) << key;
  }
  EXPECT_FALSE(parse_algo("definitely-not-an-algorithm").has_value());
  EXPECT_FALSE(parse_algo("").has_value());
}

TEST(CoreApi, ReferenceSelectReturnsSmallestK) {
  const std::vector<float> data = {5, 1, 4, 1, 3, 9, 2, 6};
  const SelectResult r = reference_select(data, 3);
  std::vector<float> vals = r.values;
  std::sort(vals.begin(), vals.end());
  EXPECT_EQ(vals, (std::vector<float>{1, 1, 2}));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(data[r.indices[i]], r.values[i]);
  }
}

TEST(CoreApi, VerifyAcceptsReferenceResult) {
  const auto data = data::uniform_values(1000, 1);
  EXPECT_TRUE(verify_topk(data, 100, reference_select(data, 100)).empty());
}

TEST(CoreApi, VerifyCatchesWrongSize) {
  const auto data = data::uniform_values(100, 2);
  SelectResult r = reference_select(data, 10);
  r.values.pop_back();
  EXPECT_NE(verify_topk(data, 10, r).find("size mismatch"), std::string::npos);
}

TEST(CoreApi, VerifyCatchesOutOfRangeIndex) {
  const auto data = data::uniform_values(100, 3);
  SelectResult r = reference_select(data, 5);
  r.indices[2] = 1000;
  EXPECT_NE(verify_topk(data, 5, r).find("out of range"), std::string::npos);
}

TEST(CoreApi, VerifyCatchesDuplicateIndex) {
  const auto data = data::uniform_values(100, 4);
  SelectResult r = reference_select(data, 5);
  r.indices[1] = r.indices[0];
  r.values[1] = r.values[0];
  EXPECT_NE(verify_topk(data, 5, r).find("duplicate"), std::string::npos);
}

TEST(CoreApi, VerifyCatchesValueIndexMismatch) {
  const auto data = data::uniform_values(100, 5);
  SelectResult r = reference_select(data, 5);
  r.values[0] = -1234.5f;
  EXPECT_NE(verify_topk(data, 5, r).find("mismatch"), std::string::npos);
}

TEST(CoreApi, VerifyCatchesWrongMultiset) {
  std::vector<float> data = {1, 2, 3, 4, 5, 6, 7, 8};
  SelectResult r;
  r.values = {1, 2, 5};  // 5 is not in the top-3
  r.indices = {0, 1, 4};
  EXPECT_NE(verify_topk(data, 3, r).find("multiset"), std::string::npos);
}

TEST(CoreApi, SelectBatchValidatesSize) {
  simgpu::Device dev;
  const auto data = data::uniform_values(100, 6);
  EXPECT_THROW((void)select_batch(dev, data, 2, 100, 5, Algo::kAirTopk),
               std::invalid_argument);
}

TEST(CoreApi, RecommendationFollowsPaperGuidelines) {
  // Large N, small K -> GridSelect.
  EXPECT_EQ(recommend_algorithm(1 << 24, 10), Algo::kGridSelect);
  // Most other cases -> AIR Top-K.
  EXPECT_EQ(recommend_algorithm(1 << 24, 4096), Algo::kAirTopk);
  EXPECT_EQ(recommend_algorithm(1 << 24, 1 << 20), Algo::kAirTopk);
  EXPECT_EQ(recommend_algorithm(1000, 500), Algo::kAirTopk);  // k not small
}

TEST(CoreApi, RecommendationIsNearOptimalUnderTheCostModel) {
  simgpu::Device dev;
  const simgpu::CostModel model(dev.spec());
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{1 << 20, 32},
                             {1 << 20, 8192},
                             {1 << 14, 100}}) {
    const auto values = data::uniform_values(n, 7);
    const auto modeled = [&](Algo algo) {
      dev.clear_events();
      (void)select(dev, values, k, algo);
      return model.total_us(dev.events());
    };
    const Algo rec = recommend_algorithm(n, k);
    const double rec_t = modeled(rec);
    double best = rec_t;
    for (Algo a : {Algo::kAirTopk, Algo::kGridSelect}) {
      if (k <= max_k(a, n)) best = std::min(best, modeled(a));
    }
    EXPECT_LE(rec_t, 1.3 * best) << "n=" << n << " k=" << k;
  }
}

TEST(CoreApi, GreatestSelectionOnBatch) {
  simgpu::Device dev;
  const std::size_t batch = 3, n = 2000, k = 10;
  const auto values = data::normal_values(batch * n, 8);
  SelectOptions opt;
  opt.greatest = true;
  const auto results =
      select_batch(dev, values, batch, n, k, Algo::kAirTopk, opt);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<float> want(values.begin() + static_cast<long>(b * n),
                            values.begin() + static_cast<long>((b + 1) * n));
    std::sort(want.begin(), want.end(), std::greater<>());
    std::vector<float> got = results[b].values;
    std::sort(got.begin(), got.end(), std::greater<>());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got[i], want[i]) << "problem " << b << " pos " << i;
    }
  }
}

}  // namespace
}  // namespace topk
