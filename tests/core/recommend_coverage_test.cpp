// Algo-coverage grid for the dispatch recommender: over a full
// (N, K, batch, hints) sweep, recommend_algorithm must return a *concrete*
// algorithm that can legally serve the request (k <= max_k(algo, n)), so the
// serving planner can never receive an unservable plan.  The recommendation
// is a pure function of the shape — it never inspects the key values — so
// legality over this grid holds for every data distribution by construction
// (the soak and integration suites cover uniform/normal/adversarial data).

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"

namespace topk {
namespace {

TEST(RecommendCoverage, AlwaysReturnsServablePlan) {
  const std::size_t ns[] = {1u << 8,  1u << 10, 1u << 12, 1u << 14,
                            1u << 16, 1u << 20, 1u << 24};
  const std::size_t batches[] = {1, 10, 100};
  for (const std::size_t n : ns) {
    const std::size_t ks[] = {1,    2,    16,       100,  255, 256,
                              257,  1024, 2048,     2049, 4096,
                              n / 2, n - 1, n};
    for (const std::size_t k : ks) {
      if (k == 0 || k > n) continue;
      for (const std::size_t batch : batches) {
        WorkloadHints hints;
        hints.batch = batch;
        const Algo rec = recommend_algorithm(n, k, hints);
        EXPECT_NE(rec, Algo::kAuto)
            << "recommender must resolve to a concrete algorithm";
        EXPECT_LE(k, max_k(rec, n))
            << "unservable plan " << algo_name(rec) << " for n=" << n
            << " k=" << k << " batch=" << batch;
      }
    }
  }
}

// explain_recommendation returns recommend_algorithm's pick, and prices
// exactly the races that ran: the batch candidates at batch >= 64 only, the
// approximate race below recall 1 only.
TEST(RecommendCoverage, ExplanationMatchesThePickAndItsRaces) {
  for (const std::size_t batch : {1, 63, 64, 100}) {
    for (const double recall : {1.0, 0.9}) {
      for (const std::size_t k : {16, 300, 4096}) {
        WorkloadHints hints;
        hints.batch = batch;
        hints.recall_target = recall;
        const std::size_t n = std::size_t{1} << 14;
        const Recommendation why = explain_recommendation(n, k, hints);
        const std::string at = "batch=" + std::to_string(batch) +
                               " recall=" + std::to_string(recall) +
                               " k=" + std::to_string(k);
        EXPECT_EQ(why.algo, recommend_algorithm(n, k, hints)) << at;
        EXPECT_NE(std::string(why.rule), "") << at;
        EXPECT_EQ(why.batch_race.empty(), batch < 64) << at;
        for (const PricedCandidate& c : why.batch_race) {
          EXPECT_EQ(c.skipped == nullptr, k <= max_k(c.algo, n)) << at;
        }
        if (recall == 1.0) {
          EXPECT_TRUE(why.approx_race.empty()) << at;
          EXPECT_EQ(why.algo, why.exact) << at;
        } else if (!why.approx_race.empty()) {
          ASSERT_EQ(why.approx_race.size(), 2u) << at;
          EXPECT_EQ(why.approx_race[0].algo, Algo::kBucketApprox) << at;
          EXPECT_EQ(why.approx_race[1].algo, why.exact) << at;
        }
      }
    }
  }
}

TEST(RecommendCoverage, ResolveAlgoIsIdentityForConcreteAlgos) {
  for (const Algo algo : all_algorithms()) {
    EXPECT_EQ(resolve_algo(algo, 1 << 16, 64, 8), algo);
  }
}

TEST(RecommendCoverage, ResolveAlgoExpandsAuto) {
  const Algo resolved = resolve_algo(Algo::kAuto, 1 << 20, 64, 32);
  EXPECT_NE(resolved, Algo::kAuto);
  WorkloadHints hints;
  hints.batch = 32;
  EXPECT_EQ(resolved, recommend_algorithm(1 << 20, 64, hints));
}

TEST(RecommendCoverage, AutoSpellingRoundTrips) {
  const auto parsed = parse_algo("auto");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, Algo::kAuto);
  EXPECT_EQ(algo_name(Algo::kAuto), "Auto");
  // kAuto has no k ceiling of its own: the recommender guarantees legality.
  EXPECT_EQ(max_k(Algo::kAuto, 1 << 20), std::size_t{1} << 20);
}

TEST(RecommendCoverage, RejectsDegenerateShapes) {
  EXPECT_THROW((void)recommend_algorithm(0, 1), std::invalid_argument);
  EXPECT_THROW((void)recommend_algorithm(100, 0), std::invalid_argument);
  EXPECT_THROW((void)recommend_algorithm(100, 101), std::invalid_argument);
  WorkloadHints zero_batch;
  zero_batch.batch = 0;
  EXPECT_THROW((void)recommend_algorithm(100, 10, zero_batch),
               std::invalid_argument);
}

}  // namespace
}  // namespace topk
