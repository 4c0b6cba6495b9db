// Algo-coverage grid for the dispatch recommender: over a full
// (N, K, batch, hints) sweep, recommend_algorithm must return a *concrete*
// algorithm that can legally serve the request (k <= max_k(algo, n)), so the
// serving planner can never receive an unservable plan.  The recommendation
// is a pure function of the shape — it never inspects the key values — so
// legality over this grid holds for every data distribution by construction
// (the soak and integration suites cover uniform/normal/adversarial data).

#include <cstddef>
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
        for (const bool fly : {false, true}) {
          WorkloadHints hints;
          hints.on_the_fly = fly;
          hints.batch = batch;
          if (fly && k > 2048) {
            // Documented unsatisfiable case: on-the-fly is a hard
            // constraint only the queue family meets, and it caps at 2048.
            EXPECT_THROW((void)recommend_algorithm(n, k, hints),
                         std::invalid_argument)
                << "n=" << n << " k=" << k;
            continue;
          }
          const Algo rec = recommend_algorithm(n, k, hints);
          EXPECT_NE(rec, Algo::kAuto)
              << "recommender must resolve to a concrete algorithm";
          EXPECT_LE(k, max_k(rec, n))
              << "unservable plan " << algo_name(rec) << " for n=" << n
              << " k=" << k << " batch=" << batch << " fly=" << fly;
          if (fly) {
            EXPECT_EQ(rec, Algo::kGridSelect)
                << "on-the-fly must pick the shared-queue family";
          }
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
