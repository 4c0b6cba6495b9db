#include "serve/service.hpp"

#include <chrono>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "data/distributions.hpp"

namespace topk::serve {
namespace {

using std::chrono::microseconds;

std::vector<float> keys_for(std::size_t n, std::uint64_t seed) {
  return data::uniform_values(n, seed);
}

/// Flush-on-full only: buckets never age out, so batch composition is
/// deterministic regardless of scheduling.
ServiceConfig never_age_config() {
  ServiceConfig cfg;
  cfg.num_devices = 1;
  cfg.max_wait = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(600));
  return cfg;
}

TEST(TopkService, SingleRequestMatchesDirectSelect) {
  ServiceConfig cfg;
  cfg.max_batch = 1;
  TopkService svc(cfg);
  const auto keys = keys_for(4096, 1);
  auto fut = svc.submit(std::vector<float>(keys), 64);
  const QueryResult r = fut.get();
  ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(r.batch_rows, 1u);
  EXPECT_GT(r.device_us, 0.0);
  EXPECT_TRUE(verify_topk(keys, 64, r.topk).empty())
      << verify_topk(keys, 64, r.topk);
}

TEST(TopkService, CoalescesToFullBatches) {
  ServiceConfig cfg = never_age_config();
  cfg.max_batch = 4;
  TopkService svc(cfg);
  std::vector<std::vector<float>> inputs;
  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(keys_for(1024, 10 + static_cast<std::uint64_t>(i)));
    futs.push_back(svc.submit(std::vector<float>(inputs.back()), 16));
  }
  for (int i = 0; i < 8; ++i) {
    const QueryResult r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
    EXPECT_EQ(r.batch_rows, 4u) << "request " << i;
    EXPECT_TRUE(
        verify_topk(inputs[static_cast<std::size_t>(i)], 16, r.topk).empty());
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.batch_rows_histogram.at(4), 2u);
  EXPECT_EQ(s.completed, 8u);
}

TEST(TopkService, KBucketCoalescingTrimsPerRequest) {
  ServiceConfig cfg = never_age_config();
  cfg.max_batch = 2;
  TopkService svc(cfg);
  const auto a = keys_for(1000, 20);
  const auto b = keys_for(1000, 21);
  // k=5 and k=7 share the k_exec=8 bucket; each result is trimmed back.
  auto fa = svc.submit(std::vector<float>(a), 5);
  auto fb = svc.submit(std::vector<float>(b), 7);
  const QueryResult ra = fa.get();
  const QueryResult rb = fb.get();
  ASSERT_EQ(ra.status, QueryStatus::kOk) << ra.error;
  ASSERT_EQ(rb.status, QueryStatus::kOk) << rb.error;
  EXPECT_EQ(ra.batch_rows, 2u);
  EXPECT_EQ(rb.batch_rows, 2u);
  EXPECT_EQ(ra.topk.values.size(), 5u);
  EXPECT_EQ(rb.topk.values.size(), 7u);
  EXPECT_TRUE(verify_topk(a, 5, ra.topk).empty()) << verify_topk(a, 5, ra.topk);
  EXPECT_TRUE(verify_topk(b, 7, rb.topk).empty()) << verify_topk(b, 7, rb.topk);
}

TEST(TopkService, DifferentShapesDoNotCoalesce) {
  ServiceConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait = microseconds(500);
  TopkService svc(cfg);
  auto fa = svc.submit(keys_for(1024, 30), 16);
  auto fb = svc.submit(keys_for(2048, 31), 16);
  const QueryResult ra = fa.get();
  const QueryResult rb = fb.get();
  ASSERT_EQ(ra.status, QueryStatus::kOk) << ra.error;
  ASSERT_EQ(rb.status, QueryStatus::kOk) << rb.error;
  EXPECT_EQ(ra.batch_rows, 1u);
  EXPECT_EQ(rb.batch_rows, 1u);
}

TEST(TopkService, AutoPlannerFollowsRecommendation) {
  ServiceConfig cfg;
  cfg.max_batch = 1;
  TopkService svc(cfg);
  // Small k on a large row -> GridSelect per the paper's §5.1 guidelines.
  const QueryResult small_k = svc.submit(keys_for(1 << 16, 40), 16).get();
  ASSERT_EQ(small_k.status, QueryStatus::kOk) << small_k.error;
  EXPECT_EQ(small_k.algo, Algo::kGridSelect);
  // Large k -> AIR Top-K.
  const QueryResult large_k = svc.submit(keys_for(1 << 16, 41), 512).get();
  ASSERT_EQ(large_k.status, QueryStatus::kOk) << large_k.error;
  EXPECT_EQ(large_k.algo, Algo::kAirTopk);
  // Whatever the plan, it must be legal for the padded k.
  EXPECT_LE(std::size_t{16}, max_k(small_k.algo, 1 << 16));
  EXPECT_LE(std::size_t{512}, max_k(large_k.algo, 1 << 16));
}

TEST(TopkService, ExplicitAlgoOverrideIsHonored) {
  ServiceConfig cfg;
  cfg.max_batch = 1;
  TopkService svc(cfg);
  const auto keys = keys_for(4096, 50);
  const QueryResult r =
      svc.submit(std::vector<float>(keys), 32, std::nullopt, Algo::kSort)
          .get();
  ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(r.algo, Algo::kSort);
  EXPECT_TRUE(verify_topk(keys, 32, r.topk).empty());
}

TEST(TopkService, UnservableOverrideFailsWithDiagnostic) {
  ServiceConfig cfg;
  cfg.max_batch = 1;
  TopkService svc(cfg);
  // Bitonic Top-K caps at k=256; k=300 pads to 512 and cannot be served.
  const QueryResult r =
      svc.submit(keys_for(4096, 51), 300, std::nullopt, Algo::kBitonicTopk)
          .get();
  EXPECT_EQ(r.status, QueryStatus::kFailed);
  EXPECT_NE(r.error.find("cannot serve"), std::string::npos) << r.error;
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.failed, 1u);
}

TEST(TopkService, RejectsWhenAdmissionQueueFull) {
  ServiceConfig cfg = never_age_config();
  cfg.max_batch = 100;  // never flushes on size during this test
  cfg.admission_capacity = 2;
  TopkService svc(cfg);
  auto f1 = svc.submit(keys_for(1024, 60), 8);
  auto f2 = svc.submit(keys_for(1024, 61), 8);
  auto f3 = svc.submit(keys_for(1024, 62), 8);
  const QueryResult r3 = f3.get();  // rejected immediately
  EXPECT_EQ(r3.status, QueryStatus::kRejected);
  EXPECT_NE(r3.error.find("admission queue full"), std::string::npos)
      << r3.error;
  svc.shutdown();  // drains the two admitted requests
  EXPECT_EQ(f1.get().status, QueryStatus::kOk);
  EXPECT_EQ(f2.get().status, QueryStatus::kOk);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(TopkService, ExpiredDeadlineTimesOut) {
  ServiceConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait = microseconds(200);
  TopkService svc(cfg);
  // deadline 0: already expired when the batch reaches a worker.
  const QueryResult r =
      svc.submit(keys_for(1024, 70), 8, microseconds(0)).get();
  EXPECT_EQ(r.status, QueryStatus::kTimedOut);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.completed, 0u);
}

TEST(TopkService, ShutdownDrainsPartialBuckets) {
  ServiceConfig cfg = never_age_config();
  cfg.max_batch = 100;
  TopkService svc(cfg);
  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(svc.submit(keys_for(2048, 80 + static_cast<std::uint64_t>(i)), 10));
  }
  svc.shutdown();
  for (auto& f : futs) {
    const QueryResult r = f.get();
    EXPECT_EQ(r.status, QueryStatus::kOk) << r.error;
    EXPECT_EQ(r.batch_rows, 3u);  // drained as one final partial batch
  }
}

TEST(TopkService, SubmitAfterShutdownIsRejected) {
  TopkService svc;
  svc.shutdown();
  const QueryResult r = svc.submit(keys_for(512, 90), 4).get();
  EXPECT_EQ(r.status, QueryStatus::kRejected);
  EXPECT_NE(r.error.find("shut down"), std::string::npos) << r.error;
}

TEST(TopkService, SubmitValidatesArguments) {
  TopkService svc;
  EXPECT_THROW((void)svc.submit(std::vector<float>{}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)svc.submit(keys_for(16, 91), 0), std::invalid_argument);
  EXPECT_THROW((void)svc.submit(keys_for(16, 92), 17), std::invalid_argument);
}

TEST(TopkService, GreatestAndSortedModes) {
  ServiceConfig cfg = never_age_config();
  cfg.max_batch = 2;
  cfg.greatest = true;
  cfg.sorted_results = true;
  TopkService svc(cfg);
  const auto a = keys_for(2000, 93);
  const auto b = keys_for(2000, 94);
  // k=5/k=6 share a bucket, exercising the sorted greatest-K trim path.
  auto fa = svc.submit(std::vector<float>(a), 5);
  auto fb = svc.submit(std::vector<float>(b), 6);
  const QueryResult ra = fa.get();
  ASSERT_EQ(ra.status, QueryStatus::kOk) << ra.error;
  std::vector<float> want(a);
  std::sort(want.begin(), want.end(), std::greater<>());
  ASSERT_EQ(ra.topk.values.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ra.topk.values[i], want[i]) << "position " << i;
    EXPECT_EQ(a[ra.topk.indices[i]], ra.topk.values[i]);
  }
  const QueryResult rb = fb.get();
  ASSERT_EQ(rb.status, QueryStatus::kOk) << rb.error;
  EXPECT_EQ(rb.topk.values.size(), 6u);
}

TEST(TopkService, StatsLatencySummaryIsOrdered) {
  ServiceConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait = microseconds(200);
  TopkService svc(cfg);
  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 10; ++i) {
    futs.push_back(svc.submit(keys_for(1024, 100 + static_cast<std::uint64_t>(i)), 8));
  }
  for (auto& f : futs) ASSERT_EQ(f.get().status, QueryStatus::kOk);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.latency.count, 10u);
  EXPECT_LE(s.latency.p50_us, s.latency.p95_us);
  EXPECT_LE(s.latency.p95_us, s.latency.p99_us);
  EXPECT_LE(s.latency.p99_us, s.latency.max_us);
  EXPECT_GT(s.latency.p50_us, 0.0);
  EXPECT_GT(s.modeled_device_us, 0.0);
}

// BucketSelect refuses a row whose key range is infinite; the service must
// resolve the request kFailed with that diagnostic rather than hang a worker.
TEST(TopkService, NonFiniteBucketSelectRowFails) {
  std::vector<float> keys(4096, std::numeric_limits<float>::infinity());
  for (std::size_t i = 0; i < 6; ++i) keys[i * 700] = static_cast<float>(i);
  for (const bool greatest : {false, true}) {
    SCOPED_TRACE(greatest ? "greatest" : "least");
    ServiceConfig cfg;
    cfg.max_batch = 1;
    cfg.greatest = greatest;
    TopkService svc(cfg);
    auto fut = svc.submit(std::vector<float>(keys), 64, std::nullopt,
                          Algo::kBucketSelect);
    const QueryResult r = fut.get();
    EXPECT_EQ(r.status, QueryStatus::kFailed);
    EXPECT_NE(r.error.find("bucket_select"), std::string::npos) << r.error;
    // The worker survives the failure and serves the next request.
    const auto ok_keys = keys_for(4096, 3);
    const QueryResult ok =
        svc.submit(std::vector<float>(ok_keys), 64, std::nullopt,
                   Algo::kBucketSelect)
            .get();
    ASSERT_EQ(ok.status, QueryStatus::kOk) << ok.error;
    svc.shutdown();
  }
}

// QuickSelect and SampleSelect give up on a row of NaNs (a NaN pivot never
// shrinks it); the service must resolve the request kFailed and keep
// serving instead of hanging a worker.
TEST(TopkService, AllNaNPartitionRowFails) {
  const std::vector<float> keys(65536, std::numeric_limits<float>::quiet_NaN());
  const struct {
    Algo algo;
    const char* row;
  } rows[] = {{Algo::kQuickSelect, "quick_select"},
              {Algo::kSampleSelect, "sample_select"}};
  for (const auto& row : rows) {
    SCOPED_TRACE(row.row);
    ServiceConfig cfg;
    cfg.max_batch = 1;
    TopkService svc(cfg);
    const QueryResult r =
        svc.submit(std::vector<float>(keys), 64, std::nullopt, row.algo)
            .get();
    EXPECT_EQ(r.status, QueryStatus::kFailed);
    EXPECT_NE(r.error.find(row.row), std::string::npos) << r.error;
    // The worker survives the failure and serves the next request.
    const QueryResult ok = svc.submit(keys_for(4096, 3), 64, std::nullopt,
                                      row.algo)
                               .get();
    ASSERT_EQ(ok.status, QueryStatus::kOk) << ok.error;
    svc.shutdown();
  }
}

}  // namespace
}  // namespace topk::serve
