#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/topk.hpp"
#include "simgpu/device_spec.hpp"

namespace topk::serve {

/// The steady clock every deadline and latency in the service is measured on.
using Clock = std::chrono::steady_clock;

/// Terminal state of one submitted query.
enum class QueryStatus {
  kOk,        ///< executed; `topk` holds the answer
  kRejected,  ///< never admitted (queue full or service stopped)
  kTimedOut,  ///< admitted but its deadline expired before execution
  kFailed,    ///< admitted but execution raised an error (see `error`)
};

[[nodiscard]] const char* query_status_name(QueryStatus s);

/// What a query's future resolves to.  Every future resolves exactly once —
/// rejected and timed-out queries resolve with the corresponding status
/// instead of blocking forever.
struct QueryResult {
  QueryStatus status = QueryStatus::kFailed;
  SelectResult topk;           ///< valid when status == kOk
  Algo algo = Algo::kAuto;     ///< concrete algorithm executed (kOk only)
  std::size_t batch_rows = 0;  ///< rows in the micro-batch this query rode in
  /// Shard count the query executed with: 0 for the ordinary coalesced path,
  /// >= 1 when it ran through the sharded multi-device coordinator.
  std::size_t shards = 0;
  double wall_us = 0.0;        ///< submit -> resolution wall latency
  double device_us = 0.0;      ///< modeled device-time share of the batch
  std::string error;           ///< diagnostic for kRejected / kFailed
};

/// Service tuning knobs.  Defaults favor throughput over latency: requests
/// wait up to `max_wait` for a compatible partner before a partial batch is
/// flushed.
struct ServiceConfig {
  /// Device workers.  Each worker thread owns one simgpu::Device and drives
  /// it exclusively, honoring the substrate's single-driver contract; the
  /// workers share the process-wide block pool.
  std::size_t num_devices = 1;
  simgpu::DeviceSpec device_spec = simgpu::DeviceSpec::a100();
  /// Micro-batch row cap: a bucket is dispatched the moment it holds this
  /// many requests.
  std::size_t max_batch = 32;
  /// A non-full bucket is flushed when its oldest request has waited this
  /// long (or sooner, if a request in it has an earlier deadline).
  std::chrono::microseconds max_wait{500};
  /// Admission bound: total requests queued (bucketed + ready, not yet
  /// executing).  submit() beyond this resolves the future with kRejected.
  std::size_t admission_capacity = 1024;
  /// Plan used when submit() passes no override.  kAuto defers to
  /// recommend_algorithm(n, k_exec, {.batch = rows}) per micro-batch.
  Algo default_algo = Algo::kAuto;
  bool greatest = false;        ///< select largest-K instead of smallest-K
  bool sorted_results = false;  ///< order each result best-first
  /// Device pool size of each worker's sharded coordinator (topk::shard).
  /// A query goes sharded when its WorkloadHints ask for shards > 1 or when
  /// its row exceeds `device_spec.max_select_elems` — rows no single device
  /// can hold are served by splitting instead of being rejected.  The
  /// coordinator (and its shard_devices simulated devices) is built lazily
  /// on the first sharded query, so unsharded workloads pay nothing.
  std::size_t shard_devices = 4;
};

/// Latency distribution summary over completed queries (microseconds).
struct LatencySummary {
  std::size_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double mean_us = 0.0;
};

/// Point-in-time snapshot of the service counters.  Invariants (asserted by
/// the soak test):  submitted == accepted + rejected  and
/// accepted == completed + timed_out + failed  once the service is drained.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;  ///< micro-batches executed (>= 1 live row)
  double modeled_device_us = 0.0;  ///< sum of modeled batch times
  /// rows-per-executed-batch -> number of batches of that size.
  std::map<std::size_t, std::uint64_t> batch_rows_histogram;
  LatencySummary latency;  ///< wall latency of completed queries

  // Execution-layer counters (two-phase plan/workspace path, summed over
  // device workers).  Each worker caches one ExecutionPlan per micro-batch
  // shape and reuses two pooled workspaces across flushes, so in steady
  // state every batch is a plan-cache hit, every workspace bind is a pool
  // hit, and device_allocs stops growing.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  /// Sharded-path counters: queries routed through the multi-device
  /// coordinator (each is one single-row batch; its plan-cache traffic is
  /// folded into plan_cache_hits / plan_cache_misses above).
  std::uint64_t sharded_queries = 0;
  double sharded_device_us = 0.0;  ///< modeled time of sharded queries
  /// Queries whose batch executed on the approximate tier
  /// (Algo::kBucketApprox) under a sub-1.0 recall_target hint.
  std::uint64_t approx_queries = 0;
  std::uint64_t pool_hits = 0;    ///< workspace binds served by a warm slab
  std::uint64_t pool_misses = 0;  ///< binds that had to fetch/grow a slab
  std::size_t pool_high_water = 0;  ///< peak pooled bytes, summed over devices
  std::uint64_t device_allocs = 0;  ///< Device::alloc_calls(), summed

  /// Steady-state workspace reuse quality: pool hits over all binds.
  [[nodiscard]] double pool_hit_rate() const {
    const std::uint64_t total = pool_hits + pool_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(pool_hits) /
                            static_cast<double>(total);
  }
};

/// An asynchronous multi-device top-K query service.
///
/// submit() hands over one row of keys and returns a future immediately.
/// Compatible requests — same row length and the same power-of-two k bucket
/// (k is padded up to the bucket's k and trimmed back per request) — are
/// coalesced into dynamic micro-batches, which is the batching lever the
/// paper shows dominates serving throughput (batch = 100 in every figure).
/// A bucket is dispatched when it reaches `max_batch` rows, when its oldest
/// request has waited `max_wait`, or when a member's deadline comes due;
/// dispatched batches are planned (auto dispatch via recommend_algorithm or
/// an explicit per-request Algo override) and executed on a pool of device
/// workers, one host thread per simgpu::Device.
///
/// Backpressure: at most `admission_capacity` requests queue; beyond that
/// submit() resolves the future with kRejected instead of blocking.
/// Deadlines are enforced at dispatch: an expired request resolves with
/// kTimedOut and never reaches a device.  shutdown() stops admission, drains
/// every queued and in-flight batch, and joins all threads; the destructor
/// calls it.  All entry points are thread-safe.
class TopkService {
 public:
  explicit TopkService(ServiceConfig cfg = {});
  ~TopkService();

  TopkService(const TopkService&) = delete;
  TopkService& operator=(const TopkService&) = delete;

  /// Enqueue one top-K query over `keys` (the row is consumed).  `deadline`
  /// is relative to now; a request not dispatched by then resolves with
  /// kTimedOut.  `algo` overrides the config's default plan for this request
  /// (and only coalesces with requests of the same override).  `hints`
  /// steers execution: WorkloadHints::shards > 1 routes the request through
  /// the sharded multi-device path — as does, automatically, any row longer
  /// than device_spec.max_select_elems.  Sharded requests bypass coalescing
  /// (each is its own single-row dispatch).  WorkloadHints::recall_target
  /// below 1.0 lets auto dispatch race the approximate tier for this
  /// request's batch (requests only coalesce with the same recall SLO);
  /// the sharded path ignores it and stays exact.  Throws
  /// std::invalid_argument for malformed arguments (empty keys, k == 0,
  /// k > keys.size(), recall_target outside (0, 1]) — malformed requests
  /// are caller bugs, not load.
  std::future<QueryResult> submit(
      std::vector<float> keys, std::size_t k,
      std::optional<std::chrono::microseconds> deadline = std::nullopt,
      std::optional<Algo> algo = std::nullopt,
      std::optional<WorkloadHints> hints = std::nullopt);

  /// Typed submit: float-family keys (f32/f16/bf16) are encoded into the
  /// staged float-carrier row at admission and decoded after execution
  /// (QueryResult::topk carries dtype + values_bits).  The dtype is part of
  /// the coalescing BucketKey and the worker plan-cache key, so an f16
  /// request never rides in an f32 batch (their carrier domains differ).
  /// Integer key types throw std::invalid_argument — the coalesced serving
  /// path is float-carrier only.
  std::future<QueryResult> submit(
      KeyView keys, std::size_t k,
      std::optional<std::chrono::microseconds> deadline = std::nullopt,
      std::optional<Algo> algo = std::nullopt,
      std::optional<WorkloadHints> hints = std::nullopt);

  /// Stop admitting, flush every bucket, drain the ready queue and in-flight
  /// batches, then join the batcher and worker threads.  Idempotent.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  struct Request {
    std::promise<QueryResult> promise;
    std::size_t k = 0;
    std::size_t shard_hint = 0;  ///< requested shard count (0 = recommend)
    Clock::time_point submit_time;
    std::optional<Clock::time_point> deadline;
  };

  /// Coalescing key: requests agree on the row length, the executed
  /// (padded) k, the plan override, the recall SLO — a 0.9-recall request
  /// must never ride in (and approximate) a 1.0-recall batch — and the key
  /// dtype, whose carrier encoding the staged rows share.
  struct BucketKey {
    std::size_t n = 0;
    std::size_t k_exec = 0;
    Algo algo = Algo::kAuto;
    double recall = 1.0;
    KeyType dtype = KeyType::kF32;

    bool operator<(const BucketKey& o) const {
      if (n != o.n) return n < o.n;
      if (k_exec != o.k_exec) return k_exec < o.k_exec;
      if (algo != o.algo) return static_cast<int>(algo) < static_cast<int>(o.algo);
      if (recall != o.recall) return recall < o.recall;
      return static_cast<int>(dtype) < static_cast<int>(o.dtype);
    }
  };

  struct Bucket {
    std::vector<Request> reqs;
    /// Members' key rows, staged contiguously in request order at submit
    /// time.  The worker wraps this storage as the batch's device input
    /// directly — coalescing happens once, on admission, instead of a
    /// second row-gather copy on the execution critical path.
    std::vector<float> staged;
    Clock::time_point oldest;         ///< submit time of the first member
    Clock::time_point earliest_due;   ///< min(oldest + max_wait, deadlines)
  };

  struct Batch {
    BucketKey key;
    std::vector<Request> reqs;
    std::vector<float> staged;  ///< reqs' rows, contiguous (see Bucket)
    /// Sharded single-row dispatch: `staged` is the one row, `key.k_exec`
    /// the exact (unpadded) k, and the worker routes it to its coordinator.
    bool sharded = false;
  };

  /// Per-worker execution context: the Device plus the plan cache and the
  /// two pooled workspaces that persist across micro-batch flushes (defined
  /// in service.cpp; workers own one each on their stack).
  struct Worker;

  std::future<QueryResult> submit_carrier(
      std::vector<float> carrier, KeyType dtype, std::size_t k,
      std::optional<std::chrono::microseconds> deadline,
      std::optional<Algo> algo, std::optional<WorkloadHints> hints);

  void batcher_loop();
  void worker_loop(std::size_t worker_id);
  void execute_batch(Worker& w, std::size_t worker_id, Batch batch);
  void execute_sharded(Worker& w, std::size_t worker_id, Batch batch);

  ServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable batcher_cv_;  ///< bucket set / shutdown changes
  std::condition_variable worker_cv_;   ///< ready queue / shutdown changes

  bool accepting_ = true;
  bool stopping_ = false;
  bool batcher_done_ = false;
  std::map<BucketKey, Bucket> buckets_;
  std::deque<Batch> ready_;
  std::size_t queued_ = 0;  ///< requests in buckets_ + ready_
  /// Retired staging buffers, recycled into new buckets so steady-state
  /// admission re-touches warm pages instead of first-faulting a fresh
  /// max_batch * n allocation per batch.  Bounded: one spare per worker
  /// plus one in flight between them.
  std::vector<std::vector<float>> staged_spares_;

  // Counters (guarded by mu_).
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t batches_ = 0;
  double modeled_device_us_ = 0.0;
  std::map<std::size_t, std::uint64_t> batch_rows_histogram_;
  std::vector<double> latency_us_;  ///< wall latency of completed queries
  std::uint64_t plan_cache_hits_ = 0;
  std::uint64_t plan_cache_misses_ = 0;
  std::uint64_t sharded_queries_ = 0;
  double sharded_device_us_ = 0.0;
  std::uint64_t approx_queries_ = 0;

  /// Latest pool/alloc snapshot per worker (cumulative counters owned by the
  /// worker's Device; published under mu_ after each batch and summed by
  /// stats()).
  struct WorkerCounters {
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
    std::size_t pool_high_water = 0;
    std::uint64_t device_allocs = 0;
  };
  std::vector<WorkerCounters> worker_counters_;

  std::thread batcher_;
  std::vector<std::thread> workers_;
};

}  // namespace topk::serve
