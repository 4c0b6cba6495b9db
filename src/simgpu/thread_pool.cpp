#include "simgpu/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "simgpu/scratch_alloc.hpp"
#include "simgpu/shared_arena.hpp"

namespace simgpu {

namespace {

/// Size the calling thread's block arenas (simulated shared memory and
/// engine scratch) before it runs any block: block-to-thread assignment
/// varies run to run, so a lazy first touch inside a block could otherwise
/// allocate inside a caller's timed region.
void prepare_block_arenas() {
  detail::shared_arena();
  scratch_detail::Arena::instance();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t workers = num_threads > 0 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool([] {
    if (const char* v = std::getenv("TOPK_SIM_THREADS")) {
      const long n = std::atol(v);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return static_cast<std::size_t>(
        std::max(2u, std::thread::hardware_concurrency()));
  }());
  return pool;
}

void ThreadPool::drain(Batch& batch) {
  const std::size_t chunk = batch.chunk;
  for (;;) {
    const std::size_t begin =
        batch.next.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= batch.num_blocks) break;
    const std::size_t end = std::min(begin + chunk, batch.num_blocks);
    try {
      batch.invoke(batch.ctx, begin, end);
    } catch (...) {
      std::scoped_lock lock(batch.error_mutex);
      if (!batch.error) batch.error = std::current_exception();
    }
    batch.done.fetch_add(end - begin, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  prepare_block_arenas();
  std::uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] {
        return shutting_down_ || (current_ && generation_ != seen_generation);
      });
      if (shutting_down_) return;
      seen_generation = generation_;
      batch = current_;
      batch->active.fetch_add(1, std::memory_order_relaxed);
    }
    drain(*batch);
    // `batch` may be destroyed by the issuing thread as soon as `active`
    // reaches zero and all blocks are done, so the decrement is the last
    // touch; the notification is guarded by the pool mutex to pair with the
    // issuer's predicate check.
    {
      std::scoped_lock lock(mutex_);
      batch->active.fetch_sub(1, std::memory_order_acq_rel);
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::run_ranges(std::size_t num_blocks, RangeFn invoke,
                            void* ctx) {
  if (num_blocks == 0) return;
  prepare_block_arenas();  // the calling thread runs blocks too
  Batch batch;
  batch.num_blocks = num_blocks;
  batch.invoke = invoke;
  batch.ctx = ctx;
  // Aim for several chunks per thread so stragglers can be absorbed, but
  // never claim one block at a time for large grids: the shared cursor then
  // stops being a contention point.
  batch.chunk = std::clamp<std::size_t>(num_blocks / (size() * 8), 1, 64);
  {
    std::scoped_lock lock(mutex_);
    current_ = &batch;
    ++generation_;
  }
  cv_.notify_all();
  drain(batch);
  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] {
      return batch.done.load(std::memory_order_acquire) >= num_blocks &&
             batch.active.load(std::memory_order_acquire) == 0;
    });
    current_ = nullptr;
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace simgpu
