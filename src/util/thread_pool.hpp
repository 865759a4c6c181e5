// thread_pool.hpp — fixed-size worker pool with a parallel_for helper.
//
// Monte-Carlo experiment drivers run independent trials (one seed each) in
// parallel; each trial owns its simulator and RNG, so the only shared state
// is the result slot it writes.  A mutex-guarded deque is far from the
// bottleneck when each task is a whole simulation run.  The sharded engine
// round is the other user: several fork/joins per round, each a few
// milliseconds long.  For it, run_parts keeps every block of work on the
// same worker from call to call, lets a thread that finished early take the
// parts a slower one has not started, and lets a worker that just finished
// poll briefly before it sleeps, so the next phase skips the wake-up.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sssw::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future yields its result (or exception).
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
      submitted_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_one();
    return result;
  }

  /// Runs body(i) for i in [0, count) across the pool and blocks until all
  /// complete: run_parts with one thread per worker, the caller included.
  /// Exceptions from any invocation are rethrown (first one wins).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Runs job(part) once for every part in [0, parts) on `threads` threads
  /// (clamped to [1, parts]) and blocks until all have finished; exceptions
  /// are rethrown (first one wins).  Thread t owns the t-th contiguous block
  /// of parts, ChunkBounds(parts, threads), and runs it in order: block 0 on
  /// the calling thread, block t >= 1 on worker (t - 1) % size(), the same
  /// worker on every call, so a loop of fork/joins over the same data keeps
  /// each block in one core's cache.  A thread done with its own block takes
  /// the parts nobody has started from the back of the other blocks, so a
  /// slow or descheduled thread hands its rest to the others, and a busy
  /// pool delays the call but cannot deadlock it (it may be made from a
  /// pool task).
  void run_parts(std::size_t parts, std::size_t threads,
                 const std::function<void(std::size_t)>& job);

 private:
  void worker_loop(std::size_t self);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;                 ///< any worker
  std::vector<std::deque<std::function<void()>>> pinned_;  ///< by worker
  std::mutex mutex_;
  std::condition_variable cv_;
  /// Bumped under mutex_ by every submission, and read without it by a
  /// worker polling for new work before it sleeps.
  std::atomic<std::uint64_t> submitted_{0};
  bool stop_ = false;
};

/// The process-wide pool backing the free parallel_for: lazily constructed
/// (hardware-sized) on first use, then reused for the life of the process.
ThreadPool& shared_pool();

/// Convenience: runs body(i) for i in [0, count) on the shared pool, or
/// serially when count <= 1 (no pool is ever constructed in that case).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

/// The contiguous split of [0, count) into `chunks` ranges (1 <= chunks <=
/// count) that parallel_for_chunked runs: chunk c is [begin(c), begin(c+1)),
/// and the first count % chunks chunks are one element longer.  chunk_of
/// inverts it, so code that keys work to chunk identity (the engine's
/// channel → lane owner map) shares this one definition.
struct ChunkBounds {
  ChunkBounds(std::size_t count, std::size_t chunks) noexcept
      : base(count / chunks), extra(count % chunks) {}

  std::size_t begin(std::size_t chunk) const noexcept {
    return chunk * base + (chunk < extra ? chunk : extra);
  }

  /// The chunk holding `index` (index < count).
  std::size_t chunk_of(std::size_t index) const noexcept {
    const std::size_t long_part = extra * (base + 1);
    return index < long_part ? index / (base + 1)
                             : extra + (index - long_part) / base;
  }

  std::size_t base;
  std::size_t extra;
};

/// Chunked, template-based parallel_for: splits [0, count) into at most
/// `chunks` contiguous ranges (ChunkBounds) and invokes body(chunk_index,
/// begin, end) once per range, on at most `threads` threads through
/// ThreadPool::run_parts on the shared pool.  The per-element std::function
/// indirection of the index overload is gone — body is type-erased once per
/// *call*, and the element loop inside it inlines.  This is what the sharded
/// engine round and the seed-parallel sweep drivers use.  Chunk boundaries
/// are a pure function of (count, chunks), whichever thread runs a chunk, so
/// callers that key determinism to chunk identity (the engine's parts) get
/// identical splits on every run.  Blocks until all chunks complete;
/// exceptions from any chunk are rethrown (first one wins).  Serial, in
/// chunk order on the caller's thread, when threads <= 1.
template <typename Body>
void parallel_for_chunked(std::size_t count, std::size_t chunks, std::size_t threads,
                          Body&& body) {
  if (count == 0) return;
  chunks = std::clamp<std::size_t>(chunks, 1, count);
  const ChunkBounds split(count, chunks);
  if (threads <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) body(c, split.begin(c), split.begin(c + 1));
    return;
  }
  shared_pool().run_parts(chunks, threads, [&body, split](std::size_t c) {
    body(c, split.begin(c), split.begin(c + 1));
  });
}

/// One thread per chunk.
template <typename Body>
void parallel_for_chunked(std::size_t count, std::size_t chunks, Body&& body) {
  parallel_for_chunked(count, chunks, chunks, std::forward<Body>(body));
}

}  // namespace sssw::util
