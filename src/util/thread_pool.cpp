#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

namespace sssw::util {
namespace {

/// How long a worker that just ran a task, or a run_parts caller waiting
/// for its last parts, polls before it blocks.  The engine's phases follow each
/// other within microseconds, so the poll usually finds the next task; a
/// blocked thread would instead pay a futex wake-up, which on a VM is a
/// halted vCPU's wake-up too, and that latency varies with the host's load.
constexpr std::chrono::microseconds kPoll{100};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls ready() for up to kPoll; returns its last value.
template <typename Ready>
bool poll_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kPoll;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 2;
  }
  pinned_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(std::size_t self) {
  bool just_ran = false;  // a task just finished: the next one is likely close
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      for (;;) {
        std::deque<std::function<void()>>& mine = pinned_[self];
        std::deque<std::function<void()>>& source = mine.empty() ? queue_ : mine;
        if (!source.empty()) {
          task = std::move(source.front());
          source.pop_front();
          break;
        }
        if (stop_) return;
        const std::uint64_t seen = submitted_.load(std::memory_order_relaxed);
        if (just_ran) {
          just_ran = false;
          lock.unlock();
          poll_until([&] { return submitted_.load(std::memory_order_relaxed) != seen; });
          lock.lock();
          continue;
        }
        cv_.wait(lock, [&] {
          return stop_ || submitted_.load(std::memory_order_relaxed) != seen;
        });
      }
    }
    task();
    just_ran = true;
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  run_parts(count, workers_.size(), body);
}

void ThreadPool::run_parts(std::size_t parts, std::size_t threads,
                           const std::function<void(std::size_t)>& job) {
  if (parts == 0) return;
  threads = std::clamp<std::size_t>(threads, 1, parts);
  // Shared with the queued tasks: a task whose parts were all taken may run
  // after this call returned, and then touches nothing but the claims.
  struct Batch {
    Batch(std::size_t n, std::size_t t, const std::function<void(std::size_t)>& f)
        : blocks(n, t), threads(t), claimed(n), remaining(n), job(&f) {}
    const ChunkBounds blocks;
    const std::size_t threads;
    std::vector<std::atomic<bool>> claimed;
    std::atomic<std::size_t> remaining;
    const std::function<void(std::size_t)>* job;  ///< valid while remaining > 0
    std::mutex error_mutex;
    std::exception_ptr first_error;

    void run(std::size_t part) {
      if (claimed[part].exchange(true, std::memory_order_acq_rel)) return;
      try {
        (*job)(part);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) remaining.notify_all();
    }
    /// Block `t` front to back, then every other block back to front.
    void work(std::size_t t) {
      for (std::size_t p = blocks.begin(t); p < blocks.begin(t + 1); ++p) run(p);
      for (std::size_t k = 1; k < threads; ++k) {
        const std::size_t other = (t + k) % threads;
        for (std::size_t p = blocks.begin(other + 1); p > blocks.begin(other);) run(--p);
      }
    }
  };
  const auto batch = std::make_shared<Batch>(parts, threads, job);
  if (threads > 1) {
    {
      std::lock_guard lock(mutex_);
      for (std::size_t t = 1; t < threads; ++t)
        pinned_[(t - 1) % workers_.size()].emplace_back([batch, t] { batch->work(t); });
      submitted_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }
  batch->work(0);
  const auto done = [&batch] {
    return batch->remaining.load(std::memory_order_acquire) == 0;
  };
  if (!poll_until(done)) {
    for (std::size_t left; (left = batch->remaining.load(std::memory_order_acquire)) != 0;)
      batch->remaining.wait(left, std::memory_order_acquire);
  }
  if (batch->first_error) std::rethrow_exception(batch->first_error);
}

ThreadPool& shared_pool() {
  // Lazily constructed on first parallel call and reused for the rest of the
  // process — spawning and joining a fresh pool per call costs more than the
  // work it parallelizes for short loops.  Function-local static
  // initialization is thread-safe; workers are joined at exit.
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  shared_pool().parallel_for(count, body);
}

}  // namespace sssw::util
