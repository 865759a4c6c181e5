// Tests for util/thread_pool: parallel_for coverage, exceptions, futures.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sssw::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleItem) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::logic_error("nope"); });
  EXPECT_THROW(future.get(), std::logic_error);
}

TEST(ThreadPool, ManySubmits) {
  ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t i = 0; i < 200; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (std::size_t i = 0; i < 200; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, SizeReflectsWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeNonZero) {
  ThreadPool pool;
  EXPECT_GT(pool.size(), 0u);
}

TEST(FreeParallelFor, SerialFallbackForTinyCounts) {
  std::vector<int> hits(1, 0);
  parallel_for(1, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
}

TEST(FreeParallelFor, ParallelPath) {
  std::vector<std::atomic<int>> hits(256);
  parallel_for(256, [&](std::size_t i) { ++hits[i]; });
  int total = 0;
  for (const auto& h : hits) total += h.load();
  EXPECT_EQ(total, 256);
}

TEST(FreeParallelFor, SharedPoolIsReused) {
  ThreadPool& first = shared_pool();
  ThreadPool& second = shared_pool();
  EXPECT_EQ(&first, &second);
  EXPECT_GT(first.size(), 0u);
}

TEST(FreeParallelFor, RepeatedCallsStayCorrect) {
  // The free function must not spin up a fresh pool per call; hammering it
  // checks both correctness and that worker reuse doesn't corrupt state.
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::atomic<int>> hits(64);
    parallel_for(64, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long> results(500);
  pool.parallel_for(500, [&](std::size_t i) {
    long sum = 0;
    for (std::size_t k = 0; k <= i; ++k) sum += static_cast<long>(k);
    results[i] = sum;
  });
  for (std::size_t i = 0; i < 500; ++i)
    EXPECT_EQ(results[i], static_cast<long>(i * (i + 1) / 2));
}

TEST(RunParts, RunsEveryPartExactlyOnce) {
  ThreadPool pool(3);
  for (std::size_t parts = 1; parts <= 9; ++parts) {
    for (std::size_t threads = 1; threads <= 5; ++threads) {
      std::vector<std::atomic<int>> hits(parts);
      pool.run_parts(parts, threads, [&](std::size_t p) { ++hits[p]; });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << parts << "/" << threads;
    }
  }
}

TEST(RunParts, OneThreadRunsEveryPartInOrderOnTheCaller) {
  ThreadPool pool(2);
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  pool.run_parts(6, 1, [&](std::size_t p) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(p);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(RunParts, RethrowsAfterEveryPartRan) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(5);
  EXPECT_THROW(pool.run_parts(5, 3,
                              [&](std::size_t p) {
                                ++hits[p];
                                if (p == 2) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunParts, CallerTakesTheBlockOfABusyWorker) {
  // The only worker is held by another task, so the caller must run the
  // worker's block itself rather than wait for it.
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    started = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::vector<std::thread::id> ran(8);
  pool.run_parts(8, 2, [&](std::size_t p) { ran[p] = std::this_thread::get_id(); });
  for (const auto& id : ran) EXPECT_EQ(id, std::this_thread::get_id());
  release = true;
  blocker.get();
}

TEST(RunParts, CompletesFromInsidePoolTasksThatOccupyEveryWorker) {
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<int> total{0};
  std::vector<std::future<void>> outer;
  for (int t = 0; t < 2; ++t) {
    outer.push_back(pool.submit([&] {
      ++started;
      while (started.load() < 2) std::this_thread::yield();
      pool.run_parts(8, 4, [&](std::size_t) { ++total; });
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(total.load(), 16);
}

TEST(RunParts, BackToBackCallsStayCorrect) {
  ThreadPool pool(4);
  std::vector<long> sums(16, 0);
  for (int rep = 0; rep < 2000; ++rep)
    pool.run_parts(16, 4, [&](std::size_t p) { sums[p] += static_cast<long>(p) + 1; });
  for (std::size_t p = 0; p < 16; ++p) EXPECT_EQ(sums[p], 2000 * static_cast<long>(p + 1));
}

TEST(ChunkBounds, ChunkOfInvertsTheSplitThatParallelForChunkedRuns) {
  for (std::size_t count = 1; count <= 40; ++count) {
    for (std::size_t chunks = 1; chunks <= count; ++chunks) {
      const ChunkBounds split(count, chunks);
      std::vector<std::size_t> owner(count, chunks);
      parallel_for_chunked(count, chunks,
                           [&](std::size_t c, std::size_t begin, std::size_t end) {
                             EXPECT_EQ(begin, split.begin(c));
                             EXPECT_EQ(end, split.begin(c + 1));
                             for (std::size_t i = begin; i < end; ++i) owner[i] = c;
                           });
      EXPECT_EQ(split.begin(chunks), count);
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(split.chunk_of(i), owner[i]) << count << "/" << chunks << " @" << i;
    }
  }
}

}  // namespace
}  // namespace sssw::util
