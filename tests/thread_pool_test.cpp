// ThreadPool / parallelFor coverage: index coverage, determinism of the
// write-into-slots pattern, exception propagation, FSDEP_JOBS resolution.
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fsdep {
namespace {

TEST(ThreadPool, SubmitAndWaitRunsEveryJob) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1u);
  int ran = 0;  // no atomics needed: everything runs on this thread
  pool.submit([&ran] { ++ran; });
  pool.submit([&ran] { ++ran; });
  pool.wait();
  EXPECT_EQ(ran, 2);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), (round + 1) * 20);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool::parallelFor(kN, 4, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, WritesIntoPreSizedSlotsMatchSerial) {
  constexpr std::size_t kN = 257;
  std::vector<int> serial(kN), parallel(kN);
  ThreadPool::parallelFor(kN, 1, [&serial](std::size_t i) {
    serial[i] = static_cast<int>(i * i % 97);
  });
  ThreadPool::parallelFor(kN, 8, [&parallel](std::size_t i) {
    parallel[i] = static_cast<int>(i * i % 97);
  });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, ZeroAndOneIterationAreFine) {
  int ran = 0;
  ThreadPool::parallelFor(0, 4, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  ThreadPool::parallelFor(1, 4, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      ThreadPool::parallelFor(64, 4,
                              [](std::size_t i) {
                                if (i == 13) throw std::runtime_error("boom");
                              }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionDoesNotPoisonThePool) {
  try {
    ThreadPool::parallelFor(8, 4, [](std::size_t) { throw std::runtime_error("boom"); });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error&) {
  }
  // The global pool must still work after a failed loop.
  std::atomic<int> ran{0};
  ThreadPool::parallelFor(32, 4, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelFor, NestedLoopRunsInlineAndCoversEveryPair) {
  // The inner loops run inside pool jobs; fanning them out would wait on
  // the pool from one of its own jobs and never return.
  constexpr std::size_t kN = 8;
  std::vector<std::atomic<int>> hits(kN * kN);
  ThreadPool::parallelFor(kN, 4, [&hits](std::size_t i) {
    ThreadPool::parallelFor(kN, 4, [&hits, i](std::size_t j) { hits[i * kN + j].fetch_add(1); });
  });
  for (std::size_t k = 0; k < kN * kN; ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "pair " << k / kN << "," << k % kN;
  }
  // The pool still fans out afterwards.
  std::atomic<int> ran{0};
  ThreadPool::parallelFor(32, 4, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32);
}

TEST(DefaultJobs, ReadsFsdepJobsEnvVar) {
  ::setenv("FSDEP_JOBS", "7", 1);
  EXPECT_EQ(ThreadPool::defaultJobs(), 7u);
  ::setenv("FSDEP_JOBS", "0", 1);  // not a positive integer: falls back
  EXPECT_GE(ThreadPool::defaultJobs(), 1u);
  ::setenv("FSDEP_JOBS", "bogus", 1);
  EXPECT_GE(ThreadPool::defaultJobs(), 1u);
  ::unsetenv("FSDEP_JOBS");
  EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(GlobalPool, SetGlobalJobsResizes) {
  const std::size_t before = ThreadPool::globalJobs();
  ThreadPool::setGlobalJobs(3);
  EXPECT_EQ(ThreadPool::globalJobs(), 3u);
  EXPECT_EQ(ThreadPool::global().threadCount(), 3u);
  ThreadPool::setGlobalJobs(before);
  EXPECT_EQ(ThreadPool::globalJobs(), before);
}

}  // namespace
}  // namespace fsdep
