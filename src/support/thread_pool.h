// A small work-queue thread pool for the analysis pipeline. Jobs are
// plain std::function<void()>; submit() enqueues, wait() drains. The
// pipeline layers parallelFor() on top: a shared atomic index hands out
// loop iterations to however many workers the pool owns, so results can
// be written into pre-sized slots and stay deterministic regardless of
// scheduling order.
//
// Thread count resolution (defaultJobs): the FSDEP_JOBS environment
// variable when set to a positive integer, else hardware_concurrency.
// A pool of size 1 never spawns threads — every job runs inline on the
// calling thread, which keeps single-core containers and --jobs 1 runs
// free of synchronization overhead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fsdep {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the submitting thread is the extra
  /// worker during wait()); 0 means defaultJobs().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Jobs must not throw past their own body; use
  /// parallelFor for exception-propagating loops.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished. The calling thread
  /// participates in draining the queue.
  void wait();

  [[nodiscard]] std::size_t threadCount() const { return thread_count_; }

  /// FSDEP_JOBS env var when a positive integer, else
  /// std::thread::hardware_concurrency() (minimum 1).
  static std::size_t defaultJobs();

  /// Process-wide pool, lazily constructed with globalJobs() threads.
  static ThreadPool& global();

  /// Overrides the size of the global pool (the CLI's --jobs flag).
  /// Takes effect on the next global() call; an already-built pool of a
  /// different size is replaced when idle.
  static void setGlobalJobs(std::size_t jobs);
  static std::size_t globalJobs();

  /// Runs fn(i) for every i in [0, n) across `jobs` workers of the
  /// global pool (serially when jobs <= 1 or n <= 1) and rethrows the
  /// first exception any iteration threw. Iterations are handed out by
  /// an atomic counter in chunks (~8 per worker), so amplified-corpus
  /// loops over thousands of small components pay one atomic operation
  /// per chunk instead of per iteration while keeping late-chunk
  /// stealing for load balance; fn must tolerate any execution order.
  ///
  /// A parallelFor called from inside another loop's body runs serially
  /// on the calling thread: the outer loop already occupies the pool,
  /// and waiting on it from one of its own jobs would never return.
  template <typename Fn>
  static void parallelFor(std::size_t n, std::size_t jobs, Fn&& fn);

 private:
  /// True while this thread runs a parallelFor body (see above).
  static inline thread_local bool in_loop_body_ = false;

  void workerLoop();
  bool runOneJob(std::unique_lock<std::mutex>& lock);

  std::size_t thread_count_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

template <typename Fn>
void ThreadPool::parallelFor(std::size_t n, std::size_t jobs, Fn&& fn) {
  if (jobs == 0) jobs = globalJobs();
  if (n <= 1 || jobs <= 1 || in_loop_body_) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = global();
  std::shared_ptr<std::atomic<std::size_t>> next =
      std::make_shared<std::atomic<std::size_t>>(0);
  std::shared_ptr<std::mutex> err_mu = std::make_shared<std::mutex>();
  std::shared_ptr<std::exception_ptr> first_error = std::make_shared<std::exception_ptr>();

  const std::size_t tasks = jobs < n ? jobs : n;
  // ~8 chunks per worker: coarse enough that the shared counter is cold,
  // fine enough that a straggler chunk can't serialize the tail.
  std::size_t chunk = n / (tasks * 8);
  if (chunk == 0) chunk = 1;

  auto body = [n, chunk, next, err_mu, first_error, &fn]() {
    in_loop_body_ = true;
    struct Unmark {  // cleared on every way out of the body
      ~Unmark() { in_loop_body_ = false; }
    } unmark;
    for (;;) {
      const std::size_t begin = next->fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = begin + chunk < n ? begin + chunk : n;
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(*err_mu);
          if (!*first_error) *first_error = std::current_exception();
        }
      }
    }
  };
  // One task per worker slot; each loops over the shared index.
  for (std::size_t t = 1; t < tasks; ++t) pool.submit(body);
  body();  // the calling thread is worker 0
  pool.wait();
  if (*first_error) std::rethrow_exception(*first_error);
}

}  // namespace fsdep
