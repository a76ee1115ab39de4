// Fixed-size work-helping thread pool for the sweep engine.
//
// Design goals, in order: determinism of the *callers* (the pool itself
// never orders results -- callers write into index-addressed slots and do
// any order-dependent merging after parallel_for returns), safe nesting
// (a task may itself call parallel_for), and graceful degradation to
// serial execution (threads = 1 spawns no workers at all, so single-core
// containers and TSan runs exercise the exact same code path).
//
// Nesting is deadlock-free by construction: the thread that submits a
// batch participates in it until every index is claimed, and while
// waiting for in-flight indices it executes tasks of *other* pending
// batches instead of blocking. Hence no thread ever sleeps while
// unclaimed work exists.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/parallel_for.hpp"

namespace topocon::sweep {

/// Resolves a thread-count request: values >= 1 are returned unchanged,
/// 0 means std::thread::hardware_concurrency() (at least 1).
int resolve_threads(int requested);

class ThreadPool {
 public:
  /// A pool of `threads` execution lanes total: `threads - 1` workers are
  /// spawned and the thread calling parallel_for is the last lane.
  /// threads = 0 resolves to hardware_concurrency(). When a worker
  /// cannot start, joins the ones that did and throws std::system_error
  /// ("cannot start N threads: <reason>").
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(0), ..., fn(count - 1), distributed over the pool. Returns
  /// when all calls have finished. The calling thread participates; the
  /// assignment of indices to threads is nondeterministic, so fn must
  /// confine its effects to per-index state. The first exception thrown
  /// by any fn is rethrown here (remaining indices still run).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// parallel_for as the core layer's fork-join shape
  /// (core/parallel_for.hpp), for the level driver and component
  /// labelling. The pool must outlive every use of the result.
  ParallelFor as_parallel_for() {
    return [this](std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
      parallel_for(count, fn);
    };
  }

 private:
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;  // next index to claim
    std::size_t done = 0;  // completed indices
    std::exception_ptr error;
  };

  /// Claims and runs one index of any batch with unclaimed work.
  /// Returns false if no such batch exists. Called with `lock` held;
  /// releases it around the user function.
  bool run_one(std::unique_lock<std::mutex>& lock);

  void worker_loop();
  void stop_and_join();

  std::mutex mutex_;
  std::condition_variable cv_;  // new work and batch completions
  std::vector<Batch*> batches_;
  std::vector<std::thread> workers_;
  int num_threads_ = 1;
  bool stop_ = false;
};

}  // namespace topocon::sweep
