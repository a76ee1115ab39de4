#include "runtime/sweep/thread_pool.hpp"

#include <algorithm>
#include <string>
#include <system_error>

namespace topocon::sweep {

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) : num_threads_(resolve_threads(threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  try {
    for (int i = 1; i < num_threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (const std::system_error& error) {
    // No destructor runs for a half-built pool, and destroying a
    // joinable std::thread terminates the process.
    stop_and_join();
    throw std::system_error(error.code(), "cannot start " +
                                              std::to_string(num_threads_) +
                                              " threads");
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::run_one(std::unique_lock<std::mutex>& lock) {
  for (Batch* batch : batches_) {
    if (batch->next >= batch->count) continue;
    const std::size_t index = batch->next++;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*batch->fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !batch->error) batch->error = error;
    if (++batch->done == batch->count) {
      batches_.erase(std::find(batches_.begin(), batches_.end(), batch));
      cv_.notify_all();
    }
    return true;
  }
  return false;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (run_one(lock)) continue;
    if (stop_) return;
    cv_.wait(lock);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    // The caller would claim the only index itself; skip the queue and
    // the wake-up of idle workers.
    fn(0);
    return;
  }
  Batch batch;
  batch.fn = &fn;
  batch.count = count;
  std::unique_lock<std::mutex> lock(mutex_);
  batches_.push_back(&batch);
  cv_.notify_all();
  // Participate until our batch is fully claimed, then help other batches
  // (nested parallel_for calls land there) while its tail runs elsewhere.
  while (batch.done < batch.count) {
    if (run_one(lock)) continue;
    cv_.wait(lock);
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace topocon::sweep
